"""Finite permutation groups: full enumeration, subgroups, cosets, double
cosets, actions by automorphisms, orbits, stabilizers and the subgroup
lattice.

Everything is index-based: a group's elements are sorted lexicographically by
image tuple (so the identity is always index 0) and all derived structure
(multiplication table, classes, cosets) refers to elements by their position
in that canonical order.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import _kernels
from .config import lattice_cap, order_cap
from .errors import (
    DegreeMismatch,
    ElementNotInGroup,
    NotASubgroup,
    NotInSameOrbit,
    OrderCapExceeded,
)


class Perm:
    """A permutation of {0, ..., degree-1} stored as its tuple of images.

    Products compose like functions: (x * y)(p) == x(y(p)), i.e. y acts
    first.  This matches the action convention map(x, map(y, p)) == map(xy, p)
    used throughout the package.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(int(v) for v in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs}")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Perm":
        imgs = list(range(degree))
        for cyc in cycles:
            cyc = [int(c) for c in cyc]
            for c in cyc:
                if not 0 <= c < degree:
                    raise ValueError(f"point {c} out of range for degree {degree}")
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {cyc}")
            for i, c in enumerate(cyc):
                imgs[c] = cyc[(i + 1) % len(cyc)]
        return cls(imgs)

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}"
            )
        return Perm(tuple(self.images[v] for v in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(inv)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def cycles(self):
        """Nontrivial cycles, each starting at its minimal point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Perm{self.cycle_string()}"


# canonical instances of subgroup element-sets, shared across parents so that
# character tables computed for a subgroup are reused wherever it reappears
_canonical_groups: dict[bytes, "Group"] = {}


class Group:
    """A fully enumerated permutation group.

    `elements` is sorted lexicographically by image tuple, `mult[a, b]` is the
    index of elements[a] * elements[b], and `inv[a]` the index of the inverse.
    Instances are immutable after construction (internal caches only ever add
    derived data).
    """

    def __init__(self, elements, generators, mult=None):
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.degree = self.elements[0].degree
        n = len(self.elements)
        self.images = np.array([e.images for e in self.elements], dtype=np.int32)
        self.index = {e.images: i for i, e in enumerate(self.elements)}
        if self.elements[0].images != tuple(range(self.degree)):
            raise ValueError("element list must be lex-sorted (identity first)")
        self.mult = (
            np.ascontiguousarray(mult, dtype=np.int32)
            if mult is not None
            else _kernels.mult_table(self.images)
        )
        self.inv = np.argmax(self.mult == 0, axis=1).astype(np.int32)
        self._subgroup_groups: dict[bytes, Group] = {}
        self._char_tables: dict[int, object] = {}
        self._lattice = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def perm(self, i: int) -> Perm:
        return self.elements[i]

    def element_index(self, perm: Perm) -> int:
        try:
            return self.index[perm.images]
        except KeyError:
            raise ElementNotInGroup(f"{perm!r} not in group") from None

    def element_order(self, i: int) -> int:
        return self.elements[i].order()

    def exponent(self) -> int:
        return math.lcm(*(self.elements[r].order() for r in self.class_reps))

    @cached_property
    def _class_data(self):
        n = self.order
        class_of = np.full(n, -1, dtype=np.int32)
        classes = []
        for i in range(n):
            if class_of[i] >= 0:
                continue
            t = self.mult[:, i]
            conj = np.unique(self.mult[t, self.inv])
            class_of[conj] = len(classes)
            classes.append(conj.astype(np.int32))
        reps = np.array([c[0] for c in classes], dtype=np.int32)
        sizes = np.array([len(c) for c in classes], dtype=np.int64)
        inverse_class = class_of[self.inv[reps]].astype(np.int32)
        return class_of, reps, classes, sizes, inverse_class

    @property
    def class_of(self) -> np.ndarray:
        return self._class_data[0]

    @property
    def class_reps(self) -> np.ndarray:
        return self._class_data[1]

    @property
    def classes(self):
        return self._class_data[2]

    @property
    def class_sizes(self) -> np.ndarray:
        return self._class_data[3]

    @property
    def inverse_class(self) -> np.ndarray:
        return self._class_data[4]

    @property
    def num_classes(self) -> int:
        return len(self._class_data[2])

    def subgroup(self, indices=None, mask=None, generators=None) -> "Subgroup":
        """Subgroup from a generating set of element indices, or directly
        from a membership mask (which must already be closed)."""
        if mask is None:
            seed = [int(i) for i in (indices or [])]
            for i in seed:
                if not 0 <= i < self.order:
                    raise ElementNotInGroup(f"index {i}")
            members = _close(self, [], seed)
            mask = np.zeros(self.order, dtype=bool)
            mask[members] = True
            generators = tuple(seed)
        return Subgroup(self, np.asarray(mask, dtype=bool), generators)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(
            self,
            np.ones(self.order, dtype=bool),
            tuple(self.element_index(g) for g in self.generators),
            _verified=True,
        )

    def trivial_subgroup(self) -> "Subgroup":
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        return Subgroup(self, mask, (), _verified=True)

    def __repr__(self):
        return f"Group(degree={self.degree}, order={self.order})"


class Subgroup:
    """Subgroup of a parent group, identified by a membership mask."""

    __slots__ = ("parent", "mask", "_gens", "_members", "_key", "_group")

    def __init__(self, parent: Group, mask, generators=None, _verified=False):
        self.parent = parent
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != (parent.order,):
            raise NotASubgroup("mask length does not match parent order")
        if not self.mask[0]:
            raise NotASubgroup("subgroup must contain the identity")
        self._members = np.nonzero(self.mask)[0].astype(np.int32)
        if not _verified:
            sub = parent.mult[np.ix_(self._members, self._members)]
            if not self.mask[sub].all():
                raise NotASubgroup("member set is not closed under composition")
        self._gens = tuple(int(g) for g in generators) if generators is not None else None
        self._key = np.packbits(self.mask).tobytes()
        self._group = None

    @property
    def members(self) -> np.ndarray:
        return self._members

    @property
    def order(self) -> int:
        return len(self._members)

    @property
    def key(self) -> bytes:
        return self._key

    @property
    def generators(self):
        """A generating set of parent element indices (greedy if not given)."""
        if self._gens is None:
            gens = []
            span = [0]
            for i in self._members:
                i = int(i)
                if i not in span:
                    gens.append(i)
                    span = _close(self.parent, span, [i])
                    if len(span) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def group(self) -> Group:
        """The subgroup as a standalone Group.

        Element sets are deduplicated through a global registry, so the same
        subgroup reached through different parents yields the same object
        (and hence shares cached character tables).
        """
        if self._group is not None:
            return self._group
        members = self._members
        images = self.parent.images[members]
        gkey = images.tobytes() + self.parent.degree.to_bytes(4, "little")
        grp = _canonical_groups.get(gkey)
        if grp is None:
            pos = np.full(self.parent.order, -1, dtype=np.int32)
            pos[members] = np.arange(len(members), dtype=np.int32)
            sub_mult = pos[self.parent.mult[np.ix_(members, members)]]
            elems = [self.parent.elements[int(i)] for i in members]
            gens = [self.parent.elements[int(g)] for g in self.generators]
            grp = Group(elems, gens, mult=sub_mult)
            _canonical_groups[gkey] = grp
        self._group = grp
        return grp

    def contains(self, other: "Subgroup") -> bool:
        return bool((self.mask | other.mask == self.mask).all())

    def conjugate(self, x: int) -> "Subgroup":
        """The subgroup x * self * x^-1 (x a parent element index)."""
        G = self.parent
        if not 0 <= x < G.order:
            raise ElementNotInGroup(f"index {x}")
        conj = G.mult[G.mult[x, self._members], G.inv[x]]
        mask = np.zeros(G.order, dtype=bool)
        mask[conj] = True
        gens = tuple(int(G.mult[G.mult[x, g], G.inv[x]]) for g in self.generators)
        return Subgroup(G, mask, gens, _verified=True)

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if other.parent is not self.parent:
            raise NotASubgroup("intersection needs a common parent")
        return Subgroup(self.parent, self.mask & other.mask, None, _verified=True)

    def viewed_in(self, ambient: "Subgroup") -> "Subgroup":
        """This subgroup as a Subgroup of ambient.group(); requires self <= ambient."""
        if not ambient.contains(self):
            raise NotASubgroup("not contained in the ambient subgroup")
        pos = np.searchsorted(ambient.members, self._members)
        mask = np.zeros(ambient.order, dtype=bool)
        mask[pos] = True
        return Subgroup(ambient.group(), mask, None, _verified=True)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other._key == self._key
        )

    def __hash__(self):
        return hash((id(self.parent), self._key))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"

    def __str__(self):
        return f"H[o{self.order}:{self._members[:4].tolist()}]"


def _close(G: Group, base, extra):
    """Close base (already a subgroup member list) together with extra
    elements under multiplication; returns sorted member indices."""
    mask = np.zeros(G.order, dtype=bool)
    elems = []
    for i in base:
        mask[i] = True
        elems.append(int(i))
    if not mask[0]:
        mask[0] = True
        elems.append(0)
    stack = [int(i) for i in extra]
    mult = G.mult
    while stack:
        x = stack.pop()
        if mask[x]:
            continue
        mask[x] = True
        elems.append(x)
        for z in mult[x, elems]:
            if not mask[z]:
                stack.append(int(z))
        for z in mult[elems, x]:
            if not mask[z]:
                stack.append(int(z))
    return sorted(elems)


def build_group(generators, degree=None, cap=None) -> Group:
    """Enumerate the group generated by `generators`.

    Raises OrderCapExceeded as soon as the closure passes the configured cap
    (EQUIFUSE_CAP_ORDER, default 2000).
    """
    cap = order_cap() if cap is None else cap
    gens = list(generators)
    if gens:
        degs = {g.degree for g in gens}
        if len(degs) != 1:
            raise DegreeMismatch(f"generator degrees {sorted(degs)}")
        if degree is not None and degree != gens[0].degree:
            raise DegreeMismatch("explicit degree disagrees with generators")
        degree = gens[0].degree
    elif degree is None:
        raise ValueError("degree is required when there are no generators")
    ident = Perm.identity(degree)
    seen = {ident.images: ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = x * g
            if y.images not in seen:
                if len(seen) >= cap:
                    raise OrderCapExceeded(
                        f"group order exceeds cap {cap}"
                    )
                seen[y.images] = y
                queue.append(y)
    elements = sorted(seen.values())
    uniq_gens = []
    for g in gens:
        if g not in uniq_gens:
            uniq_gens.append(g)
    return Group(elements, uniq_gens)


def conjugacy_classes(G: Group):
    """Classes as (representative index, sorted member array) pairs; the
    representative is the lex-minimal member, the identity class comes first."""
    return [(int(c[0]), c) for c in G.classes]


def centralizer(G: Group, g) -> Subgroup:
    if isinstance(g, Perm):
        g = G.element_index(g)
    if not 0 <= int(g) < G.order:
        raise ElementNotInGroup(f"index {g}")
    g = int(g)
    mask = G.mult[:, g] == G.mult[g, :]
    return Subgroup(G, mask, None, _verified=True)


def left_coset_reps(G: Group, H: Subgroup) -> np.ndarray:
    """Lex-minimal representatives of the left cosets gH, identity first."""
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different group")
    assigned = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if not assigned[g]:
            reps.append(g)
            assigned[G.mult[g, H.members]] = True
    return np.array(reps, dtype=np.int32)


def double_coset_reps(G: Group, K: Subgroup, H: Subgroup) -> np.ndarray:
    """Lex-minimal representatives x of the double cosets KxH."""
    if K.parent is not G or H.parent is not G:
        raise NotASubgroup("subgroups belong to a different group")
    assigned = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if not assigned[g]:
            reps.append(g)
            block = G.mult[np.ix_(G.mult[K.members, g], H.members)]
            assigned[block.ravel()] = True
    return np.array(reps, dtype=np.int32)


class GroupAction:
    """Action of a group F on the element list of a group G, stored as one
    permutation row of G-indices per F-element.

    Construction verifies that generator rows are automorphisms of G, so
    every row is an automorphism (rows compose along the Cayley graph).
    """

    __slots__ = ("actor", "target", "point_maps")

    def __init__(self, actor: Group, target: Group, point_maps: np.ndarray):
        self.actor = actor
        self.target = target
        self.point_maps = np.ascontiguousarray(point_maps, dtype=np.int32)
        if self.point_maps.shape != (actor.order, target.order):
            raise ValueError("point map table has wrong shape")
        if not np.array_equal(self.point_maps[0], np.arange(target.order)):
            raise ValueError("identity must act trivially")
        for g in actor.generators:
            self._check_automorphism(self.point_maps[actor.element_index(g)])

    def _check_automorphism(self, row):
        m = self.target.order
        if not np.array_equal(np.sort(row), np.arange(m)):
            raise ValueError("action row is not a bijection")
        if not np.array_equal(
            row[self.target.mult], self.target.mult[np.ix_(row, row)]
        ):
            raise ValueError("action row is not a group automorphism")

    @classmethod
    def from_generator_rows(cls, actor: Group, target: Group, rows) -> "GroupAction":
        """Build the full table from one row per actor generator index."""
        n, m = actor.order, target.order
        pm = np.full((n, m), -1, dtype=np.int32)
        pm[0] = np.arange(m, dtype=np.int32)
        gen_idx = [actor.element_index(g) for g in actor.generators]
        gen_rows = {}
        for i, gi in enumerate(gen_idx):
            row = np.asarray(rows[i], dtype=np.int32)
            gen_rows[gi] = row
        queue = [0]
        while queue:
            z = queue.pop()
            for gi in gen_idx:
                y = int(actor.mult[gi, z])
                if pm[y, 0] < 0:
                    pm[y] = gen_rows[gi][pm[z]]
                    queue.append(y)
        if (pm < 0).any():
            raise ValueError("generators do not generate the actor group")
        return cls(actor, target, pm)

    @classmethod
    def conjugation(cls, G: Group) -> "GroupAction":
        pm = np.empty((G.order, G.order), dtype=np.int32)
        for x in range(G.order):
            pm[x] = G.mult[G.mult[x, :], G.inv[x]]
        return cls(G, G, pm)

    def apply(self, x: int, p: int) -> int:
        return int(self.point_maps[x, p])


def orbits(action: GroupAction, within: Subgroup | None = None):
    """Orbits of the (sub)action as (rep point, orbit array, stabilizer).

    The representative is the lex-minimal point; the stabilizer is returned
    as a Subgroup of the actor.
    """
    members = within.members if within is not None else np.arange(
        action.actor.order, dtype=np.int32
    )
    if within is not None and within.parent is not action.actor:
        raise NotASubgroup("subgroup belongs to a different group")
    rows = action.point_maps[members]
    m = action.target.order
    seen = np.zeros(m, dtype=bool)
    out = []
    for p in range(m):
        if seen[p]:
            continue
        orb = np.unique(rows[:, p])
        seen[orb] = True
        stab_mask = np.zeros(action.actor.order, dtype=bool)
        stab_mask[members[rows[:, p] == p]] = True
        out.append((p, orb.astype(np.int32), Subgroup(action.actor, stab_mask, None, _verified=True)))
    return out


def transporter(action: GroupAction, p: int, q: int, within: Subgroup | None = None) -> int:
    """The lex-minimal actor element x with map(x, p) == q."""
    members = within.members if within is not None else np.arange(
        action.actor.order, dtype=np.int32
    )
    hits = members[action.point_maps[members, p] == q]
    if hits.size == 0:
        raise NotInSameOrbit(f"points {p} and {q} lie in different orbits")
    return int(hits[0])


def subgroup_lattice(G: Group, cap=None):
    """All subgroups of G, by cyclic-generation plus single-element extension,
    ordered by (order, member tuple).  Cached on the group."""
    cap = lattice_cap() if cap is None else cap
    if G.order > cap:
        raise OrderCapExceeded(f"order {G.order} exceeds lattice cap {cap}")
    if G._lattice is not None:
        return G._lattice
    found: dict[bytes, Subgroup] = {}

    def record(members, gens) -> Subgroup | None:
        mask = np.zeros(G.order, dtype=bool)
        mask[list(members)] = True
        sub = Subgroup(G, mask, gens, _verified=True)
        if sub.key in found:
            return None
        found[sub.key] = sub
        return sub

    worklist = [record([0], ())]
    for i in range(1, G.order):
        members = _close(G, [0], [i])
        sub = record(members, (i,))
        if sub is not None:
            worklist.append(sub)
    while worklist:
        S = worklist.pop()
        assigned = S.mask.copy()
        for g in range(G.order):
            if assigned[g]:
                continue
            assigned[G.mult[g, S.members]] = True
            members = _close(G, list(S.members), [g])
            sub = record(members, S.generators + (g,))
            if sub is not None:
                worklist.append(sub)
    lattice = sorted(found.values(), key=lambda s: (s.order, tuple(s.members)))
    G._lattice = lattice
    return lattice
