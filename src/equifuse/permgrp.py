"""Finite permutation groups: full enumeration, subgroups, cosets, double
cosets, actions by automorphisms, orbits, stabilizers and the subgroup
lattice.

Everything is index-based: a group's elements are sorted lexicographically by
image tuple (so the identity is always index 0) and all derived structure
(multiplication table, classes, cosets) refers to elements by their position
in that canonical order.

One rule picks every representative: it is the least element of its orbit
(conjugacy class, coset, double coset, orbit of an action), read off as a
column minimum of one gathered table, with no loop over elements.
"""

from __future__ import annotations

import bisect
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

    @classmethod
    def _trusted(cls, images: tuple) -> "Perm":
        """A Perm from a tuple of ints already known to be a permutation."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

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
        return math.lcm(*map(len, self.cycles()))

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

    Without `mult`, the list is checked to be the group its generators
    generate (ValueError otherwise): strictly increasing and closed on the
    first points (`_kernels.mult_table`), the products by each generator
    equal in full to the elements the table names, and every element
    reached from the identity along them.  A given `mult` is trusted, and so
    are `images`, the element images as rows, from callers that hold them
    already; with both, `elements` may be None.  Every computation reads
    the rows; Perms are made only for `elements`, `perm` and generators.
    """

    def __init__(self, elements, generators, mult=None, images=None):
        self.generators = tuple(generators)
        if images is None:
            images = np.array([e.images for e in elements], dtype=np.int32)
        self.images = np.ascontiguousarray(images, dtype=np.int32)
        self.degree = self.images.shape[1]
        if not (self.images[0] == np.arange(self.degree)).all():
            raise ValueError("element list must be lex-sorted (identity first)")
        if mult is None:
            self.mult = _kernels.mult_table(self.images)
            try:
                gens = [self.element_index(g) for g in self.generators]
            except ElementNotInGroup:
                raise ValueError("a generator is not in the element list") from None
            if not (
                all((self.images[self.mult[:, g]] == self.images[:, self.images[g]]).all()
                    for g in gens)
                and _close(self, None, gens).all()
            ):
                raise ValueError("element list is not the group its generators generate")
        else:
            self.mult = np.ascontiguousarray(mult, dtype=np.int32)
        self.inv = np.argmax(self.mult == 0, axis=1).astype(np.int32)
        self._char_tables: dict[int, object] = {}
        self._lattice = None
        self._conj_index = None

    @cached_property
    def elements(self) -> tuple:
        """The elements as Perms, in index order, made on first read."""
        return tuple(Perm._trusted(row) for row in map(tuple, self.images.tolist()))

    @property
    def order(self) -> int:
        return len(self.images)

    def perm(self, i: int) -> Perm:
        return Perm._trusted(tuple(self.images[i].tolist()))

    def element_index(self, perm) -> int:
        """Index of a Perm, or of an image row, by binary search of the
        lex-sorted rows; ElementNotInGroup if it is not one of them."""
        images = tuple(perm.images if isinstance(perm, Perm) else np.asarray(perm).tolist())
        i = bisect.bisect_left(range(self.order), images, key=self._row)
        if i == self.order or self._row(i) != images:
            raise ElementNotInGroup(f"{perm!r} not in group")
        return i

    def _row(self, i: int) -> tuple:
        return tuple(self.images[i].tolist())

    def element_order(self, i: int) -> int:
        return self._rep_orders[self.class_of[i]]

    def exponent(self) -> int:
        return math.lcm(*self._rep_orders)

    @cached_property
    def _rep_orders(self) -> list:
        """[c] = the order of r = class_reps[c], the least t with r^t = e, for all c at once."""
        reps = power = self.class_reps
        orders, t = np.zeros(len(reps), dtype=np.int64), 1
        while not orders.all():
            orders[(power == 0) & (orders == 0)] = t
            power, t = self.mult[power, reps], t + 1
        return orders.tolist()

    @cached_property
    def _class_data(self):
        """Each class is represented by its least member: the column minima
        of the conjugates x g x^-1."""
        rep_of = self.conjugation_table.min(0)
        reps = np.flatnonzero(rep_of == np.arange(len(rep_of))).astype(np.int32)
        class_of = np.searchsorted(reps, rep_of).astype(np.int32)
        classes = [np.flatnonzero(rep_of == r).astype(np.int32) for r in reps]
        sizes = np.array([len(c) for c in classes], dtype=np.int64)
        inverse_class = class_of[self.inv[reps]]
        return class_of, reps, classes, sizes, inverse_class

    @cached_property
    def conjugation_table(self) -> np.ndarray:
        """cg[x, g] = the index of x g x^-1."""
        return self.mult[self.mult, self.inv[:, None]]

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
            mask = _close(self, None, seed)
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
            span = _close(self.parent, None, [])
            for i in self._members:
                i = int(i)
                if not span[i]:
                    gens.append(i)
                    span = _close(self.parent, span, [i])
                    if span.sum() == self.order:
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
            gens = [self.parent.perm(g) for g in self.generators]
            grp = Group(None, gens, mult=sub_mult, images=images)
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


def _close(G: Group, base, extra) -> np.ndarray:
    """Membership mask of the subgroup generated by the subgroup with mask
    `base` (None for the trivial subgroup) and the element indices `extra`.

    Breadth-first over a numpy frontier: multiply every frontier element on
    the right by every generator (the members of base and extra), keep the
    products not yet in the mask, repeat.  Starting from the new generators
    this reaches all of <S, E>: in a finite group inverses are positive
    powers, so every element b of <S, E> is a positive word in S and E, and
    if b is outside S then some g in E is outside S and b = g^{o(g)} b =
    g (g^{o(g)-1} b) is g followed by a positive word.
    """
    mask = np.zeros(G.order, dtype=bool) if base is None else base.copy()
    mask[0] = True
    extra = np.asarray(extra, dtype=np.int64)
    new = np.zeros(G.order, dtype=bool)
    new[extra] = True
    gens = np.flatnonzero(mask | new)
    new &= ~mask
    while new.any():
        mask |= new
        products = G.mult[np.flatnonzero(new)][:, gens].ravel()
        new = np.zeros(G.order, dtype=bool)
        new[products] = True
        new &= ~mask
    return mask


def build_group(generators, degree=None, cap=None) -> Group:
    """Enumerate the group generated by `generators`, with its
    multiplication table.

    Breadth first on int32 image rows: each round multiplies every
    generator by the whole frontier at once (g * x has the images g[x]) and
    looks each product up by its bytes, so left[g][x] = g * x is known
    exactly for every element x.  The table follows from those maps along
    the search tree: e * a = a, and (g x) a = g (x a), so the row of a
    child g x is left[g] applied to its parent's row, one gather per round
    and generator.  No `Perm` is made for an element.
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
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    gen_images = np.array([g.images for g in gens], dtype=np.int32).reshape(len(gens), degree)
    found = [np.arange(degree, dtype=np.int32)]
    index = {found[0].tobytes(): 0}
    # per generator: (x, g * x) for every x; per round and generator: the
    # (child, parent) pairs of the search tree; all in discovery numbers
    left = [[] for _ in gens]
    tree = []
    frontier = [0]
    while frontier:
        products = gen_images[:, np.stack([found[x] for x in frontier])]
        edges = [[] for _ in gens]
        new = []
        for j, rows in enumerate(products):
            for x, row in zip(frontier, rows):
                key = row.tobytes()
                y = index.get(key)
                if y is None:
                    if len(index) >= cap:
                        raise OrderCapExceeded(f"group order exceeds cap {cap}")
                    y = index[key] = len(found)
                    found.append(row)
                    new.append(y)
                    edges[j].append((y, x))
                left[j].append((x, y))
        tree.append(edges)
        frontier = new
    images = np.stack(found)
    n = len(found)
    order = np.lexsort(images.T[::-1])
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    maps = []
    for pairs in left:
        x, y = rank[np.array(pairs, dtype=np.int64).reshape(-1, 2).T]
        m = np.empty(n, dtype=np.int32)
        m[x] = y
        maps.append(m)
    mult = np.empty((n, n), dtype=np.int32)
    mult[0] = np.arange(n, dtype=np.int32)
    for edges in tree:
        for m, pairs in zip(maps, edges):
            if pairs:
                child, parent = rank[np.array(pairs, dtype=np.int64).T]
                mult[child] = m[mult[parent]]
    uniq_gens = []
    for g in gens:
        if g not in uniq_gens:
            uniq_gens.append(g)
    return Group(None, uniq_gens, mult=mult, images=images[order])


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
    return double_coset_reps(G, G.trivial_subgroup(), H)


def double_coset_reps(G: Group, K: Subgroup, H: Subgroup) -> np.ndarray:
    """Lex-minimal representatives x of the double cosets KxH, increasing.

    Two gathers and a min: [y] = min(yH) for every y, then [x] = min over k
    in K of min(kxH) = min(KxH) for every x, and x is a representative iff
    it is that minimum.  This is the set of the scan that keeps each
    unassigned x and assigns KxH: the scan meets the least element of
    every double coset first, and every other element after it.  The
    transients are |G| x |H| and |K| x |G| int32, each at most one
    multiplication table."""
    if K.parent is not G or H.parent is not G:
        raise NotASubgroup("subgroups belong to a different group")
    coset_min = G.mult[:, H.members].min(axis=1)
    double_min = coset_min[G.mult[K.members]].min(axis=0)
    return np.flatnonzero(double_min == np.arange(G.order)).astype(np.int32)


class GroupAction:
    """Action of a group F on the element list of a group G, stored as one
    permutation row of G-indices per F-element.

    Construction verifies that each generator row is an automorphism of G
    and that row(s y) = row(s) row(y) for every generator s and every y in
    F.  With row(e) = id, induction on the length of x as a word in the
    generators gives row(x y) = row(x) row(y) for all x and y
    (row(s x y) = row(s) row(x y) = row(s) row(x) row(y) = row(s x) row(y)),
    so the table is a homomorphism F -> Aut(G).
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
        pm = self.point_maps
        for g in actor.generators:
            s = actor.element_index(g)
            self._check_automorphism(pm[s])
            for ys in _kernels.chunks(actor.order, 8 * target.order):
                if not np.array_equal(pm[actor.mult[s, ys]], pm[s][pm[ys]]):
                    raise ValueError("action table is not a homomorphism")

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
        """Build the full table from one row per actor generator index; each
        row must hold |target| integer indices into the target's elements."""
        n, m = actor.order, target.order
        pm = np.full((n, m), -1, dtype=np.int32)
        pm[0] = np.arange(m, dtype=np.int32)
        gen_idx = [actor.element_index(g) for g in actor.generators]
        gen_rows = {}
        for i, gi in enumerate(gen_idx):
            row = np.asarray(rows[i])
            if row.shape != (m,) or row.dtype.kind not in "iu":
                raise ValueError(f"row {i} is not {m} integers")
            if ((row < 0) | (row >= m)).any():
                raise ValueError(f"row {i} has an entry outside 0..{m - 1}")
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
        return cls(G, G, G.conjugation_table)

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
    rep_of = rows.min(0)
    out = []
    for p in np.flatnonzero(rep_of == np.arange(len(rep_of))).tolist():
        stab_mask = np.zeros(action.actor.order, dtype=bool)
        stab_mask[members[rows[:, p] == p]] = True
        orb = np.flatnonzero(rep_of == p).astype(np.int32)
        out.append((p, orb, Subgroup(action.actor, stab_mask, None, _verified=True)))
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


def conjugates(S: Subgroup):
    """(subs, which): the distinct conjugates xSx^-1 of S in order of their
    least x (subs[0] is S), and which[x] = the position of xSx^-1 in subs.

    The class of S as an orbit under conjugation (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005): gathers
    cg[xs][:, S.members] of cg[x, g] = x g x^-1 (`Group.conjugation_table`)
    give the members of every conjugate, with generators cg[x, gens], told
    apart by packed masks.  The masks are made a chunk of x at a time, each
    chunk's bool array at most `_kernels.GATHER_BYTES`, and each new
    conjugate keeps a copy of its own row, so no |G| x |G| array is made or
    kept alive."""
    G = S.parent
    cg = G.conjugation_table
    gens = np.asarray(S.generators, dtype=np.int64)
    seen, subs = {}, []
    which = np.empty(G.order, dtype=np.int64)
    for xs in _kernels.chunks(G.order, G.order):
        x0 = xs.start
        conj = cg[xs][:, S.members]
        masks = np.zeros((len(conj), G.order), dtype=bool)
        masks[np.arange(len(conj))[:, None], conj] = True
        for x, key in enumerate(np.packbits(masks, axis=1), x0):
            key = key.tobytes()
            if key not in seen:
                seen[key] = len(subs)
                subs.append(S if x == 0 else Subgroup(G, masks[x - x0].copy(),
                                                      cg[x, gens].tolist(), _verified=True))
            which[x] = seen[key]
    return subs, which


def subgroup_lattice(G: Group, cap=None):
    """All subgroups of G, ordered by (order, member tuple), built one
    conjugacy class at a time.  Cached on the group, with the lattice index
    of every conjugate (`conjugation_index`).

    Cyclic extension (Neubuser, Numer. Math. 2, 1960; Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005): every subgroup
    is reached from the trivial one by adding one element at a time, and
    <S, g> depends only on the coset gS and on the cyclic group <g>.
    Lemma: x<S, g>x^-1 = <xSx^-1, xgx^-1>.  So if the recorded set is closed
    under conjugation, extending one subgroup S of each class by every g
    finds every extension of every conjugate xSx^-1: <xSx^-1, g> is the
    conjugate by x of <S, x^-1 g x>.  Each new subgroup therefore enters with
    its whole class (`conjugates`).  The seeds are the cyclic subgroups of
    the class representatives, since <xrx^-1> = x<r>x^-1: the elements are
    walked in index order, skipping every r whose cyclic group is already
    recorded with its class, and the first element of a class met that way
    is its least, the representative.  An extension tries one g per coset
    gS and per cyclic group <g>."""
    cap = lattice_cap() if cap is None else cap
    if G.order > cap:
        raise OrderCapExceeded(f"order {G.order} exceeds lattice cap {cap}")
    if G._lattice is not None:
        return G._lattice
    cg = G.conjugation_table
    found: dict[bytes, Subgroup] = {}
    classes = []
    # [g] = number of the recorded cyclic subgroup <g>, -1 until recorded
    cyclic = np.full(G.order, -1, dtype=np.int64)

    def record(mask, gens) -> Subgroup:
        S = Subgroup(G, mask, gens, _verified=True)
        classes.append(conjugates(S))
        for sub in classes[-1][0]:
            found[sub.key] = sub
        return S

    record(np.arange(G.order) == 0, ())
    worklist = []
    for r in range(1, G.order):
        if cyclic[r] >= 0:
            continue
        powers = [0, r]
        while powers[-1]:
            powers.append(int(G.mult[powers[-1], r]))
        powers.pop()
        mask = np.zeros(G.order, dtype=bool)
        mask[powers] = True
        base = len(found)
        worklist.append(record(mask, (r,)))
        # the generators r^k (k prime to |<r>|) of <r>, then of each conjugate
        gens = [g for k, g in enumerate(powers) if math.gcd(k, len(powers)) == 1]
        cyclic[cg[:, gens]] = (base + classes[-1][1])[:, None]
    cyclic = cyclic.tolist()
    while worklist:
        S = worklist.pop()
        if S.order == G.order:
            continue
        tried = set()
        for g in left_coset_reps(G, S)[1:].tolist():
            if cyclic[g] in tried:
                continue
            tried.add(cyclic[g])
            mask = _close(G, S.mask, [g])
            if np.packbits(mask).tobytes() not in found:
                worklist.append(record(mask, S.generators + (g,)))
    lattice = sorted(found.values(), key=lambda s: (s.order, tuple(s.members)))
    position = {s.key: i for i, s in enumerate(lattice)}
    conj_index = np.empty((len(lattice), G.order), dtype=np.int32)
    for subs, which in classes:
        at = np.array([position[s.key] for s in subs], dtype=np.int32)
        for k, sub in enumerate(subs):
            y = int(np.argmax(which == k))
            # x (y S y^-1) x^-1 = (xy) S (xy)^-1
            conj_index[position[sub.key]] = at[which[G.mult[:, y]]]
    G._lattice, G._conj_index = lattice, conj_index
    return lattice


def conjugation_index(G: Group) -> np.ndarray:
    """conj_index[i, x] = the position in `subgroup_lattice(G)` of
    x lattice[i] x^-1, as an int32 array of shape |L| x |G|."""
    subgroup_lattice(G)
    return G._conj_index
