"""Fusion rings of equivariantizations of group-graded categories under a
coherent action, at the level of Grothendieck groups, in the strict
cocycle-free setting.

A coherent datum is a group F acting on a group G by automorphisms.  For a
subgroup H <= F, the simple objects are labelled by pairs (orbit
representative g of the H-action on G, irreducible character of the
stabilizer H_g); products are computed two independent ways:

* `fuse` runs the double-coset formula: one conjugation + local product +
  normalization per double coset of H_h \\ H / H_g;
* `fuse_via_M` runs the orbit-sum multiplication on F-invariant graded
  vectors, summing local products over stabilizer-orbit representatives of
  factorizations.  Its table is one row array, `_Engine.orbit_sum_rows`,
  with the nonzero entries of one block added per factorization.

Their agreement on every basis pair is the package's strongest internal
oracle: whenever a full FusionRing is assembled, the two row arrays are
compared once.

Both forms take their local products from `_Engine.m_block`, which gives
every product at a pair of grading points (g, h) as one tensor: by Frobenius
reciprocity the multiplicities of Ind_I^{H_gh}(Res chi_i . Res psi_j) are
inner products over the classes of I = H_g n H_h, so a block is one
`chartab.reciprocity_block`, with no induction sums and no per-irreducible
decomposition.  Every block comes from one cache, `_Engine.block`, keyed by
its subgroups, and every move of a result to the canonical orbit
representative goes through one transport map, `_Engine.slots`, and every
conjugation through one stack per subgroup, `_Engine.conj_stack`.  The
restriction and induction matrices of the simples, and their conjugations
as permutation rows (simple j goes to simple perm[x, j]), are assembled
from those, one orbit representative at a time; the engine does not keep
them, `mackey.MackeyFamily` does.  Of the public per-label functions,
`eq_restrict` and `eq_induce` build one whole matrix and read one column
of it, and `eq_conjugate` reads its one entry off the stacks.
Structure constants travel as int64 [i, j, k, N] rows (module `_rows`),
the nonzero N_ij^k in ascending (i, j, k), from `_Engine.product_rows` to
the ring a `FusionRing` keeps: no (n, n, n) array is built on the way, and
`dense` makes one only for a caller that asks.  Associativity is
`_rows.associativity_failure`: the slices of a generating set of basis
elements, each as joins of rows summed by `np.bincount`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import chartab
from ._rows import associativity_failure, dense, differing_pairs, is_two_sided_unit, summed_rows
from .chartab import ClassFunction, ModularContext, character_table
from .errors import (
    ElementNotInGroup,
    InvalidInput,
    InvariantViolation,
    NotAClassFunction,
    NotASubgroup,
    SubgroupMismatch,
)
from .permgrp import Group, GroupAction, Subgroup, conjugates, double_coset_reps
from .reports import AxiomReport


class CoherentDatum:
    """A group F acting on a group G by automorphisms (the K0 shadow of a
    coherent action on a G-graded category)."""

    __slots__ = ("F", "G", "action", "_engines")

    def __init__(self, F: Group, G: Group, action: GroupAction):
        if action.actor is not F or action.target is not G:
            raise ValueError("action does not connect the given groups")
        self.F = F
        self.G = G
        self.action = action
        self._engines = {}

    def __repr__(self):
        return f"CoherentDatum(|F|={self.F.order}, |G|={self.G.order})"


@dataclass(frozen=True)
class SimpleLabel:
    """Canonical label (orbit representative, stabilizer irreducible) of a
    simple equivariant object, with its cached numerology."""

    subgroup: Subgroup
    orbit_rep: int
    char_index: int
    orbit_size: int
    stabilizer: Subgroup
    degree: int

    @property
    def dim(self) -> int:
        return self.orbit_size * self.degree

    def __repr__(self):
        return f"S(g={self.orbit_rep}, chi={self.char_index})"


class InvariantVector:
    """An F-invariant element of the G-graded sum of stabilizer character
    rings; only components at canonical orbit representatives are stored,
    the rest are implied by conjugation."""

    __slots__ = ("subgroup", "components")

    def __init__(self, subgroup: Subgroup, components):
        self.subgroup = subgroup
        self.components = {
            int(g): np.asarray(v, dtype=np.int64)
            for g, v in components.items()
            if np.any(np.asarray(v))
        }

    def __eq__(self, other):
        if not isinstance(other, InvariantVector):
            return NotImplemented
        if self.subgroup != other.subgroup:
            return False
        if set(self.components) != set(other.components):
            return False
        return all(
            np.array_equal(self.components[g], other.components[g])
            for g in self.components
        )

    def __repr__(self):
        return f"InvariantVector({ {g: v.tolist() for g, v in self.components.items()} })"


class FusionRing:
    """Structure constants over the simple basis, kept once as `rows`: the
    int64 [i, j, k, N] of every nonzero N_ij^k in ascending (i, j, k).
    `tensor()` densifies them, and `constants[(i, j)]`, the (k, N) pairs of
    each label pair, is built on first access.

    All invariants (unit row/column, dimension homomorphism, associativity,
    agreement of the two product forms) are verified at construction.
    """

    def __init__(self, datum, subgroup, labels, unit, rows, checks):
        self.datum = datum
        self.subgroup = subgroup
        self.labels = tuple(labels)
        self.unit = unit
        self.rows = rows
        self.dims = tuple(l.dim for l in self.labels)
        self.checks = dict(checks)

    @property
    def size(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def constants(self) -> dict:
        out = dict.fromkeys(itertools.product(range(self.size), repeat=2), ())
        for (i, j), entries in itertools.groupby(self.rows.tolist(), lambda r: (r[0], r[1])):
            out[i, j] = tuple((k, coeff) for _, _, k, coeff in entries)
        return out

    def tensor(self) -> np.ndarray:
        return dense(self.rows, self.size)

    def constant_rows(self):
        """Flat [i, j, k, N] rows in ascending (i, j, k)."""
        return self.rows.tolist()


def _engine(d: CoherentDatum, ctx: ModularContext) -> "_Engine":
    eng = d._engines.get(ctx.p)
    if eng is None:
        eng = _Engine(d, ctx)
        d._engines[ctx.p] = eng
    return eng


class _Basis:
    __slots__ = ("labels", "pos", "dims")

    def __init__(self, labels):
        self.labels = labels
        self.pos = {(l.orbit_rep, l.char_index): i for i, l in enumerate(labels)}
        self.dims = np.array([l.dim for l in labels], dtype=np.int64)


class _Engine:
    """Caches for one (datum, prime) pair, only of the pieces that are
    reused: stabilizers, orbit data (representatives, and the least
    transporter of every point to its representative, each a column
    minimum of one gather), bases, one conjugation stack per subgroup (over
    every x in F), transport slots, reciprocity blocks (by subgroups, and
    indexed by pairs of grading points) and the double-coset
    representatives of each pair of grading points.  Factorizations, the
    whole restriction and induction matrices and the conjugation rows are
    built on every call; `mackey.MackeyFamily` caches the maps."""

    def __init__(self, d: CoherentDatum, ctx: ModularContext):
        self.d = d
        self.ctx = ctx
        self.F = d.F
        self.G = d.G
        self.A = d.action.point_maps
        self._stab = {}
        self._orbit = {}
        self._conj = {}
        self._slots = {}
        self._block = {}
        self._blocks = {}
        self._coset_reps = {}
        self._bases = {}

    # -- group-side caches ---------------------------------------------------

    def stab(self, H: Subgroup, g: int) -> Subgroup:
        key = (H.key, g)
        s = self._stab.get(key)
        if s is None:
            s = Subgroup(self.F, H.mask & (self.A[:, g] == g), None, _verified=True)
            self._stab[key] = s
        return s

    def table(self, sub: Subgroup):
        return character_table(sub.group(), self.ctx)

    def orbit_data(self, H: Subgroup):
        """(reps, rep_of, to_rep) of the H-orbits on G: rep_of[q] is the
        least point of q's orbit, reps the points that are their own, and
        to_rep[q] the least x in H with map(x, q) == rep_of[q]."""
        od = self._orbit.get(H.key)
        if od is None:
            rows = self.A[H.members]
            rep_of = rows.min(0)
            to_rep = H.members[(rows == rep_of).argmax(0)]
            reps = np.flatnonzero(rep_of == np.arange(len(rep_of))).tolist()
            od = self._orbit[H.key] = (reps, rep_of, to_rep)
        return od

    def conj_stack(self, S: Subgroup):
        """(perm, targets, which): perm[x] is the bijection of irreducibles
        Irr(S) -> Irr(xSx^-1) induced by transport along x, and
        targets[which[x]] is xSx^-1, for every x in F; one
        `permgrp.conjugates` and one `chartab.conjugation_perms` per S,
        which also gives every conjugate of S without a cached table the
        table of S moved along conjugation."""
        hit = self._conj.get(S.key)
        if hit is None:
            targets, which = conjugates(S)
            perm = chartab.conjugation_perms(S, targets, which, self.ctx)
            hit = self._conj[S.key] = (perm, targets, which)
        return hit

    # -- simples and normalization -------------------------------------------

    def basis(self, H: Subgroup) -> _Basis:
        b = self._bases.get(H.key)
        if b is None:
            labels = []
            for g in self.orbit_data(H)[0]:
                stab = self.stab(H, g)
                orbit_size = H.order // stab.order
                tab = self.table(stab)
                for i in range(tab.size):
                    labels.append(
                        SimpleLabel(
                            subgroup=H,
                            orbit_rep=int(g),
                            char_index=i,
                            orbit_size=orbit_size,
                            stabilizer=stab,
                            degree=int(tab.degrees[i]),
                        )
                    )
            b = _Basis(labels)
            self._bases[H.key] = b
        return b

    def slots(self, H: Subgroup, q: int) -> np.ndarray:
        """The transport map at grading point q: [t] = position in basis(H)
        of irreducible t of H_q once moved to the canonical representative
        q0 of q, along the orbit data's to_rep[q] (the identity if q = q0,
        whose row of the conjugation stack is the identity)."""
        key = (H.key, q)
        s = self._slots.get(key)
        if s is None:
            _, rep_of, to_rep = self.orbit_data(H)
            base = self.basis(H).pos[(int(rep_of[q]), 0)]
            s = self._slots[key] = base + self.conj_stack(self.stab(H, q))[0][to_rep[q]]
        return s

    # -- reciprocity blocks ----------------------------------------------------

    def block(self, inner: Subgroup, factors, target: Subgroup) -> np.ndarray:
        """`chartab.reciprocity_block(inner, factors, target)`, cached by the
        subgroups."""
        key = (inner.key, tuple(f.key for f in factors), target.key)
        b = self._block.get(key)
        if b is None:
            b = self._block[key] = chartab.reciprocity_block(inner, factors, target, self.ctx)
        return b

    def m_block(self, H: Subgroup, g: int, h: int):
        """All local products at (g, h) at once: (q, N) with q = g*h and
        N[i, j, k] the multiplicity of rho_k in m_{g,h}(chi_i, psi_j) =
        Ind_I^{H_q}(Res chi_i . Res psi_j), for I = H_g n H_h (which fixes
        q, so I <= H_q): the block of I, (H_g, H_h) and H_q."""
        key = (H.key, g, h)
        hit = self._blocks.get(key)
        if hit is None:
            Sg, Sh = self.stab(H, g), self.stab(H, h)
            q = int(self.G.mult[g, h])
            block = self.block(Sg.intersect(Sh), (Sg, Sh), self.stab(H, q))
            hit = self._blocks[key] = (q, block)
        return hit

    def coset_reps(self, H: Subgroup, g: int, h: int):
        """Parent indices of the representatives x of the double cosets
        H_h x H_g in H: those of the parent that lie in H (see
        `mackey._double_coset_side` for why they are the same)."""
        key = (H.key, g, h)
        xs = self._coset_reps.get(key)
        if xs is None:
            xs = double_coset_reps(self.F, self.stab(H, h), self.stab(H, g))
            xs = xs[H.mask[xs]].tolist()
            self._coset_reps[key] = xs
        return xs

    def m_irr(self, H: Subgroup, g: int, h: int, i: int, j: int):
        """Decomposition over Irr(H_gh) of m_{g,h}(chi_i, psi_j); the grading
        point of the result is g*h (not normalized)."""
        q, block = self.m_block(H, g, h)
        return q, block[i, j]

    # -- the two product forms -------------------------------------------------

    def fuse_pair(self, H: Subgroup, a: SimpleLabel, b: SimpleLabel) -> np.ndarray:
        """Coordinates of a * b over basis(H), by the double-coset formula."""
        g, i = a.orbit_rep, a.char_index
        h, j = b.orbit_rep, b.char_index
        basis = self.basis(H)
        out = np.zeros(len(basis.labels), dtype=np.int64)
        perm = self.conj_stack(self.stab(H, g))[0]
        for x in self.coset_reps(H, g, h):
            g2 = int(self.A[x, g])
            q, vec = self.m_irr(H, g2, h, int(perm[x, i]), j)
            out[self.slots(H, q)] += vec
        total = int(out @ basis.dims)
        if total != a.dim * b.dim:
            raise InvariantViolation(
                f"dimension conservation failed: {total} != {a.dim * b.dim}"
            )
        return out

    def product_rows(self, H: Subgroup) -> np.ndarray:
        """The nonzero N_ij^k over the basis of H as int64 [i, j, k, N]
        rows in ascending (i, j, k), one `fuse_pair` per label pair in
        label order; only the n products of one i are held densely."""
        labels = self.basis(H).labels
        block = np.zeros((len(labels),) * 2, dtype=np.int64)  # [j, k] of one i
        out = []
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                block[j] = self.fuse_pair(H, a, b)
            js, ks = np.nonzero(block)
            out.append(np.column_stack([np.full_like(js, i), js, ks, block[js, ks]]))
        return np.concatenate(out)

    # -- restriction, induction and conjugation of simples --------------------

    def restriction(self, H: Subgroup, K: Subgroup) -> np.ndarray:
        """Matrix of restriction from the simples over H to those over
        K <= H.  The simple (g, chi) over H underlies Ind_{H_g}^H, so by
        Mackey it restricts to the sum over double cosets K x H_g of the
        restriction of x.chi from x H_g x^-1 = H_xg (x is in H) to K_xg: a
        column of the block (K_xg, (H_xg,), K_xg), moved to the canonical
        representative.  Not cached."""
        if not H.contains(K):
            raise NotASubgroup("restriction target is not contained")
        bh, bk = self.basis(H), self.basis(K)
        r = np.zeros((len(bk.labels), len(bh.labels)), dtype=np.int64)
        for g in self.orbit_data(H)[0]:
            Sg = self.stab(H, g)
            perm = self.conj_stack(Sg)[0]
            xs = double_coset_reps(self.F, K, Sg)
            for x in xs[H.mask[xs]].tolist():
                g2 = int(self.A[x, g])
                Kg2 = self.stab(K, g2)
                rows = np.ix_(self.slots(K, g2), self.slots(H, g))
                r[rows] += self.block(Kg2, (self.stab(H, g2),), Kg2)[perm[x]].T
        if not np.array_equal(bk.dims @ r, bh.dims):
            raise InvariantViolation("restriction changed the total dimension")
        return r

    def induction(self, K: Subgroup, H: Subgroup) -> np.ndarray:
        """Matrix of induction from the simples over K <= H to those over H:
        (g, chi) goes to (g, Ind_{K_g}^{H_g} chi), a row of the block
        (K_g, (K_g,), H_g), moved to the canonical representative.  Not
        cached."""
        bh, bk = self.basis(H), self.basis(K)
        m = np.zeros((len(bh.labels), len(bk.labels)), dtype=np.int64)
        for g in self.orbit_data(K)[0]:
            Kg = self.stab(K, g)
            rows = np.ix_(self.slots(H, g), self.slots(K, g))
            m[rows] += self.block(Kg, (Kg,), self.stab(H, g)).T
        if not np.array_equal(bh.dims @ m, (H.order // K.order) * bk.dims):
            raise InvariantViolation("induction changed the dimension bookkeeping")
        return m

    def conjugations(self, H: Subgroup):
        """(perm, targets, which): transport along x takes simple j over H
        to simple perm[x, j] over xHx^-1 = targets[which[x]] (of
        `conj_stack(H)`), for every x in F: (g, chi) goes to (xg, x.chi),
        moved to the canonical representative.  Each row is checked to be
        a bijection of bases.  Not cached."""
        _, targets, which = self.conj_stack(H)
        n = len(self.basis(H).labels)
        out = np.full((self.F.order, n), -1, dtype=np.intp)
        for g in self.orbit_data(H)[0]:
            perm = self.conj_stack(self.stab(H, g))[0]
            cols = self.slots(H, g)
            for x, w in enumerate(which.tolist()):
                out[x, cols] = self.slots(targets[w], int(self.A[x, g]))[perm[x]]
        if not (np.sort(out, axis=1) == np.arange(n)).all():
            raise InvariantViolation("conjugation did not map a simple to a simple")
        return out, targets, which

    def factorizations(self, H: Subgroup, choice: str) -> list:
        """For each canonical g, one factorization h*k = g per orbit of H_g
        on the first coordinates h, with h the min or max of its orbit as
        `choice` says; a flat list of (g, h, k) in the order of g and of the
        orbit minima.  Not cached."""
        if choice not in ("min", "max"):
            raise ValueError(f"representative choice must be 'min' or 'max', got {choice!r}")
        out = []
        for g in self.orbit_data(H)[0]:
            stab = self.stab(H, g)
            reps = self.orbit_data(stab)[0]
            if choice == "max":
                reps = self.A[stab.members][:, reps].max(0).tolist()
            for h in reps:
                out.append((g, h, int(self.G.mult[int(self.G.inv[h]), g])))
        return out

    def orbit_sum_rows(self, H: Subgroup, choice: str = "min") -> np.ndarray:
        """Rows [a, b, c, N] of the orbit-sum product, as `product_rows`:
        the nonzero entries of the block m_block(H, h, k) of each
        factorization (g, h, k), with their first two indices at the labels
        whose components they read and their last at the labels of g,
        summed where two factorizations meet.  The component of a basis
        vector at h is its canonical component moved along the inverse of
        to_rep[h] (of `orbit_data(H)`), and moving along to_rep[h] and back
        is the identity, so that component's entry t is label
        slots(H, h)[t]."""
        n = len(self.basis(H).labels)
        keys, values = [], []
        for g, h, k in self.factorizations(H, choice):
            _, block = self.m_block(H, h, k)
            a, b, c = np.nonzero(block)
            keys.append((self.slots(H, h)[a] * n + self.slots(H, k)[b]) * n + self.slots(H, g)[c])
            values.append(block[a, b, c])
        return summed_rows(np.concatenate(keys), np.concatenate(values), n)

    def fuse_invariants(
        self, H: Subgroup, alpha: InvariantVector, beta: InvariantVector, choice="min"
    ) -> InvariantVector:
        """The orbit-sum product of two invariant vectors.  Each stored
        component must sit at a canonical orbit representative g and have
        one coordinate per irreducible of H_g; anything else is refused,
        not dropped or broadcast."""
        if alpha.subgroup != H or beta.subgroup != H:
            raise SubgroupMismatch("invariant vectors live over a different subgroup")
        reps, rep_of, _ = self.orbit_data(H)
        a, b = np.zeros((2, len(self.basis(H).labels)), dtype=np.int64)
        for vec, v in ((a, alpha), (b, beta)):
            for g, comp in v.components.items():
                if not (0 <= g < len(rep_of) and rep_of[g] == g):
                    raise InvalidInput(f"component at {g}, not at a canonical orbit representative")
                slots = self.slots(H, g)
                if comp.shape != slots.shape:
                    raise InvalidInput(
                        f"component at {g} has shape {comp.shape}, expected {slots.shape}"
                    )
                vec[slots] = comp
        i, j, k, coeff = self.orbit_sum_rows(H, choice).T
        out = np.zeros_like(a)
        np.add.at(out, k, a[i] * b[j] * coeff)
        return InvariantVector(H, {g: out[self.slots(H, g)] for g in reps})


# ---------------------------------------------------------------------------
# public operations


def simples(d: CoherentDatum, H: Subgroup, ctx: ModularContext):
    """One label per (H-orbit representative, stabilizer irreducible),
    ordered by (representative index, character index)."""
    return list(_engine(d, ctx).basis(H).labels)


def _labels(basis: _Basis, vec) -> dict:
    """{SimpleLabel: multiplicity} of a coordinate vector over `basis`."""
    return {basis.labels[k]: int(vec[k]) for k in np.flatnonzero(vec)}


def normalize_label(d: CoherentDatum, H: Subgroup, g: int, chi: ClassFunction, ctx: ModularContext):
    """Transport (g, chi) to the canonical orbit representative and decompose;
    returns {SimpleLabel: multiplicity}."""
    if not 0 <= g < d.G.order:
        raise ElementNotInGroup(f"index {g}")
    eng = _engine(d, ctx)
    stab = eng.stab(H, g)
    if not chartab._same_group(chi.group, stab.group()):
        raise NotAClassFunction("character does not live on the stabilizer of g")
    vec = np.array(chartab.decompose(chi, eng.table(stab)).coeffs, dtype=np.int64)
    if (vec < 0).any():
        raise NotAClassFunction("not a genuine character (negative multiplicity)")
    basis = eng.basis(H)
    out = np.zeros(len(basis.labels), dtype=np.int64)
    out[eng.slots(H, g)] = vec
    return _labels(basis, out)


def m_product(
    d: CoherentDatum,
    H: Subgroup,
    g: int,
    chi: ClassFunction,
    h: int,
    psi: ClassFunction,
    ctx: ModularContext,
) -> ClassFunction:
    """Restrict both characters to H_g n H_h, multiply pointwise, induce up
    to H_{gh}."""
    eng = _engine(d, ctx)
    Sg, Sh = eng.stab(H, g), eng.stab(H, h)
    Sq = eng.stab(H, int(d.G.mult[g, h]))
    inter = Sg.intersect(Sh)
    ri = chartab.restrict(chi, inter.viewed_in(Sg))
    rj = chartab.restrict(psi, inter.viewed_in(Sh))
    prod = chartab.pointwise_product(ri, rj, ctx.p)
    return chartab.induce(prod, Sq.group(), ctx.p)


def fuse(d: CoherentDatum, H: Subgroup, a: SimpleLabel, b: SimpleLabel, ctx: ModularContext):
    """Product of two simples by the double-coset formula; returns
    {SimpleLabel: multiplicity} with dimension conservation enforced."""
    if a.subgroup != H or b.subgroup != H:
        raise SubgroupMismatch("labels live over a different subgroup")
    eng = _engine(d, ctx)
    return _labels(eng.basis(H), eng.fuse_pair(H, a, b))


def invariant_basis(d: CoherentDatum, H: Subgroup, ctx: ModularContext):
    """Orbit-sum invariant vectors, in bijection with simples(d, H)."""
    eng = _engine(d, ctx)
    basis = eng.basis(H)
    out = []
    for label in basis.labels:
        size = eng.table(label.stabilizer).size
        vec = np.zeros(size, dtype=np.int64)
        vec[label.char_index] = 1
        out.append(InvariantVector(H, {label.orbit_rep: vec}))
    return out


def fuse_via_M(
    d: CoherentDatum,
    H: Subgroup,
    alpha: InvariantVector,
    beta: InvariantVector,
    ctx: ModularContext,
    rep_choice: str = "min",
) -> InvariantVector:
    """Orbit-sum multiplication: component at each canonical g is the sum of
    local products over stabilizer-orbit representatives of factorizations.
    Both vectors are contracted against the rows of
    `_Engine.orbit_sum_rows`, whose associativity on all basis triples is
    one `associativity_failure` check, exhaustive by the generator lemma
    (C5 of `verify_coherent_axioms`)."""
    return _engine(d, ctx).fuse_invariants(H, alpha, beta, rep_choice)


def eq_restrict(d: CoherentDatum, H: Subgroup, K: Subgroup, a: SimpleLabel, ctx: ModularContext):
    """Restriction of a simple over H to K <= H, by the double-coset
    decomposition of the underlying induced object.  Each call builds the
    whole matrix `_Engine.restriction(H, K)` and reads one column."""
    if a.subgroup != H:
        raise SubgroupMismatch("label lives over a different subgroup")
    if not H.contains(K):
        raise SubgroupMismatch("K is not contained in H")
    eng = _engine(d, ctx)
    col = eng.restriction(H, K)[:, eng.basis(H).pos[(a.orbit_rep, a.char_index)]]
    return _labels(eng.basis(K), col)


def eq_induce(d: CoherentDatum, K: Subgroup, H: Subgroup, a: SimpleLabel, ctx: ModularContext):
    """Induction of a simple over K up to H >= K, via induction between the
    stabilizers at the same grading point.  Each call builds the whole
    matrix `_Engine.induction(K, H)` and reads one column."""
    if a.subgroup != K:
        raise SubgroupMismatch("label lives over a different subgroup")
    if not H.contains(K):
        raise SubgroupMismatch("K is not contained in H")
    eng = _engine(d, ctx)
    col = eng.induction(K, H)[:, eng.basis(K).pos[(a.orbit_rep, a.char_index)]]
    return _labels(eng.basis(H), col)


def eq_conjugate(d: CoherentDatum, H: Subgroup, x: int, a: SimpleLabel, ctx: ModularContext):
    """Transport of a simple over H to one over xHx^-1; a bijection of bases.
    The one entry of `_Engine.conjugations(H)` at x and a, read directly:
    (g, chi_i) goes to (xg, x.chi_i) over T = xHx^-1, the label
    slots(T, xg)[perm[x, i]] for the conjugation stack perm of H_g."""
    if a.subgroup != H:
        raise SubgroupMismatch("label lives over a different subgroup")
    if not 0 <= x < d.F.order:
        raise ElementNotInGroup(f"index {x}")
    eng = _engine(d, ctx)
    _, targets, which = eng.conj_stack(H)
    T, g = targets[which[x]], a.orbit_rep
    perm = eng.conj_stack(eng.stab(H, g))[0]
    return eng.basis(T).labels[eng.slots(T, int(eng.A[x, g]))[perm[x, a.char_index]]]


def verify_coherent_axioms(d: CoherentDatum, H: Subgroup, ctx: ModularContext) -> AxiomReport:
    """Machine check of the graded-system compatibilities: conjugation is an
    action (C1) trivial on stabilizers (C2) and multiplicative (C3), the unit
    behaves (C4), the invariant product is associative on basis triples (C5),
    and the orbit-sum product is independent of the representative choice.

    C1 and C3 are checked for the generators s of H, which proves them for
    every x in H, by induction on the length of x as a word in the
    generators (positive words suffice in a finite group).  C1 is checked
    as c_1 = id and c_s c_y = c_sy for every s and every y in H; if
    c_x c_y = c_xy for all y, then for sx, c_sx c_y = c_s c_x c_y =
    c_s c_xy = c_sxy.  C3 for s and for x gives it for sx through C1:
    c_sx m(a, b) = c_s m(c_x a, c_x b) = m(c_sx a, c_sx b).  Every
    conjugation is read off the engine's stacks: C1 is one array check per
    (s, y) over every basis element (g, i), and C2 one per g over the
    stabilizer H_g.

    C5 is `associativity_failure` on the orbit-sum rows: one check per H,
    exhaustive by the generator lemma, whose witness is the first failing
    (i, j, k, l).
    Representative independence compares the "min" and "max" orbit-sum
    rows pair by pair."""
    eng = _engine(d, ctx)
    report = AxiomReport(title=f"coherent axioms over subgroup of order {H.order}")
    nG = d.G.order

    # perms[g][x] = the bijection Irr(H_g) -> Irr(H_xg) of conjugation by x
    perms = [eng.conj_stack(eng.stab(H, g))[0] for g in range(nG)]
    # the basis elements (g, i) of the graded system, (g, i) at position
    # t = start[g] + i, and flat[x, t] = perms[g][x, i]
    graded = [(g, i) for g, perm in enumerate(perms) for i in range(perm.shape[1])]
    at_g, at_i = np.array(graded).T
    start = np.searchsorted(at_g, np.arange(nG))
    flat = np.concatenate(perms, axis=1)

    # C1: conjugation by the identity is trivial and composes along H
    report.record_all("C1", flat[0] == at_i, lambda t: (H.order, *graded[t]), "c_1 = id")
    for s in H.generators:
        for y in H.members.tolist():
            sy = int(d.F.mult[s, y])
            gy = eng.A[y, at_g]
            ok = (eng.A[s, gy] == eng.A[sy, at_g]) & (flat[s, start[gy] + flat[y]] == flat[sy])
            report.record_all("C1", ok, lambda t: (s, y, *graded[t]), "c_s c_y = c_sy")

    # C2: stabilizer elements act trivially on their component
    for g in range(nG):
        members = eng.stab(H, g).members
        ok = (perms[g][members] == np.arange(perms[g].shape[1])).all(axis=1)
        report.record_all("C2", ok, lambda a: (g, int(members[a])), "c_x = id on A(g) for x in H_g")

    # C3: conjugation is multiplicative for the local products, one block
    # per (x, g, h) with (i, j) in increasing order
    for x in H.generators:
        for g in range(nG):
            pg = perms[g][x]
            for h in range(nG):
                ph = perms[h][x]
                q, block = eng.m_block(H, g, h)
                q2, moved = eng.m_block(H, int(eng.A[x, g]), int(eng.A[x, h]))
                if q2 == int(eng.A[x, q]):
                    pq = perms[q][x]
                    lhs = np.zeros_like(block)
                    lhs[:, :, pq] = block
                    ok = (lhs == moved[np.ix_(pg, ph)]).all(axis=2)
                else:
                    ok = np.zeros(block.shape[:2], dtype=bool)
                nh = ok.shape[1]
                report.record_all(
                    "C3", ok.ravel(), lambda t: (x, g, t // nh, h, t % nh), "c_x m = m (c_x x c_x)"
                )

    # C4: the trivial character at the identity grading is a two-sided unit
    for g in range(nG):
        q, left = eng.m_block(H, 0, g)
        q2, right = eng.m_block(H, g, 0)
        left, right = left[0], right[:, 0]
        ok = (
            (q == g) & (left.diagonal() == 1) & (left.sum(axis=1) == 1)
            & (q2 == g) & (right.diagonal() == 1) & (right.sum(axis=1) == 1)
        )
        report.record_all("C4", ok, lambda i: (g, i), "m(1, a) = m(a, 1) = a")

    # C5: associativity of the orbit-sum product on all basis triples,
    # exhaustive by the generator lemma
    n = len(eng.basis(H).labels)
    orbit = eng.orbit_sum_rows(H)
    bad, _ = associativity_failure(orbit, n)
    report.record("C5", bad is None, bad or (), "(ab)c = a(bc) on invariants")

    # independence of the factorization-representative choice
    same = np.ones(n * n, dtype=bool)
    same[differing_pairs(eng.orbit_sum_rows(H, "max"), orbit, n)] = False
    report.record_all(
        "Tg-independence", same, lambda t: (t // n, t % n),
        "orbit-sum product with reversed representative set",
    )
    return report


def fusion_ring(d: CoherentDatum, H: Subgroup, ctx: ModularContext) -> FusionRing:
    """Full structure-constant table over simples(d, H), with every ring
    invariant verified on its rows (and cross-checked against the
    orbit-sum form); associativity is the Green verifier's
    `associativity_failure`."""
    eng = _engine(d, ctx)
    basis = eng.basis(H)
    labels = basis.labels
    n = len(labels)
    rows = eng.product_rows(H)
    unit = basis.pos[(0, 0)]
    checks = {"associative": True, "dim_hom": True, "matches_M_form": True}

    if not is_two_sided_unit(rows, n, unit):
        raise InvariantViolation("unit row/column is not the identity")
    # sum_k N_ij^k dims[k] per pair, every pair having rows
    pair = rows[:, 0] * n + rows[:, 1]
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    dims = basis.dims
    if len(first) != n * n or not np.array_equal(
        np.add.reduceat(rows[:, 3] * dims[rows[:, 2]], first), np.outer(dims, dims).ravel()
    ):
        raise InvariantViolation("dimension map is not a ring homomorphism")
    # the orbit-sum rows are dropped before the associativity check, whose
    # temporaries then meet only the ring's own rows
    orbit = eng.orbit_sum_rows(H)
    if not np.array_equal(orbit, rows):
        raise InvariantViolation(
            "double-coset and orbit-sum products disagree at pair "
            f"{divmod(int(differing_pairs(orbit, rows, n)[0]), n)}"
        )
    del orbit
    bad, _ = associativity_failure(rows, n)
    if bad is not None:
        raise InvariantViolation(f"associativity fails at {bad}")
    return FusionRing(d, H, labels, unit, rows, checks)
