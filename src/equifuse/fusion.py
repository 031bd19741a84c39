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
  factorizations.

Their agreement on every basis pair is the package's strongest internal
oracle and is enforced whenever a full FusionRing is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chartab
from .chartab import ClassFunction, ModularContext, character_table
from .errors import (
    ElementNotInGroup,
    InvariantViolation,
    NotAClassFunction,
    SubgroupMismatch,
)
from .permgrp import Group, GroupAction, Subgroup, double_coset_reps
from .reports import AxiomReport

_SAMPLE_SEED = 0xC0FFEE


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
    """Sparse nonnegative-integer structure constants over the simple basis.

    All invariants (unit row/column, dimension homomorphism, associativity,
    agreement of the two product forms) are verified at construction.
    """

    def __init__(self, datum, subgroup, labels, unit, constants, tensor, checks):
        self.datum = datum
        self.subgroup = subgroup
        self.labels = tuple(labels)
        self.unit = unit
        self.constants = constants
        self._tensor = tensor
        self.dims = tuple(l.dim for l in self.labels)
        self.checks = dict(checks)

    @property
    def size(self) -> int:
        return len(self.labels)

    def tensor(self) -> np.ndarray:
        return self._tensor.copy()

    def constant_rows(self):
        """Flat [i, j, k, N] rows in ascending (i, j, k)."""
        out = []
        for (i, j) in sorted(self.constants):
            for k, coeff in self.constants[(i, j)]:
                out.append([i, j, k, int(coeff)])
        return out


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
    """Caches for one (datum, prime) pair: stabilizers, orbit data, character
    tables, conjugation bijections and local products at irreducible level."""

    def __init__(self, d: CoherentDatum, ctx: ModularContext):
        self.d = d
        self.ctx = ctx
        self.F = d.F
        self.G = d.G
        self.A = d.action.point_maps
        self._stab = {}
        self._orbit = {}
        self._to_rep = {}
        self._conj = {}
        self._m = {}
        self._bases = {}
        self._facreps = {}

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
        od = self._orbit.get(H.key)
        if od is None:
            rows = self.A[H.members]
            m = self.G.order
            rep_of = np.full(m, -1, dtype=np.int32)
            reps = []
            for pt in range(m):
                if rep_of[pt] >= 0:
                    continue
                orb = np.unique(rows[:, pt])
                rep_of[orb] = pt
                reps.append(pt)
            od = (reps, rep_of)
            self._orbit[H.key] = od
        return od

    def to_rep(self, H: Subgroup, q: int) -> int:
        """Lex-minimal x in H with map(x, q) == canonical rep of q."""
        key = (H.key, q)
        x = self._to_rep.get(key)
        if x is None:
            _, rep_of = self.orbit_data(H)
            q0 = int(rep_of[q])
            members = H.members
            hits = members[self.A[members, q] == q0]
            x = int(hits[0])
            self._to_rep[key] = x
        return x

    def conj_perm(self, src: Subgroup, x: int):
        """Bijection of irreducibles Irr(src) -> Irr(x src x^-1) induced by
        transport along x, as (index permutation, target Subgroup)."""
        key = (src.key, x)
        hit = self._conj.get(key)
        if hit is not None:
            return hit
        F = self.F
        tgt = src.conjugate(x)
        src_grp, tgt_grp = src.group(), tgt.group()
        src_tab, tgt_tab = self.table(src), self.table(tgt)
        spos = {int(e): i for i, e in enumerate(src.members)}
        perm = np.empty(src_tab.size, dtype=np.int32)
        xin = int(F.inv[x])
        for i, row in enumerate(src_tab.rows):
            vals = []
            for r in tgt_grp.class_reps:
                y = int(tgt.members[int(r)])
                pre = int(F.mult[F.mult[xin, y], x])
                vals.append(row.values[int(src_grp.class_of[spos[pre]])])
            perm[i] = tgt_tab._row_index[tuple(vals)]
        self._conj[key] = (perm, tgt)
        return perm, tgt

    # -- simples and normalization -------------------------------------------

    def basis(self, H: Subgroup) -> _Basis:
        b = self._bases.get(H.key)
        if b is None:
            reps, _ = self.orbit_data(H)
            rows = self.A[H.members]
            labels = []
            for g in reps:
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

    def normalize(self, H: Subgroup, q: int, vec) -> dict:
        """Transport a decomposed character at grading point q to the
        canonical representative; returns {(rep, irr index): coeff}."""
        _, rep_of = self.orbit_data(H)
        q0 = int(rep_of[q])
        out = {}
        if q0 == q:
            for t, c in enumerate(vec):
                if c:
                    out[(q0, t)] = out.get((q0, t), 0) + int(c)
            return out
        x = self.to_rep(H, q)
        perm, _ = self.conj_perm(self.stab(H, q), x)
        for t, c in enumerate(vec):
            if c:
                key = (q0, int(perm[t]))
                out[key] = out.get(key, 0) + int(c)
        return out

    # -- local product at irreducible level -----------------------------------

    def m_irr(self, H: Subgroup, g: int, h: int, i: int, j: int):
        """Decomposition over Irr(H_gh) of m_{g,h}(chi_i, psi_j); the grading
        point of the result is g*h (not normalized)."""
        key = (H.key, g, h, i, j)
        hit = self._m.get(key)
        if hit is not None:
            return hit
        p = self.ctx.p
        Sg, Sh = self.stab(H, g), self.stab(H, h)
        q = int(self.G.mult[g, h])
        Sq = self.stab(H, q)
        inter = Sg.intersect(Sh)
        chi = self.table(Sg).rows[i]
        psi = self.table(Sh).rows[j]
        ri = chartab.restrict(chi, inter.viewed_in(Sg))
        rj = chartab.restrict(psi, inter.viewed_in(Sh))
        prod = chartab.pointwise_product(ri, rj, p)
        ind = chartab.induce(prod, Sq.group(), p)
        coeffs = np.array(chartab.decompose(ind, self.table(Sq)).coeffs, dtype=np.int64)
        if (coeffs < 0).any():
            raise InvariantViolation("local product decomposed with a negative part")
        hit = (q, coeffs)
        self._m[key] = hit
        return hit

    # -- the two product forms -------------------------------------------------

    def fuse_pair(self, H: Subgroup, a: SimpleLabel, b: SimpleLabel) -> dict:
        g, i = a.orbit_rep, a.char_index
        h, j = b.orbit_rep, b.char_index
        Hgrp = H.group()
        Sg_loc = self.stab(H, g).viewed_in(H)
        Sh_loc = self.stab(H, h).viewed_in(H)
        reps_loc = double_coset_reps(Hgrp, Sh_loc, Sg_loc)
        out = {}
        for r in reps_loc:
            x = int(H.members[int(r)])
            g2 = int(self.A[x, g])
            perm, _ = self.conj_perm(self.stab(H, g), x)
            i2 = int(perm[i])
            q, vec = self.m_irr(H, g2, h, i2, j)
            for key, c in self.normalize(H, q, vec).items():
                out[key] = out.get(key, 0) + c
        basis = self.basis(H)
        total = sum(
            c * int(basis.dims[basis.pos[key]]) for key, c in out.items()
        )
        if total != a.dim * b.dim:
            raise InvariantViolation(
                f"dimension conservation failed: {total} != {a.dim * b.dim}"
            )
        return out

    def fact_reps(self, H: Subgroup, g: int, choice: str):
        """Stabilizer-orbit representatives of the first coordinates of
        factorizations h*k = g; choice picks min or max of each orbit."""
        key = (H.key, g, choice)
        reps = self._facreps.get(key)
        if reps is None:
            Sg = self.stab(H, g)
            rows = self.A[Sg.members]
            m = self.G.order
            seen = np.zeros(m, dtype=bool)
            reps = []
            for pt in range(m):
                if seen[pt]:
                    continue
                orb = np.unique(rows[:, pt])
                seen[orb] = True
                reps.append(int(orb[0]) if choice == "min" else int(orb[-1]))
            self._facreps[key] = reps
        return reps

    def component_at(self, H: Subgroup, v: InvariantVector, h: int):
        """The implied component of an invariant vector at an arbitrary
        grading point (conjugate of the stored representative component)."""
        _, rep_of = self.orbit_data(H)
        h0 = int(rep_of[h])
        base = v.components.get(h0)
        if base is None:
            return None
        if h == h0:
            return base
        x = int(self.F.inv[self.to_rep(H, h)])  # carries h0 to h
        perm, _ = self.conj_perm(self.stab(H, h0), x)
        out = np.zeros_like(base)
        out[perm] = base
        return out

    def fuse_invariants(
        self, H: Subgroup, alpha: InvariantVector, beta: InvariantVector, choice="min"
    ) -> InvariantVector:
        if alpha.subgroup != H or beta.subgroup != H:
            raise SubgroupMismatch("invariant vectors live over a different subgroup")
        comps = {}
        reps, _ = self.orbit_data(H)
        Ginv = self.G.inv
        for g in reps:
            size = self.table(self.stab(H, g)).size
            acc = np.zeros(size, dtype=np.int64)
            for h in self.fact_reps(H, g, choice):
                k_pt = int(self.G.mult[int(Ginv[h]), g])
                va = self.component_at(H, alpha, h)
                if va is None:
                    continue
                vb = self.component_at(H, beta, k_pt)
                if vb is None:
                    continue
                for i in np.nonzero(va)[0]:
                    for j in np.nonzero(vb)[0]:
                        q, vec = self.m_irr(H, h, k_pt, int(i), int(j))
                        acc += int(va[i]) * int(vb[j]) * vec
            if acc.any():
                comps[g] = acc
        return InvariantVector(H, comps)


# ---------------------------------------------------------------------------
# public operations


def simples(d: CoherentDatum, H: Subgroup, ctx: ModularContext):
    """One label per (H-orbit representative, stabilizer irreducible),
    ordered by (representative index, character index)."""
    return list(_engine(d, ctx).basis(H).labels)


def normalize_label(d: CoherentDatum, H: Subgroup, g: int, chi: ClassFunction, ctx: ModularContext):
    """Transport (g, chi) to the canonical orbit representative and decompose;
    returns {SimpleLabel: multiplicity}."""
    if not 0 <= g < d.G.order:
        raise ElementNotInGroup(f"index {g}")
    eng = _engine(d, ctx)
    stab = eng.stab(H, g)
    if chi.group is not stab.group() and chi.group.elements != stab.group().elements:
        raise NotAClassFunction("character does not live on the stabilizer of g")
    vec = np.array(chartab.decompose(chi, eng.table(stab)).coeffs, dtype=np.int64)
    if (vec < 0).any():
        raise NotAClassFunction("not a genuine character (negative multiplicity)")
    basis = eng.basis(H)
    return {
        basis.labels[basis.pos[key]]: c
        for key, c in eng.normalize(H, g, vec).items()
    }


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
    basis = eng.basis(H)
    return {
        basis.labels[basis.pos[key]]: c
        for key, c in eng.fuse_pair(H, a, b).items()
    }


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
    local products over stabilizer-orbit representatives of factorizations."""
    return _engine(d, ctx).fuse_invariants(H, alpha, beta, rep_choice)


def eq_restrict(d: CoherentDatum, H: Subgroup, K: Subgroup, a: SimpleLabel, ctx: ModularContext):
    """Restriction of a simple over H to K <= H, by the double-coset
    decomposition of the underlying induced object."""
    if a.subgroup != H:
        raise SubgroupMismatch("label lives over a different subgroup")
    if not H.contains(K):
        raise SubgroupMismatch("K is not contained in H")
    eng = _engine(d, ctx)
    g, i = a.orbit_rep, a.char_index
    Hgrp = H.group()
    Sg = eng.stab(H, g)
    reps_loc = double_coset_reps(Hgrp, K.viewed_in(H), Sg.viewed_in(H))
    basisK = eng.basis(K)
    out = {}
    for r in reps_loc:
        x = int(H.members[int(r)])
        g2 = int(eng.A[x, g])
        perm, tgt = eng.conj_perm(Sg, x)
        chi2 = eng.table(tgt).rows[int(perm[i])]
        Kg2 = eng.stab(K, g2)
        restricted = chartab.restrict(chi2, Kg2.viewed_in(tgt))
        vec = np.array(
            chartab.decompose(restricted, eng.table(Kg2)).coeffs, dtype=np.int64
        )
        for key, c in eng.normalize(K, g2, vec).items():
            label = basisK.labels[basisK.pos[key]]
            out[label] = out.get(label, 0) + c
    total = sum(l.dim * c for l, c in out.items())
    if total != a.dim:
        raise InvariantViolation("restriction changed the total dimension")
    return out


def eq_induce(d: CoherentDatum, K: Subgroup, H: Subgroup, a: SimpleLabel, ctx: ModularContext):
    """Induction of a simple over K up to H >= K, via induction between the
    stabilizers at the same grading point."""
    if a.subgroup != K:
        raise SubgroupMismatch("label lives over a different subgroup")
    if not H.contains(K):
        raise SubgroupMismatch("K is not contained in H")
    eng = _engine(d, ctx)
    g, i = a.orbit_rep, a.char_index
    Kg = eng.stab(K, g)
    Hg = eng.stab(H, g)
    chi = eng.table(Kg).rows[i]
    ind = chartab.induce(chi, Hg.group(), ctx.p)
    vec = np.array(chartab.decompose(ind, eng.table(Hg)).coeffs, dtype=np.int64)
    basisH = eng.basis(H)
    out = {}
    for key, c in eng.normalize(H, g, vec).items():
        label = basisH.labels[basisH.pos[key]]
        out[label] = out.get(label, 0) + c
    total = sum(l.dim * c for l, c in out.items())
    if total != a.dim * (H.order // K.order):
        raise InvariantViolation("induction changed the dimension bookkeeping")
    return out


def eq_conjugate(d: CoherentDatum, H: Subgroup, x: int, a: SimpleLabel, ctx: ModularContext):
    """Transport of a simple over H to one over xHx^-1; a bijection of bases."""
    if a.subgroup != H:
        raise SubgroupMismatch("label lives over a different subgroup")
    if not 0 <= x < d.F.order:
        raise ElementNotInGroup(f"index {x}")
    eng = _engine(d, ctx)
    H2 = H.conjugate(x)
    g2 = int(eng.A[x, a.orbit_rep])
    perm, _ = eng.conj_perm(eng.stab(H, a.orbit_rep), x)
    vec = np.zeros(eng.table(eng.stab(H2, g2)).size, dtype=np.int64)
    vec[int(perm[a.char_index])] = 1
    basis2 = eng.basis(H2)
    (key, c), = eng.normalize(H2, g2, vec).items()
    if c != 1:
        raise InvariantViolation("conjugation did not map a simple to a simple")
    return basis2.labels[basis2.pos[key]]


def verify_coherent_axioms(d: CoherentDatum, H: Subgroup, ctx: ModularContext) -> AxiomReport:
    """Machine check of the graded-system compatibilities: conjugation is an
    action (C1) trivial on stabilizers (C2) and multiplicative (C3), the unit
    behaves (C4), the invariant product is associative on basis triples (C5),
    and the orbit-sum product is independent of the representative choice."""
    eng = _engine(d, ctx)
    report = AxiomReport(title=f"coherent axioms over subgroup of order {H.order}")
    rng = np.random.default_rng((_SAMPLE_SEED, H.order))
    members = H.members
    nG = d.G.order

    def sample(k):
        if len(members) <= k:
            return [int(m) for m in members]
        picks = rng.choice(len(members), size=k, replace=False)
        return sorted(int(members[i]) for i in picks)

    xs = sample(5)
    F = d.F

    # basis elements of the graded system: (grading point, irreducible index)
    graded = []
    for g in range(nG):
        graded.extend((g, i) for i in range(eng.table(eng.stab(H, g)).size))

    # C1: conjugation by the identity is trivial and composes along H
    for g, i in graded:
        perm, _ = eng.conj_perm(eng.stab(H, g), 0)
        report.record("C1", int(perm[i]) == i, (H.order, g, i), "c_1 = id")
    for x in xs:
        for y in xs:
            xy = int(F.mult[x, y])
            for g, i in graded:
                py, _ = eng.conj_perm(eng.stab(H, g), y)
                gy = int(eng.A[y, g])
                px, _ = eng.conj_perm(eng.stab(H, gy), x)
                pxy, _ = eng.conj_perm(eng.stab(H, g), xy)
                lhs = (int(eng.A[x, gy]), int(px[int(py[i])]))
                rhs = (int(eng.A[xy, g]), int(pxy[i]))
                report.record(
                    "C1", lhs == rhs, (x, y, g, i), "c_x c_y = c_xy", list(lhs), list(rhs)
                )

    # C2: stabilizer elements act trivially on their component
    for g in range(nG):
        stab = eng.stab(H, g)
        size = eng.table(stab).size
        for x in stab.members:
            perm, _ = eng.conj_perm(stab, int(x))
            report.record(
                "C2",
                bool(np.array_equal(perm, np.arange(size))),
                (g, int(x)),
                "c_x = id on A(g) for x in H_g",
            )

    # C3: conjugation is multiplicative for the local products
    for x in xs:
        for g, i in graded:
            for h, j in graded:
                q, vec = eng.m_irr(H, g, h, i, j)
                pq, _ = eng.conj_perm(eng.stab(H, q), x)
                lhs = np.zeros_like(vec)
                lhs[pq] = vec
                pg, _ = eng.conj_perm(eng.stab(H, g), x)
                ph, _ = eng.conj_perm(eng.stab(H, h), x)
                q2, rhs = eng.m_irr(
                    H, int(eng.A[x, g]), int(eng.A[x, h]), int(pg[i]), int(ph[j])
                )
                ok = q2 == int(eng.A[x, q]) and np.array_equal(lhs, rhs)
                report.record(
                    "C3", ok, (x, g, i, h, j), "c_x m = m (c_x x c_x)", lhs.tolist(), rhs.tolist()
                )

    # C4: the trivial character at the identity grading is a two-sided unit
    for g, i in graded:
        q, vec = eng.m_irr(H, 0, g, 0, i)
        unit_left = q == g and vec[i] == 1 and int(vec.sum()) == 1
        q2, vec2 = eng.m_irr(H, g, 0, i, 0)
        unit_right = q2 == g and vec2[i] == 1 and int(vec2.sum()) == 1
        report.record("C4", unit_left and unit_right, (g, i), "m(1, a) = m(a, 1) = a")

    # C5: associativity of the orbit-sum product on all basis triples
    basis_inv = invariant_basis(d, H, ctx)
    n = len(basis_inv)
    pair = {}
    for i in range(n):
        for j in range(n):
            pair[(i, j)] = eng.fuse_invariants(H, basis_inv[i], basis_inv[j])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = eng.fuse_invariants(H, pair[(i, j)], basis_inv[k])
                rhs = eng.fuse_invariants(H, basis_inv[i], pair[(j, k)])
                report.record(
                    "C5",
                    lhs == rhs,
                    (i, j, k),
                    "(ab)c = a(bc) on invariants",
                )

    # independence of the factorization-representative choice
    for i in range(n):
        for j in range(n):
            alt = eng.fuse_invariants(H, basis_inv[i], basis_inv[j], choice="max")
            report.record(
                "Tg-independence",
                alt == pair[(i, j)],
                (i, j),
                "orbit-sum product with reversed representative set",
            )
    return report


def associativity_failure(t: np.ndarray):
    """First (i, j, k, l) with ((e_i e_j) e_k)_l != (e_i (e_j e_k))_l for
    t[i, j, k] = N_ij^k, or None; one i-slice at a time, in O(n^3) memory."""
    for i in range(t.shape[0]):
        left = np.einsum("jm,mkl->jkl", t[i], t)
        right = np.einsum("jkm,ml->jkl", t, t[i])
        bad = np.argwhere(left != right)
        if len(bad):
            return (i, *(int(v) for v in bad[0]))
    return None


def fusion_ring(d: CoherentDatum, H: Subgroup, ctx: ModularContext) -> FusionRing:
    """Full structure-constant table over simples(d, H), with every ring
    invariant verified (and cross-checked against the orbit-sum form);
    associativity is the Green verifier's `associativity_failure`."""
    eng = _engine(d, ctx)
    basis = eng.basis(H)
    labels = basis.labels
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    constants = {}
    for i, j in pairs:
        raw = eng.fuse_pair(H, labels[i], labels[j])
        constants[(i, j)] = tuple(sorted((basis.pos[key], c) for key, c in raw.items()))

    unit = basis.pos[(0, 0)]
    checks = {"associative": True, "dim_hom": True, "matches_M_form": True}

    tensor = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), terms in constants.items():
        for k, c in terms:
            if c < 0:
                raise InvariantViolation(f"negative constant at {(i, j, k)}")
            tensor[i, j, k] = c
    dims = basis.dims
    if not (
        np.array_equal(tensor[unit], np.eye(n, dtype=np.int64))
        and np.array_equal(tensor[:, unit], np.eye(n, dtype=np.int64))
    ):
        raise InvariantViolation("unit row/column is not the identity")
    if not np.array_equal(tensor @ dims, np.outer(dims, dims)):
        raise InvariantViolation("dimension map is not a ring homomorphism")
    bad = associativity_failure(tensor)
    if bad is not None:
        raise InvariantViolation(f"associativity fails at {bad}")

    inv = invariant_basis(d, H, ctx)
    for (i, j) in pairs:
        prod = eng.fuse_invariants(H, inv[i], inv[j])
        expected = {}
        for k, c in constants[(i, j)]:
            lab = labels[k]
            vec = expected.setdefault(
                lab.orbit_rep,
                np.zeros(eng.table(lab.stabilizer).size, dtype=np.int64),
            )
            vec[lab.char_index] += c
        if prod != InvariantVector(H, expected):
            raise InvariantViolation(
                f"double-coset and orbit-sum products disagree at pair {(i, j)}"
            )

    return FusionRing(d, H, labels, unit, constants, tensor, checks)
