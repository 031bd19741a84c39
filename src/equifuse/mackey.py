"""Mackey and Green functor families over a subgroup lattice, and the
exhaustive machine verifier for their axioms.

A family assigns to every lattice subgroup H a free Z-module with a fixed
basis, together with single-step restriction, induction and conjugation
matrices (and optionally a multiplication tensor).  The verifier composes
those single-step maps itself, so transitivity and the double-coset relation
are checked against independent re-compositions rather than any internal
shortcut of the family.

Two families ship: the character rings of all subgroups, and the
equivariantization family built on the fusion engine.  The first realizes
the classical Mackey decomposition; the second exercises it for genuinely
categorical actions.
"""

from __future__ import annotations

import numpy as np

from . import chartab, fusion
from .chartab import ModularContext, character_table, reciprocity_block
from .errors import NoRingStructure, NotASubgroup
from .permgrp import Group, Subgroup, double_coset_reps, subgroup_lattice
from .reports import AxiomReport


class MackeyFamily:
    """Based family {a(H)} over a lattice with I/R/c maps as integer matrices.

    Each callback returns a whole matrix (or product tensor).  The R, I and
    c matrices are cached by subgroup membership key (and x), since the
    verifiers read each one many times; sizes and product tensors are not,
    since each is read once per subgroup (the Green verifier keeps its own
    tensors).
    """

    def __init__(self, ambient, lattice, title, size_fn, r_fn, i_fn, c_fn,
                 mul_fn=None, unit_fn=None):
        self.ambient = ambient
        self.lattice = list(lattice)
        self.title = title
        self.by_key = {s.key: s for s in self.lattice}
        self._size_fn = size_fn
        self._r_fn = r_fn
        self._i_fn = i_fn
        self._c_fn = c_fn
        self._mul_fn = mul_fn
        self._unit_fn = unit_fn
        self._R = {}
        self._I = {}
        self._C = {}

    def lattice_member(self, sub: Subgroup) -> Subgroup:
        member = self.by_key.get(sub.key)
        if member is None:
            raise NotASubgroup("subgroup is not in the verified lattice")
        return member

    def size(self, H: Subgroup) -> int:
        return self._size_fn(H)

    def restriction(self, H: Subgroup, K: Subgroup) -> np.ndarray:
        """Matrix of R_K^H : a(H) -> a(K) for K <= H."""
        key = (H.key, K.key)
        m = self._R.get(key)
        if m is None:
            if not H.contains(K):
                raise NotASubgroup("restriction target is not contained")
            m = self._r_fn(H, K)
            self._R[key] = m
        return m

    def induction(self, K: Subgroup, H: Subgroup) -> np.ndarray:
        """Matrix of I_K^H : a(K) -> a(H) for K <= H."""
        key = (K.key, H.key)
        m = self._I.get(key)
        if m is None:
            if not H.contains(K):
                raise NotASubgroup("induction source is not contained")
            m = self._i_fn(K, H)
            self._I[key] = m
        return m

    def conjugation(self, H: Subgroup, x: int):
        """(matrix of c_{H,x} : a(H) -> a(xHx^-1), target subgroup)."""
        key = (H.key, x)
        hit = self._C.get(key)
        if hit is None:
            hit = self._c_fn(H, x)
            self._C[key] = hit
        return hit

    def product_tensor(self, H: Subgroup) -> np.ndarray:
        if self._mul_fn is None:
            raise NoRingStructure("family has no multiplication")
        return self._mul_fn(H)

    def unit_index(self, H: Subgroup) -> int:
        if self._unit_fn is None:
            raise NoRingStructure("family has no unit")
        return self._unit_fn(H)


def char_ring_family(G: Group, ctx: ModularContext) -> MackeyFamily:
    """The family H |-> (virtual characters of H), with restriction,
    Frobenius induction, conjugation of characters, and pointwise product."""
    lattice = subgroup_lattice(G)

    def size_fn(H):
        return character_table(H.group(), ctx).size

    def r_fn(H, K):
        return reciprocity_block(K, (H,), K, ctx).T

    def i_fn(K, H):
        return reciprocity_block(K, (K,), H, ctx).T

    def c_fn(H, x):
        perm, xh = chartab.conjugation_perm(H, x, ctx)
        mat = np.zeros((len(perm), len(perm)), dtype=np.int64)
        mat[perm, np.arange(len(perm))] = 1
        return mat, xh

    def mul_fn(H):
        return reciprocity_block(H, (H, H), H, ctx)

    return MackeyFamily(
        G,
        lattice,
        f"character rings of subgroups (|G|={G.order}, p={ctx.p})",
        size_fn,
        r_fn,
        i_fn,
        c_fn,
        mul_fn=mul_fn,
        unit_fn=lambda H: 0,
    )


def equivariant_k0_family(datum: fusion.CoherentDatum, ctx: ModularContext) -> MackeyFamily:
    """The family H |-> free Z-module on the equivariant simples over H.
    Its maps are the fusion engine's whole matrices: restriction, induction
    and conjugation assembled once per orbit representative from cached
    reciprocity blocks, and the double-coset product tensor."""
    F = datum.F
    eng = fusion._engine(datum, ctx)
    return MackeyFamily(
        F,
        subgroup_lattice(F),
        f"equivariant K0 family (|F|={F.order}, |G|={datum.G.order}, p={ctx.p})",
        lambda H: len(eng.basis(H).labels),
        eng.restriction,
        eng.induction,
        eng.conjugation,
        mul_fn=eng.product_tensor,
        unit_fn=lambda H: eng.basis(H).pos[(0, 0)],
    )


def _double_coset_side(fam: MackeyFamily, L: Subgroup, H: Subgroup, K: Subgroup,
                       cache=None):
    """Matrix of the sum over x in H\\L/K of I_{xK n H}^H R_{xK n H}^{xK} c_{K,x}.

    The representatives are those of H\\G/K that lie in L: for H, K <= L
    and x in L, HxK lies in L, and a double coset that meets L lies in it,
    so H\\L/K is the set of double cosets HxK of G with x in L.  As
    `L.members` is increasing, the least element of HxK in L's own
    numbering is its least in G's, so these are the representatives
    `double_coset_reps(L.group(), ...)` would give, moved into G.

    P_S = I_{S n H}^H R_{S n H}^S depends on x only through S = xKx^-1, so
    it is computed once per S and kept in `cache` (keyed by S alone, so a
    cache passed in must serve one H only; the verifier keeps one per
    (L, H)).  The terms are summed as one stacked product, exactly in int64."""
    cache = {} if cache is None else cache
    reps = double_coset_reps(fam.ambient, H, K)
    Ps, cs = [], []
    for x in reps[L.mask[reps]].tolist():
        c_mat, xk = fam.conjugation(K, x)
        P = cache.get(xk.key)
        if P is None:
            xk = fam.lattice_member(xk)
            meet = fam.lattice_member(xk.intersect(H))
            P = cache[xk.key] = fam.induction(meet, H) @ fam.restriction(xk, meet)
        Ps.append(P)
        cs.append(c_mat)
    return (np.stack(Ps) @ np.stack(cs)).sum(axis=0)


def mackey_rhs(fam: MackeyFamily, H: Subgroup, K: Subgroup, v: np.ndarray,
               within: Subgroup | None = None) -> np.ndarray:
    """The double-coset side of the Mackey relation applied to v in a(K):
    sum over x in H\\L/K of I_{xK n H}^H R_{xK n H}^{xK} c_{K,x} v."""
    L = within if within is not None else fam.lattice[-1]
    H = fam.lattice_member(H)
    K = fam.lattice_member(K)
    L = fam.lattice_member(L)
    if not (L.contains(H) and L.contains(K)):
        raise NotASubgroup("H and K must lie inside the ambient subgroup")
    return _double_coset_side(fam, L, H, K) @ v


def verify_mackey_axioms(fam: MackeyFamily) -> AxiomReport:
    """Exhaustively check identity maps (M0), transitivity of restriction
    (M1) and induction (M2), composition of conjugations (M3), and the
    double-coset relation (M4) at the top level plus its relativization
    inside every proper overgroup (reported separately as M4rel).

    M3 is checked on every triple (H, x, y), one stacked product per (H, x):
    with C_H[x] = c_{H,x} stacked over all x in G, the checks for every y
    are C_{xHx^-1} @ c_{H,x} == C_H[yx], one result per y, recorded in
    increasing y (so witnesses come out in triple-loop order)."""
    lattice = fam.lattice
    report = AxiomReport(title=fam.title)
    G = fam.ambient

    for H in lattice:
        n = fam.size(H)
        ident = np.eye(n, dtype=np.int64)
        report.record("M0", np.array_equal(fam.restriction(H, H), ident),
                      (H, "R"), "R_H^H = id")
        report.record("M0", np.array_equal(fam.induction(H, H), ident),
                      (H, "I"), "I_H^H = id")
        for h in H.members:
            mat, tgt = fam.conjugation(H, int(h))
            ok = tgt.key == H.key and np.array_equal(mat, ident)
            report.record("M0", ok, (H, f"c_{int(h)}"), "c_{H,h} = id for h in H")

    contained = {
        (i, j)
        for i, a in enumerate(lattice)
        for j, b in enumerate(lattice)
        if b.contains(a)
    }
    above = {}
    for (ki, hi) in contained:
        above.setdefault(ki, []).append(hi)
    for (ji, ki) in contained:
        for hi in above[ki]:
            J, K, H = lattice[ji], lattice[ki], lattice[hi]
            lhs = fam.restriction(K, J) @ fam.restriction(H, K)
            rhs = fam.restriction(H, J)
            report.record("M1", np.array_equal(lhs, rhs),
                          (J, K, H), "R transitivity",
                          lhs, rhs)
            lhs_i = fam.induction(K, H) @ fam.induction(J, K)
            rhs_i = fam.induction(J, H)
            report.record("M2", np.array_equal(lhs_i, rhs_i),
                          (J, K, H), "I transitivity",
                          lhs_i, rhs_i)

    stacks = {}

    def c_stack(H):
        """[x] = matrix of c_{H,x}, for every x in G."""
        s = stacks.get(H.key)
        if s is None:
            s = np.stack([fam.conjugation(H, x)[0] for x in range(G.order)])
            stacks[H.key] = s
        return s

    for H in lattice:
        c_h = c_stack(H)
        for x in range(G.order):
            xh = fam.conjugation(H, x)[1]
            # [y] = (c_y c_x == c_yx) for every y in G at once
            ok = (c_stack(xh) @ c_h[x] == c_h[G.mult[:, x]]).all(axis=(1, 2))
            report.record_all("M3", ok, lambda y: (H, x, y), "c_y c_x = c_yx")

    full = fam.lattice[-1]
    for L in lattice:
        axiom = "M4" if L.key == full.key else "M4rel"
        inside = [S for S in lattice if L.contains(S)]
        for H in inside:
            cache = {}
            for K in inside:
                lhs = fam.restriction(L, H) @ fam.induction(K, L)
                rhs = _double_coset_side(fam, L, H, K, cache)
                report.record(axiom, np.array_equal(lhs, rhs), (L, H, K),
                              "double-coset relation", lhs, rhs)
    return report


def verify_green_axioms(fam: MackeyFamily) -> AxiomReport:
    """Check that every a(H) is an associative unital ring, that restriction
    and conjugation are unitary ring maps (G1), and both projection formulas
    (G2), (G3) on all basis pairs of every nested pair of subgroups.

    Associativity is `fusion.associativity_failure` (O(n^3) memory), which
    checks the slices of a generating set of basis elements and proves the
    rest by its generator lemma; both G1 loops are `_is_unitary_ring_map`,
    and G2/G3 are `_projection_sides`.  A family without a multiplication
    raises `NoRingStructure` at its first `product_tensor`."""
    lattice = fam.lattice
    report = AxiomReport(title=fam.title)
    G = fam.ambient

    tensors = {}
    units = {}
    for H in lattice:
        t = fam.product_tensor(H)
        tensors[H.key] = t
        u = fam.unit_index(H)
        units[H.key] = u
        ident = np.eye(fam.size(H), dtype=np.int64)
        report.record("ring", fusion.associativity_failure(t) is None, (H,),
                      "associativity on basis triples")
        report.record("ring", np.array_equal(t[u], ident) and np.array_equal(t[:, u], ident),
                      (H,), "two-sided unit")

    for H in lattice:
        th = tensors[H.key]
        uh = units[H.key]
        for K in lattice:
            if not H.contains(K) or K.key == H.key:
                continue
            ok = _is_unitary_ring_map(fam.restriction(H, K), th, uh,
                                      tensors[K.key], units[K.key])
            report.record("G1", ok, (H, K), "R is a unitary ring map")
        for x in range(G.order):
            c, xh = fam.conjugation(H, x)
            xh = fam.lattice_member(xh)
            ok = _is_unitary_ring_map(c, th, uh, tensors[xh.key], units[xh.key])
            report.record("G1", ok, (H, f"x={x}"), "c is a unitary ring map")

    for H in lattice:
        th = tensors[H.key]
        for K in lattice:
            if not H.contains(K):
                continue
            r = fam.restriction(H, K)
            ind = fam.induction(K, H)
            tk = tensors[K.key]
            lhs2, rhs2 = _projection_sides(r, ind, tk, th)
            report.record("G2", np.array_equal(lhs2, rhs2),
                          (H, K), "I(a R(b)) = I(a) b", lhs2, rhs2)
            lhs3, rhs3 = _projection_sides(r, ind, tk.transpose(1, 0, 2),
                                           th.transpose(1, 0, 2))
            report.record("G3", np.array_equal(lhs3, rhs3),
                          (H, K), "I(R(b) a) = b I(a)", lhs3, rhs3)
    return report


def _is_unitary_ring_map(f, t_src, u_src, t_dst, u_dst) -> bool:
    """f(e_{u_src}) = e_{u_dst} and f(e_i e_j) = f(e_i) f(e_j) on all basis pairs."""
    unit_ok = np.array_equal(f[:, u_src], np.eye(len(t_dst), dtype=np.int64)[u_dst])
    # [i, b, m] = (f(e_i) e_b)_m, then [i, j, m] = (f(e_i) f(e_j))_m
    left = np.einsum("ai,abm->ibm", f, t_dst)
    product = np.einsum("bj,ibm->ijm", f, left)
    return unit_ok and np.array_equal(np.einsum("ijm,am->ija", t_src, f), product)


def _projection_sides(r, ind, tk, th):
    """[a, b, :] of I(a R(b)) and of I(a) b, for r = R_K^H, ind = I_K^H; with
    both tensors transposed in their first two axes, I(R(b) a) and b I(a)."""
    # [a, c, l] = I(e_a e_c)_l, then [a, b, l] = I(e_a R(e_b))_l
    induced = np.einsum("acm,lm->acl", tk, ind)
    lhs = np.einsum("cb,acl->abl", r, induced)
    return lhs, np.einsum("ma,mbl->abl", ind, th)
