"""Mackey and Green functor families over a subgroup lattice, and the
machine verifier for their axioms.

A family assigns to every lattice subgroup H a free Z-module with a fixed
basis, together with single-step restriction, induction and conjugation
matrices (and optionally a multiplication tensor).  The verifier composes
those single-step maps itself, so transitivity and the double-coset relation
are checked against independent re-compositions rather than any internal
shortcut of the family.  Identity maps, transitivity, composition of
conjugations and conjugation compatibility are checked on every instance;
the double-coset relation once per conjugacy class of triples (L, H, K),
which a lemma in `verify_mackey_axioms` proves is enough once those pass.
These checks are int64 products, exact while |G| n^2 t^3 < 2**53 (n the
largest rank, t the largest |entry| of a map read); the verifier checks
that bound before it returns a report.
The Green axioms (unitary ring maps G1, projection formulas G2 and G3) are
checked exhaustively, as float64 BLAS products that are exact below a bound
each check states (`_kernels.require_exact`): the conjugations of one
subgroup with one target as one stack, and the projection formulas in
blocks of basis elements; see `verify_green_axioms`.

Two families ship: the character rings of all subgroups, and the
equivariantization family built on the fusion engine.  The first realizes
the classical Mackey decomposition; the second exercises it for genuinely
categorical actions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels, chartab, fusion
from .chartab import ModularContext, character_table, reciprocity_block
from .errors import ElementNotInGroup, NoRingStructure, NotASubgroup
from .permgrp import Group, Subgroup, conjugation_index, double_coset_reps, subgroup_lattice
from .reports import AxiomReport


class MackeyFamily:
    """Based family {a(H)} over a lattice with I/R/c maps as integer matrices.

    `lattice` is `subgroup_lattice(ambient)`, in its order.  The R and I
    callbacks return one matrix per pair of subgroups; the c callback
    returns, for one subgroup H, (stack, target) with stack[x] the matrix
    of c_{H,x} and target[x] the lattice index of the subgroup it names,
    for every x in G.  R and I are cached by subgroup membership keys and
    each c stack by H's key (`conjugations`), since the verifiers read each
    one many times; sizes and product tensors are not, since each is read
    once per subgroup (the Green verifier keeps its own tensors).
    """

    def __init__(self, ambient, lattice, title, size_fn, r_fn, i_fn, c_fn,
                 mul_fn=None, unit_fn=None):
        self.ambient = ambient
        self.lattice = list(lattice)
        self.title = title
        self.index = {s.key: i for i, s in enumerate(self.lattice)}
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
        if sub.key not in self.index:
            raise NotASubgroup("subgroup is not in the verified lattice")
        return self.lattice[self.index[sub.key]]

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

    def conjugations(self, H: Subgroup):
        """(stack, target): stack[x] is the matrix of c_{H,x} and target[x]
        the lattice index of the subgroup it names, for every x in G, from
        one callback on first use."""
        hit = self._C.get(H.key)
        if hit is None:
            stack, target = self._c_fn(H)
            hit = self._C[H.key] = (np.asarray(stack, dtype=np.int64),
                                    np.asarray(target, dtype=np.intp))
        return hit

    def conjugation(self, H: Subgroup, x: int):
        """(matrix of c_{H,x} : a(H) -> a(xHx^-1), target subgroup)."""
        if not 0 <= x < self.ambient.order:
            raise ElementNotInGroup(f"index {x}")
        stack, target = self.conjugations(self.lattice_member(H))
        return stack[x], self.lattice[target[x]]

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
    Frobenius induction, conjugation of characters, and pointwise product.
    Every c_{H,x} of one H comes from one `chartab.conjugation_perms` over
    all x, with the targets read off `conjugation_index`."""
    lattice = subgroup_lattice(G)
    conj = conjugation_index(G)
    index = {s.key: i for i, s in enumerate(lattice)}
    xs = np.arange(G.order)

    def size_fn(H):
        return character_table(H.group(), ctx).size

    def r_fn(H, K):
        return reciprocity_block(K, (H,), K, ctx).T

    def i_fn(K, H):
        return reciprocity_block(K, (K,), H, ctx).T

    def c_fn(H):
        target = conj[index[H.key]]
        perm = chartab.conjugation_perms(H, lattice, target, ctx)
        n = perm.shape[1]
        stack = np.zeros((G.order, n, n), dtype=np.int64)
        stack[xs[:, None], perm, np.arange(n)] = 1
        return stack, target

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
    lattice = subgroup_lattice(F)
    index = {s.key: i for i, s in enumerate(lattice)}

    def c_fn(H):
        stack, targets, which = eng.conjugations(H)
        return stack, np.array([index[T.key] for T in targets])[which]

    return MackeyFamily(
        F,
        lattice,
        f"equivariant K0 family (|F|={F.order}, |G|={datum.G.order}, p={ctx.p})",
        lambda H: len(eng.basis(H).labels),
        eng.restriction,
        eng.induction,
        c_fn,
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
    it is computed once per S and kept in `cache` (keyed by the lattice
    index of S alone, so a cache passed in must serve one H only; the
    verifier keeps one per (L, H) of class representatives, so it calls
    this, and `double_coset_reps`, once per representative triple).  The
    terms are summed as one stacked product of the cached P_S with the
    c_{K,x} read off `fam.conjugations(K)`, exactly in int64."""
    cache = {} if cache is None else cache
    stack, target = fam.conjugations(K)
    reps = double_coset_reps(fam.ambient, H, K)
    xs = reps[L.mask[reps]]
    Ps = []
    for t in target[xs].tolist():
        P = cache.get(t)
        if P is None:
            xk = fam.lattice[t]
            meet = fam.lattice_member(xk.intersect(H))
            P = cache[t] = fam.induction(meet, H) @ fam.restriction(xk, meet)
        Ps.append(P)
    return (np.stack(Ps) @ stack[xs]).sum(axis=0)


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
    """Check identity maps (M0), transitivity of restriction (M1) and
    induction (M2), composition of conjugations (M3) and conjugation
    compatibility (Mc) exhaustively, and the double-coset relation once per
    conjugacy class of triples: at the top level (M4) and inside every
    proper subgroup (M4rel).  Each report row names its mode: "exhaustive"
    or "classes".

    Write xS = xSx^-1.  M3 is checked on every triple (H, x, y), one stacked
    product per (H, x): with C_H[x] = c_{H,x} stacked over all x in G, the
    checks for every y are C_{xH} @ c_{H,x} == C_H[yx], one result per y,
    recorded in increasing y (so witnesses come out in triple-loop order).

    Mc is checked on every nested pair K <= H and every x in G, stacked over
    x the same way: c_{K,x} R^H_K = R^{xH}_{xK} c_{H,x} and
    c_{H,x} I^H_K = I^{xH}_{xK} c_{K,x}.  A check at (H, K, x) also fails
    when c_{H,x} or c_{K,x} names a target other than the conjugate (read
    off `conjugation_index`), so where Mc holds the family's targets are
    the conjugates.

    M4 at (L, H, K), for H, K <= L, is R^L_H I^L_K = D(L, H, K), where
    D(L, H, K) is the sum over x in H\\L/K of
    T_x = I^H_{H n xK} R^{xK}_{H n xK} c_{K,x}.  It is checked only where L
    is the first of its G-conjugacy class in lattice order and H and K are
    each the first of their L-conjugacy class among the subgroups of L; the
    classes are read off the targets of the conjugation stacks.

    Lemma.  Given M0, M3 and Mc (all exhaustive here):
      (a) T_x depends only on the double coset HxK, so D does not depend on
          the choice of representatives;
      (b) M4 holds at (L, H, K) iff it holds at (gL, gH, gK), for g in G;
      (c) M4 holds at (L, H, K) iff it holds at (L, aH, bK), for a, b in L.
    Every (L', H', K') with H', K' <= L' is (gL, g(aH), g(bK)) for a class
    representative (L, H, K), some g in G and a, b in L, and L' = G iff
    L = G.  So M4 and M4rel at the representatives imply them everywhere.

    Proof.  Each c_{S,g} is invertible: c_{gS,g^-1} c_{S,g} = c_{S,1} = id
    by M3 and M0, and likewise with g and g^-1 swapped.  Let S = H n xK.
      (a) For h in H and k in K, c_{K,hxk} = c_{xK,h} c_{K,x} c_{K,k}
          = c_{xK,h} c_{K,x} (M3, M0), hxK = h(xK) and H n hxK = hS.  By Mc
          for S <= xK and S <= H, and M0 for c_{H,h}:
          R^{hxK}_{hS} c_{xK,h} = c_{S,h} R^{xK}_S and
          I^H_{hS} c_{S,h} = c_{H,h} I^H_S = I^H_S, so T_{hxk} = T_x.
      (b) Write ' for conjugation by g.  By Mc for H <= L and K <= L,
          c_{H,g} R^L_H I^L_K = R^{L'}_{H'} c_{L,g} I^L_K
          = R^{L'}_{H'} I^{L'}_{K'} c_{K,g}.  Conjugation by g carries
          H\\L/K onto H'\\L'/K', x to x' = gxg^-1, with x'K' = g(xK) and
          H' n x'K' = gS.  By Mc for S <= H and S <= xK, then M3 twice
          (c_{xK,g} c_{K,x} = c_{K,gx} = c_{K',x'} c_{K,g}):
          c_{H,g} T_x = I^{H'}_{gS} c_{S,g} R^{xK}_S c_{K,x}
          = I^{H'}_{gS} R^{g(xK)}_{gS} c_{xK,g} c_{K,x} = T'_{x'} c_{K,g}.
          With (a), c_{H,g} D(L, H, K) = D(L', H', K') c_{K,g}: both sides
          of M4 are carried over by the invertible c_{H,g} and c_{K,g}.
      (c) For a in L, Mc for H <= L and M0 for c_{L,a} give
          R^L_{aH} = c_{H,a} R^L_H; the ax with x in H\\L/K represent
          aH\\L/K, and T^{aH}_{ax} = c_{H,a} T_x as in (b) with K left
          alone (c_{K,ax} = c_{xK,a} c_{K,x}).  For b in L, Mc for K <= L
          and M0 give I^L_{bK} c_{K,b} = I^L_K; the xb^-1 represent
          H\\L/bK, with (xb^-1)(bK) = xK and c_{bK,xb^-1} c_{K,b} = c_{K,x}
          (M3), so T^{bK}_{xb^-1} c_{K,b} = T_x.  Each side of M4 moves by
          the same invertible map.  QED

    When M0, M3 or Mc fails the report already fails, so a report that
    passes has checked M4 at every triple.  Every conjugate and every
    intersection of lattice subgroups is in the lattice, so every map the
    proof names is one the family defines.

    Every product is int64, which wraps silently past 2**63.  The deepest
    chain is the double-coset side: a sum over at most |G| double cosets
    of (I R) c, each entry a sum of n^2 products of three entries, for n
    the largest a(H).  So with t the largest |entry| of every R, I and c
    the report read (those of every nested pair and every subgroup), each
    sum's terms add up to at most |G| n^2 t^3, which bounds every other
    check too.  Before the report is returned that bound is checked to be
    below 2**53 (`_kernels.require_exact`); above it the verifier raises
    `ExactnessBoundExceeded` rather than return what a wrapped product may
    have passed."""
    lattice = fam.lattice
    report = AxiomReport(title=fam.title)
    G = fam.ambient

    # stacks[i][x] = matrix of c_{lattice[i], x} and target[i, x] = lattice
    # index of its target, for every x in G
    stacks, target = zip(*(fam.conjugations(H) for H in lattice))
    target = np.array(target)

    for hi, H in enumerate(lattice):
        ident = np.eye(fam.size(H), dtype=np.int64)
        report.record("M0", np.array_equal(fam.restriction(H, H), ident),
                      (H, "R"), "R_H^H = id")
        report.record("M0", np.array_equal(fam.induction(H, H), ident),
                      (H, "I"), "I_H^H = id")
        ok = (target[hi, H.members] == hi) & (stacks[hi][H.members] == ident).all(axis=(1, 2))
        report.record_all("M0", ok, lambda i: (H, f"c_{int(H.members[i])}"),
                          "c_{H,h} = id for h in H")

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

    for hi, (H, c_h) in enumerate(zip(lattice, stacks)):
        for x in range(G.order):
            # [y] = (c_y c_x == c_yx) for every y in G at once
            ok = (stacks[target[hi, x]] @ c_h[x] == c_h[G.mult[:, x]]).all(axis=(1, 2))
            report.record_all("M3", ok, lambda y: (H, x, y), "c_y c_x = c_yx")

    count = len(lattice)
    # [i, x] = (the target of c_{lattice[i], x} is x lattice[i] x^-1)
    is_conjugate = target == conjugation_index(G)
    for ki, K in enumerate(lattice):
        for hi in above[ki]:
            H = lattice[hi]
            good = is_conjugate[hi] & is_conjugate[ki]
            # where a target is wrong, compare against (H, K) itself: that x fails
            code = np.where(good, target[hi] * count + target[ki], hi * count + ki)
            code_sorted = np.sort(code)
            pairs = code_sorted[np.diff(code_sorted, prepend=-1) != 0]
            at = np.searchsorted(pairs, code)
            moved = [(lattice[p // count], lattice[p % count]) for p in pairs.tolist()]
            ok = good & (
                stacks[ki] @ fam.restriction(H, K)
                == np.stack([fam.restriction(xh, xk) for xh, xk in moved])[at] @ stacks[hi]
            ).all(axis=(1, 2))
            report.record_all("Mc", ok, lambda x: (H, K, x), "c R = R c")
            ok = good & (
                stacks[hi] @ fam.induction(K, H)
                == np.stack([fam.induction(xk, xh) for xh, xk in moved])[at] @ stacks[ki]
            ).all(axis=(1, 2))
            report.record_all("Mc", ok, lambda x: (H, K, x), "c I = I c")

    full = lattice[-1]
    for li, L in enumerate(lattice):
        if target[li].min() < li:
            continue
        axiom = "M4" if L.key == full.key else "M4rel"
        inside = [
            S for si, S in enumerate(lattice)
            if (si, li) in contained and target[si, L.members].min() == si
        ]
        for H in inside:
            cache = {}
            for K in inside:
                lhs = fam.restriction(L, H) @ fam.induction(K, L)
                rhs = _double_coset_side(fam, L, H, K, cache)
                report.record(axiom, np.array_equal(lhs, rhs), (L, H, K),
                              "double-coset relation", lhs, rhs)
    n = max(s.shape[1] for s in stacks)
    maps = [*stacks]
    for ki, hi in contained:
        H, K = lattice[hi], lattice[ki]
        maps += [fam.restriction(H, K), fam.induction(K, H)]
    top = max(_top(m) for m in maps)
    _kernels.require_exact(
        G.order * n * n * top ** 3,
        f"Mackey checks need |G| n^2 max|R, I, c|^3 below 2**53, "
        f"got |G|={G.order}, n={n}, max={top}",
    )
    report.modes.update(dict.fromkeys(("M0", "M1", "M2", "M3", "Mc"), "exhaustive"),
                        M4="classes", M4rel="classes")
    return report


def verify_green_axioms(fam: MackeyFamily) -> AxiomReport:
    """Check that every a(H) is an associative unital ring, that restriction
    and conjugation are unitary ring maps (G1), and both projection formulas
    (G2), (G3) on all basis pairs of every nested pair of subgroups.

    Associativity is `fusion.associativity_failure` (O(n^3) memory), which
    checks the slices of a generating set of basis elements and proves the
    rest by its generator lemma.  G1, G2 and G3 are exhaustive: every basis
    pair of every map and every nested pair.  They are float64 BLAS
    products on float64 copies of the product tensors, exact by the lemma
    of `_kernels.require_exact`; each check states its bound and raises
    `ExactnessBoundExceeded` above it.  G1 for conjugation stacks the
    c_{H,x} with one target and checks them together (`_ring_maps_hold`),
    recorded in increasing x; G1 for restriction is the same check on a
    stack of one map.  G2 and G3 compare both sides in blocks of basis
    elements of a(K) (`_projection_holds`), and build the integer sides
    only for a witness.  A family without a multiplication raises
    `NoRingStructure` at its first `product_tensor`."""
    lattice = fam.lattice
    report = AxiomReport(title=fam.title)

    # [i] = the ring of lattice[i], its int64 tensor dropped once the ring
    # checks are done
    rings = []
    for H in lattice:
        t, u = fam.product_tensor(H), fam.unit_index(H)
        ident = np.eye(len(t), dtype=np.int64)
        report.record("ring", fusion.associativity_failure(t) is None, (H,),
                      "associativity on basis triples")
        report.record("ring", np.array_equal(t[u], ident) and np.array_equal(t[:, u], ident),
                      (H,), "two-sided unit")
        rings.append(_Ring(t.astype(np.float64), u, _top(t)))

    for hi, H in enumerate(lattice):
        for ki, K in enumerate(lattice):
            if not H.contains(K) or ki == hi:
                continue
            r = fam.restriction(H, K).astype(np.float64)
            ok = _ring_maps_hold(r[None], rings[hi], rings[ki])[0]
            report.record("G1", ok, (H, K), "R is a unitary ring map")
        stack, target = fam.conjugations(H)
        ok = np.empty(len(target), dtype=bool)
        for t in sorted(set(target.tolist())):
            xs = np.flatnonzero(target == t)
            ok[xs] = _ring_maps_hold(stack[xs].astype(np.float64), rings[hi], rings[t])
        report.record_all("G1", ok, lambda x: (H, f"x={x}"), "c is a unitary ring map")

    for H, rh in zip(lattice, rings):
        for K, rk in zip(lattice, rings):
            if not H.contains(K):
                continue
            r = fam.restriction(H, K).astype(np.float64)
            ind = fam.induction(K, H).astype(np.float64)
            for axiom, tk, th, detail in (
                ("G2", rk.t, rh.t, "I(a R(b)) = I(a) b"),
                ("G3", rk.t.transpose(1, 0, 2), rh.t.transpose(1, 0, 2), "I(R(b) a) = b I(a)"),
            ):
                if _projection_holds(r, ind, tk, th, rk.top, rh.top):
                    report.record(axiom, True, (H, K), detail)
                else:
                    lhs, rhs = _projection_block(r, ind, tk, th, 0, len(r))
                    report.record(axiom, False, (H, K), detail,
                                  lhs.astype(np.int64), rhs.astype(np.int64))
    return report


# Entries of the largest float64 temporary one step of a G1-G3 check holds
# (128 KiB); one product over the whole stack of 12 maps at n = 40 would
# hold 12 * 40 rows of 40^2 entries, 6 MiB, in each of its temporaries.
_CHUNK = 1 << 14


def _top(a) -> int:
    """max|a| as a Python int, without an |a| temporary."""
    return int(max(a.max(initial=0), -a.min(initial=0)))


class _Ring(NamedTuple):
    """A based ring for the G1-G3 checks: its product tensor in float64,
    t[i, j, k] = N_ij^k, the index of its unit and max|t|."""

    t: np.ndarray
    unit: int
    top: int


def _ring_maps_hold(maps, src: _Ring, dst: _Ring) -> np.ndarray:
    """[x] = (f = maps[x] is a unitary ring map): f(e_{src.unit}) =
    e_{dst.unit} and f(e_i e_j) = f(e_i) f(e_j) on all basis pairs, for a
    stack of float64 maps (k, nd, ns) from src to dst.

    The k * ns rows (x, i), f_x(e_i) in row form, are taken in chunks of
    about _CHUNK / max(nd, ns)^2 rows, which may split one map's rows; a
    chunk's three products are
      left[(x, i), b, m] = (f_x(e_i) e_b)_m     rows @ dst.t as nd x nd^2
      [(x, i), j, m] = (f_x(e_i) f_x(e_j))_m    f_x^T @ left, batched
      [(x, i), j, a] = f_x(e_i e_j)_a           src.t[i] @ f_x^T, batched
    The right side is a sum over b and a of nd^2 terms of absolute value at
    most max|f|^2 max|t_dst|, the image one of ns terms at most
    max|f| max|t_src|, so both are exact by `_kernels.require_exact` below
    those bounds."""
    k, nd, ns = maps.shape
    top = _top(maps)
    _kernels.require_exact(
        max(nd * nd * top * top * dst.top, ns * top * src.top),
        f"ring-map check needs nd^2 max|f|^2 max|t_dst| and ns max|f| max|t_src| "
        f"below 2**53, got nd={nd}, ns={ns}, max|f|={top}",
    )
    ok = (maps[:, :, src.unit] == np.eye(nd)[dst.unit]).all(axis=1)
    images = maps.transpose(0, 2, 1)  # [x, i, a] = f_x(e_i)_a
    rows = images.reshape(k * ns, nd)
    by_dst = dst.t.reshape(nd, nd * nd)
    row_ok = np.empty(k * ns, dtype=bool)
    step = max(1, _CHUNK // max(nd, ns) ** 2)
    for r0 in range(0, k * ns, step):
        r1 = min(r0 + step, k * ns)
        x, i = np.divmod(np.arange(r0, r1), ns)
        f = images[x]
        left = (rows[r0:r1] @ by_dst).reshape(-1, nd, nd)
        row_ok[r0:r1] = (f @ left == src.t[i] @ f).all(axis=(1, 2))
    return ok & row_ok.reshape(k, ns).all(axis=1)


def _projection_block(r, ind, tk, th, a0, a1):
    """[a - a0, b, :] of I(e_a R(e_b)) and of I(e_a) e_b for a in [a0, a1),
    r = R_K^H and ind = I_K^H, all float64; with both tensors transposed in
    their first two axes, of I(R(e_b) e_a) and e_b I(e_a)."""
    induced = tk[a0:a1] @ ind.T  # [a, c, l] = I(e_a e_c)_l
    lhs = r.T @ induced  # [a, b, l] = I(e_a R(e_b))_l
    rhs = ind[:, a0:a1].T @ th.transpose(1, 0, 2)  # [b, a, l] = (I(e_a) e_b)_l
    return lhs, rhs.transpose(1, 0, 2)


def _projection_holds(r, ind, tk, th, top_k: int, top_h: int) -> bool:
    """Whether `_projection_block`'s two sides agree for every a, over
    blocks of about _CHUNK / (nh max(nh, nk)) basis elements a of a(K), for
    top_k = max|tk| and top_h = max|th|.  The left side is a sum over c and
    m of nk^2 terms of absolute value at most max|r| top_k max|ind|, the
    right one of nh terms at most max|ind| top_h, so both are exact by
    `_kernels.require_exact` below those bounds."""
    nk, nh = r.shape
    top_ind = _top(ind)
    _kernels.require_exact(
        max(nk * nk * _top(r) * top_k * top_ind, nh * top_ind * top_h),
        f"projection check needs nk^2 max|R| max|t_K| max|I| and nh max|I| max|t_H| "
        f"below 2**53, got nk={nk}, nh={nh}",
    )
    step = max(1, _CHUNK // (nh * max(nh, nk)))
    return all(
        np.array_equal(*_projection_block(r, ind, tk, th, a0, a0 + step))
        for a0 in range(0, nk, step)
    )
