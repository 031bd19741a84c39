"""Mackey and Green functor families over a subgroup lattice, and the
machine verifier for their axioms.

A family assigns to every lattice subgroup H a free Z-module with a fixed
basis, together with single-step restriction and induction matrices, the
conjugations as permutations of the basis, and optionally a ring: the int64
[i, j, k, N] rows of its nonzero structure constants (module `_rows`) and
the index of its unit.  Each c_{H,x} comes from an equivalence of
categories, so it sends simples to simples: the family gives it as an int
row, c_{H,x}(e_j) = e_{perm[x, j]}, and every check on it is a gather.  The
verifier composes those single-step maps itself, so transitivity and the
double-coset relation are checked against independent re-compositions
rather than any internal shortcut of the family.  Identity maps,
transitivity, composition of conjugations and conjugation compatibility are
checked on every instance; the double-coset relation once per conjugacy
class of triples (L, H, K), which a lemma in `verify_mackey_axioms` proves
is enough once those pass.  These checks are gathers and int64 products,
exact while |G| n t^2 < 2**53 (n the largest rank, t the largest |entry| of
an R or I read, at least 1); the verifier checks that bound before it
returns a report.
The Green axioms (unitary ring maps G1, projection formulas G2 and G3) are
checked on the rings' [i, j, k, N] rows: G1 for a conjugation as a lookup
of the source's rows among each target's (exhaustive by a support-size
lemma), G1 for a restriction and the projection formulas at each element
e_s of the generator set S_H of each ring, which a subring lemma proves is
enough, falling back to every basis element where its premises fail.  At
e_s each axiom is one equation of float64 products of R, I, two slices of
a(H)'s table and the matrices of multiplication by R(e_s) in a(K), exact
below a bound each check states (`_kernels.require_exact`); see
`verify_green_axioms`.

Two families ship: the character rings of all subgroups, and the
equivariantization family built on the fusion engine.  The first realizes
the classical Mackey decomposition; the second exercises it for genuinely
categorical actions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels, chartab, fusion
from ._rows import associativity_failure, is_two_sided_unit, rows_of
from .chartab import ModularContext, character_table, reciprocity_block
from .errors import ElementNotInGroup, InvariantViolation, NoRingStructure, NotASubgroup
from .permgrp import Group, Subgroup, conjugation_index, double_coset_reps, subgroup_lattice
from .reports import AxiomReport


class MackeyFamily:
    """Based family {a(H)} over a lattice with R/I maps as integer matrices
    and c maps as permutations of the basis.

    `lattice` is `subgroup_lattice(ambient)`, in its order.  The R and I
    callbacks return one matrix per pair of subgroups; the c callback
    returns, for one subgroup H, (perm, target): perm of shape (|G|, n),
    n = size(H), with c_{H,x}(e_j) = e_{perm[x, j]}, and target[x] the
    lattice index of the subgroup c_{H,x} names, for every x in G.  The
    optional ring callback returns, for one H, (rows, unit): the int64
    [i, j, k, N] rows of the nonzero structure constants of a(H) in
    ascending (i, j, k), and the index of its unit (`ring`).  R and I are
    cached by subgroup membership keys and each (perm, target) by H's key
    (`conjugations`), since the verifiers read each one many times; sizes
    and rings are not, since each is read once per subgroup (the Green
    verifier keeps the rows).
    """

    def __init__(self, ambient, lattice, title, size_fn, r_fn, i_fn, c_fn, ring_fn=None):
        self.ambient = ambient
        self.lattice = list(lattice)
        self.title = title
        self.index = {s.key: i for i, s in enumerate(self.lattice)}
        self._size_fn = size_fn
        self._r_fn = r_fn
        self._i_fn = i_fn
        self._c_fn = c_fn
        self._ring_fn = ring_fn
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
        """(perm, target): c_{H,x}(e_j) = e_{perm[x, j]} and target[x] is
        the lattice index of the subgroup it names, for every x in G, from
        one callback on first use.  Every row of perm is checked once to be
        a permutation of range(size(H)), and every target to have rank
        size(H); InvariantViolation otherwise."""
        hit = self._C.get(H.key)
        if hit is None:
            perm, target = self._c_fn(H)
            perm, target = np.asarray(perm), np.asarray(target, dtype=np.intp)
            n = self.size(H)
            ranks = {self.size(self.lattice[t]) for t in set(target.tolist())}
            if perm.shape != (self.ambient.order, n) or ranks != {n} or not (
                np.sort(perm, axis=1) == np.arange(n)
            ).all():
                raise InvariantViolation(
                    f"the conjugations of {H} are not {self.ambient.order} "
                    f"permutations of its {n} basis elements onto targets of that rank"
                )
            hit = self._C[H.key] = (perm.astype(np.intp), target)
        return hit

    def conjugation(self, H: Subgroup, x: int):
        """(matrix of c_{H,x} : a(H) -> a(xHx^-1), target subgroup), the
        matrix built from one row of `conjugations(H)`."""
        if not 0 <= x < self.ambient.order:
            raise ElementNotInGroup(f"index {x}")
        perm, target = self.conjugations(self.lattice_member(H))
        return np.eye(perm.shape[1], dtype=np.int64)[:, perm[x]], self.lattice[target[x]]

    def ring(self, H: Subgroup):
        """(rows, unit) of a(H) from one callback, checked as `conjugations`
        checks its rows: int64 rows of shape (m, 4), strictly ascending in
        (i, j, k), every index and the unit in range(size(H)), and no zero
        N; InvariantViolation otherwise.  NoRingStructure for a family
        without a ring callback."""
        if self._ring_fn is None:
            raise NoRingStructure("family has no multiplication")
        rows, unit = self._ring_fn(H)
        n = self.size(H)
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape[1:] == (4,)
                and 0 <= unit < n and ((rows[:, :3] >= 0) & (rows[:, :3] < n)).all()
                and rows[:, 3].all() and (np.diff(rows[:, :3] @ [n * n, n, 1]) > 0).all()):
            raise InvariantViolation(
                f"the ring of {H} is not int64 [i, j, k, N != 0] rows over its {n} basis "
                "elements, strictly ascending in (i, j, k), and a unit")
        return rows, int(unit)


def char_ring_family(G: Group, ctx: ModularContext) -> MackeyFamily:
    """The family H |-> (virtual characters of H), with restriction,
    Frobenius induction, conjugation of characters, and pointwise product.
    Every c_{H,x} of one H is a row of one `chartab.conjugation_perms`
    over all x, with the targets read off `conjugation_index`.  R^H_K and
    I^H_K come a lattice row at a time: the first request of a pair with
    lower subgroup K builds them for every overgroup H of K with one
    `chartab.restriction_blocks`, and each matrix is handed to the family
    once (the callbacks still run once per pair) and then dropped here."""
    lattice = subgroup_lattice(G)
    conj = conjugation_index(G)
    index = {s.key: i for i, s in enumerate(lattice)}
    nested = _nested(lattice)
    # K's key -> {(H's key, "R" or "I"): matrix} of the maps built with one
    # `chartab.restriction_blocks` and not yet handed to the family
    pending = {}

    def row_map(H, K, which):
        row = pending.get(K.key)
        if row is None or (H.key, which) not in row:
            overs = [lattice[i] for i in np.flatnonzero(nested[:, index[K.key]]).tolist()]
            row = pending[K.key] = {}
            for S, block in zip(overs, chartab.restriction_blocks(K, overs, ctx)):
                row[S.key, "R"], row[S.key, "I"] = np.ascontiguousarray(block.T), block
        m = row.pop((H.key, which))
        if not row:
            del pending[K.key]
        return m

    def size_fn(H):
        return character_table(H.group(), ctx).size

    def r_fn(H, K):
        return row_map(H, K, "R")

    def i_fn(K, H):
        return row_map(H, K, "I")

    def c_fn(H):
        target = conj[index[H.key]]
        return chartab.conjugation_perms(H, lattice, target, ctx), target

    return MackeyFamily(
        G,
        lattice,
        f"character rings of subgroups (|G|={G.order}, p={ctx.p})",
        size_fn,
        r_fn,
        i_fn,
        c_fn,
        ring_fn=lambda H: (rows_of(reciprocity_block(H, (H, H), H, ctx)), 0),
    )


def equivariant_k0_family(datum: fusion.CoherentDatum, ctx: ModularContext) -> MackeyFamily:
    """The family H |-> free Z-module on the equivariant simples over H.
    Its maps are the fusion engine's: restriction and induction matrices
    and conjugation rows, assembled once per orbit representative from
    cached reciprocity blocks and conjugation stacks, and the ring as the
    double-coset product rows of `_Engine.product_rows`, with the unit at
    the trivial character of the identity grading."""
    F = datum.F
    eng = fusion._engine(datum, ctx)
    lattice = subgroup_lattice(F)
    index = {s.key: i for i, s in enumerate(lattice)}

    def c_fn(H):
        perm, targets, which = eng.conjugations(H)
        return perm, np.array([index[T.key] for T in targets])[which]

    return MackeyFamily(
        F,
        lattice,
        f"equivariant K0 family (|F|={F.order}, |G|={datum.G.order}, p={ctx.p})",
        lambda H: len(eng.basis(H).labels),
        eng.restriction,
        eng.induction,
        c_fn,
        ring_fn=lambda H: (eng.product_rows(H), eng.basis(H).pos[(0, 0)]),
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
    this, and `double_coset_reps`, once per representative triple).  Each
    term P_S c_{K,x} is the gather P_S[:, perm[x]] of the row of c_{K,x}
    in `fam.conjugations(K)`, and the terms are summed exactly in int64."""
    cache = {} if cache is None else cache
    perm, target = fam.conjugations(K)
    reps = double_coset_reps(fam.ambient, H, K)
    xs = reps[L.mask[reps]]
    out = 0
    for x, t in zip(xs.tolist(), target[xs].tolist()):
        P = cache.get(t)
        if P is None:
            xk = fam.lattice[t]
            meet = fam.lattice_member(xk.intersect(H))
            P = cache[t] = fam.induction(meet, H) @ fam.restriction(xk, meet)
        out = out + P[:, perm[x]]
    return out


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

    Write xS = xSx^-1, and P_S for the rows of `fam.conjugations(S)`:
    c_{S,x}(e_j) = e_{P_S[x, j]}.  M0 for c is P_H[h] == arange(n) for h in
    H.  M3 is checked on every triple (H, x, y): c_{xH,y} c_{H,x} = c_{H,yx}
    is P_{xH}[y, P_H[x]] == P_H[yx].  The rows of H's distinct conjugates
    are stacked once per H, and every (x, y) is read off gathers of that
    stack over chunks of x, each chunk's temporaries at most 64 KiB (one
    chunk for every H of A5); the results are recorded in increasing
    (x, y), so witnesses come out in triple-loop order.

    The nested pairs come from one boolean product of the lattice's
    membership masks (`_nested`).

    Mc is checked on every nested pair K <= H and every x in G, by gathers
    over chunks of x: c_{K,x} R^H_K = R^{xH}_{xK} c_{H,x} is
    R^{xH}_{xK}[P_K[x, a], P_H[x, b]] == R^H_K[a, b] for all a, b, and
    c_{H,x} I^H_K = I^{xH}_{xK} c_{K,x} is the same with the axes of I and
    the roles of P_H and P_K swapped.  A check at (H, K, x) also fails
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

    Every product is int64, which wraps silently past 2**63.  Let n be the
    largest rank of an a(H) and t the largest |entry| of every R and I the
    report read (those of every nested pair), and at least 1.  M0, M3 and
    Mc compare gathers and multiply nothing.  M1 and M2 form R R and I I,
    and M4 forms R I on its left side and I R on its right: each entry is
    a sum of at most n products of two entries, its terms adding up to at
    most n t^2.  The right side of M4 then gathers columns of those
    products (c is a permutation) and adds them over the double cosets,
    at most |G| of them, so every sum any check forms has terms adding up
    to at most |G| n t^2.  Before the report is returned that bound is
    checked to be below 2**53 (`_kernels.require_exact`), so every product
    and partial sum is exact; above it the verifier raises
    `ExactnessBoundExceeded` rather than return what a wrapped product may
    have passed."""
    lattice = fam.lattice
    report = AxiomReport(title=fam.title)
    G = fam.ambient

    # c_{lattice[i], x}(e_j) = e_{perms[i][x, j]} and target[i, x] = lattice
    # index of its target, for every x in G
    perms, target = zip(*(fam.conjugations(H) for H in lattice))
    target = np.array(target)

    for hi, H in enumerate(lattice):
        n = fam.size(H)
        ident = np.eye(n, dtype=np.int64)
        report.record("M0", np.array_equal(fam.restriction(H, H), ident),
                      (H, "R"), "R_H^H = id")
        report.record("M0", np.array_equal(fam.induction(H, H), ident),
                      (H, "I"), "I_H^H = id")
        ok = (target[hi, H.members] == hi) & (perms[hi][H.members] == np.arange(n)).all(axis=1)
        report.record_all("M0", ok, lambda i: (H, f"c_{int(H.members[i])}"),
                          "c_{H,h} = id for h in H")

    # (i, j) for lattice[i] <= lattice[j], inserted in row-major order: the
    # set's iteration order, which orders the M1, M2 and Mc records and so
    # the pinned witnesses, depends on it
    contained = set(map(tuple, np.argwhere(_nested(lattice).T).tolist()))
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

    order = G.order
    for hi, (H, p_h) in enumerate(zip(lattice, perms)):
        # rows[s n + j, y] = P_{conj[s]}[y, j] for the distinct conjugates of
        # H, stacked once in the narrowest dtype that holds a basis index
        # (every row is a permutation of range(n), checked by
        # `conjugations`); xH is conj[at[x]]
        n = p_h.shape[1]
        narrow = np.min_scalar_type(n - 1)
        conj = sorted(set(target[hi].tolist()))
        at = np.searchsorted(conj, target[hi])
        rows = np.stack([perms[t].T for t in conj], dtype=narrow, casting="unsafe")
        rows = rows.reshape(-1, order)
        p_h_narrow = p_h.astype(narrow)
        # [x, y] = (c_y c_x == c_yx), one gather of rows per chunk of x for
        # every y in G, each index a single array (numpy buffers an index
        # of several arrays, 64 KiB per operand); a temporary holds at most
        # |G| max(n, 8) bytes per x (8 for the intp copy of the int32 index)
        ok = np.empty((order, order), dtype=bool)
        for xs in _kernels.chunks(order, order * max(n, 8)):
            moved = rows[at[xs, None] * n + p_h[xs]]  # [x, j, y] = P_{xH}[y, P_H[x, j]]
            ok[xs] = (moved == p_h_narrow[G.mult[:, xs].T].transpose(0, 2, 1)).all(axis=1)
        report.record_all("M3", ok.ravel(), lambda i: (H, *divmod(i, order)),
                          "c_y c_x = c_yx")

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
            at = np.searchsorted(pairs, code)[:, None, None]
            moved = [(lattice[p // count], lattice[p % count]) for p in pairs.tolist()]
            p_h, p_k = perms[hi], perms[ki]
            r, ind = fam.restriction(H, K), fam.induction(K, H)
            moved_r = np.stack([fam.restriction(xh, xk) for xh, xk in moved])
            ok = good.copy()
            for xs in _kernels.chunks(order, 8 * r.size):
                gathered = moved_r[at[xs], p_k[xs, :, None], p_h[xs, None]]
                ok[xs] &= (gathered == r).all(axis=(1, 2))
            report.record_all("Mc", ok, lambda x: (H, K, x), "c R = R c")
            moved_i = np.stack([fam.induction(xk, xh) for xh, xk in moved])
            ok = good.copy()
            for xs in _kernels.chunks(order, 8 * ind.size):
                gathered = moved_i[at[xs], p_h[xs, :, None], p_k[xs, None]]
                ok[xs] &= (gathered == ind).all(axis=(1, 2))
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
    n = max(p.shape[1] for p in perms)
    top = 1
    for ki, hi in contained:
        H, K = lattice[hi], lattice[ki]
        top = max(top, _top(fam.restriction(H, K)), _top(fam.induction(K, H)))
    _kernels.require_exact(
        G.order * n * top * top,
        f"Mackey checks need |G| n max|R, I|^2 below 2**53, "
        f"got |G|={G.order}, n={n}, max={top}",
    )
    report.modes.update(dict.fromkeys(("M0", "M1", "M2", "M3", "Mc"), "exhaustive"),
                        M4="classes", M4rel="classes")
    return report


def verify_green_axioms(fam: MackeyFamily) -> AxiomReport:
    """Check that every a(H) is an associative unital ring, that restriction
    and conjugation are unitary ring maps (G1), and both projection formulas
    (G2), (G3) for every nested pair of subgroups K <= H:
      G1  R(a b) = R(a) R(b) and R(1) = 1, R = R^H_K;
      G2  I(a R(b)) = I(a) b;
      G3  I(R(b) a) = b I(a),  I = I^H_K, for a in a(K) and b in a(H).
    Each report row names its mode: "generators" where every check of the
    axiom ran by its lemma below, "exhaustive" where any check fell back to
    every basis element.

    Each ring comes from `fam.ring` as [i, j, k, N] rows, the format
    `fusion.fusion_ring` checks, with the same checks: the unit by
    `_rows.is_two_sided_unit`, and associativity by
    `_rows.associativity_failure` on the generator set S_H of
    `_rows._generators`, which it returns: one run per ring.  The G checks
    keep, per ring, its rows, S_H, its unit and max|N| (`_Ring`); no
    (n, n, n) table is made.  The nested pairs come from one boolean
    product (`_nested`), in ascending lattice index; the G2 and G3 rows are
    recorded after every G1 row.

    Lemma (G1 to G3 on generators).  Let a(H) and a(K) be associative with
    units 1 (both ring checks pass), and R unital.  The sets
      T1 = {a in a(H) : R(a b) = R(a) R(b) for all b},
      T2 = {b in a(H) : I(a R(b)) = I(a) b for all a in a(K)},
      T3 = {b in a(H) : I(R(b) a) = b I(a) for all a in a(K)}
    are kernels of linear maps, so subspaces, and each contains 1.  T1 is
    closed under products: for s, a in T1,
    R((s a) b) = R(s (a b)) = R(s) R(a b) = R(s) R(a) R(b) = R(s a) R(b).
    Where G1 holds for the pair, so are T2 and T3: for s, b in T2,
    I(a R(s b)) = I((a R(s)) R(b)) = I(a R(s)) b = (I(a) s) b = I(a)(s b),
    and for s, b in T3, I(R(s b) a) = I(R(s) (R(b) a)) = s I(R(b) a)
    = s (b I(a)) = (s b) I(a).  So each T that contains S_H contains the
    span W of 1 and S_H under left multiplication by S_H, which is all of
    a(H): `_rows._generators` grows S_H from the first left unit, which is 1
    (a two-sided unit is the only left unit), until W has rank n_H mod a
    prime, hence over Q (the rank argument of
    `_rows.associativity_failure`).
    So G1 is checked on the rows a = e_s and G2, G3 on the b = e_s for s in
    S_H, against every basis element of the other side.  Where a premise
    fails (a ring check, for G2 and G3 also G1 for the pair, and for K = H
    R^H_H = id in place of G1) or the reduced check fails, the axiom is
    checked on every basis element instead, and a failing G2 or G3 keeps
    its witness over every b.

    G1 for c_{H,x}, the permutation e_j -> e_{p[j]} of the row p of
    `fam.conjugations(H)`, is a unitary ring map iff p[u_H] = u_xH and
    N^{xH}_{p(i) p(j)}^{p(k)} = N^H_ij^k for all i, j, k.  It is checked for
    every x in one call per H (`_permutes_rings`) and recorded in increasing
    x: the units, equal numbers of rows, and a lookup of (p(i), p(j), p(k))
    in the target's ascending row keys over the rows (i, j, k) of H.
    Lemma: that is the whole condition.  (i, j, k) -> (p i, p j, p k) is a
    bijection of triples.  If every nonzero entry of H maps to an equal
    entry of xH, the support of H maps into the support of xH, and if the
    two supports have equal size it maps onto it.  So every zero of H maps
    to a zero, and the check is exhaustive.

    G1 for restriction, G2 and G3 are checked together, one pair at a time
    and one basis element e_s of a(H) at a time (`_pair_holds`).  Write
    t[s] for the slice [j, k] = N_sj^k and t[:, s] for [h, l] = N_hs^l,
    and let v = R(e_s).  Its multiplication matrices in a(K),
    L(v)[c, m] = (v e_c)_m and Rt(v)[a, m] = (e_a v)_m, are one
    `np.bincount` each over the rows of a(K) (`_multiplication`), and the
    three axioms at e_s are six float64 products (`_element_sides`):
      G1  t_H[s] R^T = R^T L(v),
      G2  Rt(v) I^T = I^T t_H[:, s],
      G3  L(v) I^T = I^T t_H[s].
    The dense slices t_H[s] and t_H[:, s] are made once per H for each s in
    S_H (`_slice_pair`) and dropped after that H; the fallback makes them
    for one b at a time.  Each sum is exact by the lemma of
    `_kernels.require_exact`; each check states its bound and raises
    `ExactnessBoundExceeded` above it.  A family without a multiplication
    raises `NoRingStructure` at its first `ring`."""
    lattice = fam.lattice
    report = AxiomReport(title=fam.title)
    modes = dict.fromkeys(("ring", "G1", "G2", "G3"), "generators")

    rings = []
    for H in lattice:
        rows, u = fam.ring(H)
        n = fam.size(H)
        bad, gens = associativity_failure(rows, n)
        unit_ok = is_two_sided_unit(rows, n, u)
        report.record("ring", bad is None, (H,), "associativity on basis triples")
        report.record("ring", unit_ok, (H,), "two-sided unit")
        if gens is None or bad is not None:
            modes["ring"] = "exhaustive"
        ok = bad is None and unit_ok
        rings.append(_Ring(rows, n, u, _top(rows[:, 3]),
                           np.array(gens, dtype=np.intp) if ok else None))

    # [hi] = lattice indices of the subgroups of lattice[hi], ascending; the
    # G2 and G3 records wait in `later` so that they follow every G1 record
    below = [np.flatnonzero(row).tolist() for row in _nested(lattice)]
    later = []
    for hi, H in enumerate(lattice):
        rh = rings[hi]
        # t_H[s] and t_H[:, s] for s in S_H, for every K <= H
        slices = None if rh.gens is None else [_slice_pair(rh, s) for s in rh.gens]
        for ki in below[hi]:
            K, rk = lattice[ki], rings[ki]
            r = fam.restriction(H, K).astype(np.float64)
            ind = fam.induction(K, H).astype(np.float64)
            reduced = slices is not None and rk.gens is not None
            held = _pair_holds(r, ind, rk, rh, rh.gens, slices) if reduced else [False] * 3
            # G2 and G3 need G1 for the pair, and R^H_H = id in its place
            premise = reduced and (held[0] if ki != hi else np.array_equal(r, np.eye(rh.n)))
            full = None
            for i in range(1 if ki == hi else 0, 3):  # no G1 row for K = H
                axiom = _AXIOMS[i]
                ok = held[i] and (i == 0 or premise)
                if not ok:
                    modes[axiom] = "exhaustive"
                    full = full or _pair_holds(r, ind, rk, rh, np.arange(rh.n))
                    ok = full[i]
                if i == 0:
                    report.record("G1", ok, (H, K), "R is a unitary ring map")
                else:
                    witness = () if ok else _projection_witness(axiom, r, ind, rk, rh)
                    later.append((axiom, ok, (H, K), witness))
        ok = _permutes_rings(*fam.conjugations(H), rh, rings)
        report.record_all("G1", ok, lambda x: (H, f"x={x}"), "c is a unitary ring map")
    detail = {"G2": "I(a R(b)) = I(a) b", "G3": "I(R(b) a) = b I(a)"}
    for axiom, ok, context, witness in later:
        report.record(axiom, ok, context, detail[axiom], *witness)
    report.modes.update(modes)
    return report


def _nested(lattice) -> np.ndarray:
    """[i, j] = (lattice[j] <= lattice[i]), from one boolean product of the
    membership masks: lattice[j] <= lattice[i] iff no member of lattice[j]
    lies outside lattice[i].  A boolean product runs in numpy's own loop:
    a float BLAS product of this size raised the peak RSS of
    `verify mackey --family char:alt:5` by about 0.2 MiB."""
    masks = np.stack([S.mask for S in lattice])
    return ~(~masks @ masks.T)


def _top(a) -> int:
    """max|a| as a Python int, without an |a| temporary."""
    return int(max(a.max(initial=0), -a.min(initial=0)))


class _Ring(NamedTuple):
    """A based ring for the G1-G3 checks: its int64 [i, j, k, N] rows,
    ascending, its rank, the index of its unit, max|N|, and the generator
    set S of the lemma of `verify_green_axioms` (`_rows._generators`), or
    None where the ring failed a ring check and the lemma does not apply."""

    rows: np.ndarray
    n: int
    unit: int
    top: int
    gens: np.ndarray | None


def _slice_pair(ring: _Ring, s: int):
    """The dense float64 slices t[s], [j, k] = N_sj^k, and t[:, s],
    [h, l] = N_hs^l, of the table t[i, j, k] = N_ij^k, from the rows."""
    rows, n = ring.rows, ring.n
    left, right = np.zeros((n, n)), np.zeros((n, n))
    at = rows[rows[:, 0] == s]
    left[at[:, 1], at[:, 2]] = at[:, 3]
    at = rows[rows[:, 1] == s]
    right[at[:, 0], at[:, 2]] = at[:, 3]
    return left, right


def _multiplication(ring: _Ring, v, left: bool) -> np.ndarray:
    """The float64 matrix of multiplication by v (float64 coefficients) in
    the ring: [c, m] = (v e_c)_m if `left`, else [a, m] = (e_a v)_m.  One
    `np.bincount` over the rows: (v e_c)_m sums v_i N_ic^m over the rows
    [i, c, m], (e_a v)_m sums v_j N_aj^m over the rows [a, j, m], and a bin
    adds at most n terms of at most max|v| max|N| (the callers' bounds cover
    them).  Selecting the rows where v is nonzero first took the G1-G3
    checks of `equiv:dihedral:12` from 141 to 184 ms (2 CPUs, best of 7)."""
    rows, n = ring.rows, ring.n
    coef, at = (rows[:, 0], rows[:, 1]) if left else (rows[:, 1], rows[:, 0])
    return np.bincount(at * n + rows[:, 2], v[coef] * rows[:, 3], minlength=n * n).reshape(n, n)


def _permutes_rings(perm, target, src: _Ring, rings) -> np.ndarray:
    """[x] = whether e_i -> e_{perm[x, i]}, a permutation, is a unitary
    ring map from src to rings[target[x]], for every row x of perm: the
    map sends the unit to the unit, and f(e_i e_j) = f(e_i) f(e_j) is
    sum_k N^src_ij^k e_{p(k)} = sum_m N^dst_{p(i) p(j)}^m e_m, which
    compares coefficients at m = p(k).  For each distinct target, the units
    and the numbers of rows are compared, and the flat keys
    (p(i) n + p(j)) n + p(k) of the rows (i, j, k) of src are looked up by
    `np.searchsorted` in the target's ascending flat row keys, built once
    per target, in chunks of x: exhaustive by the lemma of
    `verify_green_axioms`, and exact, since nothing is multiplied.  Equal
    pairs (perm[x], target[x]) have one answer, so each distinct pair is
    checked once (one per coset xH where the conjugations compose)."""
    n = perm.shape[1]
    pairs = np.column_stack([perm, target])
    order = np.lexsort(pairs.T)
    pairs = pairs[order]
    first = np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)]
    which = np.empty(len(perm), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    perm, target = perm[order[first]], target[order[first]]
    i, j, k, values = src.rows.T
    ok = np.empty(len(perm), dtype=bool)
    for t in sorted(set(target.tolist())):
        dst, xs = rings[t], np.flatnonzero(target == t)
        ok[xs] = perm[xs, src.unit] == dst.unit
        if len(dst.rows) != len(src.rows):
            ok[xs] = False
            continue
        keys = (dst.rows[:, 0] * n + dst.rows[:, 1]) * n + dst.rows[:, 2]
        for c in _kernels.chunks(len(xs), 8 * max(1, len(values))):
            q = perm[xs[c]]
            q = (q[:, i] * n + q[:, j]) * n + q[:, k]
            at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
            ok[xs[c]] &= ((keys[at] == q) & (dst.rows[at, 3] == values)).all(1)
    return ok[which]


_AXIOMS = ("G1", "G2", "G3")


def _element_sides(r, ind, rk: _Ring, s: int, left, right):
    """Both sides, in float64, of G1, G2 and G3 in turn at the basis element
    e_s of a(H), as the products of `verify_green_axioms`, for r = R^H_K,
    ind = I^H_K, left = t_H[s] and right = t_H[:, s] (`_slice_pair`):
    G1 as [j, a] at (e_s, e_j), G2 and G3 as [a, l] at (e_a, e_s).  A
    generator, so that a caller holds one pair of sides at a time."""
    v = r[:, s]
    after = _multiplication(rk, v, left=True)
    yield left @ r.T, r.T @ after
    yield _multiplication(rk, v, left=False) @ ind.T, ind.T @ right
    yield after @ ind.T, ind.T @ left


def _pair_holds(r, ind, rk: _Ring, rh: _Ring, bs, slices=None) -> list:
    """[G1, G2, G3] for the pair K <= H, each checked at every basis element
    e_b, b in bs, of a(H) (rows of G1, the b of G2 and G3) against every
    basis element of the other side, with G1 also asking that R(1) = 1:
    `_element_sides` one b at a time, with `slices` the `_slice_pair` of
    rh at each b, or None (made per b).  By the lemma of
    `verify_green_axioms`, bs = S_H decides each axiom where its premises
    hold; bs = range(nh) decides them anyway.

    Bounds (`_kernels.require_exact`): in G1 the product side is a sum over
    c and the bins of L(v) of nk^2 terms of absolute value at most
    max|R|^2 max|t_K|, the image side one of nh terms at most
    max|R| max|t_H|; in G2 and G3 the side through R is a sum over c and m
    of nk^2 terms at most max|R| max|t_K| max|I|, the other one of nh terms
    at most max|I| max|t_H|.  A bin of L(v) or Rt(v) alone adds nk terms
    of at most max|R| max|t_K|, which G1's bound covers.  Each check raises
    `ExactnessBoundExceeded` above its bound."""
    nk, nh = r.shape
    top, top_ind = _top(r), _top(ind)
    _kernels.require_exact(
        max(nk * nk * top * top * rk.top, nh * top * rh.top),
        f"ring-map check needs nd^2 max|f|^2 max|t_dst| and ns max|f| max|t_src| "
        f"below 2**53, got nd={nk}, ns={nh}, max|f|={top}",
    )
    _kernels.require_exact(
        max(nk * nk * top * rk.top * top_ind, nh * top_ind * rh.top),
        f"projection check needs nk^2 max|R| max|t_K| max|I| and nh max|I| max|t_H| "
        f"below 2**53, got nk={nk}, nh={nh}",
    )
    if slices is None:
        slices = (_slice_pair(rh, b) for b in bs)
    held = [bool((r[:, rh.unit] == np.eye(nk)[rk.unit]).all()), True, True]
    for b, (left, right) in zip(bs, slices):
        for i, (lhs, rhs) in enumerate(_element_sides(r, ind, rk, b, left, right)):
            held[i] = held[i] and bool((lhs == rhs).all())
            del lhs, rhs  # before the generator makes the next pair
    return held


def _projection_witness(axiom, r, ind, rk: _Ring, rh: _Ring):
    """Both sides of G2 or G3 (`_element_sides`) at every b, stacked as
    int64 [a, b, l]."""
    i = _AXIOMS.index(axiom)
    sides = [list(_element_sides(r, ind, rk, b, *_slice_pair(rh, b)))[i] for b in range(rh.n)]
    return [np.stack(side, axis=1).astype(np.int64) for side in zip(*sides)]
