"""Fusion engine: simples, normalization, the two product forms, coherence
axioms, and the restriction/induction/conjugation of equivariant simples.

The strongest oracle here is cross-implementation agreement of the
double-coset product with the orbit-sum product; smaller derived values
(stabilizer tables, hand-computed inductions) pin individual paths.
"""

import tracemalloc

import numpy as np
import pytest

from equifuse import chartab as ct
from equifuse import fusion as fu
from equifuse.errors import SubgroupMismatch
from equifuse.permgrp import subgroup_lattice
from equifuse.presets import classical_scenario, drinfeld_double_scenario, group_preset


@pytest.fixture(scope="module")
def ds3(s3):
    return drinfeld_double_scenario(s3)


@pytest.fixture(scope="module")
def dz2(z2):
    return drinfeld_double_scenario(z2)


def full(scen):
    return scen.datum.F.full_subgroup()


class TestSimples:
    def test_trivial_subgroup_yields_one_label_per_element(self, ds3):
        labels = fu.simples(ds3.datum, ds3.datum.F.trivial_subgroup(), ds3.ctx)
        assert len(labels) == 6
        assert all(l.dim == 1 for l in labels)

    def test_ds3_census(self, ds3):
        labels = fu.simples(ds3.datum, full(ds3), ds3.ctx)
        assert len(labels) == 8
        assert sorted(l.dim for l in labels) == [1, 1, 2, 2, 2, 2, 3, 3]
        assert sorted(l.orbit_size for l in labels) == [1, 1, 1, 2, 2, 2, 3, 3]

    def test_abelian_all_dimension_one(self, dz2):
        labels = fu.simples(dz2.datum, full(dz2), dz2.ctx)
        assert len(labels) == 4
        assert all(l.dim == 1 for l in labels)

    def test_count_identity_over_lattice(self, ds3):
        # |simples| = sum over orbits of #Irr(stabilizer)
        d, ctx = ds3.datum, ds3.ctx
        from equifuse.permgrp import orbits

        for H in subgroup_lattice(d.F):
            labels = fu.simples(d, H, ctx)
            expected = sum(
                ct.character_table(stab.group(), ctx).size
                for _, _, stab in orbits(d.action, within=H)
            )
            assert len(labels) == expected

    def test_ordering(self, ds3):
        labels = fu.simples(ds3.datum, full(ds3), ds3.ctx)
        key = [(l.orbit_rep, l.char_index) for l in labels]
        assert key == sorted(key)


class TestNormalizeLabel:
    def test_canonical_irreducible_passthrough(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        stab = eng.stab(H, 3)
        chi = eng.table(stab).rows[0]
        out = fu.normalize_label(d, H, 3, chi, ctx)
        assert len(out) == 1
        ((label, mult),) = out.items()
        assert (label.orbit_rep, label.char_index, mult) == (3, 0, 1)

    def test_noncanonical_three_cycle(self, ds3):
        # grading point 4 = the other 3-cycle; transports back to rep 3
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        stab = eng.stab(H, 4)
        chi = eng.table(stab).rows[0]
        out = fu.normalize_label(d, H, 4, chi, ctx)
        ((label, mult),) = out.items()
        assert (label.orbit_rep, label.char_index, mult) == (3, 0, 1)

    def test_reducible_input_splits(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        stab = eng.stab(H, 0)
        tab = eng.table(stab)
        p = ctx.p
        summed = ct.ClassFunction(
            tab.group,
            [(a + b) % p for a, b in zip(tab.rows[0].values, tab.rows[1].values)],
        )
        out = fu.normalize_label(d, H, 0, summed, ctx)
        assert {(l.char_index, m) for l, m in out.items()} == {(0, 1), (1, 1)}

    def test_transporter_independence(self, ds3):
        # conjugating by any valid transporter gives the same label multiset
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        q, q0 = 4, 3
        stab_q = eng.stab(H, q)
        chi = eng.table(stab_q).rows[1]
        baseline = fu.normalize_label(d, H, q, chi, ctx)
        members = H.members
        carriers = members[d.action.point_maps[members, q] == q0]
        assert len(carriers) > 1
        for x in carriers:
            moved = ct.conjugate_cf(chi, d.F, int(x))
            out = fu.normalize_label(d, H, q0, moved, ctx)
            assert out == baseline


class TestMProduct:
    def test_identity_point_is_pointwise_product(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        tab = eng.table(eng.stab(H, 0))
        chi, psi = tab.rows[2], tab.rows[2]
        out = fu.m_product(d, H, 0, chi, 0, psi, ctx)
        assert out.values == ct.pointwise_product(chi, psi, ctx.p).values

    def test_three_cycle_squares_stay_on_a3(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        g = 3  # canonical 3-cycle; g*g is the other 3-cycle, same stabilizer A3
        stab = eng.stab(H, g)
        assert stab.order == 3
        chi = eng.table(stab).rows[1]
        psi = eng.table(stab).rows[2]
        out = fu.m_product(d, H, g, chi, g, psi, ctx)
        assert out.values == ct.pointwise_product(chi, psi, ctx.p).values

    def test_transposition_squares_induce_up(self, ds3, s3):
        # g = h = a transposition: gh = e, H_e = S3, H_g n H_h = Z2:
        # m(triv, triv) = Ind_{Z2}^{S3}(triv) = triv + chi2, degree 3
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        g = 1  # lex-minimal transposition (1 2)
        stab = eng.stab(H, g)
        assert stab.order == 2
        triv = eng.table(stab).rows[0]
        out = fu.m_product(d, H, g, triv, g, triv, ctx)
        assert out.degree == 3
        tab_s3 = ct.character_table(s3, ctx)
        assert ct.decompose(out, tab_s3).coeffs == (1, 0, 1)


class TestFuse:
    def test_unit_law(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        labels = fu.simples(d, H, ctx)
        unit = labels[0]
        for b in labels:
            assert fu.fuse(d, H, unit, b, ctx) == {b: 1}
            assert fu.fuse(d, H, b, unit, ctx) == {b: 1}

    def test_dz2_group_ring(self, dz2):
        d, ctx = dz2.datum, dz2.ctx
        H = full(dz2)
        labels = fu.simples(d, H, ctx)
        for a in labels:
            for b in labels:
                out = fu.fuse(d, H, a, b, ctx)
                assert len(out) == 1 and set(out.values()) == {1}

    def test_pinned_ds3_product(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        labels = fu.simples(d, H, ctx)
        a = next(l for l in labels if l.orbit_rep == 3 and l.char_index == 0)
        out = fu.fuse(d, H, a, a, ctx)
        got = {(l.orbit_rep, l.char_index): m for l, m in out.items()}
        assert got == {(3, 0): 1, (0, 0): 1, (0, 1): 1}

    def test_dimension_conservation_all_pairs(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        labels = fu.simples(d, H, ctx)
        for a in labels:
            for b in labels:
                out = fu.fuse(d, H, a, b, ctx)
                assert sum(l.dim * m for l, m in out.items()) == a.dim * b.dim

    def test_subgroup_mismatch(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        la = fu.simples(d, full(ds3), ctx)[0]
        lb = fu.simples(d, s3.subgroup(indices=[3]), ctx)[0]
        with pytest.raises(SubgroupMismatch):
            fu.fuse(d, full(ds3), la, lb, ctx)

    def test_identity_block_structure(self, ds3):
        # fusing S(1, M) against S(h, N) never leaves the orbit block of h
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        labels = fu.simples(d, H, ctx)
        for a in (l for l in labels if l.orbit_rep == 0):
            for b in labels:
                out = fu.fuse(d, H, a, b, ctx)
                assert {l.orbit_rep for l in out} == {b.orbit_rep}


class TestInvariantsAndMForm:
    def test_basis_bijection(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        labels = fu.simples(d, H, ctx)
        inv = fu.invariant_basis(d, H, ctx)
        assert len(inv) == len(labels)
        for label, vec in zip(labels, inv):
            assert set(vec.components) == {label.orbit_rep}
            comp = vec.components[label.orbit_rep]
            assert comp[label.char_index] == 1 and comp.sum() == 1

    def test_unit_invariant(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        inv = fu.invariant_basis(d, H, ctx)
        for v in inv:
            assert fu.fuse_via_M(d, H, inv[0], v, ctx) == v
            assert fu.fuse_via_M(d, H, v, inv[0], ctx) == v

    def test_agreement_with_fuse(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        labels = fu.simples(d, H, ctx)
        inv = fu.invariant_basis(d, H, ctx)
        eng = fu._engine(d, ctx)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                prod = fu.fuse_via_M(d, H, inv[i], inv[j], ctx)
                expected = {}
                for l, m in fu.fuse(d, H, a, b, ctx).items():
                    vec = expected.setdefault(
                        l.orbit_rep,
                        np.zeros(eng.table(l.stabilizer).size, dtype=np.int64),
                    )
                    vec[l.char_index] += m
                assert prod == fu.InvariantVector(H, expected)

    def test_representative_choice_independence(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        inv = fu.invariant_basis(d, H, ctx)
        for i in range(len(inv)):
            for j in range(len(inv)):
                assert fu.fuse_via_M(d, H, inv[i], inv[j], ctx) == fu.fuse_via_M(
                    d, H, inv[i], inv[j], ctx, rep_choice="max"
                )

    def test_result_is_invariant(self, ds3):
        # the component implied at a non-canonical point equals the direct
        # orbit-sum computation at that point
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        eng = fu._engine(d, ctx)
        inv = fu.invariant_basis(d, H, ctx)
        prod = eng.fuse_invariants(H, inv[5], inv[5])
        q = 4  # non-canonical 3-cycle
        implied = eng.component_at(H, prod, q)
        Sq = eng.stab(H, q)
        direct = np.zeros(eng.table(Sq).size, dtype=np.int64)
        rows = eng.A[Sq.members]
        seen = np.zeros(d.G.order, dtype=bool)
        for pt in range(d.G.order):
            if seen[pt]:
                continue
            orb = np.unique(rows[:, pt])
            seen[orb] = True
            h = int(orb[0])
            k = int(d.G.mult[d.G.inv[h], q])
            va = eng.component_at(H, inv[5], h)
            vb = eng.component_at(H, inv[5], k)
            if va is None or vb is None:
                continue
            for i in np.nonzero(va)[0]:
                for j in np.nonzero(vb)[0]:
                    qq, vec = eng.m_irr(H, h, k, int(i), int(j))
                    assert qq == q
                    direct += int(va[i]) * int(vb[j]) * vec
        assert np.array_equal(implied, direct)

    def test_classical_reduction_to_character_ring(self, s3):
        # trivial grading group: orbit-sum product = pointwise character product
        scen = classical_scenario(s3)
        d, ctx = scen.datum, scen.ctx
        H = d.F.full_subgroup()
        inv = fu.invariant_basis(d, H, ctx)
        tab = ct.character_table(s3, ctx)
        for i in range(len(inv)):
            for j in range(len(inv)):
                prod = fu.fuse_via_M(d, H, inv[i], inv[j], ctx)
                pw = ct.pointwise_product(tab.rows[i], tab.rows[j], ctx.p)
                coeffs = np.array(ct.decompose(pw, tab).coeffs, dtype=np.int64)
                assert prod == fu.InvariantVector(H, {0: coeffs})


class TestCoherentAxioms:
    def test_dz2(self, dz2):
        report = fu.verify_coherent_axioms(dz2.datum, full(dz2), dz2.ctx)
        assert report.ok
        assert set(report.counts) == {"C1", "C2", "C3", "C4", "C5", "Tg-independence"}

    def test_ds3(self, ds3):
        report = fu.verify_coherent_axioms(ds3.datum, full(ds3), ds3.ctx)
        assert report.ok


class TestFusionRing:
    def test_trivial_group_gives_integers(self, trivial):
        scen = drinfeld_double_scenario(trivial)
        ring = fu.fusion_ring(scen.datum, scen.datum.F.full_subgroup(), scen.ctx)
        assert ring.size == 1 and ring.constants[(0, 0)] == ((0, 1),)

    @pytest.mark.parametrize("spec,n", [("cyclic:2", 2), ("cyclic:3", 3), ("cyclic:4", 4)])
    def test_cyclic_group_rings(self, spec, n):
        scen = drinfeld_double_scenario(group_preset(spec))
        ring = fu.fusion_ring(scen.datum, scen.datum.F.full_subgroup(), scen.ctx)
        assert ring.size == n * n
        t = ring.tensor()
        assert set(np.unique(t)) <= {0, 1}
        for i in range(ring.size):
            assert np.array_equal(t[i] @ np.ones(ring.size, dtype=np.int64),
                                  np.ones(ring.size, dtype=np.int64))

    def test_ds3_ring(self, ds3):
        ring = fu.fusion_ring(ds3.datum, full(ds3), ds3.ctx)
        assert ring.size == 8
        assert sorted(ring.dims) == [1, 1, 2, 2, 2, 2, 3, 3]
        assert sum(x * x for x in ring.dims) == 36
        assert ring.checks == {
            "associative": True,
            "dim_hom": True,
            "matches_M_form": True,
        }

    def test_double_of_s4(self, s4):
        # 21 simples: 5 + 4 + 5 + 4 + 3 over the five classes' centralizers
        scen = drinfeld_double_scenario(s4)
        ring = fu.fusion_ring(scen.datum, s4.full_subgroup(), scen.ctx)
        assert ring.size == 21
        assert sum(d * d for d in ring.dims) == s4.order**2

    def test_trivial_subgroup_gives_group_ring(self, ds3, s3):
        # H = 1: one simple per element of G and the (noncommutative)
        # multiplication table of G as structure constants
        ring = fu.fusion_ring(ds3.datum, s3.trivial_subgroup(), ds3.ctx)
        assert ring.size == 6 and set(ring.dims) == {1}
        t = ring.tensor()
        for i in range(6):
            for j in range(6):
                ks = np.nonzero(t[i, j])[0]
                assert len(ks) == 1 and t[i, j, int(ks[0])] == 1
                assert ring.labels[int(ks[0])].orbit_rep == int(
                    s3.mult[ring.labels[i].orbit_rep, ring.labels[j].orbit_rep]
                )
        assert not np.array_equal(t, t.transpose(1, 0, 2))  # S3 is nonabelian


def _dense_associativity_failure(t):
    """Reference: both sides of (e_i e_j) e_k = e_i (e_j e_k) as dense n^4
    arrays, first mismatch in index order."""
    lhs = np.einsum("ijm,mkl->ijkl", t, t)
    rhs = np.einsum("jkm,iml->ijkl", t, t)
    bad = np.argwhere(lhs != rhs)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _cyclic_group_ring(n):
    t = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        t[i, np.arange(n), (i + np.arange(n)) % n] = 1
    return t


class TestAssociativityFailure:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_on_random_tensors(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 6
        t = rng.integers(0, 3, size=(n, n, n))
        assert fu.associativity_failure(t) == _dense_associativity_failure(t)

    def test_associative_rings_pass(self, ds3, s3):
        tensors = [
            _cyclic_group_ring(7),
            fu.fusion_ring(ds3.datum, full(ds3), ds3.ctx).tensor(),
            fu.fusion_ring(ds3.datum, s3.trivial_subgroup(), ds3.ctx).tensor(),
        ]
        for t in tensors:
            assert _dense_associativity_failure(t) is None
            assert fu.associativity_failure(t) is None

    def test_matches_dense_on_perturbed_ring(self, ds3):
        t0 = fu.fusion_ring(ds3.datum, full(ds3), ds3.ctx).tensor()
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = t0.copy()
            t[tuple(rng.integers(0, len(t), size=3))] += 1
            bad = fu.associativity_failure(t)
            assert bad is not None
            assert bad == _dense_associativity_failure(t)

    def test_memory_stays_below_one_dense_array(self):
        # the dense form holds two n^4 int64 arrays (2 x 42 MB at n = 48)
        n = 48
        t = _cyclic_group_ring(n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert fu.associativity_failure(t) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n**4 * 8


class TestEqRestrict:
    def test_identity(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        for a in fu.simples(d, H, ctx):
            assert fu.eq_restrict(d, H, H, a, ctx) == {a: 1}

    def test_chi2_at_identity_to_a3(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        a3 = s3.subgroup(indices=[3])
        a = fu.simples(d, H, ctx)[2]  # S(e, chi2)
        out = fu.eq_restrict(d, H, a3, a, ctx)
        got = {(l.orbit_rep, l.char_index): m for l, m in out.items()}
        assert got == {(0, 1): 1, (0, 2): 1}

    def test_classical_specialization(self, s3):
        scen = classical_scenario(s3)
        d, ctx = scen.datum, scen.ctx
        H = d.F.full_subgroup()
        a3 = s3.subgroup(indices=[3])
        tab = ct.character_table(s3, ctx)
        tab_a3 = ct.character_table(a3.group(), ctx)
        for i, a in enumerate(fu.simples(d, H, ctx)):
            out = fu.eq_restrict(d, H, a3, a, ctx)
            got = np.zeros(tab_a3.size, dtype=np.int64)
            for l, m in out.items():
                got[l.char_index] += m
            expected = ct.decompose(ct.restrict(tab.rows[i], a3), tab_a3).coeffs
            assert got.tolist() == list(expected)

    def test_dimension_bookkeeping(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        for K in subgroup_lattice(s3):
            for a in fu.simples(d, H, ctx):
                out = fu.eq_restrict(d, H, K, a, ctx)
                assert sum(l.dim * m for l, m in out.items()) == a.dim


class TestEqInduce:
    def test_identity(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        for a in fu.simples(d, H, ctx):
            assert fu.eq_induce(d, H, H, a, ctx) == {a: 1}

    def test_from_a3(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        a3 = s3.subgroup(indices=[3])
        b = fu.simples(d, a3, ctx)[0]  # S_K(e, triv)
        out = fu.eq_induce(d, a3, H, b, ctx)
        got = {(l.orbit_rep, l.char_index): m for l, m in out.items()}
        assert got == {(0, 0): 1, (0, 1): 1}

    def test_classical_specialization(self, s3):
        scen = classical_scenario(s3)
        d, ctx = scen.datum, scen.ctx
        H = d.F.full_subgroup()
        a3 = s3.subgroup(indices=[3])
        tab = ct.character_table(s3, ctx)
        tab_a3 = ct.character_table(a3.group(), ctx)
        for i, a in enumerate(fu.simples(d, a3, ctx)):
            out = fu.eq_induce(d, a3, H, a, ctx)
            got = np.zeros(tab.size, dtype=np.int64)
            for l, m in out.items():
                got[l.char_index] += m
            expected = ct.decompose(
                ct.induce(tab_a3.rows[i], s3, ctx.p), tab
            ).coeffs
            assert got.tolist() == list(expected)

    def test_dimension_scaling(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        for K in subgroup_lattice(s3):
            index = H.order // K.order
            for a in fu.simples(d, K, ctx):
                out = fu.eq_induce(d, K, H, a, ctx)
                assert sum(l.dim * m for l, m in out.items()) == a.dim * index


class TestEqConjugate:
    def test_inner_and_identity(self, ds3):
        d, ctx = ds3.datum, ds3.ctx
        H = full(ds3)
        for a in fu.simples(d, H, ctx):
            assert fu.eq_conjugate(d, H, 0, a, ctx) == a
            for x in range(d.F.order):
                moved = fu.eq_conjugate(d, H, x, a, ctx)
                assert moved == a  # full subgroup: conjugation is inner

    def test_bijection_between_conjugate_subgroups(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        h = s3.subgroup(indices=[2])   # <(0 1)>
        x = 5                          # (0 2)
        labels = fu.simples(d, h, ctx)
        images = [fu.eq_conjugate(d, h, x, a, ctx) for a in labels]
        target = fu.simples(d, h.conjugate(x), ctx)
        assert sorted((l.orbit_rep, l.char_index) for l in images) == sorted(
            (l.orbit_rep, l.char_index) for l in target
        )

    def test_composition(self, ds3, s3):
        d, ctx = ds3.datum, ds3.ctx
        h = s3.subgroup(indices=[2])
        rng = np.random.default_rng(23)
        labels = fu.simples(d, h, ctx)
        for _ in range(8):
            x, y = (int(v) for v in rng.integers(0, s3.order, size=2))
            for a in labels:
                one = fu.eq_conjugate(d, h, x, a, ctx)
                two = fu.eq_conjugate(d, h.conjugate(x), y, one, ctx)
                direct = fu.eq_conjugate(d, h, int(s3.mult[y, x]), a, ctx)
                assert two == direct
