"""Fusion engine: simples, normalization, the two product forms, coherence
axioms, and the restriction/induction/conjugation of equivariant simples.

The strongest oracle here is cross-implementation agreement of the
double-coset product with the orbit-sum product; smaller derived values
(stabilizer tables, hand-computed inductions) pin individual paths.
"""

import tracemalloc

import numpy as np
import pytest

from equifuse import _kernels, _rows
from equifuse import chartab as ct
from equifuse import fusion as fu
from equifuse.errors import InvalidInput, InvariantViolation, SubgroupMismatch
from equifuse.mackey import equivariant_k0_family
from equifuse.permgrp import GroupAction, double_coset_reps, orbits, subgroup_lattice, transporter
from equifuse.presets import (
    SCENARIO_PRESETS,
    classical_scenario,
    drinfeld_double_scenario,
    group_preset,
)


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


def _d4_on_c4():
    """D4 acting on C4 through D4 -> Aut(C4) = Z2: rotations fix C4 and
    reflections invert it.  Not a double; the stabilizer of a generator of
    C4 is the rotation subgroup, whose characters are not real."""
    F, G = group_preset("dihedral:4"), group_preset("cyclic:4")
    action = GroupAction.from_generator_rows(F, G, [[0, 1, 2, 3], [0, 3, 2, 1]])
    return fu.CoherentDatum(F, G, action), ct.make_context([F, G])


@pytest.fixture(scope="module")
def block_data(ds3, dz2, s3, d4):
    doubled, classical = drinfeld_double_scenario(d4), classical_scenario(s3)
    return {
        "ds3": (ds3.datum, ds3.ctx),
        "dz2": (dz2.datum, dz2.ctx),
        "dd4": (doubled.datum, doubled.ctx),
        "classical_s3": (classical.datum, classical.ctx),
        "d4_on_c4": _d4_on_c4(),
    }


class TestOrbitData:
    """`_Engine.orbit_data` against `permgrp.orbits` and `transporter` on
    every subgroup of the lattice."""

    @pytest.mark.parametrize("name", ["ds4", "d4_on_c4"])
    def test_matches_orbits_and_transporter(self, name, s4):
        if name == "ds4":
            scen = drinfeld_double_scenario(s4)
            d, ctx = scen.datum, scen.ctx
        else:
            d, ctx = _d4_on_c4()
        eng = fu._engine(d, ctx)
        for H in subgroup_lattice(d.F):
            reps, rep_of, to_rep = eng.orbit_data(H)
            expect = orbits(d.action, within=H)
            assert reps == [p for p, _, _ in expect]
            for p, orb, _ in expect:
                assert (rep_of[orb] == p).all()
            for q in range(d.G.order):
                assert to_rep[q] == transporter(d.action, q, int(rep_of[q]), within=H)


class TestConjStack:
    """`_Engine.conj_stack` against the per-x route it replaced:
    `Subgroup.conjugate(x)`, then `conjugate_cf` of each irreducible and
    `row_index` in the target's table, for every stabilizer S and every x."""

    @pytest.mark.parametrize("name", ["ds4", "d4_on_c4"])
    def test_matches_the_per_x_route(self, name, s4):
        if name == "ds4":
            scen = drinfeld_double_scenario(s4)
            d, ctx = scen.datum, scen.ctx
        else:
            d, ctx = _d4_on_c4()
        eng = fu._engine(d, ctx)
        F = d.F
        sources = {}
        for H in subgroup_lattice(F):
            for g in range(d.G.order):
                S = eng.stab(H, g)
                sources.setdefault(S.key, S)
        for S in sources.values():
            perm, targets, which = eng.conj_stack(S)
            rows = eng.table(S).rows
            for x in range(F.order):
                T = S.conjugate(x)
                assert targets[which[x]] == T
                tab = eng.table(T)
                assert perm[x].tolist() == [tab.row_index(ct.conjugate_cf(chi, F, x)) for chi in rows]
            # the coset lemma: perm(xs) = perm(x) for s in S
            for s in S.members:
                assert (perm[F.mult[:, s]] == perm).all()

    def test_whole_group_from_one_coset_representative(self, monkeypatch):
        """The stack of S = F holds |F| rows but takes the class maps of
        the identity alone, the one left coset representative."""
        F = group_preset("dihedral:100")
        scen = drinfeld_double_scenario(F)
        eng = fu._engine(scen.datum, scen.ctx)
        seen = []
        original = ct.conjugation_class_maps

        def spy(sub, xs, targets):
            seen.append(np.asarray(xs).tolist())
            return original(sub, xs, targets)

        monkeypatch.setattr(ct, "conjugation_class_maps", spy)
        perm, targets, which = eng.conj_stack(F.full_subgroup())
        assert seen == [[0]]
        assert targets == [F.full_subgroup()] and (which == 0).all()
        assert perm.shape == (F.order, F.num_classes)
        assert (perm == np.arange(F.num_classes)).all()


class TestMBlock:
    """The reciprocity block against induce + decompose, entry by entry."""

    @pytest.mark.parametrize("name", ["ds3", "dz2", "dd4", "classical_s3", "d4_on_c4"])
    def test_matches_induce_and_decompose(self, block_data, name):
        d, ctx = block_data[name]
        eng = fu._engine(d, ctx)
        for H in subgroup_lattice(d.F):
            for g in range(d.G.order):
                for h in range(d.G.order):
                    q, block = eng.m_block(H, g, h)
                    assert q == int(d.G.mult[g, h])
                    Sg, Sh, Sq = eng.stab(H, g), eng.stab(H, h), eng.stab(H, q)
                    tq = eng.table(Sq)
                    for i, chi in enumerate(eng.table(Sg).rows):
                        for j, psi in enumerate(eng.table(Sh).rows):
                            ind = fu.m_product(d, H, g, chi, h, psi, ctx)
                            assert tuple(block[i, j]) == ct.decompose(ind, tq).coeffs
                            assert np.array_equal(eng.m_irr(H, g, h, i, j)[1], block[i, j])
                    # the degree identity: N @ deg_q = [S_q : I] deg_g deg_h
                    index = Sq.order // Sg.intersect(Sh).order
                    degs = [np.array(eng.table(S).degrees) for S in (Sg, Sh, Sq)]
                    assert np.array_equal(block @ degs[2], index * np.outer(degs[0], degs[1]))


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


def _component_at(eng, H, v, h):
    """Reference: the implied component of an invariant vector at any
    grading point, the stored component at the orbit representative h0
    moved along the inverse of the least x in H carrying h to h0, found by
    `permgrp.transporter` and not by the engine."""
    h0 = int(eng.orbit_data(H)[1][h])
    base = v.components.get(h0)
    if base is None or h == h0:
        return base
    x = transporter(eng.d.action, h, h0, within=H)
    perm = eng.conj_stack(eng.stab(H, h0))[0][int(eng.F.inv[x])]
    out = np.zeros_like(base)
    out[perm] = base
    return out


def _factorizations(eng, H, choice):
    """Reference: for each canonical g, h = the min or max of each orbit of
    H_g on G, in the order of the orbit minima, and k = h^-1 g."""
    G = eng.G
    out = []
    for g in eng.orbit_data(H)[0]:
        rows = eng.A[eng.stab(H, g).members]
        seen = np.zeros(G.order, dtype=bool)
        for pt in range(G.order):
            if not seen[pt]:
                orb = np.unique(rows[:, pt])
                seen[orb] = True
                h = int(orb[0] if choice == "min" else orb[-1])
                out.append((g, h, int(G.mult[int(G.inv[h]), g])))
    return out


def _orbit_sum_reference(eng, H, alpha, beta, choice):
    """Reference: the orbit-sum product one factorization at a time, each
    factor's component moved by `_component_at` and contracted with its
    local product block."""
    acc = {}
    for g, h, k in _factorizations(eng, H, choice):
        va, vb = _component_at(eng, H, alpha, h), _component_at(eng, H, beta, k)
        if va is not None and vb is not None:
            _, block = eng.m_block(H, h, k)
            acc[g] = acc.get(g, 0) + np.einsum("i,j,ijk->k", va, vb, block)
    return fu.InvariantVector(H, acc)


class TestOrbitSumTensor:
    """`_Engine.orbit_sum_rows` against the per-factorization reference,
    for both representative choices."""

    @pytest.mark.parametrize("choice", ["min", "max"])
    @pytest.mark.parametrize("name", ["ds3", "dd4", "d4_on_c4", "classical_s3", "ds3_trivial"])
    def test_matches_reference(self, block_data, ds3, name, choice):
        if name == "ds3_trivial":
            d, ctx = ds3.datum, ds3.ctx
            H = d.F.trivial_subgroup()
        else:
            d, ctx = block_data[name]
            H = d.F.full_subgroup()
        eng = fu._engine(d, ctx)
        assert eng.factorizations(H, choice) == _factorizations(eng, H, choice)
        inv = fu.invariant_basis(d, H, ctx)
        rows = eng.orbit_sum_rows(H, choice)
        assert rows.dtype == np.int64 and rows[:, 3].all()
        t = fu.dense(rows, len(inv))
        assert np.array_equal(_rows.rows_of(t), rows)
        for i, a in enumerate(inv):
            for j, b in enumerate(inv):
                ref = _orbit_sum_reference(eng, H, a, b, choice)
                row = np.zeros(len(inv), dtype=np.int64)
                for g, v in ref.components.items():
                    row[eng.slots(H, g)] = v
                assert np.array_equal(t[i, j], row), (i, j)
                assert eng.fuse_invariants(H, a, b, choice) == ref

    def test_unknown_representative_choice_raises(self, ds3):
        d, ctx, H = ds3.datum, ds3.ctx, full(ds3)
        inv = fu.invariant_basis(d, H, ctx)
        with pytest.raises(ValueError, match="'mid'"):
            fu.fuse_via_M(d, H, inv[1], inv[2], ctx, rep_choice="mid")


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
        implied = _component_at(eng, H, prod, q)
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
            va = _component_at(eng, H, inv[5], h)
            vb = _component_at(eng, H, inv[5], k)
            if va is None or vb is None:
                continue
            for i in np.nonzero(va)[0]:
                for j in np.nonzero(vb)[0]:
                    qq, vec = eng.m_irr(H, h, k, int(i), int(j))
                    assert qq == q
                    direct += int(va[i]) * int(vb[j]) * vec
        assert np.array_equal(implied, direct)

    def test_component_off_the_canonical_points_raises(self, ds3):
        # InvariantVector(H, {2: [1, 1]}) * e_0 used to drop the component
        # and return the zero vector
        d, ctx, H = ds3.datum, ds3.ctx, full(ds3)
        eng = fu._engine(d, ctx)
        assert 2 not in eng.orbit_data(H)[0]
        inv = fu.invariant_basis(d, H, ctx)
        bad = fu.InvariantVector(H, {2: [1, 1]})
        for a, b in ((bad, inv[0]), (inv[0], bad)):
            with pytest.raises(InvalidInput, match="not at a canonical orbit representative"):
                fu.fuse_via_M(d, H, a, b, ctx)

    def test_component_of_the_wrong_length_raises(self, ds3):
        # {3: [1]} used to act as [1, 1, 1], one coordinate per irreducible
        # of the stabilizer of the 3-cycle
        d, ctx, H = ds3.datum, ds3.ctx, full(ds3)
        eng = fu._engine(d, ctx)
        assert eng.table(eng.stab(H, 3)).size == 3
        inv = fu.invariant_basis(d, H, ctx)
        bad = fu.InvariantVector(H, {3: [1]})
        for a, b in ((bad, inv[0]), (inv[0], bad)):
            with pytest.raises(InvalidInput, match=r"has shape \(1,\), expected \(3,\)"):
                fu.fuse_via_M(d, H, a, b, ctx)

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

    def test_tampered_non_generator_fails_c1(self, s3):
        """C1 is checked for the generators s of H only, as c_s c_y = c_sy
        for every y; a wrong c_x for an x outside the generators still
        fails it, both as c_y (y = x) and as c_sy (y = s^-1 x)."""
        scen = drinfeld_double_scenario(s3)
        d, ctx, H = scen.datum, scen.ctx, full(scen)
        eng = fu._engine(d, ctx)
        x = next(x for x in range(s3.order)
                 if s3.element_order(x) == 3 and x not in H.generators)
        g = next(g for g in range(s3.order) if s3.element_order(g) == 2)
        src = eng.stab(H, g)  # the transpositions' centralizer: x is not in it
        perm = eng.conj_stack(src)[0]
        perm[x] = perm[x][::-1].copy()
        report = fu.verify_coherent_axioms(d, H, ctx)
        assert report.counts["C1"][1] > 0
        assert all(report.counts[a][1] == 0 for a in ("C2", "C3", "C4"))

    def test_tampered_block_fails_c3(self, s3):
        """One local product of a fresh D(S3) bumped at g of order 3 and h
        of order 2: C3, checked a block per (x, g, h), fails four times with
        the witnesses of the check per (x, g, i, h, j); C1, C2 and C4 pass."""
        scen = drinfeld_double_scenario(s3)
        d, ctx, H = scen.datum, scen.ctx, full(scen)
        eng = fu._engine(d, ctx)
        g = next(x for x in range(s3.order) if s3.element_order(x) == 3)
        h = next(x for x in range(s3.order) if s3.element_order(x) == 2)
        q, block = eng.m_block(H, g, h)
        block = block.copy()
        block[0, 0, 0] += 1
        eng._blocks[(H.key, g, h)] = (q, block)
        report = fu.verify_coherent_axioms(d, H, ctx)
        assert {a: report.counts[a] for a in ("C1", "C2", "C3", "C4")} == {
            "C1": (195, 0), "C2": (18, 0), "C3": (450, 4), "C4": (15, 0),
        }
        c3 = [w.context for w in report.witnesses if w.axiom == "C3"]
        assert c3 == [(2, 3, 0, 1, 0), (2, 4, 0, 5, 0), (3, 3, 0, 1, 0), (3, 3, 0, 2, 0)]


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

    def test_each_reciprocity_block_is_built_once(self, monkeypatch):
        # every block of D(D10) comes from the engine's cache by subgroups
        scen = drinfeld_double_scenario(group_preset("dihedral:10"))
        calls = []
        original = ct.reciprocity_block

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ct, "reciprocity_block", counted)
        ring = fu.fusion_ring(scen.datum, full(scen), scen.ctx)
        assert ring.size == 64
        assert len(calls) == len(fu._engine(scen.datum, scen.ctx)._block)

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

    def test_orbit_sum_disagreement_names_the_first_pair(self, ds3, monkeypatch):
        """The orbit-sum product perturbed at three pairs of D(S3): the ring
        is refused at the first of them in (i, j) order.  The exception type
        and message were recorded with the per-pair `InvariantVector`
        comparison."""
        d, ctx, H = ds3.datum, ds3.ctx, full(ds3)
        perturbed = [(2, 6), (2, 3), (5, 0)]
        original = fu._Engine.orbit_sum_rows

        def orbit_sum_rows(self, H, choice="min"):
            rows = original(self, H, choice)
            for i, j in perturbed:
                at = np.flatnonzero((rows[:, 0] == i) & (rows[:, 1] == j) & (rows[:, 2] == 0))
                if len(at):
                    rows[at, 3] += 1
                else:
                    rows = np.vstack([rows, [i, j, 0, 1]])
            return rows[np.lexsort(rows[:, 2::-1].T)]

        monkeypatch.setattr(fu._Engine, "orbit_sum_rows", orbit_sum_rows)
        with pytest.raises(InvariantViolation) as exc:
            fu.fusion_ring(d, H, ctx)
        assert type(exc.value) is InvariantViolation
        assert str(exc.value) == "double-coset and orbit-sum products disagree at pair (2, 3)"


    @pytest.mark.parametrize("side", [0, 1])
    def test_unit_row_or_column_tampered(self, ds3, monkeypatch, side):
        """N_{u1}^1 (side 0) or N_{1u}^1 (side 1) of D(S3) set to 2: the
        ring is refused by the unit check `_rows.is_two_sided_unit`, which
        the Green verifier shares."""
        d, ctx, H = ds3.datum, ds3.ctx, full(ds3)
        unit = fu._engine(d, ctx).basis(H).pos[(0, 0)]
        other = 1 if unit != 1 else 0
        original = fu._Engine.product_rows
        tampered = []

        def product_rows(self, H):
            rows = original(self, H).copy()
            key = [other, other, other, 1]
            key[side] = unit
            (at,) = np.flatnonzero((rows == key).all(axis=1))
            rows[at, 3] = 2
            tampered.append(rows)
            return rows

        monkeypatch.setattr(fu._Engine, "product_rows", product_rows)
        with pytest.raises(InvariantViolation, match="^unit row/column is not the identity$"):
            fu.fusion_ring(d, H, ctx)
        n = len(fu._engine(d, ctx).basis(H).labels)
        assert not _rows.is_two_sided_unit(tampered[0], n, unit)


class TestRingStore:
    """A ring keeps its constants once, as the nonzero [i, j, k, N] rows:
    the dense tensor and the per-pair mapping are both read off them."""

    @pytest.mark.parametrize("name", ["ds3", "dd4", "d4_on_c4"])
    def test_views_of_one_store(self, block_data, name):
        d, ctx = block_data[name]
        H = d.F.full_subgroup()
        ring = fu.fusion_ring(d, H, ctx)
        n = ring.size
        t = fu.dense(fu._engine(d, ctx).product_rows(H), n)
        assert np.array_equal(ring.tensor(), t)
        assert ring.constant_rows() == [
            [i, j, k, int(t[i, j, k])] for i, j, k in zip(*np.nonzero(t))
        ]
        assert sorted(ring.constants) == [(i, j) for i in range(n) for j in range(n)]
        for (i, j), entries in ring.constants.items():
            (ks,) = np.nonzero(t[i, j])
            assert entries == tuple((int(k), int(t[i, j, k])) for k in ks)
        arrays = [v for v in vars(ring).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.ndim == 2 and a.size != n**3 for a in arrays)


    def test_traced_peak_below_one_dense_table(self):
        # D(D10): n = 64, so one (n, n, n) int64 table is 2 MiB; the ring
        # built through dense product and orbit-sum tables peaked at about
        # 5.7 MiB traced
        scen = drinfeld_double_scenario(group_preset("dihedral:10"))
        tracemalloc.start()
        try:
            ring = fu.fusion_ring(scen.datum, full(scen), scen.ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ring.size == 64 and peak < ring.size**3 * 8


def _dense_associativity_failure(t):
    """Reference: both sides of (e_i e_j) e_k = e_i (e_j e_k) as dense n^4
    arrays, first mismatch in index order."""
    lhs = np.einsum("ijm,mkl->ijkl", t, t)
    rhs = np.einsum("jkm,iml->ijkl", t, t)
    bad = np.argwhere(lhs != rhs)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _dense_failure_by_slices(t):
    """Reference: the dense slice scan, one i at a time and a quarter of
    the j at a time, both sides float64 BLAS products of a float64 copy of
    t (exact while n * max|t|^2 < 2**53), so tables too large for two n^4
    arrays can be compared; the engine's check before it read rows."""
    n = len(t)
    assert n * int(np.abs(t).max(initial=0)) ** 2 < 2**53
    f = t.astype(np.float64)
    rows = f.reshape(n, n * n)  # [m, (k, l)]
    pairs = f.reshape(n * n, n)  # [(j, k), m]
    step = max(1, n // 4)
    for i in range(n):
        for j0 in range(0, n, step):
            j1 = min(j0 + step, n)
            left = (f[i, j0:j1] @ rows).reshape(-1, n, n)  # sum_m t[i, j, m] t[m, k, l]
            right = (pairs[j0 * n:j1 * n] @ f[i]).reshape(-1, n, n)  # sum_m t[j, k, m] t[i, m, l]
            if not np.array_equal(left, right):
                j, k, l = (int(v) for v in np.argwhere(left != right)[0])
                return (i, j0 + j, k, l)
    return None


def _row_failure(t):
    """`associativity_failure` on the rows of the dense table t."""
    return _rows.associativity_failure(_rows.rows_of(t), len(t))[0]


def _cyclic_group_ring(n):
    t = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        t[i, np.arange(n), (i + np.arange(n)) % n] = 1
    return t


def _random_left_unital(seed, n):
    """A random table with entries in -2..2 (so sums cancel and products
    vanish) whose first basis element is a left unit but not a right one."""
    rng = np.random.default_rng(seed)
    t = rng.integers(-2, 3, size=(n, n, n))
    t[0] = np.eye(n, dtype=np.int64)
    t[1:, 0] = rng.integers(-2, 3, size=(n - 1, n))
    return t


class TestAssociativityFailure:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_on_random_tensors(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 6
        t = rng.integers(0, 3, size=(n, n, n))
        assert _row_failure(t) == _dense_associativity_failure(t) == _dense_failure_by_slices(t)

    def test_associative_rings_pass(self, ds3, s3):
        tensors = [
            _cyclic_group_ring(7),
            fu.fusion_ring(ds3.datum, full(ds3), ds3.ctx).tensor(),
            fu.fusion_ring(ds3.datum, s3.trivial_subgroup(), ds3.ctx).tensor(),
        ]
        for t in tensors:
            assert _dense_associativity_failure(t) is None
            assert _dense_failure_by_slices(t) is None
            assert _row_failure(t) is None

    def test_matches_dense_on_perturbed_ring(self, ds3):
        t0 = fu.fusion_ring(ds3.datum, full(ds3), ds3.ctx).tensor()
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = t0.copy()
            t[tuple(rng.integers(0, len(t), size=3))] += 1
            bad = _row_failure(t)
            assert bad is not None
            assert bad == _dense_associativity_failure(t) == _dense_failure_by_slices(t)

    @pytest.mark.parametrize("seed", range(6))
    def test_negative_entries_and_a_left_unit(self, seed):
        # cancelled sums and vanishing products: a bin that the joins reach
        # can still sum to 0, and an entry that cancels leaves no row
        t = _random_left_unital(seed, 2 + seed)
        if seed % 2:
            t[tuple(np.random.default_rng(seed).integers(1, len(t), size=3))] = 0
        assert _rows._generators(_rows.rows_of(t), len(t)) is not None
        assert _row_failure(t) == _dense_associativity_failure(t) == _dense_failure_by_slices(t)

    def test_group_ring_in_a_signed_basis(self):
        # Z[C5] in the basis 1, g - 1, g^2 - g, ...: associative, with
        # negative constants, so terms of one bin cancel; a bumped entry
        # must give the references' witness
        n = 5
        change = np.eye(n, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)
        back = np.rint(np.linalg.inv(change)).astype(np.int64)
        t0 = np.einsum("ia,jb,abc,cd->ijd", change, change, _cyclic_group_ring(n), back)
        assert (t0 < 0).any() and _row_failure(t0) is None
        assert _dense_associativity_failure(t0) is None
        for bump in [(1, 2, 3), (3, 1, 0), (4, 4, 4)]:
            t = t0.copy()
            t[bump] += 1
            assert _row_failure(t) == _dense_associativity_failure(t) == _dense_failure_by_slices(t)

    def test_matches_dense_just_below_the_exactness_bound(self):
        # n * max|t|^2 just under 2**53: the sums need all 53 bits
        n = 4
        top = int((2**53 // n) ** 0.5) - 1
        rng = np.random.default_rng(9)
        for _ in range(5):
            t = rng.integers(top - 3, top + 1, size=(n, n, n))
            assert n * int(t.max()) ** 2 < 2**53
            bad = _row_failure(t)
            assert bad is not None and bad == _dense_associativity_failure(t)
            assert bad == _dense_failure_by_slices(t)

    def test_above_the_exactness_bound_raises(self):
        t = _cyclic_group_ring(4)
        t[1, 1, 2] = 2**26  # 4 * 2**52 = 2**54
        with pytest.raises(InvariantViolation, match="2\\*\\*53"):
            _row_failure(t)

    def test_memory_stays_below_one_dense_array(self):
        # the dense form holds two n^4 int64 arrays (2 x 42 MB at n = 48)
        n = 48
        rows = _rows.rows_of(_cyclic_group_ring(n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert _rows.associativity_failure(rows, n)[0] is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n**3 * 8

    def test_summed_rows_drop_cancelled_sums(self):
        # keys (i n + j) n + k with n = 2; the two at key 5 cancel
        keys = np.array([5, 0, 7, 5, 0], dtype=np.int64)
        values = np.array([3, 1, 2, -3, 1], dtype=np.int64)
        assert _rows.summed_rows(keys, values, 2).tolist() == [[0, 0, 0, 2], [1, 1, 1, 2]]


def _word_span_rank(t, unit, gens):
    """Rank mod p of the right-nested words s1(s2(...(sk e_unit))), s in
    gens: every row found so far is multiplied on the left by every s until
    the rank stops growing."""
    p = _rows._SPAN_PRIME
    rows = np.eye(len(t), dtype=np.int64)[[unit]]
    rank = 1
    while True:
        rows = np.vstack([rows] + [rows @ (t[s] % p) % p for s in gens])
        rows, piv = _kernels.rref_mod(rows, p)
        rows = rows[:len(piv)]
        if len(piv) == rank:
            return rank
        rank = len(piv)


@pytest.fixture(scope="module")
def double_tensors(ds3, d4):
    """Structure constants of D(S3), D(D4), D(D10) and D(S5) (8, 22, 64 and
    39 simples)."""
    out = {}
    for name, scen in [
        ("ds3", ds3),
        ("dd4", drinfeld_double_scenario(d4)),
        ("dd10", drinfeld_double_scenario(group_preset("dihedral:10"))),
        ("ds5", drinfeld_double_scenario(group_preset("sym:5"))),
    ]:
        out[name] = fu.fusion_ring(scen.datum, full(scen), scen.ctx).tensor()
    return out


def _generators(t):
    return _rows._generators(_rows.rows_of(t), len(t))


class TestGeneratorLemma:
    """`associativity_failure` decides on the i-slices of a generating set S
    and scans every slice only to name the witness."""

    @pytest.mark.parametrize("name", ["ds3", "dd4", "dd10", "ds5"])
    def test_bump_outside_the_generators_still_fails(self, double_tensors, name):
        # one entry of t[i] raised for every i outside S and the unit: only
        # the S-slices decide, so each failure must still be found, and the
        # witness must be the dense reference's
        t0 = double_tensors[name]
        n = len(t0)
        gens = _generators(t0)
        assert gens and 0 not in gens and np.array_equal(t0[0], np.eye(n))
        rng = np.random.default_rng(3)
        for i in sorted(set(range(1, n)) - set(gens)):
            t = t0.copy()
            j, k = (int(v) for v in rng.integers(0, n, size=2))
            t[i, j, k] += 1
            bad = _row_failure(t)
            assert bad is not None
            if n <= 22:
                assert bad == _dense_associativity_failure(t)
            assert bad == _dense_failure_by_slices(t)

    def test_sliced_reference_is_the_dense_reference(self, double_tensors):
        t0 = double_tensors["dd4"]
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = t0.copy()
            t[tuple(rng.integers(0, len(t), size=3))] += 1
            assert _dense_failure_by_slices(t) == _dense_associativity_failure(t)

    def test_perturbed_unit_row_takes_the_full_scan(self, double_tensors):
        t0 = double_tensors["ds3"]
        for j, k in [(1, 2), (3, 3), (7, 0)]:
            t = t0.copy()
            t[0, j, k] += 1
            assert _generators(t) is None
            bad = _row_failure(t)
            assert bad is not None and bad == _dense_associativity_failure(t)
            assert bad == _dense_failure_by_slices(t)

    @staticmethod
    def _slices_checked(t, monkeypatch):
        seen = []
        original = _rows._join_failure

        def counted(rows, n, i, *per_row):
            seen.append(i)
            return original(rows, n, i, *per_row)

        monkeypatch.setattr(_rows, "_join_failure", counted)
        assert _row_failure(t) is None
        return seen

    def test_associative_table_checks_only_the_generator_slices(
        self, double_tensors, monkeypatch
    ):
        t = double_tensors["dd10"]
        gens = _generators(t)
        assert self._slices_checked(t, monkeypatch) == gens and len(gens) == 7

    def test_dense_table_checks_only_the_generator_slices(self, double_tensors, monkeypatch):
        # D(S5): 16,143 of 39^3 constants nonzero
        t = double_tensors["ds5"]
        assert np.count_nonzero(t) == 16143
        gens = _generators(t)
        assert self._slices_checked(t, monkeypatch) == gens and len(gens) == 10

    def test_generators_span(self, double_tensors):
        for t in [_cyclic_group_ring(12), double_tensors["ds3"]]:
            gens = _generators(t)
            assert gens == sorted(set(gens)) and len(gens) < len(t)
            assert _word_span_rank(t, 0, gens) == len(t)
            assert _word_span_rank(t, 0, gens[:-1]) < len(t)

    def test_witness_comes_from_the_full_scan(self):
        # e0 a unit, e1 e1 = e2 + p e3, e3 e3 = e2 and e2 e3 = -p e2, every
        # other product of e1, e2, e3 zero.  Mod p, e1 e1 = e2, so S = [1, 3];
        # the first failing slice is 2, outside S, and only the full scan
        # names it
        p = _rows._SPAN_PRIME
        t = np.zeros((4, 4, 4), dtype=np.int64)
        t[0] = t[:, 0] = np.eye(4, dtype=np.int64)
        t[1, 1, 2], t[1, 1, 3] = 1, p
        t[3, 3, 2], t[2, 3, 2] = 1, -p
        assert _generators(t) == [1, 3]
        assert _row_failure(t) == _dense_associativity_failure(t) == (2, 1, 1, 2)
        assert _dense_failure_by_slices(t) == (2, 1, 1, 2)


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

    def test_reads_the_column_of_the_stack(self, s4):
        # every x and every label of several subgroups of D(S4): the entry
        # read directly is the image in the whole conjugation rows
        scen = drinfeld_double_scenario(s4)
        d, ctx = scen.datum, scen.ctx
        eng = fu._engine(d, ctx)
        lattice = subgroup_lattice(s4)
        for H in lattice[::6] + [lattice[-1]]:
            perm, targets, which = eng.conjugations(H)
            for a in fu.simples(d, H, ctx):
                col = eng.basis(H).pos[(a.orbit_rep, a.char_index)]
                for x in range(s4.order):
                    expected = eng.basis(targets[which[x]]).labels[perm[x, col]]
                    assert fu.eq_conjugate(d, H, x, a, ctx) == expected


def reference_induction(eng, K, H):
    """The induction matrix from the other block kind, the one
    `_Engine.induction` read before it shared restriction's: (g, chi) goes
    to a row of the block (K_g, (K_g,), H_g), moved to the canonical
    representative."""
    m = np.zeros((len(eng.basis(H).labels), len(eng.basis(K).labels)), dtype=np.int64)
    for g in eng.orbit_data(K)[0]:
        Kg = eng.stab(K, g)
        block = ct.reciprocity_block(Kg, (Kg,), eng.stab(H, g), eng.ctx)
        m[np.ix_(eng.slots(H, g), eng.slots(K, g))] += block.T
    return m


def reference_restriction(eng, H, K):
    """The restriction matrix by the double-coset formula, as
    `_Engine.restriction` assembled it before restriction became induction
    transposed: the simple (g, chi) over H underlies Ind_{H_g}^H, so by
    Mackey it restricts to the sum over double cosets K x H_g of the
    restriction of x.chi from H_xg to K_xg, a column of the block
    (K_xg, (H_xg,), K_xg), moved to the canonical representative."""
    r = np.zeros((len(eng.basis(K).labels), len(eng.basis(H).labels)), dtype=np.int64)
    for g in eng.orbit_data(H)[0]:
        Sg = eng.stab(H, g)
        perm = eng.conj_stack(Sg)[0]
        xs = double_coset_reps(eng.F, K, Sg)
        for x in xs[H.mask[xs]].tolist():
            g2 = int(eng.A[x, g])
            Kg2 = eng.stab(K, g2)
            rows = np.ix_(eng.slots(K, g2), eng.slots(H, g))
            r[rows] += eng.block(Kg2, (eng.stab(H, g2),), Kg2)[perm[x]].T
    return r


def _nested_pairs(F):
    lattice = subgroup_lattice(F)
    return [(H, K) for H in lattice for K in lattice if H.contains(K)]


@pytest.mark.parametrize("spec", [*SCENARIO_PRESETS, "sym:4"])
def test_induction_matches_the_induction_block_reference(spec):
    scen = drinfeld_double_scenario(group_preset(spec))
    eng = fu._engine(scen.datum, scen.ctx)
    for H, K in _nested_pairs(scen.datum.F):
        assert np.array_equal(eng.induction(K, H), reference_induction(eng, K, H))


def _scenario_data(name):
    if name == "classical:sym:3":
        scen = classical_scenario(group_preset("sym:3"))
    elif name == "d4_on_c4":
        return _d4_on_c4()
    else:
        scen = drinfeld_double_scenario(group_preset(name))
    return scen.datum, scen.ctx


@pytest.mark.parametrize("name", [*SCENARIO_PRESETS, "sym:4", "classical:sym:3", "d4_on_c4"])
def test_restriction_by_double_cosets_is_the_induction_transposed(name):
    # the Mackey sum the engine no longer makes agrees with the transpose
    # of the induction matrix that both families now read restriction from
    d, ctx = _scenario_data(name)
    eng = fu._engine(d, ctx)
    for H, K in _nested_pairs(d.F):
        assert np.array_equal(reference_restriction(eng, H, K), eng.induction(K, H).T)


class TestMapChecks:
    """Each whole-matrix check of the induction and conjugation maps, and
    the conservation check of the products, catches a tampered cache entry
    of a fresh D(S3), as TestCoherentAxioms catches a tampered conjugation
    stack.  With H = S3 and K = A3, the simples at g = e read the block
    (A3, (S3,), A3) for induction, and so for restriction, its transpose;
    the conjugation stack of H_e = S3 for conjugation; and the block of
    (e, e) for the products of the simples at e."""

    @pytest.fixture
    def fresh(self, s3):
        scen = drinfeld_double_scenario(s3)
        d, ctx = scen.datum, scen.ctx
        return d, ctx, full(scen), s3.subgroup(indices=[3]), fu._engine(d, ctx)

    def test_restriction_keeps_total_dimension(self, fresh):
        # one unit moves between the block's two rows of degree 1, so
        # bh.dims @ I still equals [H : K] bk.dims and only the transposed
        # identity I @ bk.dims = bh.dims (restriction's) can fail
        d, ctx, H, a3, eng = fresh
        block = eng.block(a3, (H,), a3).copy()
        assert block[0, 0] == 1 and eng.basis(H).dims[:2].tolist() == [1, 1]
        block[0, 0] -= 1
        block[1, 0] += 1
        assert np.array_equal(eng.basis(H).dims[:3] @ block, 2 * eng.basis(a3).dims[:3])
        eng._block[(a3.key, (H.key,), a3.key)] = block
        with pytest.raises(InvariantViolation, match="restriction changed the total dimension"):
            fu.eq_restrict(d, H, a3, fu.simples(d, H, ctx)[0], ctx)

    def test_induction_keeps_dimension_bookkeeping(self, fresh):
        d, ctx, H, a3, eng = fresh
        block = eng.block(a3, (H,), a3).copy()
        block[0, 0] += 1
        eng._block[(a3.key, (H.key,), a3.key)] = block
        with pytest.raises(InvariantViolation, match="induction changed the dimension bookkeeping"):
            fu.eq_induce(d, a3, H, fu.simples(d, a3, ctx)[0], ctx)

    def test_conjugation_maps_simples_to_simples(self, fresh):
        # eq_conjugate reads one entry, so the whole rows are built and
        # checked by the family that caches them
        d, ctx, H, _, eng = fresh
        x = 1  # a transposition
        eng.conj_stack(H)[0][x] = 0
        with pytest.raises(InvariantViolation, match="conjugations of .* are not 6 permutations"):
            equivariant_k0_family(d, ctx).conjugations(H)

    def test_fusion_ring_keeps_dimension_by_conservation(self, fresh):
        # sgn . sgn at (e, e) gains a trivial summand, so that pair's
        # product has dimension 2, not 1: fuse_pair's check of the pair is
        # the dimension-homomorphism check of the whole ring
        d, ctx, H, _, eng = fresh
        q, block = eng.m_block(H, 0, 0)
        block = block.copy()
        block[1, 1, 0] += 1
        eng._blocks[(H.key, 0, 0)] = (q, block)
        with pytest.raises(InvariantViolation, match="dimension conservation failed"):
            fu.fusion_ring(d, H, ctx)
