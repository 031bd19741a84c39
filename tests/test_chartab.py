"""Exact character theory over F_p.

Expected values for the derived cases were computed by independent oracles:
sum-of-squares plus orthogonality pins the degree lists, the regular
character pins multiplicities, and the Frobenius formula evaluated by hand
pins the induction examples.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifuse import _kernels
from equifuse import chartab as ct
from equifuse import mackey as mk
from equifuse.errors import (
    EigenbasisFailure,
    GroupMismatch,
    InvalidPrime,
    InvariantViolation,
    NotASubgroup,
    NotInSpan,
)
from equifuse.permgrp import (
    Group,
    Perm,
    conjugates,
    conjugation_index,
    left_coset_reps,
    subgroup_lattice,
)
from equifuse.presets import group_preset


def cyc(cycles, degree):
    return Perm.from_cycles(cycles, degree)


class TestMakeContext:
    def test_trivial(self, trivial):
        assert ct.make_context([trivial]).p == 2

    def test_s3(self, s3):
        ctx = ct.make_context([s3])
        assert ctx.p == 223  # smallest prime = 1 mod 6 above 216

    def test_z4(self, z4):
        assert ct.make_context([z4]).p == 73  # smallest prime = 1 mod 4 above 64

    def test_invariants(self, s4, d4):
        ctx = ct.make_context([s4, d4])
        bound = max(s4.order, d4.order) ** 3
        assert ctx.p > bound
        assert (ctx.p - 1) % np.lcm(s4.exponent(), d4.exponent()) == 0

    def test_prime_override_validation(self, z4):
        with pytest.raises(InvalidPrime):
            ct.make_context([z4], prime_override=74)   # not prime
        with pytest.raises(InvalidPrime):
            ct.make_context([z4], prime_override=67)   # not 1 mod 4
        with pytest.raises(InvalidPrime):
            ct.make_context([z4], prime_override=61)   # below the bound
        assert ct.make_context([z4], prime_override=89).p == 89

    def test_primitive_root(self, s3):
        ctx = ct.make_context([s3])
        w = ctx.root_of_unity(6)
        assert pow(w, 6, ctx.p) == 1
        assert all(pow(w, k, ctx.p) != 1 for k in range(1, 6))

    def test_factorize_agrees_with_trial_division(self):
        def reference(n):
            out, d = {}, 2
            while d * d <= n:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                d += 1
            return {**out, n: 1} if n > 1 else out

        rng = random.Random(3)
        for n in [*range(1, 3000), *(rng.randrange(1, 10**10) for _ in range(200))]:
            assert ct._factorize(n) == reference(n)

    def test_factorize_past_the_trial_bound(self):
        # cofactors with no prime factor below the trial bound: a prime that
        # _is_prime proves (p - 1 = 6 q for the 61-bit p below), and
        # composites that Pollard-Brent rho splits
        q, p1, p2 = 288230376151712227, 2147483647, 2147483629
        assert ct._factorize(6 * q) == {2: 1, 3: 1, q: 1}
        assert ct._factorize(p1 * p2) == {p2: 1, p1: 1}
        assert ct._factorize(12 * p1 * p1) == {2: 2, 3: 1, p1: 2}
        assert ct._factorize(4099**5) == {4099: 5}
        assert ct._primitive_root(6 * q + 1) == 2

    def test_p_minus_1_is_factored_only_for_a_root(self, s3, s4, monkeypatch):
        # only the display lift needs a primitive root, so making a context,
        # searched or overridden, never factors p - 1
        def refuse(n):
            raise AssertionError(f"make_context factored {n}")

        monkeypatch.setattr(ct, "_factorize", refuse)
        ctxs = [
            ct.make_context([s3]),
            ct.make_context([s3, s4]),
            ct.make_context([s4], prime_override=2147484061),
        ]
        monkeypatch.undo()
        for ctx in ctxs:
            w = ctx.root_of_unity(2)
            assert w == ctx.p - 1


class TestCharacterTable:
    def test_trivial(self, trivial):
        tab = ct.character_table(trivial, ct.make_context([trivial]))
        assert [r.values for r in tab.rows] == [(1,)]

    def test_s3_degrees(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        assert tab.degrees == (1, 1, 2)
        # oracle: decomposing the regular character recovers the degrees
        reg = ct.ClassFunction(s3, [6, 0, 0])
        assert ct.decompose(reg, tab).coeffs == tab.degrees

    def test_z4_linear_rows(self, z4):
        ctx = ct.make_context([z4])
        tab = ct.character_table(z4, ctx)
        assert tab.degrees == (1, 1, 1, 1)
        # each row's value at the generator class is a 4th root of unity
        gen_class = 1
        for row in tab.rows:
            assert pow(row.values[gen_class], 4, ctx.p) == 1

    def test_first_row_trivial_and_sorted(self, s4, ctx_s4):
        tab = ct.character_table(s4, ctx_s4)
        assert tab.rows[0].values == tuple([1] * s4.num_classes)
        keys = [(r.values[0], r.values) for r in tab.rows]
        assert keys == sorted(keys)

    def test_sum_of_degree_squares_whole_lattice(self, s4, ctx_s4):
        for sub in subgroup_lattice(s4):
            tab = ct.character_table(sub.group(), ctx_s4)
            assert sum(d * d for d in tab.degrees) == sub.order

    def test_row_orthogonality(self, s4, ctx_s4):
        tab = ct.character_table(s4, ctx_s4)
        for i, a in enumerate(tab.rows):
            for j, b in enumerate(tab.rows):
                assert ct.inner_product(a, b, ctx_s4.p) == (1 if i == j else 0)

    @pytest.mark.parametrize("spec,prime,lattice", [
        pytest.param("sym:4", None, False, id="sym:4"),
        pytest.param("sym:5", None, True, id="sym:5-lattice"),
        pytest.param("cyclic:60", None, False, id="cyclic:60"),
        pytest.param("dihedral:100", None, False, id="dihedral:100"),
        pytest.param("sym:4", 2147484061, False, id="sym:4-p2147484061"),
    ])
    def test_column_orthogonality(self, spec, prime, lattice):
        # sum_i chi_i(g) chi_i(h^-1) = delta * |C_G(g)| in F_p; the table
        # checks only its rows, so this is a check from the other side
        G = group_preset(spec)
        ctx = ct.make_context([G], prime_override=prime)
        p = ctx.p
        for H in subgroup_lattice(G) if lattice else [G.full_subgroup()]:
            g = H.group()
            tab = ct.character_table(g, ctx)
            x = np.array([r.values for r in tab.rows], dtype=object)
            cols = x.T @ x[:, g.inverse_class] % p
            expected = np.diag([g.order // int(c) for c in g.class_sizes])
            assert (cols == expected).all()


class TestCommonEigenbasis:
    @pytest.mark.parametrize("p", [1741, 2147484061])
    def test_two_degenerate_diagonals_separate_the_axes(self, p):
        # each matrix has a repeated eigenvalue, so neither splits F_p^4 into
        # lines alone; together they tell every axis apart
        mats = [np.diag([1, 1, 2, 2]), np.diag([3, 4, 3, 4])]
        vectors = ct._common_eigenbasis(mats, 4, p, random.Random(7))
        axes = []
        for v in vectors:
            nonzero = [i for i, x in enumerate(v) if int(x) % p]
            assert len(nonzero) == 1
            axes.append(nonzero[0])
        assert sorted(axes) == [0, 1, 2, 3]

    def test_a_singular_draw_is_skipped(self):
        # the first round's three draws are 0, so z = 0 and b = 0; splitting
        # with that b would halve every part instead of separating axes
        class FirstRoundZero:
            def __init__(self):
                self.rng, self.calls = random.Random(7), 0

            def randrange(self, high):
                self.calls += 1
                return 0 if self.calls <= 3 else self.rng.randrange(high)

        mats = [np.diag([1, 1, 2, 2]), np.diag([3, 4, 3, 4])]
        vectors = ct._common_eigenbasis(mats, 4, 1741, FirstRoundZero())
        axes = [[i for i, x in enumerate(v) if int(x)] for v in vectors]
        assert sorted(axes) == [[0], [1], [2], [3]]

    def test_no_simple_spectrum_raises(self):
        with pytest.raises(EigenbasisFailure):
            ct._common_eigenbasis([np.diag([1, 1, 2])], 3, 1741, random.Random(7))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_finds_the_columns_of_a_common_eigenbasis(self, data):
        # mats[c] = P D_c P^-1 with the diagonals' entry tuples pairwise
        # distinct: each returned vector must be a unit times a column of P,
        # i.e. P^-1 v has exactly one nonzero entry, and every column appears
        p = data.draw(st.sampled_from([1741, 2147484061]))
        k = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 3))
        entry = st.integers(0, p - 1)
        diags = data.draw(st.lists(
            st.tuples(*[entry] * m), min_size=k, max_size=k, unique=True
        ))
        lower = np.eye(k, dtype=object)
        upper = np.eye(k, dtype=object)
        for i in range(k):
            for j in range(i):
                lower[i, j] = data.draw(entry)
                upper[j, i] = data.draw(entry)
        P = _kernels.matmul_mod(lower, upper, p)
        work, _ = _kernels.rref_mod(np.hstack([P, np.eye(k, dtype=object)]), p)
        P_inv = work[:, k:]
        mats = [
            _kernels.matmul_mod(
                _kernels.matmul_mod(P, np.diag([d[c] for d in diags]).astype(object), p), P_inv, p
            )
            for c in range(m)
        ]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        vectors = ct._common_eigenbasis(mats, k, p, rng)
        axes = []
        for v in vectors:
            coords = _kernels.matmul_mod(P_inv, np.array(v, dtype=object)[:, None], p)[:, 0]
            nonzero = [i for i, x in enumerate(coords) if int(x)]
            assert len(nonzero) == 1
            axes.append(nonzero[0])
        assert sorted(axes) == list(range(k))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matpow_is_repeated_products(self, data):
        # against repeated products of Python ints, for one limb and several
        p = data.draw(st.sampled_from([1741, 2147484061, (1 << 62) - 57]))
        k = data.draw(st.integers(1, 4))
        rows = [data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
                for _ in range(k)]
        e = data.draw(st.integers(0, 40))
        expected = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(e):
            expected = [[sum(x * rows[t][j] for t, x in enumerate(row)) % p for j in range(k)]
                        for row in expected]
        got = ct._matpow(np.array(rows, dtype=np.int64), e, p)
        assert got.dtype == np.int64
        assert got.tolist() == expected


class TestKnownDegreeSequences:
    # textbook degree lists; each is re-verified internally by sum-of-squares
    # and orthogonality before the table is returned
    @pytest.mark.parametrize(
        "spec,degrees",
        [
            ("sym:4", (1, 1, 2, 3, 3)),
            ("sym:5", (1, 1, 4, 4, 5, 5, 6)),
            ("alt:4", (1, 1, 1, 3)),
            ("alt:5", (1, 3, 3, 4, 5)),
            ("dihedral:4", (1, 1, 1, 1, 2)),
            ("dihedral:6", (1, 1, 1, 1, 2, 2)),
            ("quaternion8", (1, 1, 1, 1, 2)),
            ("sym:6", (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16)),
        ],
    )
    def test_degrees(self, spec, degrees):
        from equifuse.presets import group_preset

        g = group_preset(spec)
        ctx = ct.make_context([g])
        assert ct.character_table(g, ctx).degrees == degrees

    def test_abelian_all_linear(self):
        from equifuse.presets import group_preset

        g = group_preset("cyclic:60")
        tab = ct.character_table(g, ct.make_context([g]))
        assert tab.degrees == tuple([1] * 60)


class TestInnerProduct:
    def test_irreducible_norm(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        for chi in tab.rows:
            assert ct.inner_product(chi, chi, ctx_s3.p) == 1

    def test_regular_against_trivial(self, s3, ctx_s3):
        reg = ct.ClassFunction(s3, [6, 0, 0])
        tab = ct.character_table(s3, ctx_s3)
        assert ct.inner_product(reg, tab.rows[0], ctx_s3.p) == 1

    def test_chi2_cubed_multiplicity(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        chi2 = tab.rows[2]
        square = ct.pointwise_product(chi2, chi2, ctx_s3.p)
        assert ct.inner_product(chi2, square, ctx_s3.p) == 1

    def test_group_mismatch(self, s3, z4, ctx_s3):
        a = ct.ClassFunction(s3, [1, 1, 1])
        b = ct.ClassFunction(z4, [1, 1, 1, 1])
        with pytest.raises(GroupMismatch):
            ct.inner_product(a, b, ctx_s3.p)

    def test_symmetric_lift(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        sgn, chi2 = tab.rows[1], tab.rows[2]
        diff = ct.ClassFunction(
            s3, [(a - b) % ctx_s3.p for a, b in zip(sgn.values, chi2.values)]
        )
        assert ct.inner_product(diff, chi2, ctx_s3.p, lift="symmetric") == -1


class TestRestrict:
    def test_identity_case(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        chi = tab.rows[2]
        assert ct.restrict(chi, s3.full_subgroup()).values == chi.values

    def test_chi2_to_a3(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        a3 = s3.subgroup(indices=[3])
        restricted = ct.restrict(tab.rows[2], a3)
        p = ctx_s3.p
        assert restricted.values == (2, p - 1, p - 1)
        tab_a3 = ct.character_table(a3.group(), ctx_s3)
        assert ct.decompose(restricted, tab_a3).coeffs == (0, 1, 1)

    def test_sgn_to_a3_is_trivial(self, s3, ctx_s3):
        a3 = s3.subgroup(indices=[3])
        tab = ct.character_table(s3, ctx_s3)
        tab_a3 = ct.character_table(a3.group(), ctx_s3)
        assert ct.decompose(ct.restrict(tab.rows[1], a3), tab_a3).coeffs == (1, 0, 0)

    def test_wrong_parent(self, s3, z4, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        with pytest.raises(NotASubgroup):
            ct.restrict(tab.rows[0], z4.full_subgroup())

    def test_restrict_and_induce_match_element_loops(self, s4, ctx_s4):
        # restrict and induce move class values with one gather; the
        # references read them element by element from the definitions
        p = ctx_s4.p
        for K in subgroup_lattice(s4):
            kgrp = K.group()
            for chi in ct.character_table(s4, ctx_s4).rows:
                expected = [chi.value_at(int(K.members[int(r)])) for r in kgrp.class_reps]
                assert ct.restrict(chi, K).values == tuple(expected)
            for chi in ct.character_table(kgrp, ctx_s4).rows:
                # (Ind chi)(h) = (1/|K|) sum of chi(x^-1 h x) over x with x^-1 h x in K
                expected = []
                for h in s4.class_reps.tolist():
                    total = 0
                    for x in range(s4.order):
                        y = int(s4.mult[s4.mult[s4.inv[x], h], x])
                        if K.mask[y]:
                            total += chi.value_at(int(np.searchsorted(K.members, y)))
                    expected.append(total * pow(K.order, p - 2, p) % p)
                assert ct.induce(chi, s4, p).values == tuple(expected)


class TestInduce:
    def test_identity_case(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        chi = tab.rows[2]
        full = s3.full_subgroup()
        again = ct.induce(ct.restrict(chi, full), s3, ctx_s3.p)
        assert again.values == chi.values

    def test_trivial_from_a3(self, s3, ctx_s3):
        a3 = s3.subgroup(indices=[3])
        tab_a3 = ct.character_table(a3.group(), ctx_s3)
        ind = ct.induce(tab_a3.rows[0], s3, ctx_s3.p)
        assert ind.values == (2, 0, 2)  # Frobenius formula by hand
        tab = ct.character_table(s3, ctx_s3)
        assert ct.decompose(ind, tab).coeffs == (1, 1, 0)

    def test_regular_from_trivial(self, s3, ctx_s3):
        t = s3.trivial_subgroup()
        tab_t = ct.character_table(t.group(), ctx_s3)
        ind = ct.induce(tab_t.rows[0], s3, ctx_s3.p)
        assert ind.values == (6, 0, 0)
        tab = ct.character_table(s3, ctx_s3)
        assert ct.decompose(ind, tab).coeffs == (1, 1, 2)

    def test_degree_scaling(self, s4, ctx_s4):
        lat = subgroup_lattice(s4)
        sub = next(s for s in lat if s.order == 4)
        tab_sub = ct.character_table(sub.group(), ctx_s4)
        for chi in tab_sub.rows:
            ind = ct.induce(chi, s4, ctx_s4.p)
            assert ind.degree == chi.degree * (s4.order // sub.order)

    def test_frobenius_reciprocity_s3(self, s3, ctx_s3):
        p = ctx_s3.p
        tab = ct.character_table(s3, ctx_s3)
        for sub in subgroup_lattice(s3):
            tab_sub = ct.character_table(sub.group(), ctx_s3)
            for chi in tab_sub.rows:
                ind = ct.induce(chi, s3, p)
                for psi in tab.rows:
                    assert ct.inner_product(ind, psi, p) == ct.inner_product(
                        chi, ct.restrict(psi, sub), p
                    )

    def test_linearity_fixed_seed(self, s3, ctx_s3):
        # induction commutes with integer combinations of characters
        p = ctx_s3.p
        a3 = s3.subgroup(indices=[3])
        tab_a3 = ct.character_table(a3.group(), ctx_s3)
        rng = np.random.default_rng(42)
        for _ in range(5):
            c1, c2 = (int(v) for v in rng.integers(0, 4, size=2))
            combo = ct.ClassFunction(
                a3.group(),
                [
                    (c1 * x + c2 * y) % p
                    for x, y in zip(tab_a3.rows[1].values, tab_a3.rows[2].values)
                ],
            )
            lhs = ct.induce(combo, s3, p).values
            v1 = ct.induce(tab_a3.rows[1], s3, p).values
            v2 = ct.induce(tab_a3.rows[2], s3, p).values
            assert lhs == tuple((c1 * a + c2 * b) % p for a, b in zip(v1, v2))


class TestConjugate:
    def test_inner_conjugation_fixes(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        for x in range(s3.order):
            moved = ct.conjugate_cf(tab.rows[2], s3, x)
            assert moved.values == tab.rows[2].values

    def test_sgn_transport(self, s3, ctx_s3):
        h = s3.subgroup(indices=[2])  # <(0 1)>
        tab_h = ct.character_table(h.group(), ctx_s3)
        x = s3.element_index(cyc([(0, 2)], 3))
        moved = ct.conjugate_cf(tab_h.rows[1], s3, x)
        target_elems = [e.cycle_string() for e in moved.group.elements]
        assert target_elems == ["()", "(1 2)"]
        assert moved.values == tab_h.rows[1].values  # sgn maps to sgn

    def test_composition_s4(self, s4, ctx_s4):
        lat = subgroup_lattice(s4)
        sub = next(s for s in lat if s.order == 4)
        tab = ct.character_table(sub.group(), ctx_s4)
        rng = np.random.default_rng(3)
        for _ in range(6):
            x, y = (int(v) for v in rng.integers(0, s4.order, size=2))
            chi = tab.rows[int(rng.integers(0, tab.size))]
            step = ct.conjugate_cf(ct.conjugate_cf(chi, s4, x), s4, y)
            direct = ct.conjugate_cf(chi, s4, int(s4.mult[y, x]))
            assert step.group.elements == direct.group.elements
            assert step.values == direct.values

    def test_irreducible_stays_irreducible(self, s4, ctx_s4):
        lat = subgroup_lattice(s4)
        sub = next(s for s in lat if s.order == 6)
        tab = ct.character_table(sub.group(), ctx_s4)
        for x in range(s4.order):
            for chi in tab.rows:
                moved = ct.conjugate_cf(chi, s4, x)
                target_tab = ct.character_table(moved.group, ctx_s4)
                target_tab.row_index(moved)  # raises if not an irreducible row

    def test_conjugation_perms_rejects_a_wrong_class_map(self, s3, ctx_s3, monkeypatch):
        # every class sent to the identity class moves the degree-2
        # irreducible of S3 to (2, 2, 2), which is no row of the table
        H = s3.full_subgroup()
        targets, which = conjugates(H)
        perm = ct.conjugation_perms(H, targets, which, ctx_s3)
        assert sorted(perm[1].tolist()) == [0, 1, 2]

        def collapse(sub, xs, targets):
            return np.zeros_like(original(sub, xs, targets))

        original = ct.conjugation_class_maps
        monkeypatch.setattr(ct, "conjugation_class_maps", collapse)
        with pytest.raises(NotInSpan):
            ct.conjugation_perms(H, targets, which, ctx_s3)

    @pytest.mark.parametrize("name, evaluated", [
        ("sym:4", 234), ("alt:5", 1019), ("dihedral:12", 266),
    ])
    def test_conjugation_perms_on_coset_representatives(self, name, evaluated, monkeypatch):
        """The coset lemma of `conjugation_perms`, perm(xs) = perm(x) for s
        in H, on every subgroup H: the class maps are taken at the least
        element of each left coset xH only (sum of |G|/|H| over the
        lattice, against |L| |G| x in all), and every row of the result
        is the row at its coset's representative."""
        G = group_preset(name)
        ctx = ct.make_context([G])
        seen = []
        original = ct.conjugation_class_maps

        def spy(sub, xs, targets):
            seen.append(np.asarray(xs).tolist())
            return original(sub, xs, targets)

        monkeypatch.setattr(ct, "conjugation_class_maps", spy)
        lattice = subgroup_lattice(G)
        for H in lattice:
            targets, which = conjugates(H)
            perm = ct.conjugation_perms(H, targets, which, ctx)
            assert seen[-1] == left_coset_reps(G, H).tolist()
            assert perm.shape == (G.order, ct.character_table(H.group(), ctx).size)
            for s in H.members:
                assert (perm[G.mult[:, s]] == perm).all()
        assert sum(map(len, seen)) == evaluated
        assert len(lattice) * G.order > evaluated


def _fresh_context(G, floor):
    """A context for G whose prime, the least valid one above `floor`, no
    other test uses, so no table of it is cached yet."""
    e = G.exponent()
    p = floor + 1 + (-(floor + 1) % e) + 1
    while not ct._is_prime(p):
        p += e
    return ct.make_context([G], prime_override=p)


class TestMovedTables:
    """`conjugation_perms` gives every conjugate without a cached table
    the moved table of its class representative, with no Dixon run."""

    @pytest.mark.parametrize("name", ["alt:5", "sym:4", "dihedral:12"])
    def test_moved_tables_are_the_dixon_tables(self, name, monkeypatch):
        G = group_preset(name)
        ctx = _fresh_context(G, 10**12)
        runs = []
        original = ct._common_eigenbasis

        def spy(mats, k, p, rng):
            runs.append(k)
            return original(mats, k, p, rng)

        monkeypatch.setattr(ct, "_common_eigenbasis", spy)
        lattice = subgroup_lattice(G)
        for H in lattice:
            ct.conjugation_perms(H, *conjugates(H), ctx)
        classes = {min(conjugation_index(G)[i].tolist()) for i in range(len(lattice))}
        assert len(runs) == len(classes) < len(lattice)
        for H in lattice:
            grp = H.group()
            fresh = Group(None, grp.generators, mult=grp.mult.copy(), images=grp.images.copy())
            dixon = ct.character_table(fresh, ctx)
            moved = grp._char_tables[ctx.p]
            assert np.array_equal(moved.values, dixon.values)
            assert moved.degrees == dixon.degrees
        assert len(runs) == len(classes) + len(lattice)

    def test_mackey_verifier_runs_dixon_once_per_class(self, monkeypatch):
        G = group_preset("alt:5")
        runs = []
        original = ct._common_eigenbasis
        monkeypatch.setattr(ct, "_common_eigenbasis",
                            lambda *args: runs.append(1) or original(*args))
        fam = mk.char_ring_family(G, _fresh_context(G, 2 * 10**12))
        assert mk.verify_mackey_axioms(fam).ok
        assert len(fam.lattice) == 59 and len(runs) == 9

    def test_collapsed_map_into_an_uncached_target_installs_nothing(
        self, s3, monkeypatch
    ):
        # H = <(0 1)> and its two conjugates; every class of H sent to the
        # identity class moves sgn to the trivial row
        ctx = _fresh_context(s3, 3 * 10**12)
        H = s3.subgroup(indices=[s3.element_index(cyc([(0, 1)], 3))])
        targets, which = conjugates(H)
        ct.character_table(H.group(), ctx)
        original = ct.conjugation_class_maps
        monkeypatch.setattr(ct, "conjugation_class_maps",
                            lambda sub, xs, tgts: np.zeros_like(original(sub, xs, tgts)))
        with pytest.raises(NotInSpan):
            ct.conjugation_perms(H, targets, which, ctx)
        assert len(targets) == 3
        assert all(ctx.p not in T.group()._char_tables for T in targets[1:])


class TestDecompose:
    def test_trivial_unit_vector(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        assert ct.decompose(tab.rows[0], tab).coeffs == (1, 0, 0)

    def test_reconstruction_exact(self, s4, ctx_s4):
        tab = ct.character_table(s4, ctx_s4)
        p = ctx_s4.p
        rng = np.random.default_rng(9)
        vals = [int(v) for v in rng.integers(0, p, size=s4.num_classes)]
        f = ct.ClassFunction(s4, vals)
        vc = ct.decompose(f, tab)
        recon = [0] * s4.num_classes
        for c, chi in zip(vc.coeffs, tab.rows):
            recon = [(r + c * v) % p for r, v in zip(recon, chi.values)]
        assert tuple(recon) == f.values

    def test_group_mismatch(self, s3, z4, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        with pytest.raises(GroupMismatch):
            ct.decompose(ct.ClassFunction(z4, [1, 1, 1, 1]), tab)


class TestReciprocityBlock:
    """The one class contraction against the per-irreducible references,
    for every nested pair K <= H of a lattice: restriction (I = K, factor H),
    induction (factor K, target H), and products of restrictions (factors
    (H, H), target K; for K = H the character ring's product)."""

    @pytest.mark.parametrize("spec,prime", [
        ("sym:4", None), ("alt:5", None), ("sym:3", 2147483659),
    ])
    def test_matches_restrict_induce_and_products(self, spec, prime):
        G = group_preset(spec)
        ctx = ct.make_context([G], prime_override=prime)
        p = ctx.p
        lattice = subgroup_lattice(G)
        for H in lattice:
            tab_h = ct.character_table(H.group(), ctx)
            for K in (K for K in lattice if H.contains(K)):
                tab_k = ct.character_table(K.group(), ctx)
                res = [ct.restrict(chi, K.viewed_in(H)) for chi in tab_h.rows]
                block = ct.reciprocity_block(K, (H,), K, ctx)
                assert [tuple(r) for r in block] == [ct.decompose(r, tab_k).coeffs for r in res]
                block = ct.reciprocity_block(K, (K,), H, ctx)
                assert [tuple(r) for r in block] == [
                    ct.decompose(ct.induce(psi, H.group(), p), tab_h).coeffs
                    for psi in tab_k.rows
                ]
                block = ct.reciprocity_block(K, (H, H), K, ctx)
                for i, a in enumerate(res):
                    for j, b in enumerate(res):
                        prod = ct.pointwise_product(a, b, p)
                        assert tuple(block[i, j]) == ct.decompose(prod, tab_k).coeffs

    def _mutant(self, G, ctx, monkeypatch, rows):
        H = G.full_subgroup()
        table = ct.character_table(H.group(), ctx)
        mutant = ct.CharacterTable(H.group(), ctx.p, rows(table.rows, ctx.p))
        mutant.degrees = table.degrees
        monkeypatch.setitem(H.group()._char_tables, ctx.p, mutant)
        return H

    def test_rows_swapped_under_their_degrees_fail_the_degree_identity(
        self, s3, ctx_s3, monkeypatch
    ):
        # rows 1 (sgn, degree 1) and 2 (degree 2) of S3 trade places; the
        # restriction to the trivial subgroup reads the rows' own degrees
        H = self._mutant(s3, ctx_s3, monkeypatch, lambda r, p: [r[0], r[2], r[1]])
        one = s3.trivial_subgroup()
        with pytest.raises(InvariantViolation, match="degree identity"):
            ct.reciprocity_block(one, (H,), one, ctx_s3)

    def test_negated_row_fails_the_sign_check(self, s3, ctx_s3, monkeypatch):
        H = self._mutant(s3, ctx_s3, monkeypatch, lambda r, p: [
            r[0], r[1], ct.ClassFunction(r[2].group, [-v % p for v in r[2].values])
        ])
        one = s3.trivial_subgroup()
        with pytest.raises(InvariantViolation, match="negative multiplicity"):
            ct.reciprocity_block(one, (H,), one, ctx_s3)

    def test_restriction_blocks_are_the_blocks_of_every_pair(self, s4, ctx_s4):
        # one contraction per K: the restriction block of every overgroup
        # H, and its transpose the induction block
        lattice = subgroup_lattice(s4)
        for K in lattice:
            overs = [H for H in lattice if H.contains(K)]
            blocks = ct.restriction_blocks(K, overs, ctx_s4)
            assert len(blocks) == len(overs)
            for H, block in zip(overs, blocks):
                assert block.flags.c_contiguous and block.base is None
                assert np.array_equal(block, ct.reciprocity_block(K, (H,), K, ctx_s4))
                assert np.array_equal(block.T, ct.reciprocity_block(K, (K,), H, ctx_s4))

    @pytest.mark.parametrize("swap, match", [
        (lambda r, p: [r[0], r[2], r[1]], "degree identity"),
        (lambda r, p: [r[0], r[1], ct.ClassFunction(r[2].group, [-v % p for v in r[2].values])],
         "negative multiplicity"),
    ])
    def test_restriction_blocks_fail_the_mutants(self, s3, ctx_s3, monkeypatch, swap, match):
        H = self._mutant(s3, ctx_s3, monkeypatch, swap)
        one = s3.trivial_subgroup()
        with pytest.raises(InvariantViolation, match=match):
            ct.restriction_blocks(one, [one, H], ctx_s3)


class TestDegreeHomomorphism:
    def test_products_of_characters(self, s4, ctx_s4):
        tab = ct.character_table(s4, ctx_s4)
        p = ctx_s4.p
        for a in tab.rows:
            for b in tab.rows:
                prod = ct.pointwise_product(a, b, p)
                assert prod.degree == a.degree * b.degree


def reference_cyclotomic_lift(table, ctx):
    """The per-cell loop `cyclotomic_lift` replaced: e modular powers of
    omega for every (class, row, c)."""
    G, p = table.group, ctx.p
    out = []
    for chi in table.rows:
        row = []
        for j, rep in enumerate(G.class_reps):
            e = G.element_order(int(rep))
            if e == 1:
                row.append(str(chi.values[j]))
                continue
            omega = ctx.root_of_unity(e)
            powers, cur = [], 0
            for _ in range(e):
                powers.append(chi.values[int(G.class_of[cur])])
                cur = int(G.mult[cur, int(rep)])
            terms = []
            for c in range(e):
                acc = sum(powers[t] * pow(omega, (-c * t) % (p - 1), p) for t in range(e))
                mult = acc * pow(e, p - 2, p) % p
                if mult:
                    pw = f"z{e}" + (f"^{c}" if c > 1 else "")
                    terms.append(str(mult) if c == 0 else pw if mult == 1 else f"{mult}*{pw}")
            row.append(" + ".join(terms) if terms else "0")
        out.append(row)
    return out


class TestCyclotomicLift:
    @pytest.mark.parametrize("spec,prime", [
        ("cyclic:5", None), ("alt:4", None), ("cyclic:12", None), ("quaternion8", None),
        ("dihedral:6", None), ("cyclic:8", 2305843009213693921),
    ])
    def test_matches_the_per_cell_loop(self, spec, prime):
        G = group_preset(spec)
        ctx = ct.make_context([G], prime_override=prime)
        table = ct.character_table(G, ctx)
        assert ct.cyclotomic_lift(table, ctx) == reference_cyclotomic_lift(table, ctx)

    def test_s3_display(self, s3, ctx_s3):
        tab = ct.character_table(s3, ctx_s3)
        rows = ct.cyclotomic_lift(tab, ctx_s3)
        assert rows[0] == ["1", "1", "1"]
        assert rows[2][0] == "2"
        # chi2 at the 3-cycle is z3 + z3^2 (= -1)
        assert rows[2][2] == "z3 + z3^2"

    def test_z4_display(self, z4):
        ctx = ct.make_context([z4])
        rows = ct.cyclotomic_lift(ct.character_table(z4, ctx), ctx)
        assert any("z4" in cell for row in rows for cell in row)
