"""Permutation-group engine: enumeration, classes, cosets, actions, lattice.

Derived expected values are checked against independent brute-force oracles
(conjugation orbit closure, commutation scans, coset partitions, subset
closure for the lattice).
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from equifuse.errors import (
    DegreeMismatch,
    ElementNotInGroup,
    NotASubgroup,
    NotInSameOrbit,
    OrderCapExceeded,
)
from equifuse.permgrp import (
    Group,
    GroupAction,
    Perm,
    Subgroup,
    _close,
    build_group,
    centralizer,
    conjugacy_classes,
    conjugates,
    conjugation_index,
    double_coset_reps,
    left_coset_reps,
    orbits,
    subgroup_lattice,
    transporter,
)
from equifuse._kernels import mult_table
from equifuse.presets import group_preset

perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(range(n))
)


def cyc(cycles, degree):
    return Perm.from_cycles(cycles, degree)


class TestPerm:
    def test_identity(self):
        e = Perm.identity(4)
        assert e.images == (0, 1, 2, 3)
        assert e.order() == 1

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 3)))
    def test_associativity_and_inverse(self, triple):
        x, y, z = (Perm(t) for t in triple)
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == Perm.identity(x.degree)
        assert x.inverse() * x == Perm.identity(x.degree)

    def test_composition_order(self):
        # (x*y)(p) = x(y(p)): apply y first
        x = cyc([(0, 1)], 3)
        y = cyc([(1, 2)], 3)
        assert (x * y).images == tuple(x.images[v] for v in y.images)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            cyc([(0, 1)], 2) * cyc([(0, 1)], 3)

    def test_cycles_roundtrip(self):
        p = cyc([(0, 1), (2, 3, 4)], 5)
        assert Perm.from_cycles(p.cycles(), 5) == p
        assert p.cycle_string() == "(0 1)(2 3 4)"
        assert Perm.identity(3).cycle_string() == "()"


def reference_build_group(gens, degree):
    """The search `build_group` replaced: depth first over Perm objects,
    sorted at the end."""
    ident = Perm.identity(degree)
    seen = {ident.images: ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = x * g
            if y.images not in seen:
                seen[y.images] = y
                queue.append(y)
    return sorted(seen.values())


class TestBuildGroup:
    def test_trivial(self):
        g = build_group([], degree=1)
        assert g.order == 1

    def test_s3(self):
        g = build_group([cyc([(0, 1)], 3), cyc([(0, 1, 2)], 3)])
        assert g.order == 6

    def test_z4(self):
        g = build_group([cyc([(0, 1, 2, 3)], 4)])
        assert g.order == 4

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            build_group([cyc([(0, 1)], 2), cyc([(0, 1)], 3)])

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            build_group([cyc([(0, 1)], 3), cyc([(0, 1, 2)], 3)], cap=5)

    def test_cap_env(self, monkeypatch):
        monkeypatch.setenv("EQUIFUSE_CAP_ORDER", "4")
        with pytest.raises(OrderCapExceeded):
            build_group([cyc([(0, 1)], 3), cyc([(0, 1, 2)], 3)])

    def test_order_equal_to_the_cap(self):
        assert build_group([cyc([(0, 1)], 3), cyc([(0, 1, 2)], 3)], cap=6).order == 6

    @pytest.mark.parametrize("name", [
        "sym:5", "alt:5", "dihedral:12", "quaternion8", "cyclic:1", "klein4", "moved", "repeated",
    ])
    def test_matches_the_perm_search(self, name, s4_moved):
        # same sorted elements as the Perm search, and the table of the
        # independent prefix-sort kernel
        if name == "moved":
            gens = list(s4_moved.generators)
        elif name == "repeated":
            gens = [cyc([(0, 1, 2)], 4), cyc([(0, 1, 2)], 4), cyc([(1, 2, 3)], 4)]
        else:
            gens = list(group_preset(name).generators)
        degree = gens[0].degree if gens else 1
        G = build_group(gens, degree=degree)
        expected = reference_build_group(gens, degree)
        assert [e.images for e in G.elements] == [e.images for e in expected]
        assert G.generators == tuple(dict.fromkeys(gens))
        assert np.array_equal(G.mult, mult_table(G.images))

    def test_canonical_order(self, s3):
        images = [e.images for e in s3.elements]
        assert images == sorted(images)
        assert s3.elements[0] == Perm.identity(3)

    def test_mult_and_inverse_exhaustive(self, s3):
        n = s3.order
        for a in range(n):
            for b in range(n):
                prod = s3.elements[a] * s3.elements[b]
                assert s3.elements[s3.mult[a, b]] == prod
            assert s3.mult[a, s3.inv[a]] == 0
            assert s3.mult[s3.inv[a], a] == 0

    def test_mult_associativity_sampled(self, s4):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b, c = rng.integers(0, s4.order, size=3)
            assert s4.mult[s4.mult[a, b], c] == s4.mult[a, s4.mult[b, c]]


class TestGroupElementList:
    """`Group` refuses an element list that is not the sorted group its
    generators generate, with ValueError."""

    def test_swapped_elements(self, s3):
        elems = list(s3.elements)
        elems[1], elems[2] = elems[2], elems[1]
        with pytest.raises(ValueError, match="strictly increasing"):
            Group(elems, s3.generators)

    def test_repeated_element(self, s3):
        elems = list(s3.elements)
        with pytest.raises(ValueError, match="strictly increasing"):
            Group(elems[:2] + elems[1:], s3.generators)

    def test_not_closed(self, s3):
        with pytest.raises(ValueError, match="not closed"):
            Group(s3.elements[:-1], s3.generators[:1])

    def test_product_sharing_a_prefix_with_an_element(self):
        # x * x = (2 4 3) is not in the list, but it fixes 0 like the
        # identity, and point 0 alone orders the two rows
        x = Perm([1, 0, 3, 4, 2])
        with pytest.raises(ValueError, match="not the group its generators generate"):
            Group([Perm.identity(5), x], [x])

    def test_generators_short_of_the_list(self, s3):
        with pytest.raises(ValueError, match="not the group its generators generate"):
            Group(s3.elements, s3.generators[:1])


def brute_classes(G):
    """Conjugation orbit closure, element by element."""
    unseen = set(range(G.order))
    classes = []
    while unseen:
        x = min(unseen)
        cls = {int(G.mult[G.mult[y, x], G.inv[y]]) for y in range(G.order)}
        classes.append(sorted(cls))
        unseen -= cls
    return classes


class TestElementIndex:
    """`Group.element_index` is a binary search of the lex-sorted image
    rows, with no table keyed by element: every element of a relabelled
    group is found at its own index, as a Perm and as an image row, and
    every other permutation of its points raises ElementNotInGroup."""

    def test_every_permutation_of_a_relabelled_group(self, s4_moved):
        found = {}
        for images in itertools.permutations(range(s4_moved.degree)):
            try:
                found[images] = s4_moved.element_index(Perm(images))
            except ElementNotInGroup:
                continue
        assert found == {g.images: i for i, g in enumerate(s4_moved.elements)}
        for i, row in enumerate(s4_moved.images):
            assert s4_moved.element_index(row) == i

    @pytest.mark.parametrize("images", [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5, 6), (5, 4, 3, 2, 1, 0, 6)])
    def test_other_degrees(self, s4_moved, images):
        with pytest.raises(ElementNotInGroup):
            s4_moved.element_index(Perm(images))

    def test_subgroups_embed_at_their_members(self, s4_moved):
        from equifuse.chartab import _embed_indices

        for H in subgroup_lattice(s4_moved):
            assert _embed_indices(H.group(), s4_moved).tolist() == H.members.tolist()
        with pytest.raises(NotASubgroup):
            _embed_indices(group_preset("sym:4"), s4_moved)

    def test_lookup_keeps_no_table(self):
        # a dict of every row of dihedral:1000 took 7.8 MiB; a Group given
        # its table looks nothing up while it is built
        D = group_preset("dihedral:1000")
        G = Group(None, D.generators, mult=D.mult, images=D.images)
        tracemalloc.start()
        try:
            found = [G.element_index(g) for g in G.generators]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [G.perm(i) for i in found] == list(G.generators)
        assert peak < 2**16


class TestConjugacyClasses:
    def test_trivial(self, trivial):
        assert conjugacy_classes(trivial) == [(0, np.array([0]))] or len(
            conjugacy_classes(trivial)
        ) == 1

    def test_s3_against_brute_force(self, s3):
        got = [sorted(int(i) for i in c) for _, c in conjugacy_classes(s3)]
        assert got == brute_classes(s3)
        assert sorted(len(c) for c in got) == [1, 2, 3]
        assert got[0] == [0]  # identity class first
        assert [len(c) for c in got] == [1, 3, 2]

    def test_z4_abelian(self, z4):
        assert [len(c) for _, c in conjugacy_classes(z4)] == [1, 1, 1, 1]

    @pytest.mark.parametrize("name", ["moved", "dihedral:12"])
    def test_class_data_against_perm_scan(self, name, s4_moved):
        """Every field of the class data against conjugation of `Perm`s,
        which does not read the multiplication table."""
        G = s4_moved if name == "moved" else group_preset(name)
        rep_of = [
            min(G.element_index(y * g * y.inverse()) for y in G.elements)
            for g in G.elements
        ]
        reps = sorted(set(rep_of))
        assert G.class_reps.tolist() == reps
        assert G.class_of.tolist() == [reps.index(r) for r in rep_of]
        assert [c.tolist() for c in G.classes] == [
            [i for i in range(G.order) if rep_of[i] == r] for r in reps
        ]
        assert G.class_sizes.tolist() == [rep_of.count(r) for r in reps]
        assert G.inverse_class.tolist() == [
            reps.index(rep_of[G.element_index(G.elements[r].inverse())]) for r in reps
        ]

    def test_reps_lex_minimal_partition(self, s4):
        seen = set()
        for rep, members in conjugacy_classes(s4):
            assert rep == int(members.min())
            seen.update(int(m) for m in members)
        assert seen == set(range(s4.order))


class TestCentralizer:
    def test_identity(self, s3):
        assert centralizer(s3, 0).order == s3.order

    @pytest.mark.parametrize("cycles,order", [([(0, 1, 2)], 3), ([(0, 1)], 2)])
    def test_s3_against_commutation_scan(self, s3, cycles, order):
        g = s3.element_index(cyc(cycles, 3))
        sub = centralizer(s3, g)
        brute = {
            x
            for x in range(s3.order)
            if s3.mult[x, g] == s3.mult[g, x]
        }
        assert set(int(m) for m in sub.members) == brute
        assert sub.order == order
        assert sub.mask[g] and sub.mask[0]

    def test_not_in_group(self, s3):
        with pytest.raises(ElementNotInGroup):
            centralizer(s3, 99)


class TestCosets:
    def test_full_subgroup(self, s3):
        assert list(left_coset_reps(s3, s3.full_subgroup())) == [0]

    def test_s3_mod_z2(self, s3):
        h = s3.subgroup(indices=[s3.element_index(cyc([(0, 1)], 3))])
        reps = left_coset_reps(s3, h)
        assert len(reps) == 3
        # partition oracle: each element in exactly one rep * H
        cover = {}
        for r in reps:
            for m in s3.mult[int(r), h.members]:
                assert int(m) not in cover
                cover[int(m)] = int(r)
        assert len(cover) == s3.order
        # reps are lex-minimal in their coset, identity represents H
        for r in reps:
            assert int(r) == min(int(s3.mult[int(r), m]) for m in h.members)
        assert reps[0] == 0

    def test_trivial_subgroup(self, s3):
        assert len(left_coset_reps(s3, s3.trivial_subgroup())) == 6

    def test_wrong_parent(self, s3, z4):
        with pytest.raises(NotASubgroup):
            left_coset_reps(s3, z4.full_subgroup())


def double_coset_members(G, K, x, H):
    return {
        int(v)
        for v in G.mult[np.ix_(G.mult[K.members, x], H.members)].ravel()
    }


class TestDoubleCosets:
    def test_k_equals_g(self, s3):
        assert list(double_coset_reps(s3, s3.full_subgroup(), s3.trivial_subgroup())) == [0]

    def test_s3_z2_z2(self, s3):
        h = s3.subgroup(indices=[s3.element_index(cyc([(0, 1)], 3))])
        reps = double_coset_reps(s3, h, h)
        sizes = sorted(len(double_coset_members(s3, h, int(r), h)) for r in reps)
        assert sizes == [2, 4]

    def test_trivial_trivial(self, s3):
        t = s3.trivial_subgroup()
        assert len(double_coset_reps(s3, t, t)) == 6

    @pytest.mark.parametrize("kgen,hgen", [([(0, 1)], [(0, 1, 2)]), ([(0, 1)], [(1, 2)])])
    def test_partition_and_size_formula(self, s3, kgen, hgen):
        K = s3.subgroup(indices=[s3.element_index(cyc(kgen, 3))])
        H = s3.subgroup(indices=[s3.element_index(cyc(hgen, 3))])
        reps = double_coset_reps(s3, K, H)
        total = 0
        for r in reps:
            members = double_coset_members(s3, K, int(r), H)
            assert int(r) == min(members)
            total += len(members)
            # |KxH| = |K||H| / |K n xH|
            xh = H.conjugate(int(r))
            meet = K.intersect(xh)
            assert len(members) == K.order * H.order // meet.order
            # refinement: KxH is a union of left H-cosets and right K-cosets
            for m in members:
                assert {int(v) for v in s3.mult[m, H.members]} <= members
                assert {int(v) for v in s3.mult[K.members, m]} <= members
        assert total == s3.order


def reference_double_coset_reps(G, K, H):
    """The scan `double_coset_reps` replaced: walk G in index order, keep
    each x not yet assigned and assign its double coset KxH."""
    assigned = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if not assigned[g]:
            reps.append(g)
            block = G.mult[np.ix_(G.mult[K.members, g], H.members)]
            assigned[block.ravel()] = True
    return np.array(reps, dtype=np.int32)


def reference_left_coset_reps(G, H):
    """The scan `left_coset_reps` replaced: walk G in index order, keep
    each g not yet assigned and assign its coset gH."""
    assigned = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if not assigned[g]:
            reps.append(g)
            assigned[G.mult[g, H.members]] = True
    return np.array(reps, dtype=np.int32)


class TestDoubleCosetsAgainstScan:
    """The two min-gathers against the scan, on every pair of lattice
    subgroups; the moved S4 numbers its elements in another order."""

    @pytest.mark.parametrize("name", ["sym:4", "alt:5", "moved"])
    def test_every_lattice_pair(self, name, s4_moved):
        G = s4_moved if name == "moved" else group_preset(name)
        lattice = subgroup_lattice(G)
        for K in lattice:
            for H in lattice:
                reps = double_coset_reps(G, K, H)
                assert reps.dtype == np.int32
                assert np.array_equal(reps, reference_double_coset_reps(G, K, H))

    @pytest.mark.parametrize("name", ["sym:4", "alt:5", "moved"])
    def test_left_cosets_every_lattice_subgroup(self, name, s4_moved):
        G = s4_moved if name == "moved" else group_preset(name)
        for H in subgroup_lattice(G):
            reps = left_coset_reps(G, H)
            assert reps.dtype == np.int32
            assert np.array_equal(reps, reference_left_coset_reps(G, H))

    def test_moved_s4_has_another_element_order(self, s4, s4_moved):
        # same order, but index i -> i is no isomorphism onto sym:4
        assert s4_moved.order == s4.order
        assert not np.array_equal(s4_moved.mult, s4.mult)

    def test_filter_by_l_is_the_double_cosets_in_l(self, s4):
        """H, K <= L: the representatives of H\\G/K that lie in L are those
        of H\\L/K, moved from L's numbering into G's."""
        lattice = subgroup_lattice(s4)
        for L in lattice:
            inside = [S for S in lattice if L.contains(S)]
            for H in inside:
                for K in inside:
                    reps = double_coset_reps(s4, H, K)
                    local = reference_double_coset_reps(
                        L.group(), H.viewed_in(L), K.viewed_in(L))
                    assert np.array_equal(reps[L.mask[reps]], L.members[local])


class TestActions:
    def test_conjugation_reproduces_classes(self, s3):
        act = GroupAction.conjugation(s3)
        orbs = orbits(act)
        class_list = [sorted(int(i) for i in c) for _, c in conjugacy_classes(s3)]
        assert [sorted(int(i) for i in o) for _, o, _ in orbs] == class_list
        for rep, orb, stab in orbs:
            cent = centralizer(s3, rep)
            assert set(map(int, stab.members)) == set(map(int, cent.members))
            assert len(orb) * stab.order == s3.order

    def test_trivial_actor(self, trivial, s3):
        act = GroupAction(trivial, s3, np.arange(s3.order, dtype=np.int32)[None, :])
        orbs = orbits(act)
        assert len(orbs) == s3.order
        assert all(stab.order == 1 for _, _, stab in orbs)

    def test_z2_inside_s3(self, s3):
        act = GroupAction.conjugation(s3)
        h = s3.subgroup(indices=[s3.element_index(cyc([(0, 1)], 3))])
        sizes = sorted(len(o) for _, o, _ in orbits(act, within=h))
        assert sizes == [1, 1, 2, 2]

    def test_composition_property_sampled(self, s4):
        act = GroupAction.conjugation(s4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.integers(0, s4.order, size=2)
            p = int(rng.integers(0, s4.order))
            assert act.apply(int(x), act.apply(int(y), p)) == act.apply(
                int(s4.mult[x, y]), p
            )

    def test_non_automorphism_rejected(self, z4):
        # the transposition of two points of Z4's element list is a bijection
        # but not an automorphism
        z2 = build_group([cyc([(0, 1)], 2)])
        bad = np.array([[0, 1, 2, 3], [0, 2, 1, 3]], dtype=np.int32)
        with pytest.raises(ValueError):
            GroupAction(z2, z4, bad)

    def test_inversion_action_on_z3(self):
        z2 = build_group([cyc([(0, 1)], 2)])
        z3 = build_group([cyc([(0, 1, 2)], 3)])
        inv_row = [int(z3.inv[i]) for i in range(3)]
        act = GroupAction.from_generator_rows(z2, z3, [inv_row])
        assert act.apply(1, 1) == int(z3.inv[1])


class TestTransporter:
    def test_same_point_gives_identity(self, s3):
        act = GroupAction.conjugation(s3)
        assert transporter(act, 3, 3) == 0

    def test_three_cycles_connected(self, s3):
        act = GroupAction.conjugation(s3)
        i = s3.element_index(Perm((1, 2, 0)))
        j = s3.element_index(Perm((2, 0, 1)))
        x = transporter(act, i, j)
        assert act.apply(x, i) == j

    def test_different_orbits(self, s3):
        act = GroupAction.conjugation(s3)
        with pytest.raises(NotInSameOrbit):
            transporter(act, 0, 1)

    def test_transporter_composition_in_stabilizer_coset(self, s4):
        act = GroupAction.conjugation(s4)
        # p, q, r in one orbit: three transpositions
        p = s4.element_index(cyc([(0, 1)], 4))
        q = s4.element_index(cyc([(1, 2)], 4))
        r = s4.element_index(cyc([(2, 3)], 4))
        t_pq = transporter(act, p, q)
        t_qr = transporter(act, q, r)
        t_pr = transporter(act, p, r)
        composite = int(s4.mult[t_qr, t_pq])
        # composite and t_pr differ by a stabilizer element of p
        diff = int(s4.mult[s4.inv[t_pr], composite])
        assert act.apply(diff, p) == p


def brute_subgroups(G, max_gens=3):
    """Close every generating subset of size <= max_gens."""
    found = set()
    idx = range(G.order)
    for k in range(max_gens + 1):
        for combo in itertools.combinations(idx, k):
            sub = G.subgroup(indices=list(combo))
            found.add(sub.key)
    return found


class TestSubgroupLattice:
    def test_prime_cyclic(self):
        z5 = build_group([cyc([(0, 1, 2, 3, 4)], 5)])
        assert len(subgroup_lattice(z5)) == 2

    def test_s3_against_brute_force(self, s3):
        lat = subgroup_lattice(s3)
        assert len(lat) == 6
        assert [s.order for s in lat] == [1, 2, 2, 2, 3, 6]
        assert {s.key for s in lat} == brute_subgroups(s3)

    def test_klein4(self, klein4):
        lat = subgroup_lattice(klein4)
        assert len(lat) == 5
        assert {s.key for s in lat} == brute_subgroups(klein4)

    def test_d4_and_a4_against_brute_force(self, d4, a4):
        assert {s.key for s in subgroup_lattice(d4)} == brute_subgroups(d4)
        assert len(subgroup_lattice(d4)) == 10
        assert {s.key for s in subgroup_lattice(a4)} == brute_subgroups(a4)
        assert len(subgroup_lattice(a4)) == 10

    def test_closure_properties(self, s4):
        lat = subgroup_lattice(s4)
        keys = {s.key for s in lat}
        assert lat[0].order == 1 and lat[-1].order == s4.order
        for a in lat:
            for b in lat:
                assert a.intersect(b).key in keys
            for x in range(s4.order):
                assert a.conjugate(x).key in keys

    def test_deterministic_order(self, s4):
        lat = subgroup_lattice(s4)
        key = [(s.order, tuple(s.members)) for s in lat]
        assert key == sorted(key)

    def test_cap(self, monkeypatch, s3):
        with pytest.raises(OrderCapExceeded):
            subgroup_lattice(s3, cap=5)
        monkeypatch.setenv("EQUIFUSE_CAP_LATTICE", "2")
        g = build_group([cyc([(0, 1, 2)], 3)])
        with pytest.raises(OrderCapExceeded):
            subgroup_lattice(g)


# sha256 of repr([s.key for s in subgroup_lattice(G)]), recorded from the
# full scan that closed every extension of every subgroup; the class-built
# lattice must give the same subgroups in the same order
LATTICE_KEY_DIGESTS = {
    "alt:5": "79da94d2e7b8d231060f6ee50e26a4978df43e318ab73e8395e0cf38743bbb47",
    "sym:4": "e7b70efe0be979e13e14c365ee3fb1fdef864e5459c3775305f250685ac31915",
    "dihedral:12": "e5a2bbf11b0b01d6b20cd344588d5a8bcb99818046acea9e705462a6645e06de",
    "quaternion8": "d3a8fe32a270f1e1b45778422789204234f02cf2d2746c225536d1bf39944715",
    "sym:5": "6017a3587ef65304e5340bae756ae156e31965b792e00b2197e38359d613cf7f",
}

# sha256 of repr([(s.key, s.generators) for s in subgroup_lattice(G)]),
# recorded from the class-built lattice: each conjugate carries the
# generators of its class representative, conjugated
LATTICE_DIGESTS = {
    "alt:5": "af6430f4425db9fd8fdf4cfacde750a23b5e51274da3aa00e4c850a07464394d",
    "sym:4": "fbba8cc349cc33aa50337d3106ebba47b76c7a069a85a12a438c125bdf46cda4",
    "dihedral:12": "fe5e49240b3cf1ac82e9391ba6734348a0ee1504a67e64aff1c9c85cb8ebfcbc",
    "quaternion8": "a7b0bde9691a53eb25a869204bc2f8f7855d4b9454fc05cd981d4618e4539413",
    "sym:5": "eec160b76cf488cba59eabe22ccf55781e1716e8c7e8986ce13688819370ba82",
}


def reference_subgroup_lattice(G):
    """The full scan the class-built lattice replaced: every cyclic
    subgroup, then every extension of every subgroup found, sorted by
    (order, member tuple)."""
    found = {}

    def record(mask, gens):
        sub = Subgroup(G, mask, gens, _verified=True)
        if sub.key in found:
            return None
        found[sub.key] = sub
        return sub

    worklist = [record(_close(G, None, []), ())]
    for i in range(1, G.order):
        sub = record(_close(G, None, [i]), (i,))
        if sub is not None:
            worklist.append(sub)
    while worklist:
        S = worklist.pop()
        for g in left_coset_reps(G, S)[1:].tolist():
            sub = record(_close(G, S.mask, [g]), S.generators + (g,))
            if sub is not None:
                worklist.append(sub)
    return sorted(found.values(), key=lambda s: (s.order, tuple(s.members)))


class TestLatticeByClasses:
    @pytest.mark.parametrize("name", [
        "alt:5", "sym:4", "sym:5", "dihedral:12", "dihedral:30", "quaternion8", "cyclic:30",
    ])
    def test_matches_the_full_scan(self, name):
        G = group_preset(name)
        got = [s.key for s in subgroup_lattice(G)]
        assert got == [s.key for s in reference_subgroup_lattice(G)]

    @pytest.mark.parametrize("name", sorted(LATTICE_KEY_DIGESTS))
    def test_keys_pinned(self, name):
        text = repr([s.key for s in subgroup_lattice(group_preset(name))])
        assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_KEY_DIGESTS[name]

    @pytest.mark.parametrize("name", ["sym:4", "alt:5"])
    def test_conjugation_index(self, name):
        G = group_preset(name)
        lattice = subgroup_lattice(G)
        conj = conjugation_index(G)
        assert conj.dtype == np.int32 and conj.shape == (len(lattice), G.order)
        for i, S in enumerate(lattice):
            for x in range(G.order):
                assert lattice[conj[i, x]] == S.conjugate(x)


class TestConjugates:
    """`conjugates(S)` against `S.conjugate(x)` for every x and every S of
    a lattice: the same keys, each conjugate met first at its least x."""

    @pytest.mark.parametrize("name", ["sym:4", "alt:5", "moved"])
    def test_matches_conjugate(self, name, s4_moved):
        G = s4_moved if name == "moved" else group_preset(name)
        for S in subgroup_lattice(G):
            subs, which = conjugates(S)
            assert subs[0] is S
            assert len({T.key for T in subs}) == len(subs)
            assert list(dict.fromkeys(which.tolist())) == list(range(len(subs)))
            for x in range(G.order):
                assert subs[which[x]].key == S.conjugate(x).key
            for T in subs:
                assert (_close(G, None, T.generators) == T.mask).all()

    def test_no_group_square_array(self):
        # sym:6 is past the lattice cap; <(4 5)> has 15 conjugates.  Each
        # conjugate owns its mask, and the |G| x |G| bool mask array (0.49
        # MiB, traced peak 0.58 MiB with the gather) is never made
        G = group_preset("sym:6")
        S = G.subgroup(indices=[1])
        G.conjugation_table
        tracemalloc.start()
        try:
            subs, which = conjugates(S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(subs) == 15 and sorted(set(which.tolist())) == list(range(15))
        assert all(T.mask.base is None for T in subs)
        assert peak < 2**18


def brute_closure(G, seeds):
    """Sorted members of <seeds>: multiply all pairs until nothing is new."""
    members = {0, *(int(s) for s in seeds)}
    while True:
        new = {int(G.mult[a, b]) for a in members for b in members} - members
        if not new:
            return sorted(members)
        members |= new


class TestClosure:
    @pytest.mark.parametrize("name", sorted(LATTICE_DIGESTS))
    def test_lattice_keys_and_generators_pinned(self, name):
        lat = subgroup_lattice(group_preset(name))
        text = repr([(s.key, s.generators) for s in lat])
        assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_DIGESTS[name]

    @pytest.mark.parametrize("name", ["sym:4", "alt:5", "dihedral:12", "quaternion8"])
    def test_subgroup_matches_product_closure(self, name):
        G = group_preset(name)
        rng = np.random.default_rng(23)
        for _ in range(30):
            seeds = rng.integers(0, G.order, size=int(rng.integers(0, 4))).tolist()
            sub = G.subgroup(indices=seeds)
            assert sub.members.tolist() == brute_closure(G, seeds)
            assert sub.generators == tuple(seeds)

    def test_greedy_generators(self, s4):
        for sub in subgroup_lattice(s4):
            greedy = Subgroup(s4, sub.mask).generators
            span = [0]
            expected = []
            for i in sub.members.tolist():
                if i not in span:
                    expected.append(i)
                    span = brute_closure(s4, span + [i])
            assert greedy == tuple(expected)


class TestSubgroup:
    def test_not_closed_rejected(self, s3):
        mask = np.zeros(s3.order, dtype=bool)
        mask[0] = True
        mask[3] = True  # a 3-cycle without its square
        with pytest.raises(NotASubgroup):
            Subgroup(s3, mask)

    def test_lagrange(self, s4):
        for sub in subgroup_lattice(s4):
            assert s4.order % sub.order == 0

    def test_generators_generate(self, s4):
        for sub in subgroup_lattice(s4):
            regen = s4.subgroup(indices=list(sub.generators))
            assert regen.key == sub.key

    def test_shared_canonical_group(self, s4):
        lat = subgroup_lattice(s4)
        big = next(s for s in lat if 1 < s.order < s4.order)
        inner = big.viewed_in(lat[-1])
        assert inner.group() is big.group()
