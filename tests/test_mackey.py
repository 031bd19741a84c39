"""Mackey/Green families and the axiom verifier.

The S4/D4 exhaustive runs live in the acceptance suite; here the focus is on
the S3-sized pinned values, the verifier's failure reporting, and the
structural properties the verifier itself relies on.
"""

import collections
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from equifuse import _kernels, _rows
from equifuse import chartab as ct
from equifuse import fusion as fu
from equifuse import mackey as mk
from equifuse.errors import (
    ElementNotInGroup,
    ExactnessBoundExceeded,
    InvariantViolation,
    NoRingStructure,
    NotASubgroup,
)
from equifuse.permgrp import GroupAction, conjugation_index, subgroup_lattice
from equifuse.presets import group_preset, load_action
from test_cli import D4_ON_C4, _sha256, run
from test_fusion import _cyclic_group_ring
from test_permgrp import reference_double_coset_reps


@pytest.fixture(scope="module")
def char_s3(s3):
    ctx = ct.make_context([s3])
    return mk.char_ring_family(s3, ctx)


@pytest.fixture(scope="module")
def equiv_ds3(s3):
    ctx = ct.make_context([s3, s3])
    datum = fu.CoherentDatum(s3, s3, GroupAction.conjugation(s3))
    return mk.equivariant_k0_family(datum, ctx)


class TestCharRingFamily:
    def test_basis_sizes_in_lattice_order(self, char_s3):
        assert [char_s3.size(H) for H in char_s3.lattice] == [1, 2, 2, 2, 3, 3]

    def test_trivial_subgroup_basis(self, char_s3):
        assert char_s3.size(char_s3.lattice[0]) == 1

    def test_induction_from_trivial(self, char_s3):
        triv, full = char_s3.lattice[0], char_s3.lattice[-1]
        col = char_s3.induction(triv, full)[:, 0]
        assert col.tolist() == [1, 1, 2]

    def test_unit_is_trivial_character(self, char_s3):
        for H in char_s3.lattice:
            assert char_s3.ring(H)[1] == 0


class TestEquivariantFamily:
    def test_collapses_to_char_family_when_g_trivial(self, s3):
        # Remark-level structural identity: trivial grading group
        from equifuse.presets import classical_scenario

        scen = classical_scenario(s3)
        fam_eq = mk.equivariant_k0_family(scen.datum, scen.ctx)
        fam_ch = mk.char_ring_family(s3, scen.ctx)
        for H in fam_ch.lattice:
            assert fam_eq.size(H) == fam_ch.size(H)

    def test_basis_sizes(self, equiv_ds3):
        sizes = [equiv_ds3.size(H) for H in equiv_ds3.lattice]
        assert sizes[0] == 6      # trivial subgroup: one label per element of G
        assert sizes[-1] == 8     # full S3: 3 + 2 + 3 over the three orbits
        assert sizes == [6, 6, 6, 6, 10, 8]


class TestPinnedRegression:
    def test_res_ind_over_z2(self, s3, char_s3):
        # H = K = <(0 1)>, chi = trivial: Res Ind chi = 2 triv + sgn
        h = s3.subgroup(indices=[2])
        H = char_s3.lattice_member(h)
        full = char_s3.lattice[-1]
        v = np.array([1, 0], dtype=np.int64)
        lhs = char_s3.restriction(full, H) @ char_s3.induction(H, full) @ v
        assert lhs.tolist() == [2, 1]
        rhs = mk.mackey_rhs(char_s3, H, H, v)
        assert rhs.tolist() == [2, 1]

    def test_rhs_termwise(self, s3, char_s3):
        # identity coset contributes chi itself, the other coset the regular
        # character of the conjugated-intersection (trivial) subgroup
        from equifuse.permgrp import double_coset_reps

        h = s3.subgroup(indices=[2])
        H = char_s3.lattice_member(h)
        reps = double_coset_reps(s3, h, h)
        assert len(reps) == 2
        v = np.array([1, 0], dtype=np.int64)
        terms = []
        for r in reps:
            x = int(r)
            c, xk = char_s3.conjugation(H, x)
            xk = char_s3.lattice_member(xk)
            meet = char_s3.lattice_member(xk.intersect(H))
            terms.append(
                (char_s3.induction(meet, H) @ char_s3.restriction(xk, meet) @ c @ v)
            )
        assert terms[0].tolist() == [1, 0]   # 1 term from x = e
        assert terms[1].tolist() == [1, 1]   # 2 terms from the other coset


class TestMackeyRhs:
    def test_single_double_coset(self, char_s3):
        full = char_s3.lattice[-1]
        for i in range(char_s3.size(full)):
            v = np.zeros(char_s3.size(full), dtype=np.int64)
            v[i] = 1
            lhs = char_s3.restriction(full, full) @ char_s3.induction(full, full) @ v
            assert np.array_equal(mk.mackey_rhs(char_s3, full, full, v), lhs)

    def test_trivial_trivial_gives_regular_multiple(self, s3, char_s3):
        # H = K = trivial: |G| singleton double cosets, each an identity map
        triv = char_s3.lattice[0]
        v = np.array([1], dtype=np.int64)
        rhs = mk.mackey_rhs(char_s3, triv, triv, v)
        assert rhs.tolist() == [s3.order]

    def test_equivariant_a3_a3(self, s3, equiv_ds3):
        a3 = equiv_ds3.lattice_member(s3.subgroup(indices=[3]))
        full = equiv_ds3.lattice[-1]
        lhs_mat = equiv_ds3.restriction(full, a3) @ equiv_ds3.induction(a3, full)
        for i in range(equiv_ds3.size(a3)):
            v = np.zeros(equiv_ds3.size(a3), dtype=np.int64)
            v[i] = 1
            assert np.array_equal(mk.mackey_rhs(equiv_ds3, a3, a3, v), lhs_mat @ v)


def reference_double_coset_side(fam, L, H, K):
    """The per-coset loop `_double_coset_side` replaced: representatives of
    H\\L/K found by a scan of L.group(), and the intersection looked up in
    the lattice once per coset."""
    out = np.zeros((fam.size(H), fam.size(K)), dtype=np.int64)
    for r in reference_double_coset_reps(L.group(), H.viewed_in(L), K.viewed_in(L)):
        x = int(L.members[int(r)])
        c_mat, xk = fam.conjugation(K, x)
        xk = fam.lattice_member(xk)
        meet = fam.lattice_member(xk.intersect(H))
        out += fam.induction(meet, H) @ fam.restriction(xk, meet) @ c_mat
    return out


def reference_m4_failures(fam):
    """The all-triples loop the class reduction replaced: M4 at every
    (L, H, K) with H, K <= L, one double-coset cache per (L, H).  The
    failing triples, in loop order."""
    failed = []
    for L in fam.lattice:
        inside = [S for S in fam.lattice if L.contains(S)]
        for H in inside:
            cache = {}
            for K in inside:
                lhs = fam.restriction(L, H) @ fam.induction(K, L)
                if not np.array_equal(lhs, mk._double_coset_side(fam, L, H, K, cache)):
                    failed.append((L, H, K))
    return failed


def class_representatives(fam):
    """The (L, H, K) the reduced M4 check visits, found with Perm
    arithmetic: L the first of its G-conjugacy class in lattice order, and
    H, K each the first of its L-conjugacy class among the subgroups of L."""
    G = fam.ambient
    sets = [frozenset(G.perm(int(i)) for i in S.members) for S in fam.lattice]
    position = {s: i for i, s in enumerate(sets)}

    def first_conjugate(i, by):
        return min(position[frozenset(g * p * g.inverse() for p in sets[i])] for g in by)

    triples = []
    for li, L in enumerate(fam.lattice):
        if first_conjugate(li, G.elements) != li:
            continue
        inside = [
            si for si, S in enumerate(sets)
            if S <= sets[li] and first_conjugate(si, sets[li]) == si
        ]
        triples += [(L, fam.lattice[h], fam.lattice[k]) for h in inside for k in inside]
    return triples


def _keys(triples):
    return {tuple(S.key for S in t) for t in triples}


@pytest.fixture(scope="module")
def d4_on_c4_family(tmp_path_factory):
    path = tmp_path_factory.mktemp("action") / "d4_on_c4.json"
    path.write_text(json.dumps(D4_ON_C4))
    datum = load_action(str(path))
    return mk.equivariant_k0_family(datum, ct.make_context([datum.F, datum.G]))


class TestClassReduction:
    """M4 checked at class representatives against the all-triples
    reference: both pass on intact families, and the verifier visits exactly
    the representatives found with Perm arithmetic."""

    @pytest.mark.parametrize("name", ["sym:3", "sym:4", "dihedral:4", "ds3", "d4_on_c4"])
    def test_intact_family_passes_both(self, request, monkeypatch, name, equiv_ds3):
        from equifuse.presets import group_preset

        if name == "ds3":
            fam = equiv_ds3
        elif name == "d4_on_c4":
            fam = request.getfixturevalue("d4_on_c4_family")
        else:
            G = group_preset(name)
            fam = mk.char_ring_family(G, ct.make_context([G]))
        assert reference_m4_failures(fam) == []
        visited = []
        side = mk._double_coset_side

        def recording(fam, L, H, K, cache=None):
            visited.append((L, H, K))
            return side(fam, L, H, K, cache)

        monkeypatch.setattr(mk, "_double_coset_side", recording)
        report = mk.verify_mackey_axioms(fam)
        assert report.ok, report.summary()
        triples = class_representatives(fam)
        assert report.counts["M4"][0] + report.counts["M4rel"][0] == len(visited)
        assert len(visited) == len(triples) and _keys(visited) == _keys(triples)


class TestDoubleCosetSide:
    """`_double_coset_side` against the per-coset loop on every nested
    (L, H, K), with one cache shared by every K of an (L, H), as the
    verifier shares it."""

    @pytest.mark.parametrize("name", ["char_s4", "equiv_ds3"])
    def test_every_nested_triple(self, request, name):
        fam = request.getfixturevalue(name)
        for L in fam.lattice:
            inside = [S for S in fam.lattice if L.contains(S)]
            for H in inside:
                cache = {}
                for K in inside:
                    got = mk._double_coset_side(fam, L, H, K, cache)
                    assert np.array_equal(got, reference_double_coset_side(fam, L, H, K))


class TestVerifiers:
    def test_char_s3_mackey(self, char_s3):
        report = mk.verify_mackey_axioms(char_s3)
        assert report.ok
        assert set(report.counts) == {"M0", "M1", "M2", "M3", "M4", "M4rel", "Mc"}

    def test_char_s3_green(self, char_s3):
        report = mk.verify_green_axioms(char_s3)
        assert report.ok
        assert set(report.counts) == {"G1", "G2", "G3", "ring"}

    def test_equiv_ds3_mackey_and_green(self, equiv_ds3):
        assert mk.verify_mackey_axioms(equiv_ds3).ok
        assert mk.verify_green_axioms(equiv_ds3).ok

    def test_m4_relativized_counted_separately(self, char_s3):
        report = mk.verify_mackey_axioms(char_s3)
        triples = class_representatives(char_s3)
        top = sum(L.key == char_s3.lattice[-1].key for L, _, _ in triples)
        assert report.counts["M4"] == (top, 0)
        assert report.counts["M4rel"] == (len(triples) - top, 0)
        # S3: 4 classes of subgroups; inside C1, C2, C3: 1, 2, 2
        assert (top, len(triples) - top) == (4**2, 1 + 2**2 + 2**2)

    def test_each_row_names_its_mode(self, char_s3):
        rows = mk.verify_mackey_axioms(char_s3).axiom_rows()
        assert {row["id"]: row["mode"] for row in rows} == {
            "M0": "exhaustive", "M1": "exhaustive", "M2": "exhaustive",
            "M3": "exhaustive", "Mc": "exhaustive",
            "M4": "classes", "M4rel": "classes",
        }
        rows = mk.verify_green_axioms(char_s3).axiom_rows()
        assert {row["id"]: row["mode"] for row in rows} == dict.fromkeys(
            ("ring", "G1", "G2", "G3"), "generators")

    def test_failure_reporting_carries_witness(self, s3):
        ctx = ct.make_context([s3])
        fam = mk.char_ring_family(s3, ctx)
        bad_r = fam._r_fn

        def tampered(H, K):
            m = bad_r(H, K).copy()
            if H.order == 6 and K.order == 2:
                m[0, 0] += 1
            return m

        broken = mk.MackeyFamily(
            fam.ambient, fam.lattice, "tampered", fam._size_fn,
            tampered, fam._i_fn, fam._c_fn,
        )
        report = mk.verify_mackey_axioms(broken)
        assert not report.ok
        assert report.witnesses
        w = report.witnesses[0]
        assert w.lhs is not None and w.rhs is not None

    def test_no_ring_structure(self, s3):
        ctx = ct.make_context([s3])
        fam = mk.char_ring_family(s3, ctx)
        stripped = mk.MackeyFamily(
            fam.ambient, fam.lattice, "no-ring", fam._size_fn,
            fam._r_fn, fam._i_fn, fam._c_fn,
        )
        with pytest.raises(NoRingStructure):
            mk.verify_green_axioms(stripped)


class TestConjugationArguments:
    """`MackeyFamily.conjugation(H, x)` refuses an x outside 0..|G|-1 (-1
    would read c_{H,|G|-1} off the stack) and an H outside the lattice."""

    @pytest.mark.parametrize("x", [-1, 6, 7])
    def test_element_out_of_range(self, char_s3, x):
        with pytest.raises(ElementNotInGroup):
            char_s3.conjugation(char_s3.lattice[1], x)

    def test_subgroup_outside_the_lattice(self, char_s3, s4):
        with pytest.raises(NotASubgroup):
            char_s3.conjugation(s4.full_subgroup(), 0)


def _dense_bumped(fam):
    """fam's c callback in the dense form, c_{H,x} as an (n, n) matrix for
    every x, with 1 added to entry (0, 0) of c_{H,0}."""

    def c_fn(H):
        perm, target = fam._c_fn(H)
        stack = np.eye(perm.shape[1], dtype=np.int64)[:, perm].transpose(1, 0, 2)
        stack[0, 0, 0] += 1
        return stack, target

    return c_fn


def _repeated_image(fam):
    """fam's c callback with c_{H,1}(e_1) = c_{H,1}(e_0)."""

    def c_fn(H):
        perm, target = fam._c_fn(H)
        perm = perm.copy()
        perm[1, 1:2] = perm[1, 0]
        return perm, target

    return c_fn


def _one_column_more(fam):
    """fam's c callback with one more column than a(H) has basis elements."""

    def c_fn(H):
        perm, target = fam._c_fn(H)
        return np.hstack([perm, np.full((len(perm), 1), perm.shape[1])]), target

    return c_fn


def _target_of_another_rank(fam):
    """fam's c callback with c_{H,1} naming the trivial subgroup, of rank 1."""

    def c_fn(H):
        perm, target = fam._c_fn(H)
        target = target.copy()
        target[1] = 0
        return perm, target

    return c_fn


ROW_TAMPERS = [_dense_bumped, _repeated_image, _one_column_more, _target_of_another_rank]


class TestConjugationRowCheck:
    """`MackeyFamily.conjugations` takes a c callback's rows only if every
    one is a permutation of the basis of a(H) onto a target of the same
    rank: a dense matrix with an entry bumped, a row with a repeated image,
    a row one too long and a target of rank 1 each raise InvariantViolation
    naming H, and the command line exits 1 with a one-line JSON error."""

    @pytest.mark.parametrize("broken", ROW_TAMPERS)
    def test_refused(self, s3, char_s3, broken):
        fam = mk.MackeyFamily(s3, char_s3.lattice, "tampered", char_s3._size_fn,
                              char_s3._r_fn, char_s3._i_fn, broken(char_s3))
        H = fam.lattice[-1]
        with pytest.raises(InvariantViolation, match=r"H\[o6:\[0, 1, 2, 3\]\]"):
            fam.conjugations(H)

    @pytest.mark.parametrize("broken", ROW_TAMPERS)
    def test_cli_exits_1(self, capsys, monkeypatch, char_s3, broken):
        from equifuse import cli as cli_mod

        monkeypatch.setattr(cli_mod.mackey, "char_ring_family", lambda G, ctx: mk.MackeyFamily(
            G, char_s3.lattice, "tampered", char_s3._size_fn,
            char_s3._r_fn, char_s3._i_fn, broken(char_s3)))
        code, out, err = run(capsys, "verify", "mackey", "--family", "char:sym:3")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "InvariantViolation"


class TestFamilyCaches:
    """The family caches every R, I and c matrix, so one Mackey verifier
    run calls each callback exactly once per distinct argument pair, and
    it asks for R and I on every nested pair and for c at every (H, x)."""

    @staticmethod
    def _counted(fam):
        calls = {name: collections.Counter() for name in "ric"}

        def counting(name, fn):
            def wrapped(*args):
                calls[name][tuple(a.key for a in args)] += 1
                return fn(*args)

            return wrapped

        fam._r_fn = counting("r", fam._r_fn)
        fam._i_fn = counting("i", fam._i_fn)
        fam._c_fn = counting("c", fam._c_fn)
        return calls

    @pytest.mark.parametrize("which", ["char:sym:4", "equiv:sym:3"])
    def test_each_map_is_built_once(self, which, s3, s4, ctx_s4):
        if which == "char:sym:4":
            fam = mk.char_ring_family(s4, ctx_s4)
        else:
            datum = fu.CoherentDatum(s3, s3, GroupAction.conjugation(s3))
            fam = mk.equivariant_k0_family(datum, ct.make_context([s3, s3]))
        calls = self._counted(fam)
        assert mk.verify_mackey_axioms(fam).ok
        nested = sum(H.contains(K) for H in fam.lattice for K in fam.lattice)
        assert len(calls["r"]) == len(calls["i"]) == nested
        assert len(calls["c"]) == len(fam.lattice)
        for name in "ric":
            assert set(calls[name].values()) == {1}, name

    @pytest.mark.parametrize("which", ["char:sym:4", "equiv:sym:3"])
    def test_conjugation_reads_the_stack(self, which, s3, s4, ctx_s4):
        # c_{H,x} is kept once, as row x of H's permutation rows: every
        # single lookup is the permutation matrix of that row, sending e_j
        # to e_{perm[x, j]}, and the callback's target
        if which == "char:sym:4":
            fam = mk.char_ring_family(s4, ctx_s4)
        else:
            datum = fu.CoherentDatum(s3, s3, GroupAction.conjugation(s3))
            fam = mk.equivariant_k0_family(datum, ct.make_context([s3, s3]))
        for H in fam.lattice:
            perm, target = fam.conjugations(H)
            n = fam.size(H)
            assert perm.shape == (fam.ambient.order, n) and len(target) == fam.ambient.order
            raw, named = fam._c_fn(H)
            assert np.array_equal(perm, raw) and np.array_equal(target, named)
            for x in range(fam.ambient.order):
                mat, tgt = fam.conjugation(H, x)
                assert mat.dtype == np.int64 and tgt is fam.lattice[target[x]]
                assert np.array_equal(mat[perm[x], np.arange(n)], np.ones(n))
                assert mat.sum() == n

    @staticmethod
    def _verifier_peak(name):
        """Traced peak of one Mackey verifier run over char:<name> in a
        fresh interpreter."""
        code = (
            "import tracemalloc\n"
            "from equifuse import chartab, mackey\n"
            "from equifuse.presets import group_preset\n"
            f"G = group_preset({name!r})\n"
            "fam = mackey.char_ring_family(G, chartab.make_context([G]))\n"
            "tracemalloc.start()\n"
            "assert mackey.verify_mackey_axioms(fam).ok\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return int(done.stdout)

    def test_verifier_heap_on_a5(self):
        # 4.96 MiB when the family kept a matrix per (H, x) and the verifier
        # stacked them again, 0.76 MiB with a gather per (H, x) in M3 and a
        # reciprocity block per pair
        assert self._verifier_peak("alt:5") < 1.0 * 2**20

    def test_verifier_heap_on_s5(self):
        # 3.27 MiB with a gather per (H, x) in M3 and a reciprocity block
        # per pair
        assert self._verifier_peak("sym:5") < 3.5 * 2**20

    def test_verifier_heap_on_d30(self):
        # 3.79 MiB when every c was an (n, n) int64 matrix and M3 and Mc
        # were stacked matrix products
        assert self._verifier_peak("dihedral:30") < 2.5 * 2**20


def _bump(m):
    m = m.copy()
    m[0, 0] += 1
    return m


def _swap(row):
    """A row of conjugation images with those of e_0 and e_1 swapped: the
    matrix of c with its columns 0 and 1 swapped.  A rank-1 row is left
    alone."""
    row = row.copy()
    if len(row) > 1:
        row[[0, 1]] = row[[1, 0]]
    return row


def _bump_rows(rows):
    """Ring rows with `_bump` made to their dense table: N_00^k + 1 for
    every k."""
    return _rows.rows_of(_bump(_rows.dense(rows, int(rows[:, 0].max()) + 1)))


def _bump_at(i, j):
    """A matrix with entry (i, j) + 1."""

    def change(m):
        m = m.copy()
        m[i, j] += 1
        return m

    return change


def _bump_rows_at(i, j, k):
    """Ring rows with N_ij^k + 1."""

    def change(rows):
        t = _rows.dense(rows, int(rows[:, 0].max()) + 1)
        t[i, j, k] += 1
        return _rows.rows_of(t)

    return change


def _tamper(fn, when, change):
    """fn with `change` applied to the matrix of every call that matches
    `when`; for the conjugation callback of a subgroup H, to every row
    perm[x] with when(H, x), leaving the targets alone; for the ring
    callback, to the rows, leaving the unit alone."""

    def wrapped(*args):
        out = fn(*args)
        if isinstance(out, tuple) and np.ndim(out[1]) == 0:
            return (change(out[0]) if when(*args) else out[0]), out[1]
        if isinstance(out, tuple):
            perm = out[0].copy()
            for x in range(len(perm)):
                if when(*args, x):
                    perm[x] = change(perm[x])
            return perm, out[1]
        return change(out) if when(*args) else out

    return wrapped


# map tampered, which calls, change, failed count per axiom, mode of each
# G axiom, first witness context, and two sha256 of the whole report JSON as
# `verify green` prints it: with its rows' modes, and with the "mode" keys
# taken out, which is the digest recorded before the rows had modes.  The
# "c" row was recorded with the images of e_0 and e_1 swapped by a column
# swap of the dense matrix of c_{H,5}; its report is the one a +1 on the
# (0, 0) entry gave.  The "product" row was recorded with `_bump` made to
# the dense product tensor, the change `_bump_rows` makes to the rows.  The
# last three sit off the generator sets S of the lemma of
# `verify_green_axioms` (checked by `test_tampers_sit_off_the_generators`):
# R^{S4}_K at column 4 (S = [1, 2, 3] for S4), the row i = 4 of the ring of
# S4, and I^{D4}_K on pairs where G1 holds.
GREEN_TAMPERS = {
    "R": ("r", lambda H, K: H.order == 24 and K.order == 4, _bump,
          {"G1": 7, "G2": 7, "G3": 7},
          {"G1": "exhaustive", "G2": "exhaustive", "G3": "exhaustive"},
          ["H[o24:[0, 1, 2, 3]]", "H[o4:[0, 1, 6, 7]]"],
          ("d7acdb4e57940c404b9bf2bfb76f076705fb290912dff5fbe85345796dd0e1e3",
           "7982705951649a5a78c0504312fe2d4872ff1ce1db747ee4a699687b6c8290f9")),
    "R=0": ("r", lambda H, K: H.order == 24 and K.order == 4, np.zeros_like,
            {"G1": 7, "G2": 7, "G3": 7},
            {"G1": "exhaustive", "G2": "exhaustive", "G3": "exhaustive"},
            ["H[o24:[0, 1, 2, 3]]", "H[o4:[0, 1, 6, 7]]"],
            ("6b9e8e881e86152f0f706bb8b6b89f14e543f23dcf0cea3a10b827764ab26b4c",
             "625d6793df682f5a4a7e1e780a79b9e9e5c6fa3fe9211f7e52cc8685e96e26df")),
    "I": ("i", lambda K, H: K.order == 3 and H.order == 12, _bump,
          {"G2": 4, "G3": 4},
          {"G1": "generators", "G2": "exhaustive", "G3": "exhaustive"},
          ["H[o12:[0, 3, 4, 7]]", "H[o3:[0, 3, 4]]"],
          ("d126daaf9ca7135a6a055d00f536e57e9b8e95f946b3b6efd7ed6c8754dd6b6e",
           "ca938620f037016d0420bae7528c16f585764e7e791ac6641eead07f274c3d8f")),
    "c": ("c", lambda H, x: H.order == 8 and x == 5, _swap,
          {"G1": 3},
          {"G1": "generators", "G2": "generators", "G3": "generators"},
          ["H[o8:[0, 1, 6, 7]]", "x=5"],
          ("a8b3f1713268515294a399f40ff456fc5fecc63402ba462c2dc7c8d7f4db67de",
           "f9a74737f5e6d0dc3356f51f305bb816dc7c143c72d2a1fab62445c4bf200fce")),
    "product": ("ring", lambda H: H.order == 6, _bump_rows,
                {"ring": 8, "G1": 24, "G2": 24, "G3": 24},
                {"G1": "exhaustive", "G2": "exhaustive", "G3": "exhaustive"},
                ["H[o6:[0, 1, 2, 3]]"],
                ("c638566145d7a46e8b0a06d0f37a111df30eb8b1fd11ffa1aa09ab28c79f3193",
                 "573773369fc13ec178a44e1e47611e4134d7060e20e740d087edb62cac097d62")),
    "R off S": ("r", lambda H, K: H.order == 24 and K.order == 4, _bump_at(0, 4),
                {"G1": 7, "G2": 7, "G3": 7},
                {"G1": "exhaustive", "G2": "exhaustive", "G3": "exhaustive"},
                ["H[o24:[0, 1, 2, 3]]", "H[o4:[0, 1, 6, 7]]"],
                ("c07b67233ee66b6bec530f3681baa5b4bb6f948af5a1b6b2c562d8793ff9ffed",
                 "e6ff1d0dea51369471600b09b885dc9ae02c00ff751bc7114c0719968c83845e")),
    "product off S": ("ring", lambda H: H.order == 24, _bump_rows_at(4, 4, 0),
                      {"ring": 1, "G1": 29, "G2": 29, "G3": 29},
                      {"G1": "exhaustive", "G2": "exhaustive", "G3": "exhaustive"},
                      ["H[o24:[0, 1, 2, 3]]"],
                      ("c3ea1a6bb002a1c939f28a146359700af1bf7fcd81453583bfa7ccf5e67a02d7",
                       "b68584fb1e070684845eb8cabdd201da4f5bde85b0090f440d52987d4c2dc3d7")),
    "I where G1 holds": ("i", lambda K, H: K.order == 4 and H.order == 8, _bump_at(-1, -1),
                         {"G2": 9, "G3": 9},
                         {"G1": "generators", "G2": "exhaustive", "G3": "exhaustive"},
                         ["H[o8:[0, 1, 6, 7]]", "H[o4:[0, 1, 6, 7]]"],
                         ("f1b38db2b7ab2dc515bbf5a9f4a7836ce98c6b3ed72f5e42f549a22a5a65662f",
                          "9eca859ab4936e225f36c1abed5295bc7d7cf37258f9db96d9c180fcbe661291")),
}


def _green_tampered(fam, which, when, change):
    """fam, with `change` made to the maps of one callback as `_tamper` says."""
    fns = {k: getattr(fam, f"_{k}_fn") for k in ("r", "i", "c", "ring")}
    fns[which] = _tamper(fns[which], when, change)
    return mk.MackeyFamily(
        fam.ambient, fam.lattice, "tampered", fam._size_fn,
        fns["r"], fns["i"], fns["c"], ring_fn=fns["ring"],
    )


@pytest.fixture(scope="module")
def char_s4(s4, ctx_s4):
    return mk.char_ring_family(s4, ctx_s4)


@pytest.fixture(scope="module")
def green_s4(char_s4):
    return mk.verify_green_axioms(char_s4)


class TestGreenMutations:
    """One kind of map of the S4 character-ring family is broken at a time;
    the Green verifier must count every broken identity, with the same
    checks as on the intact family."""

    @pytest.mark.parametrize("name", sorted(GREEN_TAMPERS))
    def test_tampered_map_is_caught(self, name, char_s4, green_s4):
        which, when, change, failed, modes, context, digests = GREEN_TAMPERS[name]
        report = mk.verify_green_axioms(_green_tampered(char_s4, which, when, change))
        assert {a: f for a, (_, f) in report.counts.items() if f} == failed
        assert {a: c for a, (c, _) in report.counts.items()} == {
            a: c for a, (c, _) in green_s4.counts.items()
        }
        assert {a: report.modes[a] for a in ("G1", "G2", "G3")} == modes
        data = report.to_json_dict()
        assert data["witnesses"][0]["context"] == context
        stripped = json.loads(json.dumps(data))
        for row in stripped["axioms"]:
            del row["mode"]
        assert (_sha256(json.dumps(data, indent=2)),
                _sha256(json.dumps(stripped, indent=2))) == digests

    def test_tampers_sit_off_the_generators(self, char_s4):
        s4 = char_s4.lattice[-1]
        rows, unit = char_s4.ring(s4)
        assert _rows._generators(rows, char_s4.size(s4)) == [1, 2, 3] and unit == 0
        # the tampered pairs of "I where G1 holds" pass G1 intact
        tensors, units = _tables(char_s4)
        pairs = [(char_s4.index[H.key], char_s4.index[K.key]) for H in char_s4.lattice
                 for K in char_s4.lattice if H.order == 8 and K.order == 4 and H.contains(K)]
        assert pairs and all(
            reference_is_unitary_ring_map(
                char_s4.restriction(char_s4.lattice[hi], char_s4.lattice[ki]),
                tensors[hi], units[hi], tensors[ki], units[ki])
            for hi, ki in pairs)


def reference_is_unitary_ring_map(f, t_src, u_src, t_dst, u_dst) -> bool:
    """G1 for one integer map as the int64 einsums that the float64 and the
    gather checks replaced: f(e_{u_src}) = e_{u_dst} and f(e_i e_j) = f(e_i) f(e_j)
    on all basis pairs."""
    unit_ok = np.array_equal(f[:, u_src], np.eye(len(t_dst), dtype=np.int64)[u_dst])
    # [i, b, m] = (f(e_i) e_b)_m, then [i, j, m] = (f(e_i) f(e_j))_m
    left = np.einsum("ai,abm->ibm", f, t_dst)
    product = np.einsum("bj,ibm->ijm", f, left)
    return unit_ok and np.array_equal(np.einsum("ijm,am->ija", t_src, f), product)


def reference_projection_sides(r, ind, tk, th):
    """[a, b, :] of I(a R(b)) and of I(a) b as int64 einsums, for r = R_K^H,
    ind = I_K^H; with both tensors transposed in their first two axes,
    I(R(b) a) and b I(a)."""
    # [a, c, l] = I(e_a e_c)_l, then [a, b, l] = I(e_a R(e_b))_l
    induced = np.einsum("acm,lm->acl", tk, ind)
    lhs = np.einsum("cb,acl->abl", r, induced)
    return lhs, np.einsum("ma,mbl->abl", ind, th)


def _ring(t, unit, gens=None):
    """`mk._Ring` of the dense int table t, with the basis indices gens as
    its S, or `_rows._generators` of its rows if gens is None (for a ring)."""
    n = len(t)
    rows = _rows.rows_of(np.asarray(t, dtype=np.int64))
    if gens is None:
        gens = _rows._generators(rows, n)
    return mk._Ring(rows, n, unit, mk._top(rows[:, 3]), np.asarray(gens, dtype=np.intp))


def _tables(fam):
    """(dense int64 tables, units) of every ring of fam, in lattice order."""
    rings = [fam.ring(H) for H in fam.lattice]
    return ([_rows.dense(rows, fam.size(H)) for H, (rows, _) in zip(fam.lattice, rings)],
            [u for _, u in rings])


def _float(*arrays):
    return [a.astype(np.float64) for a in arrays]


def _group_ring_map(n, m):
    """Z[C_n] -> Z[C_m], e_i -> e_{i mod m}: a unitary ring map for m | n."""
    f = np.zeros((m, n), dtype=np.int64)
    f[np.arange(n) % m, np.arange(n)] = 1
    return f


@pytest.fixture(scope="module")
def equiv_d6():
    d6 = group_preset("dihedral:6")
    datum = fu.CoherentDatum(d6, d6, GroupAction.conjugation(d6))
    return mk.equivariant_k0_family(datum, ct.make_context([d6, d6]))


def _assert_g1_to_g3_agree(fam):
    """Every (H, K) and every (H, x) of fam, as given and with maps bumped
    or swapped, checked by the row helpers and by the einsum references:
    on every basis element, and on S_H where the lemma of
    `verify_green_axioms` applies."""
    lattice = fam.lattice
    tensors, units = _tables(fam)
    rings = [_ring(t, u) for t, u in zip(tensors, units)]

    def want(f, hi, ki):
        return reference_is_unitary_ring_map(f, tensors[hi], units[hi], tensors[ki], units[ki])

    for hi, H in enumerate(lattice):
        perm, target = fam.conjugations(H)
        n = len(tensors[hi])
        assert mk._permutes_rings(perm, target, rings[hi], rings).all()
        # with the images of e_0 and e_1 swapped the unit moves: fails
        # unless a(H) has rank 1
        swapped = np.array([_swap(p) for p in perm])
        got = mk._permutes_rings(swapped, target, rings[hi], rings)
        for p, q, t, g in zip(perm, swapped, target.tolist(), got):
            assert want(np.eye(n, dtype=np.int64)[:, p], hi, t)
            assert g == want(np.eye(n, dtype=np.int64)[:, q], hi, t) == (n == 1)
        rh = rings[hi]
        slices = [mk._slice_pair(rh, s) for s in rh.gens]
        for ki, K in enumerate(lattice):
            if not H.contains(K):
                continue
            r, ind = fam.restriction(H, K), fam.induction(K, H)
            # R broken (R(1) != 1), and the products e_a e_c of the last a
            # only, which leave a(K) no ring: checked on every b
            last = tensors[ki].copy()
            last[-1, 0, 0] += 1
            for rr, tk, intact in ((r, tensors[ki], True), (_bump(r), tensors[ki], False),
                                   (r, last, False)):
                rk = _ring(tk, units[ki], None if tk is tensors[ki] else range(len(tk)))
                f_r, f_ind = _float(rr, ind)
                expected = [reference_is_unitary_ring_map(rr, tensors[hi], units[hi],
                                                          tk, units[ki])]
                for axiom, turn in (("G2", lambda t: t), ("G3", lambda t: t.transpose(1, 0, 2))):
                    lhs, rhs = reference_projection_sides(rr, ind, turn(tk), turn(tensors[hi]))
                    got = mk._projection_witness(axiom, f_r, f_ind, rk, rh)
                    assert np.array_equal(got[0], lhs) and np.array_equal(got[1], rhs)
                    expected.append(np.array_equal(lhs, rhs))
                full = mk._pair_holds(f_r, f_ind, rk, rh, np.arange(rh.n))
                assert full == expected
                assert all(full) or not intact
                if tk is tensors[ki]:
                    # both rings intact: S_H decides G1, and G2 and G3
                    # where G1 holds
                    reduced = mk._pair_holds(f_r, f_ind, rk, rh, rh.gens, slices)
                    assert reduced[0] == full[0]
                    assert reduced == full or not full[0]


class TestStackedGreenChecks:
    """G1 for conjugation as a lookup of row keys, G1 for restriction and
    G2/G3 one basis element at a time as products of multiplication
    matrices, on ring rows, against the int64 einsum forms they replaced."""

    @pytest.mark.parametrize("name", ["char_s4", "equiv_d6"])
    def test_every_pair_and_element_agrees_with_the_einsums(self, request, name):
        _assert_g1_to_g3_agree(request.getfixturevalue(name))

    @pytest.mark.parametrize("seed", range(6))
    def test_multiplication_matrices(self, seed):
        # random integer tensors with negative entries, not rings, and
        # coefficient vectors with zeros and negatives, the zero vector too
        rng = np.random.default_rng(seed)
        n = 1 + seed
        t = rng.integers(-3, 4, size=(n, n, n))
        ring = _ring(t, 0, range(n))
        for v in (rng.integers(-2, 3, size=n), np.zeros(n, dtype=np.int64),
                  np.where(np.arange(n) % 2, 0, -1 - np.arange(n))):
            got = [mk._multiplication(ring, v.astype(np.float64), left) for left in (True, False)]
            assert np.array_equal(got[0], np.einsum("i,icm->cm", v, t))  # (v e_c)_m
            assert np.array_equal(got[1], np.einsum("j,ajm->am", v, t))  # (e_a v)_m

    @pytest.mark.parametrize("seed", range(8))
    def test_random_integer_maps(self, seed):
        rng = np.random.default_rng(seed)
        n, m = [(6, 3), (4, 2), (6, 6), (8, 4), (6, 2), (9, 3), (4, 1), (10, 5)][seed]
        t_src, t_dst = _cyclic_group_ring(n), _cyclic_group_ring(m)
        f = _group_ring_map(n, m)
        maps = [f, f + rng.integers(-1, 2, size=f.shape), rng.integers(-2, 3, size=f.shape)]
        moved = f.copy()
        moved[:, -1] = np.roll(moved[:, -1], 1)
        maps.append(moved)
        want = [reference_is_unitary_ring_map(g, t_src, 0, t_dst, 0) for g in maps]
        assert want[0]
        # G1 alone (I = 0): rings, on S of the source (the lemma) and on
        # every basis element
        src, dst = _ring(t_src, 0), _ring(t_dst, 0)
        zero = np.zeros((n, m))
        for bs in (src.gens, np.arange(n)):
            got = [mk._pair_holds(g.astype(np.float64), zero, dst, src, bs)[0] for g in maps]
            assert got == want
        # random tensors, not rings, and a non-square map between them, on
        # every basis element
        nd, ns = 2 + seed % 3, 3 + seed % 4
        a, b = rng.integers(-2, 3, size=(ns, ns, ns)), rng.integers(-2, 3, size=(nd, nd, nd))
        g = rng.integers(-2, 3, size=(nd, ns))
        got = mk._pair_holds(g.astype(np.float64), np.zeros((ns, nd)), _ring(b, 1, range(nd)),
                             _ring(a, 0, range(ns)), np.arange(ns))[0]
        assert got == reference_is_unitary_ring_map(g, a, 0, b, 1)
        # the lookup on every permutation of the basis of Z[C_n]: the ring
        # automorphisms (i -> ki for k prime to n) fix the unit 0
        perms = np.array(list(itertools.islice(itertools.permutations(range(n)), 200)))
        got = mk._permutes_rings(perms, np.zeros(len(perms), dtype=np.intp),
                                 _ring(t_src, 0), [_ring(t_src, 0)])
        for p, g in zip(perms, got):
            mat = np.eye(n, dtype=np.int64)[:, p]
            assert g == reference_is_unitary_ring_map(mat, t_src, 0, t_src, 0)
        # projection sides of random integer data with nk != nh
        nk, nh = 2 + seed % 3, 3 + seed % 5
        r, ind = rng.integers(-3, 4, size=(nk, nh)), rng.integers(-3, 4, size=(nh, nk))
        tk, th = rng.integers(-3, 4, size=(nk, nk, nk)), rng.integers(-3, 4, size=(nh, nh, nh))
        rk, rh = _ring(tk, 0, range(nk)), _ring(th, 0, range(nh))
        expected = []
        for axiom, turn in (("G2", lambda t: t), ("G3", lambda t: t.transpose(1, 0, 2))):
            lhs, rhs = reference_projection_sides(r, ind, turn(tk), turn(th))
            got = mk._projection_witness(axiom, *_float(r, ind), rk, rh)
            assert np.array_equal(got[0], lhs) and np.array_equal(got[1], rhs)
            expected.append(np.array_equal(lhs, rhs))
        assert mk._pair_holds(*_float(r, ind), rk, rh, np.arange(nh))[1:] == expected

    def test_one_tampered_x_among_one_target(self, char_s4, green_s4):
        # A4 is normal in S4, so all 24 c_{A4,x} share one target; the
        # report is the one the dense matrices gave with columns 0 and 1 of
        # c_{A4,7} swapped
        a4 = next(H for H in char_s4.lattice if H.order == 12)
        ring = _ring(_rows.dense(char_s4.ring(a4)[0], char_s4.size(a4)), 0)
        perm, target = char_s4.conjugations(a4)
        assert len(set(target.tolist())) == 1
        perm = perm.copy()
        perm[7] = _swap(perm[7])
        ok = mk._permutes_rings(perm, np.zeros_like(target), ring, [ring])
        assert np.flatnonzero(~ok).tolist() == [7]
        broken = _green_tampered(char_s4, "c", lambda H, x: H.order == 12 and x == 7, _swap)
        report = mk.verify_green_axioms(broken)
        assert report.counts["G1"] == (green_s4.counts["G1"][0], 1)
        assert [w.context for w in report.witnesses] == [(a4, "x=7")]

    @pytest.mark.parametrize("name", sorted(GREEN_TAMPERS))
    def test_small_chunks_give_the_same_report(self, name, monkeypatch, char_s4):
        broken = _green_tampered(char_s4, *GREEN_TAMPERS[name][:3])
        whole = mk.verify_green_axioms(broken).to_json_dict()
        # the `_permutes_rings` lookups and the associativity joins split
        # into chunks of one to a few x or j
        monkeypatch.setattr(_kernels, "GATHER_BYTES", 8 * 16)
        assert mk.verify_green_axioms(broken).to_json_dict() == whole

    def test_stack_heap_below_the_einsum_outputs(self, equiv_d6):
        # the n = 40 subgroup of D(D6) is normal: its 12 maps share a target;
        # the einsum form held three n^3 int64 arrays for each of them, the
        # whole gather one n^3 float64 array for one map at a time, and the
        # gather over the nonzero entries holds less than that
        H = next(H for H in equiv_d6.lattice if equiv_d6.size(H) == 40)
        perm, target = equiv_d6.conjugations(H)
        assert set(target.tolist()) == {equiv_d6.index[H.key]} and len(perm) == 12
        rows, unit = equiv_d6.ring(H)
        ring = _ring(_rows.dense(rows, 40), unit)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert mk._permutes_rings(perm, np.zeros_like(target), ring, [ring]).all()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40**3 * 8

    def test_green_heap_below_one_table_on_d_d6(self, equiv_d6):
        # the n = 40 subgroup H of D(D6) and every K <= H: G1 for R, G2 and
        # G3 on S_H peak below 256 KiB, half of one (40, 40, 40) float64
        # table, the array every ring kept before for all three checks
        fam = equiv_d6
        hi = next(i for i, H in enumerate(fam.lattice) if fam.size(H) == 40)
        H = fam.lattice[hi]
        below = [i for i, K in enumerate(fam.lattice) if H.contains(K)]
        rings = {}
        for i in below:
            rows, unit = fam.ring(fam.lattice[i])
            n = fam.size(fam.lattice[i])
            rings[i] = mk._Ring(rows, n, unit, mk._top(rows[:, 3]),
                                np.array(_rows._generators(rows, n), dtype=np.intp))
        maps = {i: (fam.restriction(H, fam.lattice[i]).astype(np.float64),
                    fam.induction(fam.lattice[i], H).astype(np.float64)) for i in below}
        rh = rings[hi]
        assert len(below) > 1 and len(rh.gens) < 40
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            slices = [mk._slice_pair(rh, s) for s in rh.gens]
            assert all(all(mk._pair_holds(*maps[i], rings[i], rh, rh.gens, slices))
                       for i in below)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        # and no densifier is left in the verifier
        assert not hasattr(mk, "dense")

    def test_extra_nonzero_entry_fails_only_its_target(self, char_s4):
        # D4 has three conjugates in S4.  One of them, T, gains one nonzero
        # N_ij^k at a zero of its table: the images of H's nonzero entries
        # still match, so only the count of nonzero entries can fail the
        # maps c_{H,x} onto T, and exactly those fail
        tensors, units = _tables(char_s4)
        rings = [_ring(t, u) for t, u in zip(tensors, units)]
        hi = next(i for i, S in enumerate(char_s4.lattice) if S.order == 8)
        perm, target = char_s4.conjugations(char_s4.lattice[hi])
        ti = next(t for t in target.tolist() if t != hi)
        bigger = tensors[ti].copy()
        zeros = np.argwhere(bigger == 0)
        i, j, k = zeros[(zeros[:, 0] != units[ti]) & (zeros[:, 1] != units[ti])][0]
        bigger[i, j, k] = 1
        rings[ti] = _ring(bigger, units[ti])
        ok = mk._permutes_rings(perm, target, rings[hi], rings)
        assert np.flatnonzero(~ok).tolist() == np.flatnonzero(target == ti).tolist()
        # every row of H still maps onto a row of T with its N: the count
        # is what fails
        src, keys = rings[hi].rows, rings[ti].rows[:, :3] @ [64, 8, 1]
        for p in perm[target == ti]:
            moved = p[src[:, :3]] @ [64, 8, 1]
            assert np.array_equal(rings[ti].rows[np.searchsorted(keys, moved), 3], src[:, 3])


def _ring_rows_tampered(fam, change):
    """fam with `change` made to the ring rows of its top subgroup."""

    def ring_fn(H):
        rows, unit = fam._ring_fn(H)
        return (change(rows.copy()) if H.order == fam.ambient.order else rows), unit

    return mk.MackeyFamily(fam.ambient, fam.lattice, "tampered", fam._size_fn,
                           fam._r_fn, fam._i_fn, fam._c_fn, ring_fn=ring_fn)


def _duplicate_key(rows):
    return np.insert(rows, 1, rows[1], axis=0)


def _zero_constant(rows):
    rows[-1, 3] = 0
    return rows


def _index_out_of_range(rows):
    rows[-1, 2] = rows[:, 2].max() + 1
    return rows


def _unsorted(rows):
    return rows[::-1].copy()


class TestRingRowCheck:
    """`MackeyFamily.ring` takes a ring callback's rows only if they are
    int64 [i, j, k, N] rows, strictly ascending in (i, j, k), with indices
    in range and no zero N: each broken form raises InvariantViolation
    naming H, in the Green verifier too."""

    @pytest.mark.parametrize("change", [_duplicate_key, _zero_constant,
                                        _index_out_of_range, _unsorted])
    def test_refused(self, char_s3, change):
        fam = _ring_rows_tampered(char_s3, change)
        H = fam.lattice[-1]
        fam.ring(fam.lattice[0])
        with pytest.raises(InvariantViolation, match=r"ring of H\[o6:\[0, 1, 2, 3\]\]"):
            fam.ring(H)
        with pytest.raises(InvariantViolation, match=r"H\[o6:\[0, 1, 2, 3\]\]"):
            mk.verify_green_axioms(fam)


def _huge_restrictions(fam):
    """fam with every restriction matrix times 2**26: R from S3 to a
    subgroup of order 2 then needs 2^2 (2**26)^2 = 2**54 in G1."""
    return _green_tampered(fam, "r", lambda H, K: True, lambda m: m << 26)


def _regauged_c2(t, bump=0):
    """The character-ring family of cyclic:2 with a(C2) in the basis
    B = [[1, t], [0, 1]]: R'^{C2}_K = R B^-1 and I'^{C2}_K = B I, so
    R'^{C2}_1 = [[1, 1 - t]] and I'^{C2}_1 = [[1 + t], [1]], with `bump`
    added to the top entry of I'^{C2}_1.  Conjugation is trivial, so the
    Mackey axioms hold in any basis when bump = 0."""
    G = group_preset("cyclic:2")
    base = mk.char_ring_family(G, ct.make_context([G]))
    gauge = {1: (np.eye(1, dtype=np.int64),) * 2,
             2: (np.array([[1, t], [0, 1]]), np.array([[1, -t], [0, 1]]))}

    def r_fn(H, K):
        return gauge[K.order][0] @ base.restriction(H, K) @ gauge[H.order][1]

    def i_fn(K, H):
        m = gauge[H.order][0] @ base.induction(K, H) @ gauge[K.order][1]
        if (K.order, H.order) == (1, 2):
            m[0, 0] += bump
        return m

    return mk.MackeyFamily(G, base.lattice, "regauged", base.size, r_fn, i_fn, base._c_fn)


def _rank_one_family(top):
    """A family on cyclic:4 (lattice 1 < C2 < C4) with every a(H) of rank
    1, every I and c the identity, R^{C4}_{C2} = R^{C2}_1 = [[top]] and
    R^{C4}_1 = [[0]]: M1 at (1, C2, C4) compares top^2 with 0."""
    G = group_preset("cyclic:4")
    lattice = subgroup_lattice(G)
    pos = {S.key: i for i, S in enumerate(lattice)}
    steps = {(2, 1): top, (1, 0): top, (2, 0): 0}

    def r_fn(H, K):
        i, j = pos[H.key], pos[K.key]
        return np.array([[1 if i == j else steps[i, j]]], dtype=np.int64)

    def c_fn(H):
        return np.zeros((G.order, 1), dtype=np.intp), conjugation_index(G)[pos[H.key]]

    return mk.MackeyFamily(G, lattice, "rank one", lambda H: 1, r_fn,
                           lambda K, H: np.eye(1, dtype=np.int64), c_fn)


class TestExactnessGuard:
    def test_mackey_refuses_a_wrapping_family(self):
        # (2**32)^2 = 2**64 wraps to 0 in int64, so M1 at (1, C2, C4)
        # would pass; the verifier raises instead of returning that report
        with pytest.raises(ExactnessBoundExceeded, match="Mackey checks"):
            mk.verify_mackey_axioms(_rank_one_family(2**32))

    def test_mackey_below_the_bound_catches_the_same_family(self):
        # |G| n t^2 = 4 * 1 * t^2 < 2**53 holds up to t = isqrt(2**51 - 1)
        top = math.isqrt(2**51 - 1)
        with pytest.raises(ExactnessBoundExceeded):
            mk.verify_mackey_axioms(_rank_one_family(top + 1))
        report = mk.verify_mackey_axioms(_rank_one_family(top))
        (m1,) = [w for w in report.to_json_dict()["witnesses"] if w["axiom"] == "M1"]
        assert m1["lhs"] == [[top**2]] and m1["rhs"] == [[0]]

    def test_regauged_family_past_the_old_bound_is_verified_exactly(self):
        # max|R, I| = 2**25 + 1: |G| n^2 t^3 = 2 * 2^2 * t^3 was refused,
        # |G| n t^2 = 2 * 2 * t^2 < 2**53 is admitted
        t = 2**25
        fam = _regauged_c2(t)
        assert 2 * 2**2 * (t + 1) ** 3 >= 2**53 > 2 * 2 * (t + 1) ** 2
        report = mk.verify_mackey_axioms(fam)
        assert report.ok
        assert report.counts == mk.verify_mackey_axioms(_regauged_c2(0)).counts
        # one induction off by one: M4 at (C2, 1, 1) reads
        # (1 + t + 1) + (1 - t) = 3 against the two double cosets' 2
        tampered = _regauged_c2(t, bump=1)
        report = mk.verify_mackey_axioms(tampered)
        m4 = [w for w in report.to_json_dict()["witnesses"] if w["axiom"] == "M4"]
        assert {"lhs": [[3]], "rhs": [[2]]}.items() <= m4[0].items()

    def test_verifier_refuses_past_the_bound(self, char_s3):
        with pytest.raises(InvariantViolation, match="2\\*\\*53") as exc:
            mk.verify_green_axioms(_huge_restrictions(char_s3))
        assert type(exc.value) is ExactnessBoundExceeded

    def test_helpers_check_their_bounds(self):
        t = _cyclic_group_ring(2)
        f = np.eye(2) * 2**26  # 2^2 (2**26)^2 = 2**54
        every, one = np.arange(2), np.eye(2)
        with pytest.raises(ExactnessBoundExceeded, match="ring-map"):
            mk._pair_holds(f, one, _ring(t, 0), _ring(t, 0), every)
        assert not mk._pair_holds(f / 2, one, _ring(t, 0), _ring(t, 0), every)[0]
        # not a ring map (f(e_1)^2 = e_0 - 2**64 e_1 + 2**126 e_0), but every
        # int64 product wraps to agree with f(e_1 e_1) = e_0
        wraps = np.array([[1, -2**63], [0, 1]], dtype=np.int64)
        assert reference_is_unitary_ring_map(wraps, t, 0, t, 0)
        with pytest.raises(ExactnessBoundExceeded):
            mk._pair_holds(wraps.astype(np.float64), one, _ring(t, 0), _ring(t, 0), every)
        # 2^2 2**25 2**26 = 2**53 in I(a R(b)), with G1's 2^2 (2**25)^2
        # below the bound
        r, ind = one * 2**25, one * 2**26
        with pytest.raises(ExactnessBoundExceeded, match="projection"):
            mk._pair_holds(r, ind, _ring(t, 0), _ring(t, 0), every)
        assert mk._pair_holds(r, ind / 2, _ring(t, 0), _ring(t, 0), every) == [False] * 3

    def test_cli_exits_2(self, capsys, monkeypatch, char_s3):
        from equifuse import cli as cli_mod

        monkeypatch.setattr(cli_mod.mackey, "char_ring_family",
                            lambda G, ctx: _huge_restrictions(char_s3))
        code, out, err = run(capsys, "verify", "green", "--family", "char:sym:3")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ExactnessBoundExceeded"


def test_no_cli_workload_imports_numpy_ma_or_numpy_random():
    # the first np.unique of a process imports numpy.ma, about 1 MiB of RSS;
    # numpy.random loads OpenSSL's libcrypto, about 5 MiB with its generators
    code = (
        "import os, sys\n"
        "from equifuse import cli\n"
        "for argv in (['double', 'dihedral:10'], ['verify', 'mackey', '--family', 'char:alt:5'],\n"
        "             ['verify', 'green', '--family', 'equiv:dihedral:6:dihedral:6:conjugation']):\n"
        "    assert cli.main(argv + ['--table', os.devnull]) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _bumped(when):
    return lambda fn: _tamper(fn, when, _bump)


def _swapped(when):
    return lambda fn: _tamper(fn, when, _swap)


def _regauged(members, perm):
    """A change of basis of a(S), S the subgroup with these members, by the
    permutation matrix P of `perm` (P e_{perm[i]} = e_i), made on the
    conjugations only: every c into S becomes P c and every c out of S
    becomes c P^-1.  As rows, P c sends e_j to e_{inv[row[j]]}, inv the
    inverse of perm, and c P^-1 sends it to e_{row[perm[j]]}.  M0 and M3
    still hold (P c_{S,s} P^-1 = id, and the P cancel in c_y c_x), and R
    and I are left alone, so of M0-M3 and Mc only Mc can tell."""
    inv = np.argsort(perm)

    def wrap(fn):
        def wrapped(H):
            rows, target = fn(H)
            lattice = subgroup_lattice(H.parent)
            into = np.array([lattice[t].members.tolist() == members for t in target])
            if into.any():
                rows = rows.copy()
                rows[into] = inv[rows[into]]
            if H.members.tolist() == members:
                rows = rows[:, perm]
            return rows, target

        return wrapped

    return wrap


# map tampered, tamper, failed count per axiom, first witness context, sha256
# of the whole report JSON as `verify mackey` prints it, recorded with M4 at
# class representatives.  H = <(2 3)> = [0, 1] and x = 2 = (1 2), which does
# not normalize H; x = 23 = (0 3)(1 2) outside H breaks every c_{H,23} of
# rank above 1 at once and gives more than 100 M3 witnesses.  The three c
# tampers swap the images of e_0 and e_1; their rows were recorded with the
# same swap made as a column swap of the dense matrices of c.
# [0, 2, 7, 10, 13, 16, 21, 23] is a D8 and [0, 8, 12] = <(0 1 2)> a C3,
# neither the first of its class.
MACKEY_TAMPERS = {
    "R": ("r", _bumped(lambda H, K: H.order == 24 and K.order == 4),
          {"M1": 32, "M4": 30},
          ["H[o2:[0, 16]]", "H[o4:[0, 7, 16, 23]]", "H[o24:[0, 1, 2, 3]]"],
          "3a765679aace589195c42a08a10dd169086c56d1bb7bc92632b93d914198a441"),
    "I": ("i", _bumped(lambda K, H: K.order == 3 and H.order == 12),
          {"M2": 8, "M4": 2, "M4rel": 4},
          ["H[o3:[0, 15, 20]]", "H[o12:[0, 3, 4, 7]]", "H[o24:[0, 1, 2, 3]]"],
          "cae5cd11e1e7368337095005aa000a3b7caf827000d4bff4de055bafaed0e16f"),
    "c": ("c", _swapped(lambda H, x: H.members.tolist() == [0, 1] and x == 2),
          {"M3": 68, "Mc": 10},
          ["H[o2:[0, 1]]", "1", "2"],
          "77e9588990c4d738b520f39f208bf8ba89fde5107263f3076f13c37c526a5417"),
    # x = 1 = (2 3) lies in H = <(2 3)>, so c_{H,1} must be the identity
    "c-M0": ("c", _swapped(lambda H, x: H.members.tolist() == [0, 1] and x == 1),
             {"M0": 1, "M3": 66, "Mc": 10},
             ["H[o2:[0, 1]]", "c_1"],
             "78d4af90a03de06c200234640df1302f48959aed5668bc6ff864c01e60d42c4e"),
    "c-many": ("c", _swapped(lambda H, x: x == 23 and not H.mask[23]),
               {"M3": 1327, "Mc": 116},
               ["H[o2:[0, 1]]", "1", "22"],
               "cb837f6b5e90404be346776b1ac9191ed2855d8a2f227a015ca1efb2c66edcc7"),
    # M4 fails at 29 triples, none of them a class representative
    "R-off-class": ("r", _bumped(
        lambda H, K: H.order == 24 and K.members.tolist() == [0, 2, 7, 10, 13, 16, 21, 23]),
        {"M1": 9, "Mc": 32},
        ["H[o2:[0, 16]]", "H[o8:[0, 2, 7, 10]]", "H[o24:[0, 1, 2, 3]]"],
        "728bf10797043737550a343774fba5eb176580bef6fbd59942bd457906511263"),
    # M4 fails at 8 triples, none of them a class representative
    "c-regauged": ("c", _regauged([0, 8, 12], [0, 2, 1]),
                   {"Mc": 72},
                   ["H[o12:[0, 3, 4, 7]]", "H[o3:[0, 3, 4]]", "18"],
                   "ae070ce09239bba25bae69d2854aa1e5f494077b8b8b12a6acfd52be555b3fb9"),
}


@pytest.fixture(scope="module")
def mackey_s4(char_s4):
    return mk.verify_mackey_axioms(char_s4)


def _tampered_s4(char_s4, which, wrap):
    fns = {k: getattr(char_s4, f"_{k}_fn") for k in ("r", "i", "c")}
    fns[which] = wrap(fns[which])
    return mk.MackeyFamily(
        char_s4.ambient, char_s4.lattice, "tampered", char_s4._size_fn,
        fns["r"], fns["i"], fns["c"],
    )


class TestMackeyMutations:
    """One map of the S4 character-ring family is broken at a time; the
    Mackey verifier must count every broken identity, with the same checks
    as on the intact family, and list its witnesses in the same order up to
    the witness cap."""

    @pytest.mark.parametrize("name", sorted(MACKEY_TAMPERS))
    def test_tampered_map_is_caught(self, name, char_s4, mackey_s4):
        which, wrap, failed, context, digest = MACKEY_TAMPERS[name]
        report = mk.verify_mackey_axioms(_tampered_s4(char_s4, which, wrap))
        assert {a: f for a, (_, f) in report.counts.items() if f} == failed
        assert {a: c for a, (c, _) in report.counts.items()} == {
            a: c for a, (c, _) in mackey_s4.counts.items()
        }
        data = report.to_json_dict()
        assert data["witnesses"][0]["context"] == context
        text = json.dumps(data, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(MACKEY_TAMPERS))
    def test_reference_m4_failure_fails_the_report(self, name, char_s4):
        which, wrap, *_ = MACKEY_TAMPERS[name]
        broken = _tampered_s4(char_s4, which, wrap)
        if reference_m4_failures(broken):
            assert not mk.verify_mackey_axioms(broken).ok

    @pytest.mark.parametrize("name, m4_failures", [("R-off-class", 29), ("c-regauged", 8)])
    def test_m4_broken_off_the_representatives(self, name, m4_failures, char_s4):
        which, wrap, failed, *_ = MACKEY_TAMPERS[name]
        broken = _tampered_s4(char_s4, which, wrap)
        bad = reference_m4_failures(broken)
        assert len(bad) == m4_failures
        assert not _keys(bad) & _keys(class_representatives(char_s4))
        assert "M4" not in failed and "M4rel" not in failed and "Mc" in failed

    def test_m3_is_exhaustive(self, s4, char_s4, mackey_s4):
        assert mackey_s4.counts["M3"] == (len(char_s4.lattice) * s4.order**2, 0)

    def test_mc_is_exhaustive(self, s4, char_s4, mackey_s4):
        nested = sum(H.contains(K) for H in char_s4.lattice for K in char_s4.lattice)
        assert mackey_s4.counts["Mc"] == (2 * nested * s4.order, 0)

    def test_wrong_conjugation_target_fails_mc(self, char_s4, mackey_s4):
        # c_{H,2} for H = <(2 3)> names H itself as its target, not <(1 3)>
        H = next(S for S in char_s4.lattice if S.members.tolist() == [0, 1])

        def misnamed(S):
            perm, target = char_s4._c_fn(S)
            if S.key == H.key:
                target = target.copy()
                target[2] = char_s4.index[H.key]
            return perm, target

        broken = mk.MackeyFamily(
            char_s4.ambient, char_s4.lattice, "tampered", char_s4._size_fn,
            char_s4._r_fn, char_s4._i_fn, misnamed,
        )
        report = mk.verify_mackey_axioms(broken)
        pairs = sum(S.contains(H) or H.contains(S) for S in char_s4.lattice)
        assert report.counts["Mc"] == (mackey_s4.counts["Mc"][0], 2 * pairs)
        witnesses = [w for w in report.witnesses if w.axiom == "Mc"]
        assert {w.context[2] for w in witnesses} == {2}

    def test_swapped_irreducibles_in_a_gathered_stack_fail_m3_and_mc(self):
        # c_{H,x} of a C3 in A5, read off the one gather of H's rows, with the
        # images of the trivial character and one of order 3 swapped, at an
        # x outside N(H)
        from equifuse.presets import group_preset

        G = group_preset("alt:5")
        fam = mk.char_ring_family(G, ct.make_context([G]))
        hi, H = next((i, S) for i, S in enumerate(fam.lattice) if S.order == 3)
        x = next(x for x in range(G.order) if conjugation_index(G)[hi, x] != hi)

        def swapped(S):
            perm, target = fam._c_fn(S)
            if S.key == H.key:
                perm = perm.copy()
                perm[x] = perm[x][[1, 0, 2]]
            return perm, target

        broken = mk.MackeyFamily(G, fam.lattice, "tampered", fam._size_fn,
                                 fam._r_fn, fam._i_fn, swapped)
        report = mk.verify_mackey_axioms(broken)
        failed = {a for a, (_, f) in report.counts.items() if f}
        assert {"M3", "Mc"} <= failed and "M0" not in failed
        assert {a: c for a, (c, _) in report.counts.items()} == {
            a: c for a, (c, _) in mk.verify_mackey_axioms(fam).counts.items()
        }


class TestConjugationByClassMap:
    """c_{H,x} and conjugate_cf against chi(x^-1 y x) evaluated element by
    element with Perm arithmetic, for every lattice subgroup H and every x."""

    @pytest.mark.parametrize("name", ["sym:4", "alt:5"])
    def test_every_subgroup_and_element(self, name):
        from equifuse.presets import group_preset

        G = group_preset(name)
        ctx = ct.make_context([G])
        fam = mk.char_ring_family(G, ctx)
        for H in fam.lattice:
            hgrp = H.group()
            rows = ct.character_table(hgrp, ctx).rows
            for x in range(G.order):
                xp = G.perm(x)
                target = H.conjugate(x).group()
                tab_t = ct.character_table(target, ctx)
                pre = [
                    hgrp.element_index(xp.inverse() * y * xp)
                    for y in target.elements
                ]
                mat, _ = fam.conjugation(H, x)
                for i, chi in enumerate(rows):
                    expected = [chi.value_at(e) for e in pre]
                    moved = ct.conjugate_cf(chi, G, x)
                    assert moved.group.elements == target.elements
                    assert [moved.value_at(t) for t in range(target.order)] == expected
                    (r,) = np.flatnonzero(mat[:, i])
                    assert mat[r, i] == 1
                    assert [
                        tab_t.rows[r].value_at(t) for t in range(target.order)
                    ] == expected


class TestObservedProperties:
    def test_commutative_top_level_products(self, char_s3, equiv_ds3):
        for fam in (char_s3, equiv_ds3):
            t = _tables(fam)[0][-1]
            assert np.array_equal(t, t.transpose(1, 0, 2))

    def test_family_linearity_random_combos(self, char_s3):
        rng = np.random.default_rng(17)
        full = char_s3.lattice[-1]
        sub = char_s3.lattice[1]
        r = char_s3.restriction(full, sub)
        for _ in range(5):
            u = rng.integers(-3, 4, size=char_s3.size(full))
            v = rng.integers(-3, 4, size=char_s3.size(full))
            assert np.array_equal(r @ (2 * u - 3 * v), 2 * (r @ u) - 3 * (r @ v))

    def test_conjugation_is_basis_bijection(self, char_s3, s3):
        for H in char_s3.lattice:
            for x in range(s3.order):
                mat, _ = char_s3.conjugation(H, x)
                assert np.array_equal(mat.sum(axis=0), np.ones(mat.shape[1]))
                assert np.array_equal(mat.sum(axis=1), np.ones(mat.shape[0]))


def _map_digests(fam):
    """sha256 of every R_K^H, I_K^H (K <= H), c_{H,x} and product tensor
    over the whole lattice, one digest per kind of map."""
    hashes = {kind: hashlib.sha256() for kind in ("R", "I", "c", "product")}

    def feed(kind, m):
        m = np.asarray(m, dtype=np.int64)
        hashes[kind].update(repr(m.shape).encode() + m.tobytes())

    for H in fam.lattice:
        for K in fam.lattice:
            if H.contains(K):
                feed("R", fam.restriction(H, K))
                feed("I", fam.induction(K, H))
        for x in range(fam.ambient.order):
            feed("c", fam.conjugation(H, x)[0])
        feed("product", _rows.dense(fam.ring(H)[0], fam.size(H)))
    return {kind: h.hexdigest() for kind, h in hashes.items()}


class TestPinnedEquivariantMaps:
    """Digests recorded when the equivariant family built its matrices one
    simple at a time through eq_restrict/eq_induce/eq_conjugate and its
    tensors from per-pair label dicts."""

    def test_ds3(self, s3):
        ctx = ct.make_context([s3, s3])
        datum = fu.CoherentDatum(s3, s3, GroupAction.conjugation(s3))
        assert _map_digests(mk.equivariant_k0_family(datum, ctx)) == {
            "R": "de2154ba27dda611951d910249e868fc691f76b8ad68d1340958281be905f202",
            "I": "39ec3ef1fdcbe9966dc4b910660a22e4671611a97b526672c8cfd5b0a215461b",
            "c": "afe1e48e3c629c66a179ea4a24e925f5ad660331f360ee1b9eff04ddeaea7090",
            "product": "a757be4be2cd2dbac964f0db7b953b3b99f34b13a772eb5828cf2110bc0650be",
        }

    def test_d4_on_c4(self, tmp_path):
        path = tmp_path / "d4_on_c4.json"
        path.write_text(json.dumps(D4_ON_C4))
        datum = load_action(str(path))
        ctx = ct.make_context([datum.F, datum.G])
        assert _map_digests(mk.equivariant_k0_family(datum, ctx)) == {
            "R": "6bdc674c6f21281d6bc00147a47f6da6100ec0e681def36b07437a382ea841cf",
            "I": "8835abbe5cf62c5df3f9ff0b309015c1ef28e9d3068931d6db49297cb55f4293",
            "c": "38d5e65b2b40b85b311e83908614f119762f8bf18ac5067530f5817da6b8853a",
            "product": "0e9aee051ca201c84581fa69c12c811377e2c3a1f678e61205ae20d39348db23",
        }
