"""Mackey/Green families and the axiom verifier.

The S4/D4 exhaustive runs live in the acceptance suite; here the focus is on
the S3-sized pinned values, the verifier's failure reporting, and the
structural properties the verifier itself relies on.
"""

import hashlib
import json

import numpy as np
import pytest

from equifuse import chartab as ct
from equifuse import fusion as fu
from equifuse import mackey as mk
from equifuse.errors import NoRingStructure
from equifuse.permgrp import GroupAction


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
            assert char_s3.unit_index(H) == 0


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


class TestVerifiers:
    def test_char_s3_mackey(self, char_s3):
        report = mk.verify_mackey_axioms(char_s3)
        assert report.ok
        assert set(report.counts) == {"M0", "M1", "M2", "M3", "M4", "M4rel"}

    def test_char_s3_green(self, char_s3):
        report = mk.verify_green_axioms(char_s3)
        assert report.ok
        assert set(report.counts) == {"G1", "G2", "G3", "ring"}

    def test_equiv_ds3_mackey_and_green(self, equiv_ds3):
        assert mk.verify_mackey_axioms(equiv_ds3).ok
        assert mk.verify_green_axioms(equiv_ds3).ok

    def test_m4_relativized_counted_separately(self, char_s3):
        report = mk.verify_mackey_axioms(char_s3)
        checked_m4, failed_m4 = report.counts["M4"]
        assert checked_m4 == len(char_s3.lattice) ** 2 and failed_m4 == 0
        assert report.counts["M4rel"][0] > 0

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


def _bump(m):
    m = m.copy()
    m[0, 0] += 1
    return m


def _tamper(fn, when, change):
    """fn with `change` applied to the matrix (or tensor) of every call that
    matches `when`; the conjugation callback's target is left alone."""

    def wrapped(*args):
        out = fn(*args)
        if not when(*args):
            return out
        if isinstance(out, tuple):
            return change(out[0]), out[1]
        return change(out)

    return wrapped


# map tampered, which calls, change, failed count per axiom, first witness
# context, sha256 of the whole report JSON as `verify green` prints it
GREEN_TAMPERS = {
    "R": ("r", lambda H, K: H.order == 24 and K.order == 4, _bump,
          {"G1": 7, "G2": 7, "G3": 7},
          ["H[o24:[0, 1, 2, 3]]", "H[o4:[0, 1, 6, 7]]"],
          "7982705951649a5a78c0504312fe2d4872ff1ce1db747ee4a699687b6c8290f9"),
    "R=0": ("r", lambda H, K: H.order == 24 and K.order == 4, np.zeros_like,
            {"G1": 7, "G2": 7, "G3": 7},
            ["H[o24:[0, 1, 2, 3]]", "H[o4:[0, 1, 6, 7]]"],
            "625d6793df682f5a4a7e1e780a79b9e9e5c6fa3fe9211f7e52cc8685e96e26df"),
    "I": ("i", lambda K, H: K.order == 3 and H.order == 12, _bump,
          {"G2": 4, "G3": 4},
          ["H[o12:[0, 3, 4, 7]]", "H[o3:[0, 3, 4]]"],
          "ca938620f037016d0420bae7528c16f585764e7e791ac6641eead07f274c3d8f"),
    "c": ("c", lambda H, x: H.order == 8 and x == 5, _bump,
          {"G1": 3},
          ["H[o8:[0, 1, 6, 7]]", "x=5"],
          "f9a74737f5e6d0dc3356f51f305bb816dc7c143c72d2a1fab62445c4bf200fce"),
    "product": ("mul", lambda H: H.order == 6, _bump,
                {"ring": 8, "G1": 24, "G2": 24, "G3": 24},
                ["H[o6:[0, 1, 2, 3]]"],
                "573773369fc13ec178a44e1e47611e4134d7060e20e740d087edb62cac097d62"),
}


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
        which, when, change, failed, context, digest = GREEN_TAMPERS[name]
        fns = {k: getattr(char_s4, f"_{k}_fn") for k in ("r", "i", "c", "mul")}
        fns[which] = _tamper(fns[which], when, change)
        broken = mk.MackeyFamily(
            char_s4.ambient, char_s4.lattice, "tampered", char_s4._size_fn,
            fns["r"], fns["i"], fns["c"], mul_fn=fns["mul"],
            unit_fn=char_s4._unit_fn,
        )
        report = mk.verify_green_axioms(broken)
        assert {a: f for a, (_, f) in report.counts.items() if f} == failed
        assert {a: c for a, (c, _) in report.counts.items()} == {
            a: c for a, (c, _) in green_s4.counts.items()
        }
        data = report.to_json_dict()
        assert data["witnesses"][0]["context"] == context
        text = json.dumps(data, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestObservedProperties:
    def test_commutative_top_level_products(self, char_s3, equiv_ds3):
        for fam in (char_s3, equiv_ds3):
            t = fam.product_tensor(fam.lattice[-1])
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
