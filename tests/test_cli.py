"""Command-line front end: JSON/CSV emission, exit codes, determinism."""

import hashlib
import json
import resource
import subprocess
import sys

import pytest

from equifuse import fusion
from equifuse.cli import main
from equifuse.permgrp import Group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupCommand:
    def test_emits_reloadable_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "group", "sym:3")
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 3 and data["order"] == 6
        assert [c["size"] for c in data["classes"]] == [1, 3, 2]
        # the emitted file is valid group-input JSON
        path = tmp_path / "g.json"
        path.write_text(out)
        code2, out2, _ = run(capsys, "group", str(path))
        assert code2 == 0 and json.loads(out2)["order"] == 6


class TestChartable:
    def test_s3(self, capsys):
        code, out, _ = run(capsys, "chartable", "sym:3")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 6
        assert data["prime"] == 223
        assert data["degrees"] == [1, 1, 2]
        assert data["rows_mod_p"][0] == [1, 1, 1]
        assert [c["size"] for c in data["classes"]] == [1, 3, 2]

    def test_verbose_prints_lift(self, capsys):
        code, out, err = run(capsys, "chartable", "sym:3", "-v")
        assert code == 0
        assert "z3" in err

    @pytest.mark.parametrize("argv, digest", [
        ("chartable sym:4 -v",
         "57093e237b7b02c295e5ce9ed90daca1a86e8d29d14fe755dba594b1b942cd3e"),
        ("chartable dihedral:6 --prime-override 2147484061 -v",
         "8e13bcf96e75f51b23ff995a30a0281323281efc7cb143b8192582e98a5a2b1e"),
    ])
    def test_pinned_lift(self, capsys, argv, digest):
        # recorded when make_context found the primitive root eagerly
        code, _, err = run(capsys, *argv.split())
        assert code == 0
        assert _sha256(err) == digest

    def test_verbose_with_a_61_bit_prime_override_finishes(self):
        # p - 1 = 6 q with q a 58-bit prime: the lift's primitive root needs
        # p - 1 factored, which trial division up to sqrt(p - 1) never did
        cmd = [sys.executable, "-m", "equifuse", "chartable", "sym:3", "-v",
               "--prime-override", "1729382256910273363"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "z3 + z3^2" in done.stderr

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run(capsys, "chartable", "cyclic:4", "--table", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["prime"] == 73


class TestDouble:
    def test_trivial_ring(self, capsys):
        code, out, _ = run(capsys, "double", "cyclic:1")
        assert code == 0
        data = json.loads(out)
        assert len(data["labels"]) == 1
        assert data["constants"] == [[0, 0, 0, 1]]
        assert data["checks"] == {
            "associative": True,
            "dim_hom": True,
            "matches_M_form": True,
        }

    def test_sym3(self, capsys):
        code, out, _ = run(capsys, "double", "sym:3")
        data = json.loads(out)
        assert code == 0
        assert len(data["labels"]) == 8
        assert all(data["checks"].values())
        assert sorted(l["dim"] for l in data["labels"]) == [1, 1, 2, 2, 2, 2, 3, 3]

    def test_csv_z2(self, capsys):
        code, out, _ = run(capsys, "double", "cyclic:2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,j,k,N"
        assert len(lines) == 17
        assert all(line.endswith(",1") for line in lines[1:])
        assert out.endswith("\n")

    def test_csv_matches_json_constants(self, capsys):
        _, json_out, _ = run(capsys, "double", "sym:3")
        _, csv_out, _ = run(capsys, "double", "sym:3", "--format", "csv")
        from_json = {tuple(row) for row in json.loads(json_out)["constants"]}
        from_csv = {
            tuple(int(v) for v in line.split(","))
            for line in csv_out.splitlines()[1:]
        }
        assert from_json == from_csv

    def test_csv_dimension_identity(self, capsys):
        _, json_out, _ = run(capsys, "double", "sym:3")
        data = json.loads(json_out)
        dims = [l["dim"] for l in data["labels"]]
        sums = {}
        for i, j, k, n in data["constants"]:
            sums[(i, j)] = sums.get((i, j), 0) + n * dims[k]
        for (i, j), total in sums.items():
            assert total == dims[i] * dims[j]


class TestFuse:
    def test_conjugation_with_subgroup(self, capsys):
        code, out, _ = run(
            capsys,
            "fuse", "--F", "sym:3", "--G", "sym:3", "--action", "conjugation",
            "--subgroup", "(0 1 2)",
        )
        assert code == 0
        assert len(json.loads(out)["labels"]) == 10

    def test_action_file(self, capsys, tmp_path):
        z3_inv = [0, 2, 1]
        path = tmp_path / "act.json"
        path.write_text(
            json.dumps(
                {"actor": "cyclic:2", "target": "cyclic:3", "images": {"0": z3_inv}}
            )
        )
        code, out, _ = run(capsys, "fuse", "--action", str(path))
        assert code == 0
        assert sorted(l["dim"] for l in json.loads(out)["labels"]) == [1, 1, 2]

    @pytest.mark.parametrize("data", [
        pytest.param([1, 2], id="list"),
        pytest.param(None, id="null"),
        pytest.param("conjugation", id="conjugation-without-a-group"),
        pytest.param({"actor": "sym:3", "target": "sym:3",
                      "images": {"0": [0, 1, 2], "1": [0, 1, 2, 3, 4, 5]}}, id="short-row"),
        pytest.param({"actor": "sym:3", "target": "sym:3",
                      "images": {"0": [0, 1, 2, 3, 4, 5, 7, 7], "1": [0, 1, 2, 3, 4, 5]}},
                     id="long-row"),
        pytest.param({"actor": "sym:3", "target": "sym:3",
                      "images": {"0": [0, 1.5, 2, 3, 4, 5], "1": [0, 1, 2, 3, 4, 5]}},
                     id="float-row"),
    ])
    def test_malformed_action_file_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "act.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "fuse", "--action", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "InvalidInput"

    def test_conjugation_string_file_uses_the_given_group(self, capsys, tmp_path):
        path = tmp_path / "act.json"
        path.write_text(json.dumps("conjugation"))
        code, out, _ = run(capsys, "fuse", "--F", "sym:3", "--action", str(path))
        assert code == 0
        assert len(json.loads(out)["labels"]) == 8
        code, _, err = run(
            capsys, "fuse", "--F", "sym:3", "--G", "cyclic:2", "--action", str(path)
        )
        assert code == 2
        assert json.loads(err)["message"] == "conjugation requires actor = target"

    def test_conjigation_mismatched_groups(self, capsys):
        code, _, err = run(
            capsys, "fuse", "--F", "sym:3", "--G", "cyclic:2", "--action", "conjugation"
        )
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_mackey_char(self, capsys):
        code, out, _ = run(capsys, "verify", "mackey", "--family", "char:sym:3")
        assert code == 0
        data = json.loads(out)
        assert all(row["failed"] == 0 for row in data["axioms"])
        assert {row["id"] for row in data["axioms"]} == {
            "M0", "M1", "M2", "M3", "M4", "M4rel", "Mc",
        }

    def test_green_equiv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "green", "--family", "equiv:sym:3:sym:3:conjugation"
        )
        assert code == 0
        assert all(r["failed"] == 0 for r in json.loads(out)["axioms"])

    def test_bad_family_spec(self, capsys):
        code, _, err = run(capsys, "verify", "mackey", "--family", "bogus:sym:3")
        assert code == 2

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        from equifuse import cli as cli_mod
        from equifuse.reports import AxiomReport

        def failing(fam):
            report = AxiomReport(title="forced failure")
            report.record("M4", False, ("H", "K"), "forced", [1], [2])
            return report

        monkeypatch.setattr(cli_mod.mackey, "verify_mackey_axioms", failing)
        code, out, _ = run(capsys, "verify", "mackey", "--family", "char:sym:3")
        assert code == 1
        data = json.loads(out)
        assert data["axioms"][0]["failed"] == 1
        assert data["witnesses"][0]["axiom"] == "M4"


class TestScenario:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "scenario", "list")
        assert code == 0
        rows = json.loads(out)
        assert any(
            r["scenario"] == "double:sym:3" and r["expected_labels"] == 8
            for r in rows
        )


class TestErrorsAndExitCodes:
    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "group", "nosuch:9")
        assert code == 2
        assert json.loads(err.strip())["error"] == "UnknownPreset"

    def test_bad_prime_override(self, capsys):
        code, _, err = run(capsys, "chartable", "cyclic:4", "--prime-override", "74")
        assert code == 2
        assert json.loads(err.strip())["error"] == "InvalidPrime"

    def test_prime_override_past_2_62(self, capsys):
        # 4611686018427388073 is prime, = 1 mod 4 and at least 2**62: the
        # residue kernels are exact in int64 only below 2**62
        code, _, err = run(
            capsys, "chartable", "cyclic:4", "--prime-override", "4611686018427388073"
        )
        assert code == 2
        assert json.loads(err.strip())["error"] == "InvalidPrime"

    def test_good_prime_override(self, capsys):
        code, out, _ = run(capsys, "chartable", "cyclic:4", "--prime-override", "89")
        assert code == 0
        assert json.loads(out)["prime"] == 89

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_order_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIFUSE_CAP_ORDER", "5")
        code, _, err = run(capsys, "group", "sym:3")
        assert code == 2
        assert json.loads(err.strip())["error"] == "OrderCapExceeded"

    def test_unwritable_table_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "group", "sym:3", "--table", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_bad_table_path_fails_before_the_work(self, capsys, tmp_path, monkeypatch):
        def never(*_args):
            raise AssertionError("the ring was computed for an unwritable path")

        monkeypatch.setattr(fusion, "fusion_ring", never)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "double", "sym:4", "--table", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_memory_error_exits_2(self):
        # chartable cyclic:1291 keeps k - 1 dense k x k class matrices
        # (k = 1291, 12.7 MiB each), which run out of a 1 GiB address-space
        # limit, which only the child process gets, after about 0.5 s
        def lower_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        cmd = [sys.executable, "-m", "equifuse", "chartable", "cyclic:1291"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              preexec_fn=lower_address_space)
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert json.loads(line)["error"] == "MemoryError"


class TestRowsOnly:
    """Every verb keeps elements as int32 rows: with `Group.elements` (the
    elements as Perms) patched to raise, each prints what it prints
    unpatched."""

    @pytest.mark.parametrize("argv", [
        ["group", "sym:4"],
        ["chartable", "dihedral:6", "-v"],
        ["double", "sym:3"],
        ["double", "sym:3", "--format", "csv"],
        ["fuse", "--F", "sym:4", "--action", "conjugation", "--subgroup", "(0 1 2 3)"],
        ["verify", "mackey", "--family", "char:sym:3"],
        ["verify", "green", "--family", "equiv:sym:3:sym:3:conjugation"],
        ["scenario", "list"],
    ], ids=lambda argv: "_".join(argv))
    def test_no_verb_reads_elements(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        assert expected[0] == 0

        def refuse(group):
            raise AssertionError("Group.elements was read")

        monkeypatch.setattr(Group, "elements", property(refuse))
        assert run(capsys, *argv) == expected


class TestDeterminism:
    def test_rerun_and_jobs_byte_identical(self, capsys):
        outs = set()
        for argv in (
            ["double", "sym:3", "--jobs", "1"],
            ["double", "sym:3", "--jobs", "8"],
            ["double", "sym:3"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_fresh_process_identical(self):
        cmd = [sys.executable, "-m", "equifuse", "double", "cyclic:3", "--table", "-"]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["double", "dihedral:10"],
        ["verify", "mackey", "--family", "char:alt:5"],
        ["verify", "green", "--family", "equiv:dihedral:6:dihedral:6:conjugation"],
    ], ids=["double-d10", "mackey-a5", "green-d6"])
    def test_benchmark_workloads_do_not_import_numpy_ma(self, argv):
        # np.unique and np.union1d import numpy.ma on first use, over a MiB
        # of resident memory for masked arrays that nothing here uses
        code = (
            "import sys; from equifuse.cli import main; rc = main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules, file=sys.stderr); sys.exit(rc)"
        )
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stderr.splitlines()[-1] == "False"


# D4 acting on C4 through D4 -> Aut(C4) = Z2 (rotations fix C4, reflections
# invert it): a coherent datum that is not a double
D4_ON_C4 = {"actor": "dihedral:4", "target": "cyclic:4",
            "images": {"0": [0, 1, 2, 3], "1": [0, 3, 2, 1]}}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned(*cases):
    """Parametrize (argv, digests) over "command line | stdout sha256" cases;
    a `verify green` case adds " | sha256" of the same stdout with the
    report rows' "mode" keys taken out."""
    return pytest.mark.parametrize("argv, digests", [
        pytest.param(cmd.split(), digests, id=cmd.replace(" ", "_"))
        for cmd, *digests in (case.split(" | ") for case in cases)
    ])


def _check_pinned(out, digests):
    """The stdout digest, and for a `verify green` report also the digest
    with its rows' modes taken out: the one recorded before they had modes."""
    assert _sha256(out) == digests[0]
    if len(digests) > 1:
        data = json.loads(out)
        for row in data["axioms"]:
            del row["mode"]
        assert _sha256(json.dumps(data, indent=2) + "\n") == digests[1]


class TestPinnedOutput:
    """stdout sha256 recorded from the per-irreducible induce/decompose
    product path and (for `verify mackey`) the one-pair-at-a-time M3 loop,
    so any change to the local products or the verifier shows byte for
    byte.  The `verify mackey` digests were re-recorded when the report
    gained the Mc row and per-axiom modes and M4 went to class
    representatives; every row still reads failed 0.  The `verify green`
    digests were re-recorded when its rows gained modes; the digest each
    had before is kept second, and the same report with the modes taken
    out still matches it."""

    @_pinned(
        "double sym:4 | 2d01900a5eed97abaf6c1f89e40d062f3e8590c9d1002471c79eb86b9681cd0e",
        "double dihedral:6 | 4be7cc05737cd369357a8f952952bfa9f6e64dd34c99dc022347a0d712ce2e64",
        "verify green --family char:sym:4"
        " | 2038785be2ed5c401263445cf1fc141906f93277682fcb74d057530c75d196dd"
        " | 8f0907167aa952b088220e9af83a1ba18bd11f8b26dde0d734bf4b477f2cf450",
        "verify mackey --family char:alt:5"
        " | 565ce655a5a5f1f837799066bf82d9d992150f42fdb326b7ca3454eaa0f0c8a5",
        # recorded when every c_{H,x} was a dense (n, n) int64 matrix, M3,
        # Mc and M4 multiplied them and G1 checked them as float64 stacks
        "verify mackey --family char:dihedral:30"
        " | ebf0da7f031224a2375bed0e29e7b51f7cc0a63a359ca48c73625cab5041c8a7",
        "verify green --family char:dihedral:30"
        " | 38843b3f8720b8d02a22eb052a9bbdfcf38ce8bff0602299736a85cd93776d17"
        " | 5876e2fd6c45088cf9ed784dabf0cf80fb5f01100ca8b3f4868216f9baac2fe9",
        "verify mackey --family equiv:dihedral:6:dihedral:6:conjugation"
        " | cbcbd32a8c8b479d4ea650823b7f40ccf3a29472b1c4ae14c2791fae572b356f",
        # recorded when the equivariant family built R, I and c one simple
        # at a time through eq_restrict/eq_induce/eq_conjugate
        "verify green --family equiv:dihedral:6:dihedral:6:conjugation"
        " | e3c2308f2ab4c4d7fff7004a1375109d8c886d43e2b4fd5ae0aa57473092b19b"
        " | f712e49d29807bafa5698dc2d992cd851c33517f67f479832bc9a6b906a11257",
        "verify green --family equiv:sym:4:sym:4:conjugation"
        " | c03d20c1999d96f8523430fe7a452649d6be2efcc764ce4a5097f5fe549e96aa"
        " | 69cce0e01e5b6faf98fa62a3b6732bc1de713675ba58f3ec130275d6851ce87c",
        "verify mackey --family equiv:sym:4:sym:4:conjugation"
        " | 2fdbddc8cf98a7ad64a22d3532c852bf584f411bc6ed08d54d51b9541e5ff7b4",
        # recorded when character tables split eigenspaces over rounds of
        # random combinations, finding roots by a scan of F_p for p <= 4096
        "chartable sym:3"
        " | 32b518fe2915532b3eff952f7e095f6352ccb115afe582635c64911f071697ce",
        "chartable klein4"
        " | 597d1f57f101918d82eb985d1e2d8f2a5a59086d8c7b5b730c7e5cfe7015f9e0",
        "chartable quaternion8"
        " | 2669c4c1ff2698498e0dfcd7d5709322f4483b62d9963377bcabf1683ec0c353",
        "chartable dihedral:6"
        " | 4aa27724057208972fbb94be7b4e60faebb9456ff0c7f6272818b9109a8b0fec",
        "chartable cyclic:12"
        " | 4367a12d933d0dfe9887744a47c10b0d95e8b5e3db400377d91760503b349945",
        "chartable sym:4"
        " | 1b0a1185df0f6666a17b124268b35453a7abe840efc075d805068a988c1c47f4",
        "chartable dihedral:10"
        " | 16125441c639c3a4ecabf2ceddb24f832f5f7dba9d89e62bbd1f40b27f89a5cb",
        "chartable alt:5"
        " | dd76d7300c4b777784210b5dbc32caef8eb6e4276d3c68265ecd31eaf4e0ec87",
        "chartable sym:5"
        " | e4a5f67b724693ef388026aad4e4188f481243682e864e9b818232fb4a527928",
        "chartable sym:6"
        " | 0ed290e4cf1994cf280b6bda2d46ff6e1ba9de5bb2f861d7a69d6d5e44bf94ed",
        "chartable cyclic:60"
        " | 04f9fbdb7d6d4f716be6fa2933348ce2159fa8a64c6e3f31fd266f0e38be644f",
        # the benchmark's double-d10 workload at seed 0; the JSON digest is
        # the one in perfbench/references.json
        "double dihedral:10"
        " | 48ecdeac75a86dec1ffa09cbc32b21d7625db9eeddb76afaa6adfcaff33e1738",
        "double dihedral:10 --format csv"
        " | 16a8a6e8eb0861c05d86519c286d83c45bc87e1543c6aab69e8076035f1772d8",
        # recorded when the ring writer printed a whole list of constant
        # rows through json.dumps and one str per CSV row
        "double dihedral:12"
        " | c0ba5c5fb0f0b9af45376b03c1a9b875b3d7c9429bd55e9ef26f236f7227a1bc",
        "double sym:4 --format csv"
        " | e973c5c3da8876c054d59c0e4cc80a237743029c2fa6290d30f0aae5beebde14",
    )
    def test_stdout(self, capsys, argv, digests):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        _check_pinned(out, digests)

    def test_fuse_csv_over_a_cyclic_subgroup(self, capsys):
        # recorded with the writers of the pins above
        code, out, _ = run(capsys, "fuse", "--F", "sym:4", "--action", "conjugation",
                           "--subgroup", "(0 1 2 3)", "--format", "csv")
        assert code == 0
        assert _sha256(out) == (
            "7c35f82d92971c3729a2e68ba5a60d5676ee9d3b43e670a517cc5010ba8e7c11"
        )

    def test_mackey_on_moved_s4(self, capsys, tmp_path, s4_moved_json):
        # S4 numbered in another element order; recorded with the double
        # cosets of each L found by a scan of L.group(), re-recorded with
        # the Mc row and M4 at class representatives
        path = tmp_path / "s4_moved.json"
        path.write_text(json.dumps(s4_moved_json))
        code, out, _ = run(capsys, "verify", "mackey", "--family", f"char:{path}")
        assert code == 0
        assert _sha256(out) == (
            "e3a0258df89de6ce536bfbf9e757936371a005da190637ea5852fed76579e345"
        )

    def test_fuse_on_action_file(self, capsys, tmp_path):
        path = tmp_path / "d4_on_c4.json"
        path.write_text(json.dumps(D4_ON_C4))
        code, out, _ = run(capsys, "fuse", "--action", str(path))
        assert code == 0
        assert _sha256(out) == (
            "02d31ad21bab2e80b7f229bd50c2ec6879799a0bc78ba25567f45de9b1d51119"
        )


class TestLargePrimes:
    """Primes whose residues span several limbs: past 2**31 a product of two
    residues passes 2**62 (`_kernels.mul_mod` takes it in limbs), and k (p -
    1)**2 >= 2**53 splits a matrix product (`_kernels.matmul_mod`), as on
    `dihedral:120` (k = 63, p = 13,824,121) at its own prime.  The first
    seven digests come from the per-irreducible path, like those of
    TestPinnedOutput; those from `dihedral:120` on were recorded when
    residue products past those bounds ran on Python ints in object
    arrays."""

    @_pinned(
        "double alt:4 --prime-override 2147484061"
        " | 3a47c2df7e0dcc22ea3d2d6d6f916f624f24123ee70ace01319e4e346b78af35",
        "double alt:4 --prime-override 1099511628781"
        " | 3a47c2df7e0dcc22ea3d2d6d6f916f624f24123ee70ace01319e4e346b78af35",
        "double cyclic:5 --prime-override 2147484061"
        " | df6ecf43d8d955a6318b2b68d1fc5a9f8337929814727922cb285367104bb87c",
        "double cyclic:5 --prime-override 1099511628781"
        " | a12b2fe4551a2233650430076314948070445c52eebc7088cd0917e98bfff859",
        "double sym:3 --prime-override 2147483659"
        " | 1c23e4f925e2b67a49ac8af7b457928f7a80c2177c14c7043e5d2b3473ee79ae",
        # recorded when character tables split eigenspaces over rounds
        "chartable alt:4 --prime-override 1099511628781"
        " | 180fae1681b753a88c8348b18d5db2568dc3e5043012308b1a5568d3cec8de73",
        "chartable sym:4 --prime-override 2147484061"
        " | 5a8bd2ad253b1c2e440506bb52ba0c31c8ab1a2fb2e1caa71c0f0992138a9421",
        "chartable dihedral:120"
        " | ed02e3667a0b8b7a2eb7b02de2b2cd7aa03e3d3f29e0b2e36c04e45a32577d16",
        "chartable cyclic:40 --prime-override 2147484041"
        " | 1b35bf2fe19f97af525d1da6f28427509ab9afcf799353a67e182575120a6642",
        "chartable cyclic:40 --prime-override 2305843009213695001"
        " | 0b9f921f11f3ecae260615bd8ce8f6822f80f2e016fdbb698ab36b0289e69432",
    )
    def test_stdout(self, capsys, argv, digests):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        _check_pinned(out, digests)
