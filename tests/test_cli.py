"""Command-line front end: JSON/CSV emission, exit codes, determinism."""

import json
import subprocess
import sys

from equifuse import fusion
from equifuse.cli import main


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
            "M0", "M1", "M2", "M3", "M4", "M4rel",
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
