"""Self-tests of the benchmark: `python3 -m pytest perfbench -q`."""

import json
import os
import shutil
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))

from equifuse import presets  # noqa: E402

REFS = json.loads(run.REFERENCES.read_text())


@pytest.fixture
def workdir():
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


def _job(wl, seed, workdir, mode="run"):
    return run.run_job(mode, wl.argv(run.group_spec(wl, seed, workdir)), workdir, 60)


def _corrupt(out: bytes) -> bytes:
    data = json.loads(out)
    data["constants"][0][3] += 1
    return (json.dumps(data, indent=2) + "\n").encode()


@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_double_passes_the_check(workdir, seed):
    """Seed 1 runs on a relabelled group file; its fingerprint check also
    compares the label count with the preset's."""
    assert run.group_spec(run.SELFTEST, seed, workdir).endswith(".json") == bool(seed)
    job = _job(run.SELFTEST, seed, workdir)
    assert run.check_output(run.SELFTEST, seed, job.rc, job.stdout, REFS["double-s3"]) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_corrupted_constant_counts_as_an_error(workdir, seed, monkeypatch):
    good = _job(run.SELFTEST, seed, workdir)
    bad = run.Job(**{**vars(good), "stdout": _corrupt(good.stdout)})
    assert run.check_output(run.SELFTEST, seed, bad.rc, bad.stdout, REFS["double-s3"])

    monkeypatch.setattr(run, "run_job", lambda *args: bad)
    bench = run.Run(run.SELFTEST, seed, 1.0, workdir, REFS["double-s3"])
    assert bench.job("run") is None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_failed_axiom_and_missing_axiom_count_as_errors():
    wl = run.WORKLOADS["mackey-a5"]
    ref = REFS["mackey-a5"]
    rows = [{"id": a, "checked": 1, "failed": 0} for a in ref["axioms"]]
    ok = json.dumps({"axioms": rows}).encode()
    assert run.check_output(wl, 3, 0, ok, ref) is None
    assert run.check_output(wl, 3, 1, ok, ref) == "exit code 1"
    failing = json.dumps({"axioms": [{**rows[0], "failed": 1}, *rows[1:]]}).encode()
    assert "failed checks" in run.check_output(wl, 3, 0, failing, ref)
    missing = json.dumps({"axioms": rows[1:]}).encode()
    assert "missing" in run.check_output(wl, 3, 0, missing, ref)


@pytest.mark.parametrize("wl", [*run.WORKLOADS.values(), run.SELFTEST], ids=lambda w: w.name)
def test_generator_tables_are_the_presets(wl):
    assert [list(g.images) for g in presets.group_preset(wl.preset).generators] == [
        list(g) for g in wl.generators
    ]


@pytest.mark.parametrize("wl", [*run.WORKLOADS.values(), run.SELFTEST], ids=lambda w: w.name)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_relabelling_is_a_conjugation(wl, seed):
    degree = len(wl.generators[0])
    sigma = run.relabelling(degree, seed)
    assert sorted(sigma) == list(range(degree)) and sigma != list(range(degree))
    gens = run.conjugate(wl.generators, sigma)
    for g, h in zip(wl.generators, gens):
        assert all(h[sigma[i]] == sigma[g[i]] for i in range(degree))
    relabelled = presets.group_from_json_dict({"degree": degree, "generators": gens})
    assert relabelled.order == presets.group_preset(wl.preset).order


def test_traced_job_spans_partition_the_cli_call(workdir):
    plain = _job(run.SELFTEST, 0, workdir)
    traced = _job(run.SELFTEST, 0, workdir, mode="trace")
    assert traced.stdout == plain.stdout
    spans = traced.meta["spans"]
    assert spans[0][0] == "cli.main" and spans[0][1] == -1
    assert all(parent >= 0 for _, parent, _, _ in spans[1:])
    m = tracing.layer_metrics(spans, traced.meta["hits"])
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(spans[0][3] - spans[0][2], abs=1e-6)
    assert m["fusion.fuse_pair.calls"] == len(json.loads(plain.stdout)["labels"]) ** 2


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
