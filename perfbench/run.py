"""The equifuse benchmark: cold CLI jobs, run one at a time, every output
checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one `equifuse` CLI invocation in a fresh worker process
(`worker.py`), because users pay cold caches on every invocation.  Jobs run
one after another from this process; nothing else runs beside them.  The
run keeps starting jobs while the next one is expected to end within
`--seconds` (at least `MIN_JOBS` jobs), then reports medians.

Seed 0 feeds the workload's preset as written.  Any other seed conjugates
every generator by a seeded relabelling of the points and hands the result
to the CLI as a group JSON file: the same mathematics with another element
order.

With `--trace 0` the last line of stdout reports the end-to-end metrics:
`wall_s` (worker spawn to exit), `setup_s` (spawn until `equifuse` is
imported and `cli.main` can be called; the median of `SETUP_PROBES`
import-only workers and every job) and `peak_rss_mb` (the worker's own
peak RSS from `os.wait4`).  With `--trace 1` it reports the per-layer
metrics of `tracing.py`; each traced job follows an untraced one, their
stdout must be byte-identical, and their wall times give the tracing
overhead.  A job that exits non-zero or fails the output check is counted
in `failed` and the run goes on.  `--workload all` runs every workload in
turn.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import pickle
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
MIN_JOBS = 3
RUN_DEADLINE_S = 170.0
# traced wall - setup - sum of layer self times: interpreter teardown and
# writing the spans, which no span covers
UNATTRIBUTED_TOLERANCE = (0.3, 0.05)  # seconds, share of the traced wall

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _layer_units() -> dict:
    units = {}
    for name in tracing.layer_metrics([], {}):
        if name.endswith(".calls"):
            units[name] = "count"
        elif name.endswith("hit_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "s"
    units.update({
        "mackey.checks": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
    })
    return units


PER_LAYER_UNITS = _layer_units()


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    generators: tuple  # the preset's generators, as image tuples
    kind: str  # "fusion" (ring JSON) or "verify" (axiom report)
    template: tuple  # CLI arguments; "{G}" stands for the group spec

    def argv(self, group_spec: str) -> list:
        return [a.replace("{G}", group_spec) for a in self.template]


def _dihedral(n: int) -> tuple:
    return ((*range(1, n), 0), tuple((n - i) % n for i in range(n)))


WORKLOADS = {w.name: w for w in (
    # fusion does nearly all the work: m_irr, the orbit-sum oracle and the
    # dense associativity einsums; no lattice, no mackey
    Workload("double-d10", "dihedral:10", _dihedral(10), "fusion",
             ("double", "{G}")),
    # mackey verifier self time (M3), the subgroup lattice and
    # double_coset_reps; fusion never runs
    Workload("mackey-a5", "alt:5",
             ((1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)), "verify",
             ("verify", "mackey", "--family", "char:{G}")),
    # Green ring einsums in mackey plus 16 small cold fusion engines
    # reached through the public fusion calls
    Workload("green-d6", "dihedral:6", _dihedral(6), "verify",
             ("verify", "green", "--family", "equiv:{G}:{G}:conjugation")),
)}
# a tiny job for the benchmark's own tests; not a workload
SELFTEST = Workload("double-s3", "sym:3", ((1, 0, 2), (1, 2, 0)), "fusion",
                    ("double", "{G}"))


# ---------------------------------------------------------------------------
# inputs


def relabelling(degree: int, seed: int) -> list:
    """A seeded permutation sigma of the points, never the identity."""
    rng = random.Random(seed)
    sigma = list(range(degree))
    while sigma == list(range(degree)):
        rng.shuffle(sigma)
    return sigma


def conjugate(generators, sigma) -> list:
    """Each generator g becomes sigma g sigma^-1."""
    out = []
    for g in generators:
        img = [0] * len(g)
        for i, gi in enumerate(g):
            img[sigma[i]] = sigma[gi]
        out.append(img)
    return out


def group_spec(wl: Workload, seed: int, workdir: Path) -> str:
    """The group argument for the CLI: the preset for seed 0, otherwise a
    group JSON file (path relative to the checkout root) with relabelled
    generators."""
    if seed == 0:
        return wl.preset
    degree = len(wl.generators[0])
    gens = conjugate(wl.generators, relabelling(degree, seed))
    path = workdir / f"{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({"degree": degree, "generators": gens}))
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# output check


def fingerprint(ring: dict) -> dict:
    """Relabelling-invariant summary of a fusion ring: label count, sorted
    dimensions and the multiset of structure constants N_ij^k."""
    counts = Counter(int(row[3]) for row in ring["constants"])
    return {
        "labels": len(ring["labels"]),
        "dims": sorted(int(lab["dim"]) for lab in ring["labels"]),
        "constants": {str(n): counts[n] for n in sorted(counts)},
    }


def make_reference(wl: Workload, out: bytes) -> dict:
    data = json.loads(out)
    if wl.kind == "fusion":
        return {"sha256_seed0": hashlib.sha256(out).hexdigest(),
                "fingerprint": fingerprint(data)}
    return {"axioms": sorted(a["id"] for a in data["axioms"])}


def check_output(wl: Workload, seed: int, rc: int, out: bytes, ref: dict):
    """None when the job's output is correct, else the reason it is not.

    Fusion rings: for seed 0 the stdout bytes match the recorded sha256; for
    every seed the relabelling-invariant fingerprint matches.  Verify
    reports: exit 0, no failed check, and every recorded axiom id present
    (`checked` counts are not compared, since proof reductions may lower
    them)."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        data = json.loads(out)
        if wl.kind == "fusion":
            if seed == 0 and hashlib.sha256(out).hexdigest() != ref["sha256_seed0"]:
                return "stdout differs from the recorded seed-0 bytes"
            if fingerprint(data) != ref["fingerprint"]:
                return "ring fingerprint differs from the reference"
            return None
        rows = data["axioms"]
        failed = sorted(r["id"] for r in rows if r["failed"])
        if failed:
            return f"axioms with failed checks: {failed}"
        missing = sorted(set(ref["axioms"]) - {r["id"] for r in rows})
        if missing:
            return f"axioms missing from the report: {missing}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def checked_count(wl: Workload, out: bytes) -> int:
    if wl.kind != "verify":
        return 0
    return sum(int(r["checked"]) for r in json.loads(out)["axioms"])


# ---------------------------------------------------------------------------
# jobs


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Job:
    rc: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    meta: dict | None


def run_job(mode: str, cli_args: list, workdir: Path, timeout: float) -> Job:
    """Spawn one worker, wait for it with `os.wait4` (its own rusage only)
    and kill it if it outlives `timeout` seconds."""
    meta_path = workdir / "meta.pkl"
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    meta_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(meta_path), mode, *cli_args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = _now()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    meta = None
    if meta_path.exists():
        with open(meta_path, "rb") as fh:
            meta = pickle.load(fh)
    return Job(
        rc=proc.returncode,
        wall_s=t1 - t0,
        setup_s=meta["ready"] - t0 if meta else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        meta=meta,
    )


class Run:
    """Jobs of one benchmark run, with their failures."""

    def __init__(self, wl: Workload, seed: int, seconds: float, workdir: Path, ref: dict):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.workdir, self.ref = workdir, ref
        self.argv = wl.argv(group_spec(wl, seed, workdir))
        self.start = _now()
        self.deadline = self.start + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def timeout(self) -> float:
        return self.deadline - _now()

    def fail(self, job: Job | None, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {self.wl.name} seed {self.seed}: {reason}", file=sys.stderr)
        if job is not None and job.stderr:
            tail = job.stderr.decode(errors="replace").strip().splitlines()[-5:]
            print("\n".join("  " + line for line in tail), file=sys.stderr)

    def job(self, mode: str) -> Job | None:
        """One checked job; None when it failed."""
        self.attempted += 1
        job = run_job(mode, self.argv, self.workdir, self.timeout())
        err = check_output(self.wl, self.seed, job.rc, job.stdout, self.ref)
        if err is None and job.meta is None:
            err = "worker wrote no timings"
        if err is not None:
            self.fail(job, err)
            return None
        return job

    def more(self, count: int, minimum: int, per_job: list) -> bool:
        """Start another job while fewer than `minimum` ran, or while the
        next one is expected to end within the run's seconds."""
        if self.timeout() <= 0:
            return False
        if count < minimum:
            return True
        if not per_job:
            return False
        return _now() - self.start + statistics.median(per_job) <= self.seconds


def measure(run: Run) -> dict:
    """End-to-end metrics, tracing off."""
    run_job("probe", [], run.workdir, run.timeout())  # fills the bytecode and file caches
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_job("probe", [], run.workdir, run.timeout())
        if probe.rc == 0 and probe.setup_s is not None:
            setups.append(probe.setup_s)
    run.start = _now()
    walls, rss = [], []
    while run.more(run.attempted, MIN_JOBS, walls):
        job = run.job("run")
        if job is None:
            continue
        walls.append(job.wall_s)
        rss.append(job.peak_rss_mb)
        setups.append(job.setup_s)
    if not walls:
        return {}
    print(f"# {len(walls)} jobs; wall_s min {min(walls):.4f} max {max(walls):.4f}; "
          f"{len(setups)} setup samples")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(run: Run) -> dict:
    """Per-layer metrics from traced jobs, each paired with an untraced job
    of the same input."""
    samples, pair_walls = [], []
    while run.more(len(pair_walls), 1, pair_walls):
        pair_start = _now()
        plain = run.job("run")
        traced = run.job("trace")
        pair_walls.append(_now() - pair_start)
        if plain is None or traced is None:
            continue
        if traced.stdout != plain.stdout:
            run.fail(traced, "traced stdout differs from untraced stdout")
            continue
        m = tracing.layer_metrics(traced.meta["spans"], traced.meta["hits"])
        attributed = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        m["trace.unattributed_s"] = traced.wall_s - traced.setup_s - attributed
        abs_tol, rel_tol = UNATTRIBUTED_TOLERANCE
        if abs(m["trace.unattributed_s"]) > max(abs_tol, rel_tol * traced.wall_s):
            run.fail(traced, f"layer self times leave {m['trace.unattributed_s']:.3f} s "
                             "of the traced wall unattributed")
            continue
        m["mackey.checks"] = checked_count(run.wl, traced.stdout)
        m["trace.wall_s"] = traced.wall_s
        m["trace.untraced_wall_s"] = plain.wall_s
        m["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
        samples.append(m)
    if not samples:
        return {}
    print(f"# {len(samples)} traced/untraced job pairs")
    return {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            s[name] for s in samples)
        for name, unit in PER_LAYER_UNITS.items()
    }


# ---------------------------------------------------------------------------
# entry point


def machine_facts() -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    numba = "present" if importlib.util.find_spec("numba") else "absent"
    ram_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    return (f"# machine: nproc {os.cpu_count()}, RAM {ram_mb} MiB, "
            f"Python {sys.version.split()[0]}, numpy {numpy}, numba {numba}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, ref: dict):
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{os.getpid()}-{wl.name}"
    workdir.mkdir()
    try:
        run = Run(wl, seed, seconds, workdir, ref)
        metrics = measure_traced(run) if trace else measure(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"# {wl.name} seed {seed} trace {int(trace)}: "
          f"{run.attempted} jobs attempted, {run.failed} failed")
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    if not trace:
        rate = run.failed / run.attempted if run.attempted else 1.0
        print(f"{wl.name} error_rate {rate:.6g} ratio")
    return run, {name: {"value": metrics[name], "unit": units[name]} for name in metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "equifuse" / "cli.py").is_file():
        print(f"error: no equifuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    print(machine_facts())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, m = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), references[name])
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    expected = len(names) * len(PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)
    correct = attempted > 0 and failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
