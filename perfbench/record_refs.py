"""Record the output references the benchmark checks against.

    python3 perfbench/record_refs.py

Runs every workload, and the self-test job, once at seed 0 and rewrites
`references.json`.  Only run it at a commit whose output is known good:
the references are what later commits are checked against.
"""

import json
import shutil
import sys

import run


def main() -> int:
    workdir = run.WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for wl in (*run.WORKLOADS.values(), run.SELFTEST):
            job = run.run_job("run", wl.argv(wl.preset), workdir, run.RUN_DEADLINE_S)
            if job.rc != 0:
                print(f"{wl.name}: exit code {job.rc}", file=sys.stderr)
                return 1
            refs[wl.name] = run.make_reference(wl, job.stdout)
            print(f"{wl.name}: {job.wall_s:.2f} s")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
