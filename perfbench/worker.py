"""One cold `equifuse` CLI job in its own process.

    python3 perfbench/worker.py META MODE [CLI ARGS...]

MODE is `probe` (import only), `run` or `trace`.  The worker imports the
package from the checkout's `src/`, notes when it is ready to call
`cli.main`, runs the job with its stdout going to the worker's stdout, and
writes a pickle to META with the ready and end times on the system-wide
monotonic clock (and, when traced, the spans).  It exits with the CLI's
exit code.
"""

import pickle
import sys
import time
from pathlib import Path


def main() -> int:
    meta_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from equifuse import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.install()
    rc = 0
    if mode != "probe":
        rc = cli.main(cli_args)
        sys.stdout.flush()
    meta = {"ready": ready, "end": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if tracer is not None:
        meta["spans"] = tracer.spans
        meta["hits"] = dict(tracer.hits)
    with open(meta_path, "wb") as fh:
        pickle.dump(meta, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return rc


if __name__ == "__main__":
    sys.exit(main())
