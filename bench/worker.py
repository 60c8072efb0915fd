"""One round of one workload, in a process of its own.

Started by run.py.  Imports scmodes from the checkout's ``src``, makes the
workload's inputs, prints ``READY <time.monotonic()>`` just before the
first timed operation, runs one timed round, checks it, and prints one
JSON line with the round's figures.  With ``--trace 1`` the round runs
with spans around every layer and the line carries the per-layer
figures; the spans go to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def _import_scmodes():
    sys.path.insert(0, str(SRC))
    import scmodes

    if not pathlib.Path(scmodes.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"scmodes imported from {scmodes.__file__}, not from {SRC}")


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    _import_scmodes()
    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload](str(ROOT), args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload.setup(workdir)
        if args.trace:
            import layers
            from spans import Tracer, patched

            tracer, rec = Tracer(), layers.Recorder()
        print(f"READY {time.monotonic()!r}", flush=True)

        start = time.perf_counter()
        if args.trace:
            with patched(layers.instrument(tracer, rec)):
                outputs = workload.run()
        else:
            outputs = workload.run()
        run_s = time.perf_counter() - start
        # before the checks, whose reference matrices would count otherwise
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = True
        try:
            workload.check(outputs)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        except Exception:  # output the checks cannot read is wrong output
            traceback.print_exc(file=sys.stderr)
            correct = False

    record = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outputs),
        "failed": sum(1 for o in outputs if o is None),
        "correct": correct,
        "environment": _environment(),
    }
    if args.trace:
        record["layers"] = {**layers.layer_metrics(tracer, rec), **layers.kernel_metrics(rec)}
        if args.trace_out:
            tracer.write(args.trace_out, origin=start)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
