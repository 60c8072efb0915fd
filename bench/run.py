"""Benchmark of the scmodes circuit-to-spectrum pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs whole rounds of one workload (see workloads.py), each in a fresh
worker process, until the next round would end after S seconds; at
least one round runs.  Every round is checked.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones:

    setup_s      process start to the first timed operation (median)
    run_s        wall time of one round, tracing off (median)
    peak_rss_mb  peak resident memory of the worker processes (largest)

With --trace 1 rounds alternate between untraced and traced workers,
and the metrics are the per-layer figures (medians over the traced
rounds) plus trace.overhead_s, the traced minus the untraced median
run_s.  Spans are written to bench/out/.

--workload all runs every workload in turn and prints a summary line.
--out FILE appends each result to FILE as one JSON line, for
compare.py.  Workers run with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prep-fs-adaptive", "none-converge", "cpb-dense")

# Every run, with all its rounds, ends within this many seconds.
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _worker_env():
    # One BLAS thread: on 2 shared CPUs a second thread made ARPACK solves
    # about twice as slow and less steady.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _round(workload, seed, traced, trace_out, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} round did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("READY "):
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = float(lines[0].split()[1]) - started
    record["wall_s"] = time.monotonic() - started
    record["traced"] = traced
    return record


def _median(values):
    """The median; of counts, the lower middle value, so that a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_workload(workload, seed, seconds, trace):
    """Rounds until the next would end after ``seconds``; the aggregated result."""
    env = _worker_env()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    start = time.monotonic()
    rounds = []
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        trace_out = out_dir / f"trace-{workload}-seed{seed}-round{len(rounds)}.json"
        rounds.append(_round(workload, seed, traced, trace_out, env, remaining))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        both_kinds = not trace or len(rounds) >= 2
        if both_kinds and elapsed + typical > seconds:
            break

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if trace:
        metrics = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain)
        )
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "run_s": statistics.median(r["run_s"] for r in plain),
            # A process's peak moves by ~35 MB on cpb-dense with the host's
            # memory state; the largest of the rounds' peaks is steady.
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
    units = _units()
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }, {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "run_s_rounds": [r["run_s"] for r in plain],
        "setup_s_rounds": [r["setup_s"] for r in plain],
        "peak_rss_mb_rounds": [r["peak_rss_mb"] for r in plain],
        **rounds[0]["environment"],
    }


def _report(workload, seed, trace, result, info):
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {info['rounds']}"
          f"  attempted {result['attempted']}  failed {result['failed']}"
          f"  correct {str(result['correct']).lower()}")
    print(f"  cpus {info['cpus']}  blas {info['blas']}  threads {info['blas_threads']}"
          f"  numpy {info['numpy']}  scipy {info['scipy']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append results to this JSON-lines file")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, info = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                     "seconds": args.seconds, "info": info, "result": result}) + "\n")
        _report(name, args.seed, args.trace, result, info)
        results[name] = result
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
