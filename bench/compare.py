"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that ``run.py --out`` appends.  For each
workload and metric the table shows each side's median and quartiles
over its runs and the change of the median.  An end-to-end metric whose
median worsened by more than its bound in BENCHMARK.json is flagged
WORSE, and the exit code is then 1.  Per-layer metrics have no bound
and are never flagged.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {metric: [values]}} and {workload: [failed, attempted]}."""
    values = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            result = record["result"]
            for name, metric in result["metrics"].items():
                values[record["workload"]][name].append(metric["value"])
            failures[record["workload"]][0] += result["failed"]
            failures[record["workload"]][1] += result["attempted"]
    return values, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (base, base_fail), (new, new_fail) = load(argv[0]), load(argv[1])
    worse = []
    for workload in sorted(set(base) | set(new)):
        bf, nf = base_fail[workload], new_fail[workload]
        print(f"{workload}: failed {bf[0]}/{bf[1]} -> {nf[0]}/{nf[1]}")
        if not (base[workload] and new[workload]):
            print("  runs on one side only")
            continue
        print(f"  {'metric':34s} {'base q1 / median / q3':>32s}   {'new q1 / median / q3':>32s}  change")
        for name in metrics:
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = quartiles(base[workload][name]), quartiles(new[workload][name])
            change = (n[1] - b[1]) / abs(b[1]) if b[1] else float("nan")
            m = metrics[name]
            flag = ""
            if "bound" in m:
                loss = change if m["better"] == "lower" else -change
                if loss > m["bound"]:
                    flag = f"  WORSE (bound {m['bound']:.0%})"
                    worse.append((workload, name))
            sides = ["{:10.4g} /{:10.4g} /{:10.4g}".format(*q) for q in (b, n)]
            print(f"  {name:34s} {sides[0]}   {sides[1]}  {change:+7.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
