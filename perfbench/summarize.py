"""Pool the records of several runs and check their spread against the bounds.

    python3 perfbench/summarize.py [perfbench/out/*-trace0.json ...]

For each workload and end-to-end metric it prints the median of the run
medians, their spread (Q3 - Q1 as a share of the median, from
statistics.quantiles(values, n=4)) against the metric's bound in
BENCHMARK.json, and the median and tail percentile of all rounds pooled.
Traced records print the median of each nonzero per-layer metric.  Exits 1
when a spread other than setup_s's exceeds a third of its bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

import run


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(paths: list[str]) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    records = defaultdict(list)
    for path in paths or sorted(glob.glob(os.path.join(run.OUT, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        env = record["environment"]
        records[(env["workload"], env["trace"])].append(record)

    too_wide = 0
    for (workload, traced), group in sorted(records.items()):
        seeds = sorted(r["environment"]["seed"] for r in group)
        failed = sum(r["summary"]["failed"] for r in group)
        attempted = sum(r["summary"]["attempted"] for r in group)
        loaded = sum(r["environment"]["loaded_rounds"] for r in group)
        print(f"{workload} trace {traced}: {len(group)} runs, seeds {seeds}, "
              f"fail_share {failed / max(attempted, 1):.6g}, loaded rounds {loaded}")
        metrics = [r["summary"]["metrics"] for r in group]
        if traced:
            for name in metrics[0]:
                values = [m[name]["value"] for m in metrics if m[name]["value"] is not None]
                if values and any(values):
                    print(f"  {name:40s} median {statistics.median(values):.6g} "
                          f"{metrics[0][name]['unit']}")
            continue
        for name, bound in bounds.items():
            values = [m[name]["value"] for m in metrics]
            pooled = [v for r in group for v in r["samples"][name]]
            width = spread(values) if len(values) >= 2 else float("nan")
            flag = ""
            if name != "setup_s" and width > bound / 3:
                flag = "  WIDER THAN A THIRD OF THE BOUND"
                too_wide += 1
            print(f"  {name:14s} median of runs {statistics.median(values):.6g}, "
                  f"spread {width:.4f} (bound {bound}){flag}")
            print(run.describe("  pooled rounds", "", pooled))
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
