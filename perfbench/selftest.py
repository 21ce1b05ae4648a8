"""Self-test of the benchmark itself; takes about half a minute.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the benchmark prints,
that the negative control (one wrong expected answer) is caught with a
nonzero exit, that two traced rounds of one seed repeat every count (each
round starts with cold memos), that a traced function missing from the
library is reported as absent, and that the benchmark refuses to run, without
a result line, in a tree without the ghbasis sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402

TRACE_TOTALS = ["trace.verdict_s", "trace.self_sum_s", "trace.overhead_s"]


def check_spec() -> str | None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END_UNITS):
        return "end_to_end names differ from run.END_TO_END_UNITS"
    if [m["name"] for m in spec["per_layer"]] != spans.metric_names() + TRACE_TOTALS:
        return "per_layer names differ from spans.metric_names()"
    return None


def check_absent_function() -> str | None:
    import ghbasis

    missing = ("poly.no_such_function", "poly.no_such_function", False)
    tracer = spans.Tracer(spans.TRACED + (missing,))
    tracer.install()
    ghbasis.derivative_closure(ghbasis.build_delta(ghbasis.hook_partition(1, 1)))
    metrics = tracer.metrics()
    if metrics["poly.no_such_function.self_s"] is not None:
        return "a missing function was not reported as absent"
    if not metrics["linalg.derivative_closure.self_s"] or metrics["delta.terms"] != 6:
        return f"present functions were not traced: {metrics}"
    return None


def check_negative_control() -> str | None:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "smoke_suite", "--seed", "1", "--seconds", "1", "--negative-control"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    summary = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode == 0 or summary["failed"] == 0 or summary["correct"]:
        return f"negative control not caught: exit {proc.returncode}, {summary}"
    return None


def check_counts_repeat() -> str | None:
    traced = [run.run_round(["hook_ideal", "7", "--trace"])["result"] for _ in range(2)]
    counts = [{k: v for k, v in t["trace"]["metrics"].items() if not k.endswith("_s")}
              for t in traced]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        return f"counts differ between two rounds of one seed: {diff}"
    if not counts[0]["annihilator.rewrite_steps"]:
        return "no rewrite steps were counted"
    return None


def check_refuses_without_sources() -> str | None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke_suite",
                               "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}"
    return None


def main() -> int:
    checks = [check_spec, check_absent_function, check_negative_control,
              check_counts_repeat, check_refuses_without_sources]
    failures = 0
    for check in checks:
        problem = check()
        failures += problem is not None
        print(f"[{'FAIL' if problem else 'PASS'}] {check.__name__}" + (f": {problem}" if problem else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
