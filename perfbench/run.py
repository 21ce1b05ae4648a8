"""Time-to-verdict benchmark for ghbasis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Each round runs in a fresh, single-
threaded interpreter (round.py), one round at a time, until the next round
would overrun S seconds (at least three rounds; in a traced run at least one
plain and one traced round).  Every verdict is checked against a known answer.

With --trace 0 the end-to-end metrics are the medians over the rounds of
    verdict_s     wall time from the first library call to the last verdict
    cpu_s         user plus system CPU time of the round process
    peak_rss_mib  peak resident memory of the round process
    setup_s       time from starting the round process, through importing
                  ghbasis, to the end of seeded input generation
With --trace 1, plain and traced rounds alternate and the metrics are the
per-layer ones of spans.py, plus trace.overhead_s (traced minus plain
verdict_s).  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.  Each
run also writes its rounds, spans and environment to perfbench/out/.

Exit status: 0 when every verdict is right, 1 when one is wrong or a round
crashed (its unfinished verdicts count as failed), 2 when the benchmark cannot
run here (for example no ghbasis sources), without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150  # a round takes seconds; this only catches a hang
END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class Unrunnable(Exception):
    """The benchmark cannot run in this tree; no result is printed."""


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99..p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 80, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile with 10 samples beyond"
    return (f"  {name:40s} median {statistics.median(values):.6g} {unit}, "
            f"{tail_text}, n={len(values)}")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so every count, repeats
    return env


def run_round(argv: list[str]) -> dict:
    """Run round.py in a fresh interpreter and measure it from outside."""
    load_before = os.getloadavg()[0]
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-s", os.path.join(HERE, "round.py"), *argv],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        output = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)

    plan = result = None
    right = wrong = 0
    wrong_names = []
    for line in output.splitlines():
        if line == "v 1":
            right += 1
        elif line.startswith("v 0"):
            wrong += 1
            wrong_names.append(line[4:])
        elif line.startswith("P "):
            plan = json.loads(line[2:])
        elif line.startswith("R "):
            result = json.loads(line[2:])
    finished = proc.returncode == 0 and result is not None
    return {
        "exit": proc.returncode,
        "plan": plan,
        "result": result if finished else None,
        "right": right,
        "wrong": wrong,
        "wrong_names": wrong_names[:20],
        "wall_s": ended - started,
        "setup_s": plan["setup_end"] - started if plan else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "load_before": load_before,
        "load_after": os.getloadavg()[0],
    }


def verdict_tally(rnd: dict) -> tuple[int, int]:
    """(attempted, failed); a round that crashed fails every verdict it did not finish."""
    done = rnd["right"] + rnd["wrong"]
    planned = rnd["plan"]["planned"]
    return max(planned, done), rnd["wrong"] + max(planned - done, 0)


def run(workload: str, seed: int, seconds: float, traced: bool,
        negative_control: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "ghbasis", "__init__.py")):
        raise Unrunnable(f"no ghbasis sources under {os.path.join(ROOT, 'src')}")
    warm = run_round(["--warm"])
    if warm["exit"] != 0:
        raise Unrunnable("round.py could not import ghbasis")

    base = [workload, str(seed)] + (["--negative-control"] if negative_control else [])
    kinds = ["plain", "traced"] if traced else ["plain"]
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        kind = kinds[len(rounds) % len(kinds)]
        if len(rounds) >= (2 if traced else MIN_ROUNDS) and kind == kinds[0]:
            # Stop when one more round of each kind, as slow as the slowest so far, would overrun.
            needed = sum(max(r["wall_s"] for r in rounds if r["kind"] == k) for k in kinds)
            if time.perf_counter() - start + needed > seconds:
                break
        rnd = run_round(base + (["--trace"] if kind == "traced" else []))
        if rnd["plan"] is None:
            raise Unrunnable(f"a {kind} round failed during set-up (exit {rnd['exit']})")
        rnd["kind"] = kind
        rounds.append(rnd)

    attempted = failed = 0
    for rnd in rounds:
        a, f = verdict_tally(rnd)
        attempted += a
        failed += f

    plain = [r for r in rounds if r["kind"] == "plain" and r["result"]]
    samples = {name: [r[name] for r in plain] for name in ("setup_s", "cpu_s", "peak_rss_mib")}
    samples["verdict_s"] = [r["result"]["verdict_s"] for r in plain]
    metrics = {}
    traced_results = [r["result"] for r in rounds if r["kind"] == "traced" and r["result"]]
    counts = [{k: v for k, v in t["trace"]["metrics"].items() if not k.endswith("_s")}
              for t in traced_results]
    if traced_results:
        metrics = trace_metrics(traced_results,
                                statistics.median(samples["verdict_s"]) if plain else None)
    elif plain and not traced:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    cpus = nproc()
    env = {
        "python": platform.python_version(),
        "nproc": cpus,
        "commit": git_commit(ROOT),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "negative_control": negative_control,
        "loaded_rounds": sum(max(r["load_before"], r["load_after"]) > cpus for r in rounds),
        "counts_repeat": all(c == counts[0] for c in counts),
    }
    summary = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
               "failed": failed, "metrics": metrics}
    record = {"environment": env, "samples": samples, "rounds": rounds, "summary": summary}
    return summary, record


def trace_metrics(traced: list[dict], plain_verdict_s: float | None) -> dict:
    """Per-layer medians over the traced rounds; counts come from the first."""
    import spans

    names = spans.metric_names()
    first = traced[0]["trace"]["metrics"]
    metrics = {}
    for name in names:
        if first[name] is None:
            value = None
        elif name.endswith("_s"):
            value = statistics.median(t["trace"]["metrics"][name] for t in traced)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": spans.unit_of(name)}
    verdict_s = statistics.median(t["verdict_s"] for t in traced)
    self_sum = statistics.median(
        sum(v for k, v in t["trace"]["metrics"].items() if k.endswith(".self_s") and v)
        for t in traced)
    metrics["trace.verdict_s"] = {"value": verdict_s, "unit": "s"}
    metrics["trace.self_sum_s"] = {"value": self_sum, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": None if plain_verdict_s is None else verdict_s - plain_verdict_s, "unit": "s"}
    return metrics


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"ghbasis benchmark: workload {env['workload']}, seed {env['seed']}, "
          f"trace {env['trace']}, python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit'] or 'unknown'}")
    for rnd in record["rounds"]:
        flag = "  LOADED" if max(rnd["load_before"], rnd["load_after"]) > env["nproc"] else ""
        verdict = rnd["result"]["verdict_s"] if rnd["result"] else float("nan")
        print(f"  round {rnd['kind']:6s} verdict {verdict:.4f} s, wall {rnd['wall_s']:.3f} s, "
              f"load {rnd['load_before']:.2f} -> {rnd['load_after']:.2f}{flag}")
        for name in rnd["wrong_names"]:
            print(f"    wrong answer: {name}")
    if not env["counts_repeat"]:
        print("  warning: the work counts differ between traced rounds of this seed")
    if env["loaded_rounds"]:
        print(f"  warning: the load average exceeded nproc in {env['loaded_rounds']} rounds")
    summary = record["summary"]
    if not env["trace"]:
        for name, unit in END_TO_END_UNITS.items():
            if record["samples"][name]:
                print(describe(name, unit, record["samples"][name]))
    elif summary["metrics"]:
        metrics = summary["metrics"]
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        share = metrics["trace.self_sum_s"]["value"] / metrics["trace.verdict_s"]["value"]
        print(f"  per-layer self_s sum to {share:.1%} of the traced verdict_s")
    print(f"  verdicts {summary['attempted']}, failed {summary['failed']}, "
          f"fail_share {summary['failed'] / max(summary['attempted'], 1):.6g}")


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="give the first verdict of each round a wrong expected answer")
    args = parser.parse_args(argv)

    try:
        summary, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.negative_control)
    except Unrunnable as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    print_report(record)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
