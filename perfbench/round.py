"""One benchmark round in a fresh interpreter; run.py starts it.

    python3 perfbench/round.py WORKLOAD SEED [--trace] [--negative-control]
    python3 perfbench/round.py --warm

The round imports ghbasis, draws its inputs from SEED and reports on stdout:

    P {"planned": N, "setup_end": T}   after set-up, T on the perf_counter clock
    v 1 | v 0 NAME                     one line per verdict, 0 for a wrong answer
    R {"verdict_s": ..., "trace": ...} after the last verdict

A fresh process per round means the library's process-lifetime memos
(``annihilator._rewriter``, ``annihilator._s_index``) start cold each time, as
they do for a user who runs the command line once.  ``--warm`` only imports
the package, so that byte-code compilation is not timed.
"""

from __future__ import annotations

import json
import random
import sys
import time


def _wrong(expected):
    """A different answer of the same kind, for the negative control."""
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, int):
        return expected + 1
    return ("not", expected)


def main(argv: list[str]) -> int:
    if argv == ["--warm"]:
        import workloads  # noqa: F401  (compiles and caches the byte code)
        return 0
    workload, seed = argv[0], int(argv[1])
    traced = "--trace" in argv[2:]
    negative_control = "--negative-control" in argv[2:]

    import workloads

    planned, verdicts = workloads.WORKLOADS[workload](random.Random(seed))
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    print("P " + json.dumps({"planned": planned, "setup_end": time.perf_counter()}))
    if tracer is not None:
        tracer.install()

    done = 0
    start = time.perf_counter()
    for name, expected, actual in verdicts:
        if negative_control and done == 0:
            expected = _wrong(expected)
        done += 1
        print("v 1" if actual == expected else f"v 0 {name}")
    verdict_s = time.perf_counter() - start

    result = {"verdict_s": verdict_s}
    if tracer is not None:
        result["trace"] = tracer.report()
    print("R " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
