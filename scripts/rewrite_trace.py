#!/usr/bin/env python3
"""Trace the rewriting of a monomial operator into the drawing basis.

Shows each anomaly classification and the replacement it triggers, then the
final normal form and the oracle check against Delta_mu.  An operator above
Delta_mu's bidegree acts as 0: one line says so and nothing is rewritten.
As for ghbasis, the exit status is 2 for input that names no hook or
monomial and 3 when a size limit is exceeded (n above ghbasis's default
--limit-n, checked before the hook is built), each with one line on stderr.

    python3 scripts/rewrite_trace.py --k 1 --l 2 "y1*x2*x3"
"""

import argparse
import sys

from ghbasis.annihilator import CASE_NULL, classify_diagram, normal_form, reduce_step
from ghbasis.cli import EXIT_SIZE_LIMIT, EXIT_USAGE, LIMIT_N, UsageError
from ghbasis.delta import build_delta
from ghbasis.errors import PartitionError, PolynomialSyntaxError, SizeLimitError
from ghbasis.hooks import split
from ghbasis.partitions import hook_partition, hook_size
from ghbasis.poly import descent_key, format_monomial, parse_poly


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--l", type=int, required=True)
    parser.add_argument("operator")
    args = parser.parse_args(argv)
    try:
        return trace(args.k, args.l, args.operator)
    except (PartitionError, PolynomialSyntaxError, UsageError) as exc:
        print(f"rewrite_trace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"rewrite_trace: size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT


def trace(K, L, operator):
    n = hook_size(K, L)
    if n > LIMIT_N:
        raise SizeLimitError(f"n = {n} exceeds the cap {LIMIT_N} of the scripts")
    mu = hook_partition(K, L)
    delta = build_delta(mu)
    poly = parse_poly(operator, n=mu.n)
    if len(poly.terms) != 1 or next(iter(poly.terms.values())) != 1:
        raise UsageError("operator must be a single monic monomial")
    op = next(iter(poly.terms))
    bx, by = delta.bidegree
    above = op.xdeg() > bx or op.ydeg() > by
    if above:
        print(f"{format_monomial(op) or '1'}  [above Delta's bidegree ({bx}, {by}): acts as 0]")

    # worklist trace: a null operator (x_i y_i divides it) acts as zero and
    # is dropped with its classification; of the rest, rewrite the
    # descent-largest non-drawing monomial first
    work = {} if above else {op: 1}
    step = 0
    while True:
        classes = {m: classify_diagram(m, K, L) for m in work}
        for m, cls in classes.items():
            if cls.case == CASE_NULL:
                print(f"{format_monomial(m) or '1'}  [{cls.case} at place {cls.place}]")
                del work[m]
        todo = [m for m, cls in classes.items() if cls.is_anomaly]
        if not todo:
            break
        m = max(todo, key=descent_key)
        cls = classes[m]
        outs = reduce_step(m, K, L)
        step += 1
        print(f"step {step}: {format_monomial(m) or '1'}  [{cls.case} at place {cls.place}]")
        for c, mm in outs:
            print(f"    -> {c:+d} * {format_monomial(mm) or '1'}")
        coeff = work.pop(m)
        for c, mm in outs:
            work[mm] = work.get(mm, 0) + coeff * c
            if work[mm] == 0:
                del work[mm]

    nf = normal_form(op, K, L, delta=delta, validate=True)
    if step:
        print()
    print(f"normal form of {format_monomial(op) or '1'} "
          f"({len(nf)} drawing terms, oracle-checked):")
    for text, c in sorted((format_monomial(split(d)[0]) or "1", c) for d, c in nf.items()):
        print(f"    {c:+d} * d[{text}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
