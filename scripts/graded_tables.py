#!/usr/bin/env python3
"""Print the graded dimension table of M_mu two ways and compare.

For every partition the x-degree-0 row of the closure table is compared
with the slice that linalg.x_degree_zero_closure computes from the x-parts
of Delta alone.  For hook partitions the whole table is also computed as the
graded quotient by the explicit ideal generators; for other partitions only
the closure is available.  The exit status is 1 if any comparison prints
DISAGREE, else 0; as for ghbasis, it is 2 for input that names no partition
and 3 when a size limit is exceeded, each with one line on stderr.  Every n
is checked against ghbasis's default --limit-n before any table is computed.

    python3 scripts/graded_tables.py 2,1
    python3 scripts/graded_tables.py 3,1 2,2 1,1,1,1
"""

import sys

from ghbasis.annihilator import quotient_hilbert
from ghbasis.delta import build_delta
from ghbasis.cli import EXIT_SIZE_LIMIT, EXIT_USAGE, LIMIT_N
from ghbasis.errors import NotAHookError, PartitionError, SizeLimitError
from ghbasis.linalg import derivative_closure, x_degree_zero_closure
from ghbasis.partitions import hook_params, parse_partition
from math import factorial


def print_table(title, table):
    amax = max(a for a, _ in table)
    bmax = max(b for _, b in table)
    print(f"  {title} (rows: x-degree 0..{amax}, cols: y-degree 0..{bmax})")
    for a in range(amax + 1):
        row = " ".join(f"{table.get((a, b), 0):4d}" for b in range(bmax + 1))
        print(f"    {row}")


def main(argv):
    try:
        return compare(argv or ["2,1", "2,2", "3,1"])
    except PartitionError as exc:
        print(f"graded_tables: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"graded_tables: size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT


def compare(texts):
    disagreements = 0
    # Every argument is parsed and capped before anything is computed.
    named = [(text, parse_partition(text)) for text in texts]
    for _, mu in named:
        if mu.n > LIMIT_N:
            raise SizeLimitError(f"n = {mu.n} exceeds the cap {LIMIT_N} of the scripts")
    for text, mu in named:
        delta = build_delta(mu)
        print(f"mu = ({text})  n = {mu.n}  n! = {factorial(mu.n)}")
        dim, table = derivative_closure(delta)
        print(f"  dim M_mu by derivative closure: {dim}")
        print_table("closure table", table)
        slice_dim, slice_table = x_degree_zero_closure(delta)
        row = {key: v for key, v in table.items() if key[0] == 0}
        disagreements += slice_table != row
        print(f"  x-degree-0 slice from the x-parts of Delta: {slice_dim} "
              f"({'agree' if slice_table == row else 'DISAGREE'} with row 0 of the closure table)")
        print_table("x-degree-0 slice", slice_table)
        try:
            hp = hook_params(mu)
        except NotAHookError:
            print("  (not a hook: no generator quotient to compare)")
            print()
            continue
        qt = quotient_hilbert(hp.K, hp.L)
        disagreements += qt.table != table
        print(f"  quotient total by ideal generators: {qt.total} "
              f"(tables {'agree' if qt.table == table else 'DISAGREE'})")
        print()
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
