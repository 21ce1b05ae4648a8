"""The four benchmark workloads: seeded inputs and known-answer verdicts.

A workload is a function ``build(rng)`` that draws its inputs from the seeded
``random.Random`` before any library call, and returns ``(planned, verdicts)``:
the number of verdicts it will produce and a generator that makes the library
calls and yields ``(name, expected, actual)`` triples.  Every expected answer
comes from a closed form, from the paper's theorems, or from a second code
path of the library, never from the call under test.

The seed draws among inputs of matching cost (a hook and its conjugate, or a
large sample of small operators), so runs with different seeds measure the
same amount of work and their times can be compared.  Pool members too slow
for one round of a run are left out; see README.md for the sizes.
"""

from __future__ import annotations

import json
import os
from itertools import product
from math import comb, factorial

# Library functions are looked up through their modules at call time, never
# bound to names here, so that the tracer's wrappers (spans.py) are the ones
# called in a traced round.
import ghbasis
from ghbasis import errors, linalg, poly

# Hooks (K, L) are mu = (K+1, 1^L).  Conjugate hooks (K, L) and (L, K) cost
# about the same to verify, which is what lets the seed choose between them.
N6_MIDDLE = [(2, 3), (3, 2)]
N6_HOOKS = [(K, 5 - K) for K in range(6)]
N5_HOOKS = [(K, 4 - K) for K in range(5)]
QUOTIENT_HOOK = (2, 2)
N4_HOOKS = [(K, 3 - K) for K in range(4)]
NF_SAMPLE = 1500
ZEROX_SHAPES = [(3, 2, 1), (3, 2), (2, 2, 1)]

SMOKE_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "smoke_reference.json")


# ---------------------------------------------------------------------------
# closed forms, computed without the library
# ---------------------------------------------------------------------------

def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples."""
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def bar_count(parts: tuple[int, ...]) -> int:
    """n!/mu'!, the size of the bar-drawing basis."""
    denominator = 1
    for c in conjugate(parts):
        denominator *= factorial(c)
    return factorial(sum(parts)) // denominator


def hook_bidegree(K: int, L: int) -> tuple[int, int]:
    """(n(mu), n(mu')) for mu = (K+1, 1^L)."""
    return L * (L + 1) // 2, K * (K + 1) // 2


def generator_count(K: int, L: int) -> int:
    n = K + L + 1
    return 3 * n + comb(n, L + 1) + comb(n, K + 1)


def symmetric_table(table: dict, bidegree: tuple[int, int]) -> bool:
    """The graded table is invariant under (a, b) -> (n(mu)-a, n(mu')-b)."""
    bx, by = bidegree
    return all(table.get((bx - a, by - b), 0) == v for (a, b), v in table.items())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def hook_closure(rng):
    """Elimination-bound: drawing-image ranks, closures and a graded quotient."""
    rank_hooks = rng.sample(N6_MIDDLE, len(N6_MIDDLE))
    closure_hook = rng.choice(N6_MIDDLE)

    def verdicts():
        for K, L in rank_hooks:
            n = K + L + 1
            delta = ghbasis.build_delta(ghbasis.hook_partition(K, L))
            drawings = ghbasis.enumerate_drawings(K, L)
            yield f"hooks({K},{L}) drawings", factorial(n), len(drawings)
            yield f"hooks({K},{L}) closed form", factorial(n), ghbasis.closed_form_count(K, L)
            images = [poly.apply_diff(ghbasis.diff_op_of(ghbasis.split(d)[0], n), delta.value)
                      for d in drawings]
            yield f"hooks({K},{L}) image rank", factorial(n), linalg.homogeneous_family_rank(images)

        K, L = closure_hook
        dim, table = ghbasis.derivative_closure(ghbasis.build_delta(ghbasis.hook_partition(K, L)))
        yield f"hooks({K},{L}) closure dim", factorial(K + L + 1), dim
        yield f"hooks({K},{L}) closure symmetric", True, symmetric_table(table, hook_bidegree(K, L))

        K, L = QUOTIENT_HOOK
        qt = ghbasis.quotient_hilbert(K, L)
        dim, table = ghbasis.derivative_closure(ghbasis.build_delta(ghbasis.hook_partition(K, L)))
        yield f"hooks({K},{L}) quotient total", factorial(K + L + 1), qt.total
        yield f"hooks({K},{L}) quotient shell", True, qt.shell_zero
        yield f"hooks({K},{L}) closure dim", factorial(K + L + 1), dim
        yield f"hooks({K},{L}) quotient == closure", table, qt.table

    return 3 * len(rank_hooks) + 2 + 4, verdicts()


def _bounded_operators(K: int, L: int, count: int, rng):
    """A seeded sample of monomial operators within the bidegree of Delta_mu."""
    n = K + L + 1
    bx, by = hook_bidegree(K, L)
    xs = [e for e in product(range(bx + 1), repeat=n) if sum(e) <= bx]
    ys = [e for e in product(range(by + 1), repeat=n) if sum(e) <= by]
    picks = rng.sample(range(len(xs) * len(ys)), count)
    return [poly.Monomial(xs[i // len(ys)], ys[i % len(ys)]) for i in picks]


def hook_ideal(rng):
    """Expansion-bound: annihilation, schema instances, rewriting, son graph."""
    generator_hooks = rng.sample(N6_HOOKS, len(N6_HOOKS))
    instance_hooks = rng.sample(N4_HOOKS, len(N4_HOOKS))
    nf_hook = rng.choice(N6_MIDDLE)
    operators = _bounded_operators(*nf_hook, NF_SAMPLE, rng)
    graph_hooks = rng.sample(N5_HOOKS, len(N5_HOOKS))

    def verdicts():
        for K, L in generator_hooks:
            delta = ghbasis.build_delta(ghbasis.hook_partition(K, L))
            gens = ghbasis.generators(K, L)
            yield f"hooks({K},{L}) generator count", generator_count(K, L), len(gens)
            yield (f"hooks({K},{L}) generators annihilate", len(gens),
                   sum(ghbasis.annihilates(p, delta) for p in gens.polynomials))

        for K, L in instance_hooks:
            delta = ghbasis.build_delta(ghbasis.hook_partition(K, L))
            for which in (1, 2, 3, 4):
                seen = good = 0
                for instance in ghbasis.proposition_instances(K + L + 1, K, L, which):
                    seen += 1
                    good += ghbasis.annihilates(instance, delta)
                yield f"hooks({K},{L}) schema-{which} instances annihilate", seen, good

        K, L = nf_hook
        delta = ghbasis.build_delta(ghbasis.hook_partition(K, L))
        for i, op in enumerate(operators):
            try:
                ghbasis.normal_form(op, K, L, delta=delta, validate=True)
                exact = True
            except errors.RewriteDefectError:
                exact = False
            yield f"hooks({K},{L}) normal form {i}", True, exact

        for K, L in graph_hooks:
            delta = ghbasis.build_delta(ghbasis.hook_partition(K, L))
            drawings, edges, acyclic = ghbasis.descendant_graph(K, L, delta)
            yield f"hooks({K},{L}) son-graph drawings", factorial(K + L + 1), len(drawings)
            yield f"hooks({K},{L}) son graph acyclic", True, acyclic
            # Flip-son duality: D' is a son of D iff flip(D) is a son of flip(D').
            index = {d: i for i, d in enumerate(drawings)}
            arcs = {(i, j) for i, sons in edges.items() for j in sons}
            dual = {(index[ghbasis.flip(drawings[j])], index[ghbasis.flip(drawings[i])])
                    for i, j in arcs}
            yield f"hooks({K},{L}) son graph flip-dual", arcs, dual

    planned = (2 * len(generator_hooks) + 4 * len(instance_hooks) + len(operators)
               + 3 * len(graph_hooks))
    return planned, verdicts()


def zerox_slice(rng):
    """Bar-drawing bases of non-hook shapes, counts and corner recursion."""
    shapes = rng.sample(ZEROX_SHAPES, len(ZEROX_SHAPES))
    counted = [p for n in range(1, 8) for p in partitions(n)]
    cornered = [p for n in range(1, 9) for p in partitions(n)]
    rng.shuffle(counted)
    rng.shuffle(cornered)

    def verdicts():
        for parts in shapes:
            mu = ghbasis.Partition(parts)
            expected = bar_count(parts)
            r = ghbasis.verify_zero_x_degree_basis(mu, ghbasis.build_delta(mu))
            yield f"zerox {parts} count", expected, r["count"]
            yield f"zerox {parts} rank of cross images", expected, r["rank_s"]
            yield f"zerox {parts} rank of white images", expected, r["rank_t"]
            yield f"zerox {parts} x-degree-0 slice", expected, r["dim_zero_slice"]
            yield f"zerox {parts} images have x-degree 0", True, r["x_degree_zero_ok"]
            yield f"zerox {parts} white images have top x-degree", True, r["x_degree_top_ok"]
            yield f"zerox {parts} triangularity", True, r["triangularity_ok"]
            yield f"zerox {parts} distinct minimal monomials", True, r["distinct_minimal_monomials"]
        for parts in counted:
            count, _ = ghbasis.count_check(ghbasis.Partition(parts))
            yield f"zerox {parts} count_check", bar_count(parts), count
        for parts in cornered:
            holds = ghbasis.corner_recursion_check(ghbasis.Partition(parts))
            yield f"zerox {parts} corner recursion", True, holds

    return 8 * len(shapes) + len(counted) + len(cornered), verdicts()


def _without_run_facts(payload: dict) -> dict:
    """A suite report minus the fields that differ between runs: time and seed."""
    params = {k: v for k, v in payload["params"].items() if k != "seed"}
    return {"command": payload["command"], "params": params}


def smoke_suite(rng):
    """The user-facing front end: `ghbasis suite --level smoke` as one call."""
    from ghbasis import cli

    seed = rng.randrange(2 ** 31)
    with open(SMOKE_REFERENCE) as f:
        reference = json.load(f)
    argv = ["suite", "--level", "smoke", "--seed", str(seed), "--output", "json"]

    def verdicts():
        report, status = cli.run(argv)
        payload = json.loads(report.to_json())
        yield "suite exit status", cli.EXIT_OK, status
        yield "suite header", _without_run_facts(reference), _without_run_facts(payload)
        yield "suite seed logged", seed, payload["seed"]
        checks = payload["checks"]
        yield "suite check count", len(reference["checks"]), len(checks)
        for i, expected in enumerate(reference["checks"]):
            yield f"suite check {expected['name']}", expected, checks[i] if i < len(checks) else None

    return 4 + len(reference["checks"]), verdicts()


WORKLOADS = {
    "hook_closure": hook_closure,
    "hook_ideal": hook_ideal,
    "zerox_slice": zerox_slice,
    "smoke_suite": smoke_suite,
}
