"""The verification matrix: every acceptance criterion, defined once.

A criterion has an A-label, an n-bound per level ("smoke" and "full") and a
function that returns :class:`Check` rows.  It has one of three scopes:

* ``HOOK``: ``rows(ctx)`` for every hook mu = (K+1, 1^L) with n <= bound;
  ``ctx`` is the :class:`HookContext` that the criteria of one hook share;
* ``PARTITION``: ``rows(mu)`` for every partition mu of n <= bound;
  ``rows(mu, limit=N)`` raises the drawing size limit;
* ``ONCE``: ``rows(bound)``; a bound of None marks fixed inputs.

:func:`run` is hook-major: it runs every hook criterion on one hook, drops
that hook's context, and moves on to the next hook.  The other criteria
follow in registry order.  ``ghbasis suite`` and the acceptance tests both
iterate :data:`REGISTRY`; the per-object commands of ``ghbasis`` print the
rows of single criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Callable

from .annihilator import (annihilates, bounded_operators, generators, normal_form,
                          quotient_hilbert, schema_orbits)
from .delta import build_delta
from .errors import RewriteDefectError
from .hooks import (
    DEFAULT_LIMIT as HOOK_LIMIT,
    closed_form_count,
    cross_images,
    enumerate_drawings,
    flip,
    is_acyclic,
    reconstruct,
    son_edges,
    split,
)
from .linalg import derivative_closure, homogeneous_family_rank
from .partitions import conjugate_factorial, hook_partition, partitions_of
from .poly import format_monomial, format_poly, parse_poly
from .zerox import DEFAULT_LIMIT as BAR_LIMIT
from .zerox import corner_recursion_check, count_check, verify_zero_x_degree_basis

HOOK = "hook"
PARTITION = "partition"
ONCE = "once"


@dataclass
class Check:
    name: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "pass": self.passed}


@dataclass(frozen=True)
class Criterion:
    label: str
    title: str
    scope: str
    smoke: int | None
    full: int | None
    rows: Callable[..., list[Check]]

    def bound(self, level: str) -> int | None:
        return {"smoke": self.smoke, "full": self.full}[level]

    def describe(self, level: str) -> str:
        bound = self.bound(level)
        if bound is None:
            return f"{self.label} {self.title}"
        over = {HOOK: "hooks ", PARTITION: "partitions ", ONCE: ""}[self.scope]
        return f"{self.label} {self.title}, {over}n <= {bound}"


class HookContext:
    """Work shared by the criteria of one hook, computed on first use.

    ``limit`` is the size limit on n passed to every enumeration.
    """

    def __init__(self, K: int, L: int, limit: int = HOOK_LIMIT):
        self.K = K
        self.L = L
        self.n = K + L + 1
        self.limit = limit
        self.name = f"hooks({K},{L})"

    @cached_property
    def delta(self):
        return build_delta(hook_partition(self.K, self.L), limit=self.limit)

    @cached_property
    def drawings(self):
        return enumerate_drawings(self.K, self.L, limit=self.limit)

    @cached_property
    def closure_table(self) -> dict[tuple[int, int], int]:
        return derivative_closure(self.delta)[1]

    @cached_property
    def quotient(self):
        return quotient_hilbert(self.K, self.L, limit=self.limit)

    @cached_property
    def cross_images(self):
        """The image of Delta under each drawing's cross operator (A2, sons)."""
        return cross_images(self.drawings)

    @cached_property
    def son_edges(self) -> dict[int, list[int]]:
        """Son edges by index into ``drawings``."""
        return son_edges(self.drawings, self.cross_images)


def flip_dual(drawings, edges: dict[int, list[int]]) -> bool:
    """True iff D' is a son of D exactly when flip(D) is a son of flip(D')."""
    index = {d: i for i, d in enumerate(drawings)}
    arcs = {(i, j) for i, sons in edges.items() for j in sons}
    dual = {(index.get(flip(drawings[j])), index.get(flip(drawings[i]))) for i, j in arcs}
    return arcs == dual


# ---------------------------------------------------------------------------
# per-hook criteria
# ---------------------------------------------------------------------------

def _drawing_count(ctx: HookContext) -> list[Check]:
    return [Check(f"{ctx.name} count = n!", factorial(ctx.n), len(ctx.drawings)),
            Check(f"{ctx.name} closed form", factorial(ctx.n), closed_form_count(ctx.K, ctx.L))]


def _basis_rank(ctx: HookContext) -> list[Check]:
    return [Check(f"{ctx.name} basis rank", factorial(ctx.n),
                  homogeneous_family_rank(ctx.cross_images))]


def _closure_dim(ctx: HookContext) -> list[Check]:
    return [Check(f"{ctx.name} dim M_mu", factorial(ctx.n), sum(ctx.closure_table.values()))]


def _quotient(ctx: HookContext) -> list[Check]:
    qt = ctx.quotient
    return [Check(f"{ctx.name} quotient total", factorial(ctx.n), qt.total),
            Check(f"{ctx.name} tables agree", True, qt.table == ctx.closure_table),
            Check(f"{ctx.name} shell vanishes", True, qt.shell_zero)]


def _rewriting(ctx: HookContext) -> list[Check]:
    bad = total = 0
    for op in bounded_operators(ctx.n, *ctx.delta.bidegree):
        total += 1
        try:
            normal_form(op, ctx.K, ctx.L, delta=ctx.delta, validate=True)
        except RewriteDefectError:
            bad += 1
    return [Check(f"{ctx.name} rewriting exact on {total} ops", 0, bad)]


def _generators(ctx: HookContext) -> list[Check]:
    gens = generators(ctx.K, ctx.L)
    good = sum(annihilates(p, ctx.delta) for p in gens.polynomials)
    return [Check(f"{ctx.name} generators annihilate", len(gens), good)]


def _schema_instances(ctx: HookContext) -> list[Check]:
    """seen counts every instance of a schema and good those that annihilate,
    one S_n-orbit at a time."""
    out = []
    for which in (1, 2, 3, 4):
        seen = good = 0
        for size, kills in schema_orbits(ctx.K, ctx.L, which, ctx.delta):
            seen += size
            good += size if kills else 0
        out.append(Check(f"{ctx.name} schema-{which} instances", seen, good))
    return out


def _split_round_trip(ctx: HookContext) -> list[Check]:
    ok = all(reconstruct(split(d)[0], True, ctx.K, ctx.L) == d
             and reconstruct(split(d)[1], False, ctx.K, ctx.L) == d
             for d in ctx.drawings)
    return [Check(f"{ctx.name} reconstruct o split = id", True, ok)]


def _acyclic(ctx: HookContext) -> list[Check]:
    return [Check(f"{ctx.name} descendant graph acyclic", True, is_acyclic(ctx.son_edges))]


def _flip_son_duality(ctx: HookContext) -> list[Check]:
    return [Check(f"{ctx.name} flip-son duality", True,
                  flip_dual(ctx.drawings, ctx.son_edges))]


def _flip_involution(ctx: HookContext) -> list[Check]:
    family = set(ctx.drawings)
    ok = all(flip(d) in family and flip(flip(d)) == d for d in family)
    return [Check(f"{ctx.name} flip involution", True, ok)]


# ---------------------------------------------------------------------------
# per-partition and single criteria
# ---------------------------------------------------------------------------

def _bar_count(mu, limit: int = BAR_LIMIT) -> list[Check]:
    count, _ = count_check(mu, limit=limit)
    return [Check(f"zerox count {mu}", factorial(mu.n) // conjugate_factorial(mu), count)]


def bar_basis_properties(mu, limit: int = BAR_LIMIT) -> list[Check]:
    """One row per property of the x-degree-0 and top-x-degree bases of mu."""
    r = verify_zero_x_degree_basis(mu, build_delta(mu), limit=limit)
    expected = factorial(mu.n) // conjugate_factorial(mu)
    name = f"zerox basis {mu}"
    return [Check(f"{name} drawing count = n!/mu'!", expected, r["count"]),
            Check(f"{name} images have x-degree 0", True, r["x_degree_zero_ok"]),
            Check(f"{name} white images have top x-degree", True, r["x_degree_top_ok"]),
            Check(f"{name} minimal-monomial triangularity", True, r["triangularity_ok"]),
            Check(f"{name} distinct minimal monomials", True, r["distinct_minimal_monomials"]),
            Check(f"{name} rank of cross images", expected, r["rank_s"]),
            Check(f"{name} rank of white images", expected, r["rank_t"]),
            Check(f"{name} closure x-degree-0 slice", expected, r["dim_zero_slice"])]


def _bar_bases(mu) -> list[Check]:
    ok = all(row.passed for row in bar_basis_properties(mu))
    return [Check(f"zerox basis {mu}", True, ok)]


def corner_identity(mu) -> list[Check]:
    """The corner recursion for one partition (A8d checks every partition of each n)."""
    return [Check("corner recursion identity", True, corner_recursion_check(mu))]


def _corner_recursion(nmax: int) -> list[Check]:
    return [Check(f"corner recursion n={n}", [],
                  [str(mu) for mu in partitions_of(n) if not corner_recursion_check(mu)])
            for n in range(1, nmax + 1)]


def _worked_operator(_bound) -> list[Check]:
    fixture = "y1^2*x2*x4*x5^2*y6"
    op = next(iter(parse_poly(fixture, n=8).terms))
    drawing = reconstruct(op, True, 3, 4)
    return [Check("worked operator round-trip", fixture, format_monomial(split(drawing)[0]))]


def _monomial_fixtures(_bound) -> list[Check]:
    return [Check(f"monomial fixture {fx}", fx, format_poly(parse_poly(fx)))
            for fx in ("x2*y2*x3^4*x4^3*x6*x7^2*x8", "y1^3*y2*y5^2*y6*y9")]


# Registry order is report order within each hook and overall.
REGISTRY = (
    Criterion("A1", "drawing count = n! = closed form", HOOK, 4, 7, _drawing_count),
    Criterion("A2", "rank of drawing images = n!", HOOK, 4, 6, _basis_rank),
    Criterion("A3", "derivative closure dimension = n!", HOOK, 4, 6, _closure_dim),
    Criterion("A6", "quotient total = n!, graded table = closure table, shell vanishes",
              HOOK, 4, 5, _quotient),
    Criterion("A4", "spanning rewriting exact on every bounded operator", HOOK, 4, 5, _rewriting),
    Criterion("A5a", "every listed generator annihilates Delta", HOOK, 4, 7, _generators),
    Criterion("A5b", "every relation-schema instance annihilates Delta", HOOK, 3, 6,
              _schema_instances),
    Criterion("A7a", "reconstruct o split = identity from S and T", HOOK, 4, 6,
              _split_round_trip),
    Criterion("A7b", "descendant graph acyclic", HOOK, 4, 6, _acyclic),
    Criterion("A7c", "flip-son duality", HOOK, 4, 6, _flip_son_duality),
    Criterion("A7d", "flip is an involution preserving the family", HOOK, 4, 7, _flip_involution),
    Criterion("A8a", "drawing count = n!/mu'!", PARTITION, 4, 7, _bar_count),
    Criterion("A8b/A8c", "minimal monomials, distinct whites, image ranks and "
              "x-degree-0 slice = n!/mu'!", PARTITION, 4, 6, _bar_bases),
    Criterion("A8d", "corner recursion identity", ONCE, 4, 8, _corner_recursion),
    Criterion("A9a", "worked operator string round-trips through its drawing", ONCE, None, None,
              _worked_operator),
    Criterion("A9b", "cross/white monomial strings parse and re-format losslessly", ONCE,
              None, None, _monomial_fixtures),
)


def criterion(label: str) -> Criterion:
    return next(c for c in REGISTRY if c.label == label)


def run(level: str, criteria=REGISTRY,
        progress: Callable[[str, int, float], None] | None = None) -> list[tuple[Criterion, Check]]:
    """Every (criterion, row) of the chosen criteria at the given level.

    When given, progress(name, rows, seconds) is called after each hook, with
    the rows of all its criteria, and after each partition of a PARTITION
    criterion.
    """
    out: list[tuple[Criterion, Check]] = []

    def emit(name: str, make: Callable[[], list[tuple[Criterion, Check]]]) -> None:
        started = time.perf_counter()
        rows = make()
        out.extend(rows)
        if progress is not None:
            progress(name, len(rows), time.perf_counter() - started)

    per_hook = [c for c in criteria if c.scope == HOOK]
    nmax = max((c.bound(level) for c in per_hook), default=0)
    for n in range(1, nmax + 1):
        for K in range(n):
            ctx = HookContext(K, n - 1 - K)
            emit(ctx.name, lambda: [(c, row) for c in per_hook if ctx.n <= c.bound(level)
                                    for row in c.rows(ctx)])
            del ctx  # the hook's shared work goes before the next hook's
    for c in criteria:
        bound = c.bound(level)
        if c.scope == PARTITION:
            for n in range(1, bound + 1):
                for mu in partitions_of(n):
                    emit(f"{c.label} ({mu})", lambda: [(c, row) for row in c.rows(mu)])
        elif c.scope == ONCE:
            out.extend((c, row) for row in c.rows(bound))
    return out
