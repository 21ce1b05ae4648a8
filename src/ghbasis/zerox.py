"""Drawings for arbitrary partitions and the zero-x-degree bases of M_mu.

A shape is a sequence of n-1 bars; the multiset of (n_x, n_y) cell counts
over the bars is the biexponent set of mu with (0, 0) removed.  Rules:

1. bars with equal n_x appear in strictly decreasing n_y order, left to right;
2. every x-cell carries a cross (implicit: x-crosses are not stored);
3. a bar B standing left of any bar B' with n_x(B') > n_x(B) and q y-cells
   must keep at least q+1 white y-cells.

The cross diagram S of a drawing (all x-cells plus the chosen y-crosses)
and the white diagram T (the remaining y-cells) give monomial operators;
applied to Delta_mu they produce bases of the x-degree-0 and x-degree-n(mu)
homogeneous subspaces, each of dimension n!/mu'!.

The dimension of the x-degree-0 slice of M_mu itself is read from
linalg.x_degree_zero_closure, not from the full derivative closure: Delta is
bihomogeneous of x-degree n(mu), so d^m Delta has x-degree 0 exactly when
the x-part of m is the x-part of a term of Delta, and the slice is the
closure of those images under the n y-derivatives alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial

from .delta import DeltaPolynomial
from .errors import NoPreimageError, SizeLimitError
from .linalg import homogeneous_family_rank, x_degree_zero_closure
from .partitions import Partition, biexponents, conjugate_factorial, corners, remove_corner
from .poly import Monomial, apply_diff, min_monomial

DEFAULT_LIMIT = 8


@dataclass(frozen=True)
class GeneralDrawing:
    mu: Partition
    bars: tuple[tuple[int, int, int], ...]  # (n_x, n_y, y_crosses) per place 1..n-1

    @property
    def n(self) -> int:
        return self.mu.n


def _bar_groups(mu: Partition) -> dict[int, list[tuple[int, int]]]:
    """The (n_x, n_y) bars of mu grouped by n_x, each group in the
    decreasing n_y order that rule 1 pins."""
    bars = [b.as_pair() for b in biexponents(mu) if b.as_pair() != (0, 0)]
    groups: dict[int, list[tuple[int, int]]] = {}
    for bar in sorted(bars, key=lambda bar: -bar[1]):
        groups.setdefault(bar[0], []).append(bar)
    return groups


def _bar_orders(mu: Partition):
    """All left-to-right bar sequences obeying rule 1.

    Bars sharing an n_x value have pairwise distinct n_y, and rule 1 pins
    their relative order, so the orders are exactly the distinct shuffles of
    the n_x groups.
    """
    groups = _bar_groups(mu)
    keys = sorted(groups)
    counts = {nx: len(groups[nx]) for nx in keys}
    total = sum(counts.values())

    def shuffles(remaining, prefix):
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for nx in keys:
            if remaining[nx]:
                taken = counts[nx] - remaining[nx]
                remaining[nx] -= 1
                prefix.append(groups[nx][taken])
                yield from shuffles(remaining, prefix)
                prefix.pop()
                remaining[nx] += 1

    yield from shuffles(dict(counts), [])


def _min_whites(order: tuple[tuple[int, int], ...], i: int) -> int:
    """Rule 3 floor on white y-cells for the bar at position i (0-based)."""
    nx = order[i][0]
    floor = 0
    for j in range(i + 1, len(order)):
        if order[j][0] > nx:
            floor = max(floor, order[j][1] + 1)
    return floor


def enumerate_general(mu: Partition, limit: int = DEFAULT_LIMIT) -> list[GeneralDrawing]:
    """All valid drawings for mu, each exactly once, in a deterministic order."""
    if mu.n > limit:
        raise SizeLimitError(f"n = {mu.n} exceeds the drawing size limit {limit}")
    out = []
    for order in sorted(_bar_orders(mu)):
        ranges = []
        feasible = True
        for i, (nx, ny) in enumerate(order):
            top = ny - _min_whites(order, i)
            if top < 0:
                feasible = False
                break
            ranges.append(range(top + 1))
        if not feasible:
            continue
        for crosses in product(*ranges):
            bars = tuple((nx, ny, c) for (nx, ny), c in zip(order, crosses))
            out.append(GeneralDrawing(mu=mu, bars=bars))
    return out


def count_check(mu: Partition, limit: int = DEFAULT_LIMIT) -> tuple[int, int]:
    """(enumerated count, n!/mu'!)."""
    count = len(enumerate_general(mu, limit=limit))
    expected = factorial(mu.n) // conjugate_factorial(mu)
    return count, expected


def corner_recursion_check(mu: Partition) -> bool:
    """Inductive corner identity: n!/mu'! = sum_j alpha_j (n-1)!/mu'^j!.

    The sum runs over the corners of mu; alpha_j is the number of columns
    sharing the corner's height, and mu^j is mu with that corner removed.
    """
    n = mu.n
    lhs = factorial(n) // conjugate_factorial(mu)
    if n == 1:
        return lhs == 1
    rhs = 0
    for row in corners(mu):
        nxt = mu.parts[row] if row < mu.k else 0
        alpha = mu.parts[row - 1] - nxt
        smaller = remove_corner(mu, row)
        rhs += alpha * (factorial(n - 1) // conjugate_factorial(smaller))
    return lhs == rhs


def split_general(d: GeneralDrawing) -> tuple[Monomial, Monomial]:
    """(M_S, M_T): crosses and whites of the drawing as ambient-n monomials."""
    n = d.n
    xe = [0] * n
    ye = [0] * n
    we = [0] * n
    for place, (nx, ny, c) in enumerate(d.bars, start=1):
        xe[place - 1] = nx
        ye[place - 1] = c
        we[place - 1] = ny - c
    s = Monomial(tuple(xe), tuple(ye))
    t = Monomial((0,) * n, tuple(we))
    return s, t


def flip_general(d: GeneralDrawing) -> GeneralDrawing:
    """Invert whites and crosses; yields a diagram with no x-crosses.

    The flipped object is not itself a member of the family (its x-cells are
    white), but its y-cross diagram is the white diagram T of d.
    """
    return GeneralDrawing(mu=d.mu, bars=tuple((nx, ny, ny - c) for nx, ny, c in d.bars))


def reconstruct_general(part: Monomial, from_s: bool, mu: Partition) -> GeneralDrawing:
    """Unique drawing with the given S (or T) diagram, built left to right."""
    n = mu.n
    if part.n != n:
        raise NoPreimageError(f"monomial ambient {part.n} != n = {n}")
    if part.xexp[n - 1] or part.yexp[n - 1]:
        raise NoPreimageError("diagram touches variable n; drawings have n-1 places")
    if from_s:
        return _reconstruct_from_s(part, mu)
    return _reconstruct_from_t(part, mu)


def _reconstruct_from_s(part: Monomial, mu: Partition) -> GeneralDrawing:
    n = mu.n
    groups = _bar_groups(mu)
    taken = {nx: 0 for nx in groups}
    bars = []
    for place in range(n - 1):
        nx = part.xexp[place]
        c = part.yexp[place]
        if nx not in groups or taken[nx] >= len(groups[nx]):
            raise NoPreimageError(f"no bar with {nx} x-cells left for place {place + 1}")
        bar = groups[nx][taken[nx]]  # rule 1 pins the order within the group
        taken[nx] += 1
        if c > bar[1]:
            raise NoPreimageError(f"{c} y-crosses exceed the {bar[1]} y-cells at place {place + 1}")
        bars.append((bar[0], bar[1], c))
    candidate = GeneralDrawing(mu=mu, bars=tuple(bars))
    if not _rules_ok(candidate):
        raise NoPreimageError("reconstructed bar sequence violates the white-cell rule")
    return candidate


def _reconstruct_from_t(part: Monomial, mu: Partition) -> GeneralDrawing:
    if any(part.xexp):
        raise NoPreimageError("a white diagram has no x-entries")
    n = mu.n
    whites = part.yexp
    groups = _bar_groups(mu)
    solutions: list[tuple[tuple[int, int, int], ...]] = []

    def extend(place, taken, bars):
        if len(solutions) > 1:
            return
        if place == n - 1:
            candidate = GeneralDrawing(mu=mu, bars=tuple(bars))
            if _rules_ok(candidate):
                solutions.append(tuple(bars))
            return
        w = whites[place]
        for nx in sorted(groups):
            if taken[nx] >= len(groups[nx]):
                continue
            bar = groups[nx][taken[nx]]  # rule 1: next bar of this group is forced
            if bar[1] < w:
                continue
            taken[nx] += 1
            bars.append((bar[0], bar[1], bar[1] - w))
            extend(place + 1, taken, bars)
            bars.pop()
            taken[nx] -= 1

    extend(0, {nx: 0 for nx in groups}, [])
    if not solutions:
        raise NoPreimageError("no drawing has this white diagram")
    if len(solutions) > 1:
        raise NoPreimageError("white diagram is ambiguous; reconstruction is not unique")
    return GeneralDrawing(mu=mu, bars=solutions[0])


def _rules_ok(d: GeneralDrawing) -> bool:
    bars = d.bars
    for i, (nx, ny, c) in enumerate(bars):
        if not 0 <= c <= ny:
            return False
        if ny - c < _min_whites(tuple((a, b) for a, b, _ in bars), i):
            return False
    for i in range(len(bars)):
        for j in range(i + 1, len(bars)):
            if bars[i][0] == bars[j][0] and bars[i][1] <= bars[j][1]:
                return False
    return True


def check_minimal_monomials(d: GeneralDrawing, delta: DeltaPolynomial) -> bool:
    """True iff min(dS.Delta) = M_T and min(dT.Delta) = M_S.

    delta must be Delta of d.mu; a Delta of another partition raises ValueError.
    """
    if delta.mu != d.mu:
        raise ValueError(f"Delta of {delta.mu} given for a drawing of {d.mu}")
    s, t = split_general(d)
    return _minimal_monomials_ok(s, t, apply_diff(s, delta.value), apply_diff(t, delta.value))


def _minimal_monomials_ok(s: Monomial, t: Monomial, image_s, image_t) -> bool:
    if image_s.is_zero() or image_t.is_zero():
        return False
    return min_monomial(image_s) == t and min_monomial(image_t) == s


def verify_zero_x_degree_basis(mu: Partition, delta: DeltaPolynomial,
                               limit: int = DEFAULT_LIMIT) -> dict:
    """Full verification report for the bases of M_mu^0 and M_mu^{n(mu)}.

    delta must be Delta_mu; a Delta of another partition raises ValueError.
    """
    if delta.mu != mu:
        raise ValueError(f"Delta of {delta.mu} given for {mu}")
    drawings = enumerate_general(mu, limit=limit)
    expected = factorial(mu.n) // conjugate_factorial(mu)
    n_mu = delta.bidegree[0]

    s_images = []
    t_images = []
    xdeg_zero = True
    xdeg_top = True
    triangular = True
    white_halves = set()
    for d in drawings:
        s, t = split_general(d)
        white_halves.add(t)
        ps = apply_diff(s, delta.value)
        pt = apply_diff(t, delta.value)
        s_images.append(ps)
        t_images.append(pt)
        if ps.is_zero() or any(m.xdeg() != 0 for m in ps.terms):
            xdeg_zero = False
        if pt.is_zero() or any(m.xdeg() != n_mu for m in pt.terms):
            xdeg_top = False
        if not _minimal_monomials_ok(s, t, ps, pt):
            triangular = False

    rank_s = homogeneous_family_rank(s_images)
    rank_t = homogeneous_family_rank(t_images)
    dim_zero_slice, _ = x_degree_zero_closure(delta)

    return {
        "count": len(drawings),
        "expected": expected,
        "count_ok": len(drawings) == expected,
        "x_degree_zero_ok": xdeg_zero,
        "x_degree_top_ok": xdeg_top,
        "triangularity_ok": triangular,
        "distinct_minimal_monomials": len(white_halves) == len(drawings),
        "rank_s": rank_s,
        "rank_t": rank_t,
        "rank_ok": rank_s == expected and rank_t == expected,
        "dim_zero_slice": dim_zero_slice,
        "dim_zero_slice_ok": dim_zero_slice == expected,
    }
