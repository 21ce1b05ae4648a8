"""Drawings for arbitrary partitions and the zero-x-degree bases of M_mu.

A shape is a sequence of n-1 bars; the multiset of (n_x, n_y) cell counts
over the bars is the biexponent set of mu with (0, 0) removed.  Rules:

1. bars with equal n_x appear in strictly decreasing n_y order, left to right;
2. every x-cell carries a cross (implicit: x-crosses are not stored);
3. a bar B standing left of any bar B' with n_x(B') > n_x(B) and q y-cells
   must keep at least q+1 white y-cells.

Each rule is stated once: _bar_orders yields exactly the bar orders that
obey rule 1, _cross_ranges gives the y-cross counts that rule 3 leaves each
bar of an order, and rule 2 needs no code.  enumerate_general and
reconstruct_general both read the rules from there, and count_check
multiplies the sizes of the cross ranges without building a drawing.

The cross diagram S of a drawing (all x-cells plus the chosen y-crosses)
and the white diagram T (the remaining y-cells) give monomial operators;
applied to Delta_mu they produce bases of the x-degree-0 and x-degree-n(mu)
homogeneous subspaces, each of dimension n!/mu'!.  Each image d^S Delta and
d^T Delta becomes a packed row (linalg.pack) as soon as diff_delta makes
it; the x-degrees, the minimal monomials and the ranks are all read from
the rows.

The dimension of the x-degree-0 slice of M_mu itself is read from
linalg.x_degree_zero_closure, not from the full derivative closure: Delta is
bihomogeneous of x-degree n(mu), so d^m Delta has x-degree 0 exactly when
the x-part of m is the x-part of a term of Delta, and the slice is the
closure of those images under the n y-derivatives alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod

from .delta import DeltaPolynomial, diff_delta
from .errors import NoPreimageError, SizeLimitError
from .linalg import column, pack, packed_rank, x_degree_zero_closure
from .partitions import Partition, biexponents, conjugate_factorial, corners, remove_corner
from .poly import Monomial

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
    """All left-to-right bar sequences obeying rule 1, in increasing order.

    Bars sharing an n_x value have pairwise distinct n_y, and rule 1 pins
    their relative order, so the orders are exactly the distinct shuffles of
    the n_x groups.  Each place tries the groups in increasing n_x, and two
    orders with a common prefix first differ in the n_x of the next bar, so
    the orders come out as increasing tuples.
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


def _cross_ranges(order: tuple[tuple[int, int], ...]) -> list[range] | None:
    """Rule 3: the y-cross counts each bar of order may take, or None when
    some bar has fewer y-cells than its white floor (the first such bar
    ends the scan)."""
    ranges = []
    for i, (_, ny) in enumerate(order):
        top = ny - _min_whites(order, i)
        if top < 0:
            return None
        ranges.append(range(top + 1))
    return ranges


def _check_size(mu: Partition, limit: int) -> None:
    if mu.n > limit:
        raise SizeLimitError(f"n = {mu.n} exceeds the drawing size limit {limit}")


def enumerate_general(mu: Partition, limit: int = DEFAULT_LIMIT) -> list[GeneralDrawing]:
    """All valid drawings for mu, each exactly once, in a deterministic order."""
    _check_size(mu, limit)
    out = []
    for order in _bar_orders(mu):
        ranges = _cross_ranges(order)
        if ranges is None:
            continue
        for crosses in product(*ranges):
            bars = tuple((nx, ny, c) for (nx, ny), c in zip(order, crosses))
            out.append(GeneralDrawing(mu=mu, bars=bars))
    return out


def count_check(mu: Partition, limit: int = DEFAULT_LIMIT) -> tuple[int, int]:
    """(number of drawings of mu, n!/mu'!).

    The number is counted from the rules, with no drawing built: a bar
    order admits one drawing per choice of a cross count from each of its
    _cross_ranges, and an order that _cross_ranges rejects admits none.
    enumerate_general builds exactly these drawings.
    """
    _check_size(mu, limit)
    count = sum(prod(map(len, ranges)) for order in _bar_orders(mu)
                if (ranges := _cross_ranges(order)) is not None)
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


def reconstruct_general(part: Monomial, from_s: bool, mu: Partition) -> GeneralDrawing:
    """The unique drawing whose S (or T) half is part; NoPreimageError if none.

    Rule 1 pins the order of the bars inside each n_x group, so a bar order
    of _bar_orders is fixed by its word of n_x values.  From S the candidate
    is the order whose word is S's x-exponents at places 1..n-1, and the
    cross counts are S's y-exponents; from T every order is a candidate, and
    the bar with n_y y-cells and w whites at its place has n_y - w crosses.
    A candidate is a drawing when _cross_ranges (rule 3) admits each of its
    cross counts.  Distinct drawings have distinct white halves, so at most
    one candidate survives; two would raise NoPreimageError as ambiguous.
    """
    n = mu.n
    if part.n != n:
        raise NoPreimageError(f"monomial ambient {part.n} != n = {n}")
    if part.xexp[n - 1] or part.yexp[n - 1]:
        raise NoPreimageError("diagram touches variable n; drawings have n-1 places")
    if not from_s and any(part.xexp):
        raise NoPreimageError("a white diagram has no x-entries")
    found = []
    for order in _bar_orders(mu):
        if from_s:
            if tuple(nx for nx, _ in order) != part.xexp[:n - 1]:
                continue
            crosses = part.yexp
        else:
            crosses = tuple(ny - w for (_, ny), w in zip(order, part.yexp))
        ranges = _cross_ranges(order)
        if ranges is not None and all(c in r for c, r in zip(crosses, ranges)):
            bars = tuple((nx, ny, c) for (nx, ny), c in zip(order, crosses))
            found.append(GeneralDrawing(mu=mu, bars=bars))
    if not found:
        raise NoPreimageError(f"no drawing of {mu} has this {'cross' if from_s else 'white'} half")
    if len(found) > 1:
        raise NoPreimageError("white half is ambiguous; reconstruction is not unique")
    return found[0]


def check_minimal_monomials(d: GeneralDrawing) -> bool:
    """True iff min(dS.Delta) = M_T and min(dT.Delta) = M_S, for Delta of d.mu."""
    delta = DeltaPolynomial(d.mu)
    base = _image_base(delta)
    s, t = split_general(d)
    return (_has_minimum(pack(diff_delta(s, delta), base), t, base)
            and _has_minimum(pack(diff_delta(t, delta), base), s, base))


def _image_base(delta: DeltaPolynomial) -> int:
    """1 + n(mu) + n(mu'): above every exponent of every d^m Delta_mu."""
    return 1 + sum(delta.bidegree)


def _has_minimum(packed: tuple[tuple[int, int] | None, dict[int, int]], m: Monomial,
                 base: int) -> bool:
    """True iff the packed image is nonzero and m is its minimal monomial.

    Within one bidegree, and with every exponent below base, the column
    order is the mono_less order, so the minimal monomial sits at the least
    column.  m must have the image's bidegree: a monomial of another
    bidegree, with an exponent of base or more, may share that column.
    """
    bideg, row = packed
    return bool(row) and bideg == m.bidegree() and min(row) == column(m, base)


def verify_zero_x_degree_basis(mu: Partition, delta: DeltaPolynomial,
                               limit: int = DEFAULT_LIMIT) -> dict:
    """Full verification report for the bases of M_mu^0 and M_mu^{n(mu)}.

    Each cross and white image becomes a packed row (linalg.pack) as soon
    as it is made, at the base of _image_base, and no image Polynomial is
    kept.  The rows answer every test: the x-degree tests read each row's
    bidegree, the minimal-monomial test is _has_minimum, and both ranks are
    linalg.packed_rank.  delta must be Delta_mu; a Delta of another
    partition raises ValueError.
    """
    if delta.mu != mu:
        raise ValueError(f"Delta of {delta.mu} given for {mu}")
    drawings = enumerate_general(mu, limit=limit)
    n_mu = delta.bidegree[0]
    base = _image_base(delta)

    s_rows = []
    t_rows = []
    xdeg_zero = True
    xdeg_top = True
    triangular = True
    white_halves = set()
    for d in drawings:
        s, t = split_general(d)
        white_halves.add(t)
        ps = pack(diff_delta(s, delta), base)
        pt = pack(diff_delta(t, delta), base)
        s_rows.append(ps)
        t_rows.append(pt)
        if ps[0] is None or ps[0][0] != 0:
            xdeg_zero = False
        if pt[0] is None or pt[0][0] != n_mu:
            xdeg_top = False
        if not (_has_minimum(ps, t, base) and _has_minimum(pt, s, base)):
            triangular = False

    rank_s = packed_rank(s_rows)
    rank_t = packed_rank(t_rows)
    dim_zero_slice, _ = x_degree_zero_closure(delta)

    return {
        "count": len(drawings),
        "x_degree_zero_ok": xdeg_zero,
        "x_degree_top_ok": xdeg_top,
        "triangularity_ok": triangular,
        "distinct_minimal_monomials": len(white_halves) == len(drawings),
        "rank_s": rank_s,
        "rank_t": rank_t,
        "dim_zero_slice": dim_zero_slice,
    }
