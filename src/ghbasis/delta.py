"""The determinant Delta_mu of the biexponent monomial matrix and its derivatives.

Delta_mu = det( x_i^{p_j} y_i^{q_j} ), rows indexed by the variable index i,
columns by the biexponents (p_j, q_j) of mu in lexicographic order.  It is
bihomogeneous of bidegree (n(mu), n(mu')); for mu = (1^n) or (n) it reduces
to the Vandermonde determinant in x or y.

A monomial operator d^m with m = prod x_i^{a_i} y_i^{b_i} acts on row i
alone, so d^m Delta_mu is the determinant of the differentiated rows: row i
may take column j only when p_j >= a_i and q_j >= b_i, with the factor
perm(p_j, a_i) * perm(q_j, b_i) and the exponents (p_j - a_i, q_j - b_i)
left behind.  :func:`diff_delta` expands that determinant over the
permutations that survive d^m, never over all n! terms of Delta.  It fills
the rows that m touches first, since only they can run out of columns, and
then deals the free columns to the other rows.  The row choices are
tabulated once per partition and (a, b).  The biexponents are distinct, so
distinct permutations give distinct monomials and nothing cancels inside
one d^m.  poly.apply_diff, which walks every term, is the test oracle.
:func:`diff_delta_row` makes the same expansion as a packed row of
linalg's columns: each filled-row choice gets its column sum once, and each
dealing of the free columns adds its entries from a table of column
weights, so no Monomial is built; it equals linalg.pack(diff_delta(...)).
The filled-row loop (_fill) is shared, and only the dealing differs.
Delta is fixed by mu, so :class:`DeltaPolynomial` holds mu alone and expands
its ``value``, the case m = 1, on first read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import perm
from operator import getitem, itemgetter, mul

from .errors import SizeLimitError
from .linalg import _weights
from .partitions import Partition, biexponents, conjugate, n_stat
from .poly import Monomial, Polynomial, unit_monomial

DEFAULT_LIMIT = 9


@dataclass(frozen=True)
class DeltaPolynomial:
    """Delta_mu, named by mu alone; bidegree and value are derived on first read."""

    mu: Partition

    @property
    def n(self) -> int:
        return self.mu.n

    @cached_property
    def bidegree(self) -> tuple[int, int]:  # (n(mu), n(mu'))
        return (n_stat(self.mu), n_stat(conjugate(self.mu)))

    @cached_property
    def value(self) -> Polynomial:
        """Delta_mu as d^1 Delta_mu: every permutation survives the unit operator.

        The term of sigma is sgn(sigma) prod_i x_i^{p_sigma(i)} y_i^{q_sigma(i)},
        so the identity permutation is positive; downstream checks are
        insensitive to the global sign.  The terms come in the lexicographic
        order of sigma, and each has coefficient +-1: Delta has exactly n! terms.
        """
        return Polynomial(self.n, _expand(self.mu.parts, unit_monomial(self.n), 1))


def build_delta(mu: Partition, limit: int = DEFAULT_LIMIT) -> DeltaPolynomial:
    """Delta_mu, once n is within the determinant size limit."""
    if mu.n > limit:
        raise SizeLimitError(f"n = {mu.n} exceeds the determinant size limit {limit}")
    return DeltaPolynomial(mu)


def diff_delta(op: Monomial, delta: DeltaPolynomial) -> Polynomial:
    """d^op Delta_mu, expanded over the surviving permutations only.

    Equal to poly.apply_diff(op, delta.value); an operator of another
    ambient n raises ValueError.
    """
    return Polynomial(delta.n, _expand(delta.mu.parts, op, 1))


def diff_delta_poly(operator: Polynomial, delta: DeltaPolynomial) -> Polynomial:
    """P(d) Delta_mu for P = sum c_m m, one surviving expansion per term.

    Equal to poly.apply_diff_poly(operator, delta.value); an operator of
    another ambient n raises ValueError.
    """
    if operator.n != delta.n:
        raise ValueError(f"operator ambient {operator.n} != Delta ambient {delta.n}")
    out: dict[Monomial, int] = {}
    for m, c in operator.terms.items():
        image = _expand(delta.mu.parts, m, c)
        if not out:
            out = image
            continue
        for t, v in image.items():
            s = out.get(t, 0) + v
            if s:
                out[t] = s
            else:
                del out[t]
    return Polynomial(delta.n, out)


@lru_cache(maxsize=None)
def _row_table(parts: tuple[int, ...]):
    """(choices, p, q) for the partition with these parts.

    p and q are the column exponents, columns 0..n-1.  choices[a, b], for
    a <= max p and b <= max q, lists (j, perm(p_j, a) * perm(q_j, b),
    p_j - a, q_j - b) for every column j with p_j >= a and q_j >= b, in
    column order; an (a, b) outside that box has no column.  The table
    lasts as long as the process, one per partition, and holds nothing
    that depends on an operator.
    """
    cols = [c.as_pair() for c in biexponents(Partition(parts))]
    ps = tuple(p for p, _ in cols)
    qs = tuple(q for _, q in cols)
    choices = {(a, b): tuple((j, perm(p, a) * perm(q, b), p - a, q - b)
                             for j, (p, q) in enumerate(cols) if p >= a and q >= b)
               for a in range(max(ps) + 1) for b in range(max(qs) + 1)}
    return choices, ps, qs


@lru_cache(maxsize=None)
def _layout(n: int):
    """One entry per set of rows or columns in range(n), as a bit mask,
    shared by the partitions of n: (sign, pick, rest, signs).

    sign is -1 to the number of pairs of a member above a non-member.  That
    is sgn(pi) for the order pi that lists the members first, and also the
    sign of the inversions between chosen columns and the free columns dealt
    after them.  pick is the itemgetter that puts exponents listed in the
    order pi back in row order (None when pi is the identity), rest the
    non-members in order, and signs the signs of the permutations of rest in
    the lexicographic order of itertools.permutations.
    """
    # A permutation of range(k) starting with f has f inversions through its
    # first entry, and its tail runs through the permutations of the other
    # k-1 entries in lexicographic order.
    signs = [(1,)]
    for k in range(1, n + 1):
        signs.append(tuple(-s if f % 2 else s for f in range(k) for s in signs[-1]))
    table = []
    for mask in range(1 << n):
        rest = tuple(i for i in range(n) if not mask >> i & 1)
        pi = [i for i in range(n) if mask >> i & 1] + list(rest)
        crossings = sum((mask >> j).bit_count() for j in rest)
        pick = itemgetter(*sorted(range(n), key=pi.__getitem__)) if crossings else None
        table.append((-1 if crossings % 2 else 1, pick, rest, signs[len(rest)]))
    return tuple(table)


def _fill(parts: tuple[int, ...], op: Monomial, scale: int):
    """(ps, qs, layout, filled, partial): the rows that op touches, filled.

    ps, qs are the column exponents of _row_table, layout is _layout(n)
    and filled the mask of the rows that op touches, (a_i, b_i) != (0, 0).
    Those rows are filled one at a time, in increasing order, keeping every
    partial choice of distinct columns.  partial lists, for each surviving
    choice, (used columns as a mask, coefficient, x and y exponents left at
    the filled rows); it is empty when some touched row has no column.
    List the rows in processing order, filled rows first and then the
    others, as a permutation pi, and the columns chosen along it as a
    sequence c.  Then sigma o pi = c, so sgn(sigma) = sgn(pi) sgn(c).  Each
    coefficient carries scale, sgn(pi) and the inversions of c within the
    filled rows; the crossings with the columns dealt later are
    layout[used][0], and the inversions among those are the signs of
    layout[used][3].
    """
    choices, ps, qs = _row_table(parts)
    n = len(ps)
    if len(op.xexp) != n:
        raise ValueError(f"operator ambient {len(op.xexp)} != Delta ambient {n}")
    layout = _layout(n)
    rows = []
    filled = 0
    for i, ab in enumerate(zip(op.xexp, op.yexp)):
        if ab != (0, 0):
            row = choices.get(ab)
            if not row:
                return ps, qs, layout, filled, []
            rows.append(row)
            filled |= 1 << i
    partial = [(0, layout[filled][0] * scale, (), ())]
    for row in rows:
        partial = [(used | 1 << j, (-c if (used >> j).bit_count() % 2 else c) * f,
                    tx + (p,), ty + (q,))
                   for used, c, tx, ty in partial for j, f, p, q in row if not used >> j & 1]
    return ps, qs, layout, filled, partial


def _expand(parts: tuple[int, ...], op: Monomial, scale: int) -> dict[Monomial, int]:
    """scale * d^op Delta_mu as a fresh term dict.

    The rows that op touches are filled first (_fill); each survivor then
    deals its free columns to the other rows in every order.  Equal
    exponent vectors share one tuple within a call, which keeps an image
    as small as poly.apply_diff kept it: its terms shared Delta's tuples in
    the alphabet that op leaves alone.
    """
    ps, qs, layout, filled, partial = _fill(parts, op, scale)
    pick = layout[filled][1]
    out: dict[Monomial, int] = {}
    keep = {}.setdefault
    for used, c, tx, ty in partial:
        sign, _, rest, signs = layout[used]
        c *= sign
        fx = permutations([ps[j] for j in rest])
        fy = permutations([qs[j] for j in rest])
        for xs, ys, s in zip(fx, fy, signs):
            x = tx + xs
            y = ty + ys
            if pick is not None:
                x = pick(x)
                y = pick(y)
            out[Monomial(keep(x, x), keep(y, y))] = s * c
    return out


def diff_delta_row(op: Monomial, delta: DeltaPolynomial,
                   base: int) -> tuple[tuple[int, int] | None, dict[int, int]]:
    """linalg.pack(diff_delta(op, delta), base), with no term built.

    The rows that op touches are filled as _expand fills them (_fill), and
    each partial choice gets its column sum once.  A dealing of the free
    columns to the free rows adds one entry per free row from a table of
    p_j * wx[r] + q_j * wy[r], the digit weights of linalg's columns; the
    free rows are the same for every choice and the free columns depend
    only on the columns used, so each set of used columns deals once per
    call.  The bidegree is (sum p - sum a, sum q - sum b).  base must lie
    above every exponent, as for pack; an operator of another ambient n
    raises ValueError.
    """
    ps, qs, layout, filled, partial = _fill(delta.mu.parts, op, 1)
    if not partial:
        return None, {}
    wx, wy = _weights(base, len(ps))
    free_rows = layout[filled][2]
    filled_wx = [w for i, w in enumerate(wx) if filled >> i & 1]
    filled_wy = [w for i, w in enumerate(wy) if filled >> i & 1]
    deals: dict[int, list[tuple[int, int]]] = {}
    row = {}
    for used, c, tx, ty in partial:
        dealt = deals.get(used)
        if dealt is None:
            sign, _, rest, signs = layout[used]
            table = [[ps[j] * wx[r] + qs[j] * wy[r] for j in rest] for r in free_rows]
            dealt = deals[used] = [(sum(map(getitem, table, order)), sign * s)
                                   for order, s in zip(permutations(range(len(rest))), signs)]
        v = sum(map(mul, tx, filled_wx)) + sum(map(mul, ty, filled_wy))
        for w, s in dealt:
            # v + w may be allocated a digit wider than it needs; its
            # negation is a copy of exact size, where -v - w would keep it wide.
            row[-(v + w)] = s * c
    return (sum(ps) - sum(op.xexp), sum(qs) - sum(op.yexp)), row


def perm_sign(sigma: Sequence[int]) -> int:
    """The sign of the permutation k -> sigma[k] of range(len(sigma)): each
    swap that sends an entry to its own place flips it."""
    sigma = list(sigma)
    sign = 1
    for i in range(len(sigma)):
        while (j := sigma[i]) != i:
            sigma[i], sigma[j] = sigma[j], j
            sign = -sign
    return sign
