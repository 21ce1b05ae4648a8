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
Annihilation needs less than d^m Delta: only its sums under a Young subgroup
of places, as annihilator.annihilates explains.  :func:`_fold` makes those
sums by antisymmetry: rows of one block with equal operator pairs are
interchangeable, so it deals each set of columns to them once and weights
the term by the permutations it stands for.
Delta is fixed by mu, so :class:`DeltaPolynomial` holds mu alone and expands
its ``value``, the case m = 1, on first read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial, perm, prod
from operator import eq, getitem, itemgetter, mul

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


def _fill(parts: tuple[int, ...], pairs: tuple[tuple[int, int], ...], scale: int):
    """(ps, qs, layout, filled, partial): the rows that an operator touches, filled.

    pairs lists the operator's (a_i, b_i), row by row.  ps, qs are the
    column exponents of _row_table, layout is _layout(n) and filled the
    mask of the rows that the operator touches, (a_i, b_i) != (0, 0).
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
    if len(pairs) != n:
        raise ValueError(f"operator ambient {len(pairs)} != Delta ambient {n}")
    layout = _layout(n)
    rows = []
    filled = 0
    for i, ab in enumerate(pairs):
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
    ps, qs, layout, filled, partial = _fill(parts, tuple(zip(*op)), scale)
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


def _fold(parts: tuple[int, ...], weights: dict[tuple, int],
          blocks: list[tuple[int, ...]]) -> dict[tuple, int]:
    """The signed canonical sums of Q = sum_R w_R d^R Delta_mu under the
    Young subgroup H = S_B1 x ... x S_Bk of the blocks (0-based rows).

    weights maps each canonical term R, its pairs (a_i, b_i) row by row and
    sorted inside each block, to w_R.  A form is the sorted pairs of each
    block, then the pairs of the rows outside every block, in row order.  A
    term of Q goes to its form with the sign of the sorting, or to nothing
    when a block repeats a pair (_signed_sort); Q maps to 0 under A_H exactly
    when every sum is 0.

    Rows of one block that carry the same pair of R form a class.  Swapping
    the columns of two of its rows swaps two equal factors of the term and
    two exponent pairs inside the block, so the term keeps its form and its
    signed coefficient.  Each set of columns is therefore dealt to a class
    once, in increasing order, and R is weighted by the product of |class|!.

    The rows are filled in one order pi for every R: each block from its
    last row to its first, so that R's larger pairs, the rows it touches,
    come before its free rows, then the rows outside every block.  A class
    is then a run of equal pairs along pi.  sgn(sigma) = sgn(pi) times the
    sign of the columns along pi, which gains the used columns above each
    new one (those of a class increase, so they add no inversion).  A block
    is read back from last row to first, which turns the sign of its
    sorting by (-1)^(s(s-1)/2) for a block of s rows; that and sgn(pi) are
    the same for every R.
    """
    choices, ps, _ = _row_table(parts)
    n = len(ps)
    pi: list[int] = []
    spans = []  # the positions of each block along pi
    for block in blocks:
        spans.append((len(pi), len(pi) + len(block)))
        pi += reversed(block)
    joined = [False] * n  # position t lies in the block of position t - 1
    for lo, hi in spans:
        joined[lo + 1:hi] = [True] * (hi - lo - 1)
    tail = len(pi)
    pi += sorted(set(range(n)).difference(pi))
    sign = perm_sign(pi) * (-1) ** sum(len(b) * (len(b) - 1) // 2 for b in blocks)
    along = itemgetter(*pi) if n > 1 else tuple
    sums: dict[tuple, int] = {}
    for term, w in weights.items():
        seq = along(term)
        rows = list(map(choices.get, seq))
        if not all(rows):
            continue  # some row has no column
        runs: list[list[int]] = []
        for t in range(n):
            if joined[t] and seq[t] == seq[t - 1]:
                runs[-1][1] += 1
            else:
                runs.append([t, 1])
        partial = [(0, w * sign * prod(factorial(s) for _, s in runs), ())]
        for t, s in runs:
            row = rows[t]
            if s == 1:
                partial = [(used | 1 << j, (-c if (used >> j).bit_count() & 1 else c) * f,
                            got + ((p, q),))
                           for used, c, got in partial for j, f, p, q in row if not used >> j & 1]
                continue
            dealt = []
            for used, c, got in partial:
                for combo in combinations([e for e in row if not used >> e[0] & 1], s):
                    u, cc = used, c
                    for j, f, _, _ in combo:
                        cc = (-cc if (used >> j).bit_count() & 1 else cc) * f
                        u |= 1 << j
                    dealt.append((u, cc, got + tuple((p, q) for _, _, p, q in combo)))
            partial = dealt
        for _, c, got in partial:
            form = []
            for lo, hi in spans:
                inside_pairs, flip = _signed_sort(got[lo:hi])
                if not flip:
                    break
                form.append(inside_pairs)
                c *= flip
            else:
                form.append(got[tail:])
                form = tuple(form)
                sums[form] = sums.get(form, 0) + c
    return sums


def _signed_sort(pairs: tuple) -> tuple[tuple, int]:
    """pairs sorted, and the sign of the sorting; (pairs, 0) when a pair repeats."""
    inside = tuple(sorted(pairs))
    if any(map(eq, inside, inside[1:])):
        return pairs, 0
    if inside == pairs:
        return inside, 1
    return inside, perm_sign(sorted(range(len(pairs)), key=pairs.__getitem__))


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
    ps, qs, layout, filled, partial = _fill(delta.mu.parts, tuple(zip(*op)), 1)
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
