"""Exact rank computations over the integers.

One column order: every exact rank eliminates over :func:`column`, the
mono_less order of the paper's triangularity proofs.  Triangular families,
such as cross images, then arrive already in echelon form, and closures and
graded quotients measured faster than in first-seen or enumeration order.
Every rank of a polynomial family runs through :func:`_closure`.  The one
exception is the graded quotient (annihilator._graded_quotient_dim): it
streams each generator-times-monomial row straight into its own
:class:`Eliminator`, since holding those rows as Polynomials for _closure
measured a higher peak memory and a slower verdict.

Rank needs only echelon form: a row is reduced until its lead (smallest
column) is not a pivot column.  Each step clears the lead c with the pivot
row p of c and gcd-reduced multipliers, r <- (p[c]/g) r - (r[c]/g) p with
g = gcd(p[c], r[c]), so the arithmetic stays in Z and is exact over Q.  A
row is divided by the gcd of its entries once, when it becomes a pivot row.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantError
from .poly import Monomial, Polynomial, apply_diff


def column(m: Monomial) -> int:
    """Elimination column of m; within one bidegree, ordered as mono_less.

    x_1, y_1, ..., x_n, y_n read as base-(deg m + 1) digits, negated.  This
    is injective only within a bidegree: at n = 1, x1 and y1^2 both give -2.
    """
    base = sum(m.xexp) + sum(m.yexp) + 1
    value = 0
    for a, b in zip(m.xexp, m.yexp):
        value = (value * base + a) * base + b
    return -value


def _eliminate(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """Clear the lead of row until it is not a pivot column; echelon form only.

    Every pivot row leads at its smallest column, so a step that clears
    column c leaves only columns larger than c: the lead grows, the loop
    ends, and the result is empty exactly when row lies in the pivots' span.
    """
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            break
        g = gcd(piv[col], row[col])
        mine, theirs = piv[col] // g, row[col] // g
        new = {c: v * mine for c, v in row.items()}
        for c, v in piv.items():
            w = new.get(c, 0) - v * theirs
            if w:
                new[c] = w
            else:
                del new[c]
        row = new
    return row


class Eliminator:
    """Incremental exact row-echelon state."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.trail: list[tuple[int, int]] = []
        self._count = 0

    def add(self, row: dict[int, int]) -> bool:
        """Insert a row; True iff it enlarged the row space.

        The row may be kept as a pivot row as it is, so the caller must not
        modify it afterwards.
        """
        reduced = _eliminate(row, self.pivots)
        index = self._count
        self._count += 1
        if not reduced:
            return False
        g = gcd(*reduced.values())
        lead = min(reduced)
        self.pivots[lead] = {c: v // g for c, v in reduced.items()} if g > 1 else reduced
        self.trail.append((index, lead))
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------

def homogeneous_family_rank(polys: list[Polynomial]) -> int:
    """Rank of a family of bihomogeneous polynomials: the sum of the ranks
    of its bidegree blocks.  A polynomial of mixed bidegree raises ValueError."""
    return _closure(polys, [])[0]


def _closure(starts: list[Polynomial], ops: list[Monomial]) -> tuple[int, dict[tuple[int, int], int]]:
    """(dimension, dimensions by bidegree) of the span of starts closed under ops.

    Breadth first: each start, then each image of a queued polynomial under
    each op in order, is kept only if it enlarges the span of its bidegree
    block.  A dependent image adds nothing, since its images lie in the span
    of the images of what it depends on.  Every op is a bihomogeneous
    monomial, so bidegrees never collide across blocks and each block keeps
    its own elimination state and column cache; a term whose bidegree is not
    its block's raises ValueError, since :func:`column` mixes bidegrees.
    """
    blocks: dict[tuple[int, int], tuple[Eliminator, dict[Monomial, int]]] = {}
    queue: list[Polynomial] = []

    def insert(p: Polynomial) -> None:
        if p.is_zero():
            return
        bideg = next(iter(p.terms)).bidegree()
        if bideg not in blocks:
            blocks[bideg] = (Eliminator(), {})
        elim, cols = blocks[bideg]
        for m in p.terms.keys() - cols.keys():
            if m.bidegree() != bideg:
                raise ValueError(f"a term of bidegree {m.bidegree()} in the block {bideg}")
            cols[m] = column(m)
        if elim.add({cols[m]: c for m, c in p.terms.items()}):
            queue.append(p)

    for p in starts:
        insert(p)
    for current in queue:  # the queue grows while it is read: breadth first
        for op in ops:
            insert(apply_diff(op, current))
    table = {bideg: elim.rank for bideg, (elim, _) in blocks.items()}
    return sum(table.values()), table


def _derivatives(n: int) -> tuple[list[Monomial], list[Monomial]]:
    """([d/dx_1, ..., d/dx_n], [d/dy_1, ..., d/dy_n]) as monomial operators."""
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    return [Monomial(e, zero) for e in units], [Monomial(zero, e) for e in units]


def derivative_closure(delta) -> tuple[int, dict[tuple[int, int], int]]:
    """(dim M_mu, graded dimensions by bidegree) via breadth-first closure.

    Starts from Delta and repeatedly applies the 2n single-variable
    derivatives d/dx_1, ..., d/dx_n, d/dy_1, ..., d/dy_n.
    """
    xs, ys = _derivatives(delta.value.n)
    return _closure([delta.value], xs + ys)


def x_degree_zero_closure(delta) -> tuple[int, dict[tuple[int, int], int]]:
    """(dim, dimensions by bidegree) of the x-degree-0 slice of M_mu.

    The slice is read without the rest of the closure.  Delta is
    bihomogeneous of x-degree n(mu), so a derivative d^m Delta has x-degree 0
    exactly when the x-part m_x of m has degree n(mu); then d^{m_x} keeps
    only the terms of Delta whose x-part equals m_x.  The slice is therefore
    the closure, under the n y-derivatives only, of d^{x^a} Delta for the
    distinct x-parts a of the terms of Delta.  d^{x^a} Delta is a! times the
    sum of c * y^b over the terms c * x^a * y^b of Delta, and the nonzero
    scalar a! changes no span, so those sums are the starting polynomials.
    Every key of the returned table has a = 0, and the table equals the
    a = 0 entries of :func:`derivative_closure`.

    Raises InvariantError if a term of Delta has an x-degree other than
    ``delta.bidegree[0]``, since the argument above needs bihomogeneity.
    """
    value = delta.value
    n = value.n
    top = delta.bidegree[0]
    zero = (0,) * n
    by_x_part: dict[tuple[int, ...], dict[Monomial, int]] = {}
    for m, c in value.terms.items():
        if m.xdeg() != top:
            raise InvariantError(f"Delta has a term of x-degree {m.xdeg()}, not {top}")
        by_x_part.setdefault(m.xexp, {})[Monomial(zero, m.yexp)] = c
    starts = [Polynomial(n, terms) for terms in by_x_part.values()]
    return _closure(starts, _derivatives(n)[1])
