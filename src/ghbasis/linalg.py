"""Exact rank computations over the integers.

Every monomial of a rank is a plain integer, its elimination column
(:func:`column`): x_1, y_1, ..., x_n, y_n read as digits in a base above
every exponent of the computation, negated.  Within a bidegree that is the
mono_less order of the paper's triangularity proofs, so triangular families,
such as cross images, arrive already in echelon form.  A row is a dict from
column to coefficient.  Digits do not carry, so a product of monomials is
the sum of their columns, and d/dx_i or d/dy_i reads one digit: it scales a
term by that digit e and moves it one unit of the digit's weight up, or
drops it when e = 0.

Every rank of a polynomial family runs through :func:`_closure`, which
converts its starting polynomials to rows once and differentiates rows from
then on.  The one exception is the graded quotient
(annihilator._graded_quotient_dim): it streams each generator-times-monomial
row, a sum of columns, straight into its own :class:`Eliminator`.

Rank needs only echelon form: a row is reduced until its lead (smallest
column) is not a pivot column.  Each step clears the lead c with the pivot
row p of c and gcd-reduced multipliers, r <- (p[c]/g) r - (r[c]/g) p with
g = gcd(p[c], r[c]), so the arithmetic stays in Z and is exact over Q.  A
row is divided by the gcd of its entries once, when it becomes a pivot row.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantError
from .poly import Monomial, Polynomial


def column(m: Monomial, base: int) -> int:
    """Elimination column of m: x_1, y_1, ..., x_n, y_n as base digits, negated.

    The caller picks a base above every exponent it packs, so each digit is
    an exponent.  Then the map is injective, a larger exponent at the first
    differing variable gives the smaller column (within a bidegree, the
    mono_less order), and the column of a product is the sum of the columns.
    """
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


def _closure(starts: list[Polynomial], ops: list[int]) -> tuple[int, dict[tuple[int, int], int]]:
    """(dimension, dimensions by bidegree) of the span of starts closed under ops.

    Each op is a single-variable derivative, named by its digit: 2i for
    d/dx_{i+1} and 2i+1 for d/dy_{i+1}.  The base is 1 + the largest total
    degree of the starts, which no exponent of a start or a derivative
    reaches.  Each start becomes a row once; from then on a derivative works
    on the row: a term at column col, with v = -col, has the digit
    e = (v // w) % base at the op's weight w, so it goes to col + w with
    its coefficient times e, or vanishes when e = 0.

    Breadth first: each start, then each image of a queued row under each
    op in order, is kept only if it enlarges the span of its bidegree block.
    A dependent image adds nothing, since its images lie in the span of the
    images of what it depends on.  Derivatives keep a row bihomogeneous, so
    each block keeps its own elimination state; a start whose terms differ
    in bidegree raises ValueError.
    """
    base = 1 + max((sum(m.xexp) + sum(m.yexp) for p in starts for m in p.terms), default=0)
    top = 2 * starts[0].n - 1 if starts else 0
    steps = [(base ** (top - op), 1 - op % 2, op % 2) for op in ops]
    blocks: dict[tuple[int, int], Eliminator] = {}
    queue: list[tuple[tuple[int, int], dict[int, int]]] = []

    def insert(bideg: tuple[int, int], row: dict[int, int]) -> None:
        if not row:
            return
        elim = blocks.get(bideg)
        if elim is None:
            elim = blocks[bideg] = Eliminator()
        if elim.add(row):
            queue.append((bideg, row))

    for p in starts:
        bidegs = {m.bidegree() for m in p.terms}
        if len(bidegs) > 1:
            raise ValueError(f"a polynomial of bidegrees {sorted(bidegs)}, not one block")
        if bidegs:
            insert(bidegs.pop(), {column(m, base): c for m, c in p.terms.items()})
    for (a, b), row in queue:  # the queue grows while it is read: breadth first
        for w, dx, dy in steps:
            insert((a - dx, b - dy),
                   {col + w: c * e for col, c in row.items() if (e := -col // w % base)})
    table = {bideg: elim.rank for bideg, elim in blocks.items()}
    return sum(table.values()), table


def derivative_closure(delta) -> tuple[int, dict[tuple[int, int], int]]:
    """(dim M_mu, graded dimensions by bidegree) via breadth-first closure.

    Starts from Delta and repeatedly applies the 2n single-variable
    derivatives d/dx_1, ..., d/dx_n, d/dy_1, ..., d/dy_n.
    """
    n = delta.value.n
    return _closure([delta.value], [*range(0, 2 * n, 2), *range(1, 2 * n, 2)])


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
    return _closure(starts, list(range(1, 2 * n, 2)))
