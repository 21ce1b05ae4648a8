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

The column format is stated here alone: the digit weights of
:func:`_weights`, summed and negated.  A polynomial becomes a row in
:func:`pack`, which reads each term once and returns the row with its
bidegree; no rank reads a Polynomial after that.  delta.diff_delta_row
makes the same row for d^m Delta straight from the expansion, with no
Polynomial at all, from those weights.  :func:`packed_rank` ranks packed
rows block by block: :func:`homogeneous_family_rank` packs a family for
it, and zerox.verify_zero_x_degree_basis hands it the rows of its drawing
images.  :func:`_closure` packs its starting polynomials and
differentiates rows from then on.  The graded quotient (annihilator._graded_quotient_dim)
makes no Polynomial: it streams each generator-times-monomial row, a sum of
columns, straight into its own :class:`Eliminator`.

Rank needs only echelon form: a row is reduced until its lead (smallest
column) is not a pivot column.  Each step clears the lead c with the pivot
row p of c.  When p[c] divides r[c], the step is r <- r - (r[c]/p[c]) p and
r is not scaled.  Otherwise it takes gcd-reduced multipliers,
r <- (p[c]/g) r - (r[c]/g) p with g = gcd(p[c], r[c]).  Either way the
arithmetic stays in Z and is exact over Q.  Every pivot lead of the graded
quotient is +-1, and in the derivative closures of n = 6 the pivot lead
divides in all but 0.2% of the steps.  A row is divided by the gcd of its
entries once, when it becomes a pivot row.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import islice
from math import gcd
from operator import mul

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


@lru_cache(maxsize=None)
def _weights(base: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The weights of the digits x_1..x_n and of y_1..y_n in a column."""
    return (tuple(base ** k for k in range(2 * n - 1, 0, -2)),
            tuple(base ** k for k in range(2 * n - 2, -1, -2)))


def pack(p: Polynomial, base: int) -> tuple[tuple[int, int] | None, dict[int, int]]:
    """(bidegree, row) of a bihomogeneous polynomial, its terms read once.

    The row maps the :func:`column` of each term, here a sum of digit
    weights, to its coefficient; the zero polynomial gives (None, {}).
    Terms share exponent tuples (the expansions of delta.py share them
    within one image), so each distinct x-part and y-part is weighed, and
    its degree taken, once.  A polynomial whose terms differ in bidegree
    raises ValueError.
    """
    if not p.terms:
        return None, {}
    wx, wy = _weights(base, p.n)
    xs: dict[tuple[int, ...], int] = {}
    ys: dict[tuple[int, ...], int] = {}
    row = {}
    for (xe, ye), c in p.terms.items():
        v = xs.get(xe)
        if v is None:
            v = xs[xe] = sum(map(mul, xe, wx))
        w = ys.get(ye)
        if w is None:
            w = ys[ye] = sum(map(mul, ye, wy))
        # v + w may be allocated a digit wider than it needs; its negation
        # is a copy of exact size, where -v - w would keep it wide.
        row[-(v + w)] = c
    xdegs = {sum(xe) for xe in xs}
    ydegs = {sum(ye) for ye in ys}
    if len(xdegs) > 1 or len(ydegs) > 1:
        raise ValueError(f"a polynomial of x-degrees {sorted(xdegs)} and y-degrees "
                         f"{sorted(ydegs)}, not one block")
    return (xdegs.pop(), ydegs.pop()), row


def _eliminate(row: dict[int, int],
               pivots: dict[int, dict[int, int]]) -> tuple[int, dict[int, int]]:
    """(lead, row) with row's lead cleared until it is not a pivot column.

    Echelon form only.  Every pivot row leads at its smallest column, so a
    step that clears column c leaves only columns larger than c: the lead
    grows, the loop ends, and the row comes back empty exactly when it lies
    in the pivots' span.  The lead is meaningless for an empty row.  The
    given row and the pivot rows are not modified.
    """
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            return col, row
        p, r = piv[col], row[col]
        theirs, rest = divmod(r, p)
        if rest:
            g = gcd(p, r)
            mine, theirs = p // g, r // g
            new = {c: v * mine for c, v in row.items()}
        else:
            new = row.copy()
        for c, v in piv.items():
            w = new.get(c, 0) - v * theirs
            if w:
                new[c] = w
            else:
                del new[c]
        row = new
    return 0, row


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
        lead, reduced = _eliminate(row, self.pivots)
        index = self._count
        self._count += 1
        if not reduced:
            return False
        g = gcd(*reduced.values())
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
    base = _family_base(polys)
    return packed_rank(pack(p, base) for p in polys)


def packed_rank(rows: Iterable[tuple[tuple[int, int] | None, dict[int, int]]]) -> int:
    """Rank of packed rows, each a (bidegree, row) pair of :func:`pack`: the
    sum of the ranks of their bidegree blocks, one Eliminator each.  All
    rows must be packed at one base; a row may be kept as a pivot row."""
    blocks: defaultdict[tuple[int, int], Eliminator] = defaultdict(Eliminator)
    for bideg, row in rows:
        if row:
            blocks[bideg].add(row)
    return sum(elim.rank for elim in blocks.values())


def _family_base(polys: list[Polynomial]) -> int:
    """1 + the largest total degree of a family of bihomogeneous polynomials,
    read from one term of each: every exponent of the family and of its
    derivatives lies below it.  :func:`pack` rejects a polynomial whose
    other terms differ in bidegree, so no term goes unchecked."""
    return 1 + max((sum(m.xexp) + sum(m.yexp) for p in polys for m in islice(p.terms, 1)),
                   default=0)


def _closure(starts: list[Polynomial], ops: list[int], face_ops: Sequence[int] = (),
             face: tuple[int, int] = (0, -1)) -> tuple[int, dict[tuple[int, int], int]]:
    """(dimension, dimensions by bidegree) of the span of starts closed under ops.

    Each op is a single-variable derivative, named by its digit: 2i for
    d/dx_{i+1} and 2i+1 for d/dy_{i+1}.  The base is that of
    :func:`_family_base`.  Each start is packed once; from then on a
    derivative works on the row: a term at column col, with v = -col, has
    the digit e = (v // w) % base at the op's weight w, so it goes to
    col + w with its coefficient times e, or vanishes when e = 0.

    Breadth first: each start, then each image of a queued row under each
    op in order, is kept only if it enlarges the span of its bidegree block.
    A dependent image adds nothing, since its images lie in the span of the
    images of what it depends on.  Derivatives keep a row bihomogeneous, so
    each block keeps its own elimination state; a start whose terms differ
    in bidegree raises ValueError.  A row of a block on the face, whose
    coordinate face[0] (0 for the x-degree, 1 for the y-degree) equals
    face[1], is offered its images under face_ops too, after those under
    ops; :func:`derivative_closure` says when that still spans.
    """
    base = _family_base(starts)
    top = 2 * starts[0].n - 1 if starts else 0
    face_steps = [(base ** (top - op), 1 - op % 2, op % 2) for op in [*ops, *face_ops]]
    steps = face_steps[:len(ops)]
    side, level = face
    blocks: defaultdict[tuple[int, int], Eliminator] = defaultdict(Eliminator)
    queue: list[tuple[tuple[int, int], dict[int, int]]] = []

    def insert(bideg: tuple[int, int], row: dict[int, int]) -> None:
        if row and blocks[bideg].add(row):
            queue.append((bideg, row))

    for p in starts:
        insert(*pack(p, base))
    for (a, b), row in queue:  # the queue grows while it is read: breadth first
        for w, dx, dy in face_steps if (a, b)[side] == level else steps:
            insert((a - dx, b - dy),
                   {col + w: c * e for col, c in row.items() if (e := -col // w % base)})
    table = {bideg: elim.rank for bideg, elim in blocks.items()}
    return sum(table.values()), table


def derivative_closure(delta) -> tuple[int, dict[tuple[int, int], int]]:
    """(dim M_mu, graded dimensions by bidegree) via breadth-first closure.

    M_mu is spanned by the derivatives d^m Delta, and Delta is bihomogeneous
    of bidegree (A, B).  Call M_(a,b) its block of bidegree (a, b).  For
    a < A every such m has an x-factor, so M_(a,b) = sum_i d/dx_i M_(a+1,b);
    on the face a = A, M_(A,b) = sum_i d/dy_i M_(A,b+1).  So the n
    x-derivatives are applied to every row, and the n y-derivatives only to
    the rows of x-degree A.  With x and y exchanged the same holds, and the
    alphabet of the smaller top degree (x when A <= B) plays the part of x:
    on the hook (3, 2), with (A, B) = (3, 6), that offers 2407 rows against
    2820 the other way and 4686 with all 2n derivatives on every row.
    Bihomogeneity is checked by the closure itself: a term of Delta outside
    the block of its first term raises ValueError.
    """
    value = delta.value
    n = value.n
    xs, ys = list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2))
    top_x, top_y = next(iter(value.terms)).bidegree()
    if top_x <= top_y:
        return _closure([value], xs, ys, face=(0, top_x))
    return _closure([value], ys, xs, face=(1, top_y))


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
