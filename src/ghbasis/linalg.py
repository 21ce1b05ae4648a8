"""Exact rank computations over the integers.

Rank is computed by division-free row elimination with gcd normalization:
every pivot step replaces a row r by (r * pivot_lead - pivot_row * r_lead)
divided by the gcd of its entries, which keeps all arithmetic in Z and is
exact over Q.
"""

from __future__ import annotations

from math import gcd

from .poly import Monomial, Polynomial, apply_diff, mono_key, monomial_from_orders


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """Reduce row against the pivot rows; exact integer arithmetic.

    Pivot rows have their lead at their minimum column, so elimination only
    fills in columns to the right of the one it clears; scanning for the
    smallest eliminable column until none remains gives a full reduction.
    """
    row = dict(row)
    while True:
        col = min((c for c in row if c in pivots), default=None)
        if col is None:
            return row
        piv = pivots[col]
        lead = piv[col]
        mine = row[col]
        scaled = {c: v * lead for c, v in row.items()}
        for c, v in piv.items():
            new = scaled.get(c, 0) - v * mine
            if new:
                scaled[c] = new
            else:
                scaled.pop(c, None)
        row = _normalize(scaled)


class Eliminator:
    """Incremental exact row-echelon state."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.trail: list[tuple[int, int]] = []
        self._count = 0

    def add(self, row: dict[int, int]) -> bool:
        """Insert a row; True iff it enlarged the row space."""
        reduced = _eliminate(row, self.pivots)
        index = self._count
        self._count += 1
        if not reduced:
            return False
        lead = min(reduced)
        self.pivots[lead] = reduced
        self.trail.append((index, lead))
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------

def homogeneous_family_rank(polys: list[Polynomial]) -> int:
    """Rank of a family of bihomogeneous polynomials, block by bidegree.

    Distinct bidegrees are independent outright, so the rank is the sum of
    the per-bidegree ranks; zero polynomials contribute nothing.  Within a
    block, columns are the block's monomials in mono_key order.
    """
    blocks: dict[tuple[int, int], list[Polynomial]] = {}
    for p in polys:
        if p.is_zero():
            continue
        m = next(iter(p.terms))
        blocks.setdefault(m.bidegree(), []).append(p)
    total = 0
    for bideg in sorted(blocks):
        block = blocks[bideg]
        columns = sorted({m for p in block for m in p.terms}, key=mono_key)
        index = {m: i for i, m in enumerate(columns)}
        elim = Eliminator()
        for p in block:
            elim.add({index[m]: c for m, c in p.terms.items()})
        total += elim.rank
    return total


def derivative_closure(delta) -> tuple[int, dict[tuple[int, int], int]]:
    """(dim M_mu, graded dimensions by bidegree) via breadth-first closure.

    Starts from Delta and repeatedly applies the 2n single-variable
    derivatives, inserting only rank-increasing images; bidegrees never
    collide across blocks, so each block keeps its own elimination state.
    """
    start = delta.value
    n = start.n
    index: dict[Monomial, int] = {}

    def key_of(m: Monomial) -> int:
        if m not in index:
            index[m] = len(index)
        return index[m]

    blocks: dict[tuple[int, int], Eliminator] = {}
    table: dict[tuple[int, int], int] = {}
    queue: list[Polynomial] = []

    def insert(p: Polynomial) -> bool:
        if p.is_zero():
            return False
        bideg = next(iter(p.terms)).bidegree()
        elim = blocks.setdefault(bideg, Eliminator())
        row = {key_of(m): c for m, c in p.terms.items()}
        if elim.add(row):
            table[bideg] = table.get(bideg, 0) + 1
            queue.append(p)
            return True
        return False

    insert(start)
    ops = [("x", i) for i in range(1, n + 1)] + [("y", i) for i in range(1, n + 1)]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for alphabet, i in ops:
            xo = {i: 1} if alphabet == "x" else None
            yo = {i: 1} if alphabet == "y" else None
            op = monomial_from_orders(n, xo, yo)
            insert(apply_diff(op, current))
    dim = sum(table.values())
    return dim, table
