"""The annihilator ideal of Delta_mu for hooks and the spanning rewriting.

For mu = (K+1, 1^L) the ideal of operators killing Delta_mu is generated by

    h_i(x_1..x_n), h_i(y_1..y_n)   for 1 <= i <= n,
    x_i y_i                        for 1 <= i <= n,
    squarefree x-products of size L+1 and y-products of size K+1,

and four relation schemas (P == Q means (P-Q)(d) kills Delta_mu):

    1. h_k(Y) == 0 when k > 0 and k + |Y| > n;
    2. Ybar h_k(Y') == 0 when k > 0, k + |Y| > K and Y inside Y';
    3. h_k(Y) h_l(X) == 0 when k, l > 0, k + l + |Y| + |X| >= 2n and the
       index sets are nested;
    4. h_k(Y) h_l(X) == 0 when k, l > 0 and (Y inside X with k+l+|Y| > n,
       or X inside Y with k+l+|X| > n).

Every operator is built from exponent vectors, never by multiplying
polynomials.  The monomials of h_k over a set of places are the vectors of
:func:`_h_exponents`.  In h_k(Y) h_l(X) the factors use different
alphabets, so the product is the sum of x^a y^b over the x-vectors a of
h_l(X) and the y-vectors b of h_k(Y).  Distinct pairs (a, b) give distinct
monomials, so every coefficient is 1.  Ybar h_k(Y') is a monomial times a
polynomial, so each of its terms is a vector of h_k(Y') shifted by the
squarefree vector of Ybar; :func:`_products` pairs the vectors of the
schema-3/4 products with no bytecode per term.  A rewriting step shifts
the operator's own vectors in the same way.

Delta_mu is alternating, so :func:`annihilates` expands one term per orbit of
the Young subgroup that fixes the operator, not every term of it, and each
expansion deals a set of columns once to the rows that carry equal pairs
inside one block (delta._fold).  A5b folds a second time:
(sigma P)(d) Delta = sgn(sigma) sigma(P(d) Delta), so one representative with
prefix sets decides each S_n-orbit of a schema's instances, and
:func:`schema_orbits` builds its canonical terms directly under the blocks
cut at the prefix boundaries.  :func:`proposition_instances` lists every
instance; the tests and the benchmark read it.

The rewriting expresses any monomial operator modulo the ideal as an
integer combination of drawing operators.  A non-drawing diagram is
classified at its rightmost guilty place and rewritten through the schema
that applies there.  Each schema is stated once, in :func:`_rule_at`: its
condition at a place and its h-product h_k(own) h_l(other), from which
:func:`reduce_step` builds the replacement terms of every schema in one
loop.  Every emitted monomial is strictly smaller in the block
descent order of :func:`ghbasis.poly.descent_key` (scan x_1..x_n, y_1..y_n;
larger exponent at the first difference = smaller), which bounds the
rewriting by the finite set of monomials of the fixed bidegree.  That
order is the reverse of tuple order on a Monomial's (xexp, yexp): m
descends below op exactly when m > op, which is how reduce_step tests it.
The public
mono_less order of :mod:`ghbasis.poly` interleaves the alphabets instead
(that is what minimal-monomial triangularity requires); single rewrite
steps need not descend under it, though completed normal forms do.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import (chain, combinations, combinations_with_replacement, product, repeat,
                       starmap)
from math import comb, factorial, prod
from operator import add, mul

from .delta import DeltaPolynomial, _fill, _fold
from .errors import InvariantError, RewriteDefectError, SizeLimitError
from .hooks import HookDrawing, enumerate_drawings, split
from .linalg import Eliminator, column
from .partitions import hook_partition, hook_size
from .poly import Monomial, Polynomial

CASE_VALID = "valid-drawing"
CASE_NULL = "null-operator"          # some place carries both x- and y-orders
CASE_CROSS_OVERFLOW_Y = "crossed-y-overflow"   # too many crosses among crossed y-places
CASE_CROSS_OVERFLOW_X = "crossed-x-overflow"
CASE_TAIL_Y = "y-tail-overflow"      # order too high given the places up to here
CASE_TAIL_X = "x-tail-overflow"
CASE_PAIR_BLOCKED_Y = "full-y-blocked"   # full y-place against a crossed x-place to its right
CASE_PAIR_BLOCKED_X = "full-x-blocked"

ANOMALY_CASES = (
    CASE_CROSS_OVERFLOW_Y, CASE_CROSS_OVERFLOW_X,
    CASE_TAIL_Y, CASE_TAIL_X,
    CASE_PAIR_BLOCKED_Y, CASE_PAIR_BLOCKED_X,
)


@dataclass(frozen=True)
class AnomalyClass:
    case: str
    place: int | None  # guilty place (1-based); None for a valid drawing

    @property
    def is_anomaly(self) -> bool:
        return self.case in ANOMALY_CASES


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _h_exponents(degree: int, indices: tuple[int, ...], n: int):
    """Exponent vectors of the monomials of h_degree over the 1-based indices,
    in the order of combinations_with_replacement."""
    for combo in combinations_with_replacement(indices, degree):
        e = [0] * n
        for i in combo:
            e[i - 1] += 1
        yield tuple(e)


def _ones(indices: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Exponent vector of the squarefree product over the 1-based indices."""
    return tuple(int(i in indices) for i in range(1, n + 1))


def _by_degree(top: int, n: int) -> list[list[tuple[int, ...]]]:
    """The exponent vectors in n variables of each degree 0..top: the
    monomials of h_0..h_top over all n places."""
    return [list(_h_exponents(d, tuple(range(1, n + 1)), n)) for d in range(top + 1)]


def bounded_operators(n: int, bx: int, by: int):
    """Every monomial operator of x-degree <= bx and y-degree <= by;
    there are comb(bx + n, n) * comb(by + n, n) of them."""
    xs = chain.from_iterable(_by_degree(bx, n))
    ys = chain.from_iterable(_by_degree(by, n))
    return starmap(Monomial, product(xs, ys))


@dataclass(frozen=True)
class GeneratorSet:
    K: int
    L: int
    entries: tuple[tuple[str, Polynomial], ...]  # (family tag, polynomial)

    @property
    def polynomials(self) -> list[Polynomial]:
        return [p for _, p in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def generators(K: int, L: int) -> GeneratorSet:
    """The explicit generator list; 3n + C(n, L+1) + C(n, K+1) polynomials."""
    n = K + L + 1
    everything = tuple(range(1, n + 1))
    zero = (0,) * n
    h = {i: list(_h_exponents(i, everything, n)) for i in everything}
    entries = [(f"h_X({i})", Polynomial(n, {Monomial(a, zero): 1 for a in h[i]}))
               for i in everything]
    entries += [(f"h_Y({i})", Polynomial(n, {Monomial(zero, b): 1 for b in h[i]}))
                for i in everything]
    entries += [(f"xy({i})", Polynomial.monomial(Monomial(_ones((i,), n), _ones((i,), n))))
                for i in everything]
    entries += [(f"xbar{combo}", Polynomial.monomial(Monomial(_ones(combo, n), zero)))
                for combo in combinations(everything, L + 1)]
    entries += [(f"ybar{combo}", Polynomial.monomial(Monomial(zero, _ones(combo, n))))
                for combo in combinations(everything, K + 1)]
    expected = 3 * n + comb(n, L + 1) + comb(n, K + 1)
    if len(entries) != expected:
        raise InvariantError(f"built {len(entries)} generators, expected {expected}")
    return GeneratorSet(K=K, L=L, entries=tuple(entries))


def annihilates(P: Polynomial, delta: DeltaPolynomial) -> bool:
    """True iff P(d) Delta_mu = 0 exactly.

    Delta is bihomogeneous of bidegree (n(mu), n(mu')), so a term of x-degree
    above n(mu) or y-degree above n(mu') kills it; such terms are dropped
    first, and P kills Delta when none is left.  The terms left are keyed by
    their pairs (x_i, y_i), and no Monomial or Polynomial is built after
    this filter.  Distinct permutations of Delta give distinct monomials, so
    nothing cancels inside one d^m: a single term c m kills Delta exactly
    when no permutation survives d^m (delta._fill).

    Several terms are decided one orbit at a time.  Let H = S_B1 x ... x S_Bk
    be the Young subgroup generated by the place transpositions (i j) that
    fix P, where (i j) swaps x_i with x_j and y_i with y_j.  A canonical form
    has its pairs sorted inside each block.  Each H-orbit O of P's terms,
    with coefficient c_O, gives its canonical term R_O the weight
    w_O = c_O |O|, the coefficient sum of the orbit.  Delta is alternating,
    so (hT)(d) Delta = sgn(h) h(T(d) Delta) for every h in H; summing over H
    gives A_H(Q) = |H| P(d) Delta for Q = sum_O w_O R_O(d) Delta, where
    A_H f = sum_h sgn(h) h(f).  A_H sends a monomial that repeats a pair
    inside a block to 0 and any other to the sign of its sorting permutation
    times A_H of its canonical form, and the images of distinct canonical
    forms have disjoint supports.  So P kills Delta exactly when every
    signed canonical sum of Q is 0; delta._fold expands each R_O and folds
    its terms into those sums.  Any subgroup of P's stabilizer would do:
    :func:`schema_orbits` passes the blocks it already knows.
    """
    if P.n != delta.n:
        raise ValueError(f"operator ambient {P.n} != Delta ambient {delta.n}")
    bx, by = delta.bidegree
    terms = {tuple(zip(*m)): c for m, c in P.terms.items()
             if sum(m.xexp) <= bx and sum(m.yexp) <= by}
    if not terms:
        return True
    if len(terms) == 1:
        *_, survivors = _fill(delta.mu.parts, next(iter(terms)), 1)
        return not survivors
    blocks = _stabilizer_blocks(terms, P.n)
    weights: dict[tuple, int] = {}
    for pairs, c in terms.items():
        form = _sorted_form(pairs, blocks)
        weights[form] = weights.get(form, 0) + c
    return not any(_fold(delta.mu.parts, weights, blocks).values())


def _stabilizer_blocks(terms: dict[tuple, int], n: int) -> list[tuple[int, ...]]:
    """The blocks of size > 1 (0-based places) of the Young subgroup that the
    place transpositions mapping terms onto itself generate; terms are keyed
    by their pairs (x_i, y_i).

    "(i j) maps terms onto itself" is an equivalence relation on the places:
    if (i j) and (j k) do, so does (i k) = (i j)(j k)(i j).  So each place
    joins the first block whose first place it can be swapped with, or
    starts a new block.  Such a transposition permutes the terms, so places
    i and j have equal exponent sums over the terms; only those pairs are
    tested.
    """
    column_sums = [tuple(map(sum, zip(*place))) for place in zip(*terms)]
    blocks: list[list[int]] = []
    for k in range(n):
        for block in blocks:
            if column_sums[block[0]] == column_sums[k] and _swap_fixes(terms, block[0], k):
                block.append(k)
                break
        else:
            blocks.append([k])
    return [tuple(b) for b in blocks if len(b) > 1]


def _swap_fixes(terms: dict[tuple, int], i: int, j: int) -> bool:
    """True iff swapping places i and j (0-based) maps terms onto itself."""
    for pairs, c in terms.items():
        if pairs[i] == pairs[j]:
            continue
        swapped = list(pairs)
        swapped[i], swapped[j] = pairs[j], pairs[i]
        if terms.get(tuple(swapped)) != c:
            return False
    return True


def _sorted_form(pairs: tuple, blocks: list[tuple[int, ...]]) -> tuple:
    """The canonical form of a term given by its pairs (x_i, y_i): the pairs
    sorted inside each block."""
    pairs = list(pairs)
    for block in blocks:
        for k, p in zip(block, sorted([pairs[k] for k in block])):
            pairs[k] = p
    return tuple(pairs)


# ---------------------------------------------------------------------------
# relation-schema instances
# ---------------------------------------------------------------------------

def proposition_instances(n: int, K: int, L: int, which: int):
    """Every instance of the chosen relation schema's hypothesis.

    Degrees are capped one past the relevant degree of Delta_mu (y-degree
    K(K+1)/2 for the y-alphabet, x-degree L(L+1)/2 for x); larger degrees
    annihilate for trivial degree reasons.

    An h_k with k >= 1 over an empty index set is 0, so every instance that
    has one is the zero operator, which annihilates Delta trivially; these
    are 4,445 of the 55,270 instances of the hooks with n <= 5.  They are
    yielded all the same, and A5b counts them in its instance totals.
    """
    if which not in (1, 2, 3, 4):
        raise ValueError("which must be 1, 2, 3 or 4")
    if n != K + L + 1:
        raise ValueError(f"n = {n} but the hook ({K + 1}, 1^{L}) has n = {K + L + 1}")
    ky_max = K * (K + 1) // 2 + 1
    lx_max = L * (L + 1) // 2 + 1
    everything = tuple(range(1, n + 1))
    zero = (0,) * n

    if which == 1:
        for k in range(1, ky_max + 1):
            for size in range(max(0, n - k + 1), n + 1):
                for Y in combinations(everything, size):
                    yield Polynomial(n, {Monomial(zero, b): 1 for b in _h_exponents(k, Y, n)})
        return

    if which == 2:
        for yp_size in range(0, n + 1):
            for Yp in combinations(everything, yp_size):
                h = {k: list(_h_exponents(k, Yp, n)) for k in range(1, ky_max + 1)}
                for y_size in range(0, yp_size + 1):
                    for Y in combinations(Yp, y_size):
                        ybar = _ones(Y, n)
                        for k in range(1, ky_max + 1):
                            if k + len(Y) > K:
                                yield Polynomial(n, {Monomial(zero, tuple(map(add, ybar, b))): 1
                                                     for b in h[k]})
        return

    for y_size in range(0, n + 1):
        for Y in combinations(everything, y_size):
            hy = {k: list(_h_exponents(k, Y, n)) for k in range(1, ky_max + 1)}
            for x_size in range(0, n + 1):
                for X in combinations(everything, x_size):
                    nested_yx = set(Y) <= set(X)
                    nested_xy = set(X) <= set(Y)
                    if not (nested_yx or nested_xy):
                        continue
                    hx: dict[int, list[tuple[int, ...]]] = {}
                    for k in range(1, ky_max + 1):
                        for l in range(1, lx_max + 1):
                            if _nested_hit(which, n, k, l, len(Y), len(X), nested_yx, nested_xy):
                                if l not in hx:
                                    hx[l] = list(_h_exponents(l, X, n))
                                yield Polynomial(n, _products(hx[l], hy[k]))


# Monomial from the pair (xexp, yexp), skipping NamedTuple's Python-level __new__.
_monomial = partial(tuple.__new__, Monomial)


def _products(xs: list[tuple[int, ...]], ys: list[tuple[int, ...]]) -> dict[Monomial, int]:
    """{x^a y^b: 1} over b in ys, then a in xs, in that order; the terms are
    paired and built by C-level iterators, with no bytecode per term."""
    return dict.fromkeys(map(_monomial, zip(xs * len(ys),
                                            chain.from_iterable(map(repeat, ys, repeat(len(xs)))))), 1)


def schema_orbits(K: int, L: int, which: int, delta: DeltaPolynomial):
    """(orbit size, annihilates) for one representative per S_n-orbit of the
    instances of the chosen relation schema, in the hook (K+1, 1^L).

    (sigma P)(d) Delta = sgn(sigma) sigma(P(d) Delta), so a representative
    decides its orbit, and the orbit sizes sum to the number of instances
    that :func:`proposition_instances` yields.  A representative takes
    prefix sets {1..s} (_schema_representatives).  Its canonical terms are
    built directly under the Young subgroup of the blocks cut at the prefix
    boundaries, which fixes it (_representative), and decided as
    :func:`annihilates` decides its orbits (delta._fold).  One above Delta's
    bidegree annihilates without being built.  A Delta of another
    partition raises ValueError.
    """
    n = hook_size(K, L)
    if delta.mu != (mu := hook_partition(K, L)):
        raise ValueError(f"Delta of {delta.mu} given for the hook {mu}")
    bx, by = delta.bidegree
    for size, rep in _schema_representatives(n, K, L, which):
        bar, k, _, l, _ = rep
        if l > bx or k + bar > by:
            yield size, True
            continue
        weights, blocks = _representative(n, rep)
        yield size, not any(_fold(delta.mu.parts, weights, blocks).values())


def _schema_representatives(n: int, K: int, L: int, which: int):
    """(orbit size, rep) for one instance per S_n-orbit, in the order and
    with the degree caps of :func:`proposition_instances`.

    rep = (bar, k, ys, l, xs) names Ybar h_k(Y) h_l(X) with the prefix sets
    Ybar = {1..bar}, Y = {1..ys} and X = {1..xs}; h_l(X) is 1 when l = 0.
    Schema 1 is (0, k, |Y|, 0, 0) with orbit C(n, |Y|); schema 2, Ybar h_k(Y'),
    is (|Y|, k, |Y'|, 0, 0) with orbit C(n, |Y'|) C(|Y'|, |Y|); schemas 3 and
    4 are (0, k, |Y|, l, |X|).  Their sets are nested, the smaller inside
    the larger, so the orbit is C(n, large) C(large, small), and C(n, |Y|)
    when the sets are equal.
    """
    if which not in (1, 2, 3, 4):
        raise ValueError("which must be 1, 2, 3 or 4")
    ky_max = K * (K + 1) // 2 + 1
    lx_max = L * (L + 1) // 2 + 1
    if which == 1:
        for k in range(1, ky_max + 1):
            for size in range(max(0, n - k + 1), n + 1):
                yield comb(n, size), (0, k, size, 0, 0)
        return
    if which == 2:
        for yp in range(n + 1):
            for y in range(yp + 1):
                for k in range(1, ky_max + 1):
                    if k + y > K:
                        yield comb(n, yp) * comb(yp, y), (y, k, yp, 0, 0)
        return
    for ys in range(n + 1):
        for xs in range(n + 1):
            large, small = max(ys, xs), min(ys, xs)
            size = comb(n, large) * comb(large, small)
            for k in range(1, ky_max + 1):
                for l in range(1, lx_max + 1):
                    if _nested_hit(which, n, k, l, ys, xs, ys <= xs, xs <= ys):
                        yield size, (0, k, ys, l, xs)


def _nested_hit(which: int, n: int, k: int, l: int, y: int, x: int,
                y_in_x: bool, x_in_y: bool) -> bool:
    """The hypothesis of schema 3 or 4 for h_k(Y) h_l(X) with |Y| = y,
    |X| = x and nested sets, Y inside X (y_in_x) or X inside Y (x_in_y)."""
    if which == 3:
        return k + l + y + x >= 2 * n
    return (y_in_x and k + l + y > n) or (x_in_y and k + l + x > n)


def _representative(n: int, rep: tuple[int, ...]) -> tuple[dict[tuple, int], list[tuple[int, ...]]]:
    """(weights, blocks) of the representative rep of _schema_representatives.

    The prefix boundaries cut range(n) into spans; the spans of size > 1 are
    the blocks, and S_span1 x S_span2 x ... fixes the representative.  Its
    canonical terms split the x-degree l over the spans inside X and the
    y-degree k over the spans inside Y, as the exponent vectors of h_l and
    h_k over those spans (_h_exponents).  Inside a span the pairs (x_i, y_i)
    are every non-decreasing sequence with those sums (_pair_sequences),
    with y_i raised by 1 inside Ybar.  A term's weight is its orbit size,
    the product over the spans of s!/prod mult!, as every coefficient of the
    instance is 1.  An h_k over an empty set is 0, and then weights is empty.
    """
    bar, k, ys, l, xs = rep
    cuts = sorted({0, bar, ys, xs, n})
    spans = list(zip(cuts, cuts[1:]))
    blocks = [tuple(range(lo, hi)) for lo, hi in spans if hi - lo > 1]
    in_x = tuple(i for i, (_, hi) in enumerate(spans, 1) if hi <= xs)
    in_y = tuple(i for i, (_, hi) in enumerate(spans, 1) if hi <= ys)
    weights: dict[tuple, int] = {}
    for dx in _h_exponents(l, in_x, len(spans)):
        for dy in _h_exponents(k, in_y, len(spans)):
            parts = []
            for (lo, hi), a, b in zip(spans, dx, dy):
                lift = int(hi <= bar)
                parts.append([(tuple((x, y + lift) for x, y in seq), w)
                              for seq, w in _pair_sequences(hi - lo, a, b)])
            for choice in product(*parts):
                term = tuple(chain.from_iterable(seq for seq, _ in choice))
                weights[term] = prod(w for _, w in choice)
    return weights, blocks


@lru_cache(maxsize=None)
def _pair_sequences(s: int, dx: int, dy: int) -> tuple[tuple[tuple, int], ...]:
    """Every non-decreasing sequence of s >= 1 pairs with x-sum dx and
    y-sum dy, each with s!/prod mult!, the number of its orderings."""
    return tuple((seq, factorial(s) // prod(map(factorial, Counter(seq).values())))
                 for seq in _non_decreasing(s, dx, dy, (0, 0)))


def _non_decreasing(s: int, dx: int, dy: int, low: tuple[int, int]):
    """The sequences of _pair_sequences whose first pair is at least low."""
    if s == 1:
        if (dx, dy) >= low:
            yield ((dx, dy),)
        return
    for a in range(low[0], dx // s + 1):  # every later pair has x >= a
        for b in range(low[1] if a == low[0] else 0, dy + 1):
            for seq in _non_decreasing(s - 1, dx - a, dy - b, (a, b)):
                yield ((a, b),) + seq


# ---------------------------------------------------------------------------
# anomaly classification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _s_index(K: int, L: int) -> dict[Monomial, HookDrawing]:
    return {split(d)[0]: d for d in enumerate_drawings(K, L)}


def classify_diagram(op: Monomial, K: int, L: int) -> AnomalyClass:
    """Total classification of a monomial operator's cross diagram.

    A place carrying both x- and y-orders makes the operator act as zero
    (x_i y_i is in the ideal): the distinguished null outcome.  Otherwise
    the diagram either is the cross half of a drawing, or it is classified
    at its rightmost guilty place: the rightmost place whose crosses admit
    one of the three rewriting schemas, tried in the order crossed-column
    overflow, tail overflow, blocked pair.  A non-drawing diagram with no
    such place would contradict the spanning argument and is reported as a
    defect rather than patched.
    """
    case, place, _ = _classify(op, K, L)
    return AnomalyClass(case=case, place=place)


def _classify(op: Monomial, K: int, L: int) -> tuple[str, int | None, tuple | None]:
    """(case, guilty place, rule) of :func:`classify_diagram`, with the
    :func:`_rule_at` rule of an anomaly (None otherwise), so that
    :func:`reduce_step` sweeps the places once."""
    n = K + L + 1
    if op.n != n:
        raise ValueError(f"operator ambient {op.n} != n = {n}")
    for i, (a, b) in enumerate(zip(op.xexp, op.yexp), 1):
        if a and b:
            return CASE_NULL, i, None
    if op in _s_index(K, L):
        return CASE_VALID, None, None
    for g in range(n, 0, -1):
        rule = _rule_at(op, K, L, g)
        if rule is not None:
            return rule[0], g, rule
    raise RewriteDefectError(
        f"no rewriting schema applies anywhere in {op}; "
        f"this contradicts the spanning argument")


# The cases of a guilty place in each alphabet: crossed overflow, tail, blocked pair.
_Y_CASES = (CASE_CROSS_OVERFLOW_Y, CASE_TAIL_Y, CASE_PAIR_BLOCKED_Y)
_X_CASES = (CASE_CROSS_OVERFLOW_X, CASE_TAIL_X, CASE_PAIR_BLOCKED_X)


def _own_first(x, y, guilty_y: bool):
    """The pair (x, y) with the guilty alphabet first; applied twice, the identity."""
    return (y, x) if guilty_y else (x, y)


def _rule_at(op: Monomial, K: int, L: int, g: int) -> tuple | None:
    """The rewriting schema at place g as (case, own, k, other, partner, l),
    or None; own and other are tuples of places.

    The schema is h_k(own) h_l(other), over places of the alphabet of g's
    order e and of the other alphabet, and its guilty monomial, g's variable
    to the k times the partner's to the l, divides op.  The single-alphabet
    schemas have l = 0, no other places and g as partner.  In order:

    - crossed overflow: the h-th crossed place of its alphabet holds e = k+1
      crosses; a column of height at most cap - h + 1 cannot carry them
      once k + h > cap.  own is the crossed places up to g.
    - tail overflow: e + g > n; k = e and own is 1..g.
    - blocked pair: the partner is the first place q > g of the other
      alphabet with e + l + g + between + [g is a y-place] > n, between
      counting that alphabet's crossed places passed on the way.  For a
      guilty y-place the relation has Y the places up to g plus the crossed
      x-places up to the partner (|Y| = g + between + 1, partner included)
      and X the places up to the partner; for a guilty x-place the x-side
      set stops at g (|X| = g + between), which keeps the replacement
      monomials below the guilty place in the descent order scanned
      x-block first.  own leaves out the crossed places between: every
      term that moves onto them is mixed.
    """
    n = K + L + 1
    guilty_y = op.yexp[g - 1] > 0
    own, other = _own_first(op.xexp, op.yexp, guilty_y)
    e = own[g - 1]
    if not e:
        return None
    cross, tail, blocked = _Y_CASES if guilty_y else _X_CASES
    crossed = tuple(p for p in range(1, g + 1) if own[p - 1])
    if (e - 1) + len(crossed) > (K if guilty_y else L):
        return cross, crossed, e - 1, (), g, 0
    if e + g > n:
        return tail, tuple(range(1, g + 1)), e, (), g, 0
    between = 0
    for q in range(g + 1, n + 1):
        l = other[q - 1]
        if not l:
            continue
        if e + l + g + between + guilty_y > n:
            own_places = (*range(1, g + 1), q) if guilty_y else tuple(range(1, g + 1))
            return blocked, own_places, e, tuple(range(1, q + 1)), q, l
        between += 1
    return None


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def _drop(v: tuple[int, ...], place: int, e: int) -> tuple[int, ...]:
    """v with e taken off its entry at the 1-based place."""
    return v[:place - 1] + (v[place - 1] - e,) + v[place:]


@lru_cache(maxsize=None)
def _masked_h(degree: int, places: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(vector, support mask) for each exponent vector of h_degree over the
    places, in the order of :func:`_h_exponents`; read by reduce_step only."""
    return tuple((v, _support(v)) for v in _h_exponents(degree, places, n))


def reduce_step(op: Monomial, K: int, L: int) -> list[tuple[int, Monomial]]:
    """One rewriting step: op == sum of the returned (coefficient, monomial)
    pairs modulo the ideal, every monomial strictly smaller in descent order.

    The schema h_k(own) h_l(other) of the guilty place (:func:`_rule_at`)
    has the guilty monomial as one term, and the schema says it is minus
    the others.  So each replacement term, with coefficient -1, is the base
    op / guilty times another monomial v w of the h-product, v of h_k(own)
    in the guilty place's alphabet and w of h_l(other) in the other one.
    Mixed terms lie in the ideal and are dropped before they are built:
    the base divides op, an anomaly, so it is not mixed, and base * v w is
    mixed exactly when the support mask of its own-alphabet half (base's
    own half with v) meets that of its other half (base's other half with
    w).  The vectors and masks of each h-factor are made once
    (_masked_h); the other halves and their masks once per step.  The
    descent guard is tuple order: m > op exactly when
    descent_key(m) < descent_key(op).
    """
    case, g, rule = _classify(op, K, L)
    if rule is None:
        raise ValueError(f"operator classifies as {case}; nothing to reduce")
    n = K + L + 1
    _, own_places, k, other_places, partner, l = rule
    guilty_y = op.yexp[g - 1] > 0
    own, other = _own_first(op.xexp, op.yexp, guilty_y)
    own_base, other_base = _drop(own, g, k), _drop(other, partner, l)
    own_mask = _support(own_base)
    other_mask = _support(other_base)
    halves = [(tuple(map(add, other_base, w)), other_mask | mw, w[partner - 1] == l)
              for w, mw in _masked_h(l, other_places, n)]
    out: list[tuple[int, Monomial]] = []
    for v, mv in _masked_h(k, own_places, n):
        mask = own_mask | mv
        guilty_v = v[g - 1] == k
        own_half = None
        for other_half, mw, guilty_w in halves:
            if mask & mw or guilty_v and guilty_w:
                continue  # mixed, so in the ideal; or the guilty monomial itself
            if own_half is None:
                own_half = tuple(map(add, own_base, v))
            m = Monomial(other_half, own_half) if guilty_y else Monomial(own_half, other_half)
            if m <= op:
                raise RewriteDefectError(
                    f"rewrite of {op} emitted non-descending monomial {m}")
            out.append((-1, m))
    return out


@lru_cache(maxsize=None)
def _rewriter(K: int, L: int) -> dict[Monomial, dict[Monomial, int]]:
    """The hook's memo of normal forms over drawing S halves; it lasts as
    long as the process."""
    return {}


def normal_form(op: Monomial, K: int, L: int,
                delta: DeltaPolynomial | None = None,
                validate: bool = False) -> dict[HookDrawing, int]:
    """Express op(d) Delta = sum c_D dD Delta over drawings, exactly.

    An operator above Delta's bidegree has normal form 0 at once: no drawing
    lies above it and every rewrite keeps the bidegree.  Any other operator
    is rewritten along a depth-first stack from op.  Each monomial not yet
    in the hook's memo is settled once, by the tests classify_diagram
    begins with: a null operator has normal form 0, the S half of a drawing
    is its own normal form, and any other monomial is rewritten by
    reduce_step, which classifies it.  A rewritten monomial's normal form is
    the combination of the normal forms of its replacement terms, taken once
    all of them are in the memo.  Each monomial is rewritten at most once
    per call, and reduce_step raises RewriteDefectError unless every
    replacement descends strictly in the block order of descent_key; the
    monomials of op's bidegree are finitely many, so the walk ends.

    With validate=True the identity is checked by applying the difference of
    its two sides to Delta (built when not given); a nonzero result raises
    RewriteDefectError.  A Delta of another partition, or an operator of
    another ambient n, raises ValueError.
    """
    n = hook_size(K, L)
    if op.n != n:
        raise ValueError(f"operator ambient {op.n} != n = {n}")
    if delta is not None and delta.mu.parts != (K + 1,) + (1,) * L:
        raise ValueError(f"Delta of {delta.mu} given for the hook {hook_partition(K, L)}")
    bx, by = L * (L + 1) // 2, K * (K + 1) // 2  # (n(mu), n(mu')) of the hook
    memo = _rewriter(K, L)
    index = _s_index(K, L)
    rewrites: dict[Monomial, list[tuple[int, Monomial]]] = {}
    stack = [op] if op.xdeg() <= bx and op.ydeg() <= by else []
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
            continue
        if m not in rewrites:
            if any(map(mul, m.xexp, m.yexp)):
                memo[stack.pop()] = {}  # null: some x_i y_i divides m
                continue
            if m in index:
                memo[stack.pop()] = {m: 1}
                continue
            rewrites[m] = reduce_step(m, K, L)
        pending = [mm for _, mm in rewrites[m] if mm not in memo]
        if pending:
            stack.extend(pending)
            continue
        combined: dict[Monomial, int] = {}
        for coeff, mm in rewrites[m]:
            for sm, c in memo[mm].items():
                s = combined.get(sm, 0) + coeff * c
                if s:
                    combined[sm] = s
                else:
                    combined.pop(sm, None)
        memo[m] = combined
        stack.pop()
    nf = memo.get(op, {})  # {} for an op above the box, which was never pushed
    if validate:
        difference = dict(nf)
        difference[op] = difference.get(op, 0) - 1
        if not annihilates(Polynomial(n, difference),
                           delta or DeltaPolynomial(hook_partition(K, L))):
            raise RewriteDefectError(f"normal form of {op} fails the oracle")
    return {index[sm]: c for sm, c in nf.items()}


# ---------------------------------------------------------------------------
# graded quotient dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientTable:
    K: int
    L: int
    table: dict[tuple[int, int], int]
    total: int
    shell_zero: bool  # all spot-checked dimensions just outside the grid are 0


def quotient_hilbert(K: int, L: int, limit: int = 7) -> QuotientTable:
    """Graded dimensions of the polynomial ring modulo the generator ideal I.

    The single-term generators span a monomial ideal M, and R/M has the
    standard monomials (those no single-term generator divides) as a basis.
    So dim (R/I)_(a,b) is the number of standard monomials of bidegree (a, b)
    minus the rank of the other generators times the standard monomials of
    the complementary bidegree, each reduced mod M by dropping its
    non-standard terms (g*r lies in M whenever r does).  The table covers
    the grid a <= L(L+1)/2, b <= K(K+1)/2; its total must be n! and the
    shell just outside the grid must vanish.

    Every single-term generator is squarefree, or InvariantError is raised.
    So it divides m exactly when its support lies inside m's, and whether m
    is standard depends on its support alone: one table over the 2^(2n)
    supports (:func:`_standard_supports`) decides it.  The standard
    monomials of every bidegree that the grid and the shell read are listed
    once.
    """
    n = K + L + 1
    if n > limit:
        raise SizeLimitError(f"n = {n} exceeds the quotient size limit {limit}")
    gens = generators(K, L).polynomials
    ok = _standard_supports([next(iter(g.terms)) for g in gens if len(g.terms) == 1], n)
    others = [g for g in gens if len(g.terms) > 1]
    amax = L * (L + 1) // 2
    bmax = K * (K + 1) // 2
    hx = [[(e, _support(e)) for e in vectors] for vectors in _by_degree(amax + 1, n)]
    hy = [[(e, _support(e) << n) for e in vectors] for vectors in _by_degree(bmax + 1, n)]
    standard = {(a, b): [Monomial(xe, ye) for xe, xs in hx[a] for ye, ys in hy[b] if ok[xs | ys]]
                for a in range(amax + 2) for b in range(bmax + 2)}

    def dim(a: int, b: int) -> int:
        return _graded_quotient_dim(standard, others, a, b)

    table = {(a, b): dim(a, b) for a in range(amax + 1) for b in range(bmax + 1)}
    shell = ([dim(amax + 1, b) for b in range(bmax + 1)]
             + [dim(a, bmax + 1) for a in range(amax + 2)])
    return QuotientTable(K=K, L=L, table=table, total=sum(table.values()),
                         shell_zero=all(v == 0 for v in shell))


def _support(e: tuple[int, ...]) -> int:
    """Bit mask of the places where the exponent vector e is nonzero."""
    return sum(1 << i for i, v in enumerate(e) if v)


def _standard_supports(monomials: list[Monomial], n: int) -> bytearray:
    """ok[s] = 1 iff no monomial of the list divides a monomial of support s.

    A support has bit i for x_{i+1} and bit n + i for y_{i+1}.  Each listed
    monomial must be squarefree (else InvariantError), so it divides exactly
    the monomials whose support holds its own; the supports it blocks are
    closed upward one bit at a time.
    """
    size = 1 << 2 * n
    ok = bytearray(b"\1") * size
    for m in monomials:
        if max(m.xexp + m.yexp) > 1:
            raise InvariantError(f"single-term generator {m} is not squarefree")
        ok[_support(m.xexp) | _support(m.yexp) << n] = 0
    for i in range(2 * n):
        bit = 1 << i
        for s in range(size):
            if s & bit and not ok[s ^ bit]:
                ok[s] = 0
    return ok


def _graded_quotient_dim(standard: dict[tuple[int, int], list[Monomial]],
                         others: list[Polynomial], a: int, b: int) -> int:
    """dim (R/I)_(a,b) from the standard monomials and the multi-term generators.

    Everything is packed in the base a + b + 1, above every exponent of the
    bidegree, so the column of a shift t*r is the sum of the columns of t
    and r, and the term is kept when that sum is a standard column.

    Once the rank reaches the number of columns, the rows span every
    standard monomial of (a, b): no further row can change the rank, so no
    further row is built and the dimension is 0.  The shell, where every
    dimension must be 0, is where this saves the most.
    """
    base = a + b + 1
    cols = {column(m, base) for m in standard[a, b]}
    elim = Eliminator()
    for g in others:
        ga, gb = next(iter(g.terms)).bidegree()
        if ga > a or gb > b:
            continue
        terms = [(column(t, base), c) for t, c in g.terms.items()]
        for r in standard[a - ga, b - gb]:
            if elim.rank == len(cols):
                return 0
            shift = column(r, base)
            elim.add({col: c for t, c in terms if (col := t + shift) in cols})
    return len(cols) - elim.rank
