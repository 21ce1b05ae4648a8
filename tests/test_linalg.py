import inspect
import random
import textwrap
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ghbasis import annihilator, linalg
from ghbasis.annihilator import quotient_hilbert
from ghbasis.delta import build_delta
from ghbasis.errors import InvariantError
from ghbasis.hooks import cross_images, enumerate_drawings
from ghbasis.linalg import (
    Eliminator,
    column,
    derivative_closure,
    homogeneous_family_rank,
    pack,
    x_degree_zero_closure,
)
from ghbasis.partitions import Partition, hook_partition, partitions_of
from ghbasis.poly import Monomial, Polynomial, apply_diff, mono_key, parse_poly
from ghbasis.zerox import enumerate_general, split_general


def rank(rows):
    elim = Eliminator()
    for row in rows:
        elim.add({c: v for c, v in enumerate(row) if v})
    return elim.rank


def test_rank_trivial_examples():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4], [0, 1]]) == 2
    # the third row needs two lead steps: its lead 0, then the lead 1 left behind
    assert rank([[1, 1, 0], [0, 1, 1], [1, 0, -1]]) == 2


def fraction_rank(rows):
    """Rank by Gaussian elimination over Q, on Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.integers(-3, 3), min_size=width, max_size=width), min_size=1, max_size=7)))
def test_rank_matches_fraction_gaussian_elimination(rows):
    assert rank(rows) == fraction_rank(rows)


def mutated(func, old, new, **names):
    """func recompiled in its module's namespace, plus names, with the one
    occurrence of the source text old replaced by new: a mutant of the code
    under test, which a test must catch."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} is not in {func.__name__} exactly once"
    namespace = {**vars(inspect.getmodule(func)), **names}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


def seeded_matrices(seeds=range(200)):
    """Integer matrices whose leads are often not units: random rows with
    entries in [-6, 6], then integer combinations of them, shuffled."""
    for seed in seeds:
        rng = random.Random(seed)
        width, free = rng.randint(2, 7), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(free)]
        rows += [[sum(f * v for f, v in zip(factors, col)) for col in zip(*rows)]
                 for factors in ([rng.randint(-3, 3) for _ in rows]
                                 for _ in range(rng.randint(1, 4)))]
        rng.shuffle(rows)
        yield rows


def test_rank_matches_fractions_on_seeded_matrices(monkeypatch):
    steps = []  # (quotient, remainder) of the leads at each elimination step

    def spy(a, b):
        steps.append(divmod(a, b))
        return steps[-1]

    monkeypatch.setattr(linalg, "divmod", spy, raising=False)
    ranks = [(rank(rows), fraction_rank(rows), len(rows)) for rows in seeded_matrices()]
    assert all(mine == oracle for mine, oracle, _ in ranks)
    assert any(oracle < height for _, oracle, height in ranks)  # dependent rows do occur
    # both kinds of step occur, and the divisible one with quotients other than +-1
    assert any(rest for _, rest in steps)
    assert any(not rest and abs(q) > 1 for q, rest in steps)


class Cycling(Exception):
    pass


@pytest.mark.parametrize("shift", [1, -1])
def test_rank_on_seeded_matrices_catches_a_divisible_step_off_by_one(shift, monkeypatch):
    # The mutant subtracts q + shift copies of the pivot where q copies clear
    # the lead.  That leaves the lead -shift times the pivot's, whose own
    # quotient -shift the mutant turns into a zero multiple: the row then
    # either stays as it is, so the mutant's min gives up after a bounded
    # number of calls, or loses a column it lacks (KeyError).
    calls = count()

    def bounded_min(*args, **kwargs):
        if next(calls) > 10 ** 5:
            raise Cycling
        return min(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", mutated(
        linalg._eliminate, "theirs, rest = divmod(r, p)",
        "theirs, rest = divmod(r, p); theirs += SHIFT",
        SHIFT=shift, min=bounded_min))

    def caught(rows):
        try:
            return rank(rows) != fraction_rank(rows)
        except (Cycling, KeyError):
            return True

    assert any(caught(rows) for rows in seeded_matrices())


def test_rank_of_derived_polynomial_family():
    # {Delta_(2,1), x2-x3, y1-y3, y3-y2, x3-x1, 1} has rank 6
    delta = build_delta(Partition((2, 1)))
    polys = [
        delta.value,
        parse_poly("x2 - x3", 3),
        parse_poly("y1 - y3", 3),
        parse_poly("y3 - y2", 3),
        parse_poly("x3 - x1", 3),
        parse_poly("1", 3),
    ]
    assert homogeneous_family_rank(polys) == 6
    assert homogeneous_family_rank(polys + [parse_poly("x1 - x2", 3)]) == 6


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5),
       st.permutations(list(range(5))), st.permutations(list(range(4))),
       st.integers(1, 5))
def test_rank_invariances(rows, perm, col_perm, scalar):
    base = rank(rows)
    # row permutation
    shuffled = [rows[i] for i in perm[:len(rows)] if i < len(rows)]
    if len(shuffled) == len(rows):
        assert rank(shuffled) == base
    # column permutation
    permuted = [[row[c] for c in col_perm] for row in rows]
    assert rank(permuted) == base
    # row scaling by a nonzero integer
    scaled = [[scalar * v for v in rows[0]]] + rows[1:]
    assert rank(scaled) == base


def test_derivative_closure_examples():
    dim, table = derivative_closure(build_delta(Partition((2, 1))))
    assert dim == 6
    assert table == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}
    dim1, table1 = derivative_closure(build_delta(Partition((1,))))
    assert dim1 == 1 and table1 == {(0, 0): 1}
    dim22, _ = derivative_closure(build_delta(Partition((2, 2))))
    assert dim22 == 24


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)]
                         + [Partition((3, 2, 1))], ids=str)
def test_x_degree_zero_closure_matches_full_closure(mu):
    # The oracle is the a = 0 row of the full closure, bidegree by bidegree.
    delta = build_delta(mu)
    _, full = derivative_closure(delta)
    dim, table = x_degree_zero_closure(delta)
    assert table == {(a, b): v for (a, b), v in full.items() if a == 0}
    assert dim == sum(table.values())


def test_x_degree_zero_closure_rejects_a_delta_that_is_not_bihomogeneous():
    delta = build_delta(Partition((2, 2, 1)))
    stray = parse_poly("x1*y2", 5)  # x-degree 1, while every term of Delta has x-degree 2
    vars(delta)["value"] = delta.value + stray  # planted in the cached expansion
    with pytest.raises(InvariantError):
        x_degree_zero_closure(delta)


def test_homogeneous_family_rank_groups_by_bidegree():
    polys = [parse_poly("x1", 2), parse_poly("y1", 2), parse_poly("x1 + x2", 2),
             parse_poly("0", 2)]
    assert homogeneous_family_rank(polys) == 3


def test_homogeneous_family_rank_takes_exponents_past_255():
    polys = [parse_poly(text, 2) for text in ("x1^300 + x2^300", "x1^300 - x2^300", "x2^300")]
    assert homogeneous_family_rank(polys) == 2


def test_homogeneous_family_rank_rejects_a_polynomial_of_mixed_bidegree():
    # The blocks (1, 0) and (0, 2) are ranked apart.  Without the check,
    # x1 + y1^2 would be a row of one of them only, and the rank of these
    # three would read 3, not 2.
    with pytest.raises(ValueError):
        homogeneous_family_rank([parse_poly(text, 1) for text in ("x1 + y1^2", "x1", "y1^2")])


@pytest.mark.parametrize("a,b", [(a, b) for a in range(4) for b in range(4)])
def test_column_orders_each_bidegree_as_mono_key(a, b):
    vectors = {d: [e for e in product(range(d + 1), repeat=3) if sum(e) == d] for d in (a, b)}
    monomials = [Monomial(xe, ye) for xe in vectors[a] for ye in vectors[b]]
    for base in (a + b + 1, 17):
        assert sorted(monomials, key=lambda m: column(m, base)) == sorted(monomials, key=mono_key)
        assert len({column(m, base) for m in monomials}) == len(monomials)


def test_column_of_a_product_is_the_sum_of_the_columns():
    m, r = Monomial((2, 0, 1), (0, 1, 1)), Monomial((0, 3, 1), (1, 0, 0))
    for base in (m.mul(r).xdeg() + m.mul(r).ydeg() + 1, 17):
        assert column(m.mul(r), base) == column(m, base) + column(r, base)


def test_pack_gives_the_bidegree_and_the_columns():
    for text, n in [("x1^2*y3 - 3*x2*x3*y1 + x3^2*y2", 3), ("y1^4 - y2^4", 2), ("7", 2),
                    ("x1^300 + x2^300", 2)]:
        p = parse_poly(text, n)
        for base in (sum(next(iter(p.terms)).bidegree()) + 1, 1000):
            bideg = next(iter(p.terms)).bidegree()
            assert pack(p, base) == (bideg, {column(m, base): c for m, c in p.terms.items()})
    assert pack(Polynomial.zero(2), 5) == (None, {})
    with pytest.raises(ValueError):
        pack(parse_poly("x1*y2 + y1^2", 2), 3)


def oracle_closure(starts, ops):
    """The closure on Polynomials: each op a Monomial applied with apply_diff,
    each block with its own Monomial -> column cache at base deg + 1."""
    blocks = {}
    queue = []

    def insert(p):
        if p.is_zero():
            return
        bideg = next(iter(p.terms)).bidegree()
        elim, cols = blocks.setdefault(bideg, (Eliminator(), {}))
        for m in p.terms.keys() - cols.keys():
            if m.bidegree() != bideg:
                raise ValueError(f"a term of bidegree {m.bidegree()} in the block {bideg}")
            cols[m] = column(m, sum(bideg) + 1)
        if elim.add({cols[m]: c for m, c in p.terms.items()}):
            queue.append(p)

    for p in starts:
        insert(p)
    for current in queue:
        for op in ops:
            insert(apply_diff(op, current))
    table = {bideg: elim.rank for bideg, (elim, _) in blocks.items()}
    return sum(table.values()), table


def derivative_ops(n):
    """([d/dx_1, ..., d/dx_n], [d/dy_1, ..., d/dy_n]) as monomial operators."""
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    return [Monomial(e, zero) for e in units], [Monomial(zero, e) for e in units]


def oracle_derivative_closure(delta):
    xs, ys = derivative_ops(delta.value.n)
    return oracle_closure([delta.value], xs + ys)


def oracle_x_degree_zero_closure(delta):
    n = delta.value.n
    by_x_part = {}
    for m, c in delta.value.terms.items():
        by_x_part.setdefault(m.xexp, {})[Monomial((0,) * n, m.yexp)] = c
    return oracle_closure([Polynomial(n, terms) for terms in by_x_part.values()],
                          derivative_ops(n)[1])


@lru_cache(maxsize=None)
def oracle_closure_of(mu):
    return oracle_derivative_closure(build_delta(mu))


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)]
                         + [hook_partition(3, 2), hook_partition(2, 3)], ids=str)
def test_closures_match_the_polynomial_oracle(mu):
    delta = build_delta(mu)
    assert derivative_closure(delta) == oracle_closure_of(mu)
    assert x_degree_zero_closure(delta) == oracle_x_degree_zero_closure(delta)


def wrong_face(rule):
    """derivative_closure's call of _closure, with its face rule changed."""
    closure = linalg._closure

    def wrapped(starts, ops, face_ops=(), face=(0, -1)):
        return closure(starts, ops, *rule(face_ops, face))
    return wrapped


@pytest.mark.parametrize("rule", [
    lambda face_ops, face: ((), face),  # face rows restricted to the inner alphabet too
    lambda face_ops, face: (face_ops, (face[0], 0)),  # the face at degree 0, not at the top
], ids=["no-face-ops", "face-at-zero"])
def test_closures_catch_a_wrong_face_rule(rule, monkeypatch):
    monkeypatch.setattr(linalg, "_closure", wrong_face(rule))
    assert any(derivative_closure(build_delta(mu)) != oracle_closure_of(mu)
               for n in range(1, 6) for mu in partitions_of(n))


def rows_offered(monkeypatch, compute):
    """compute() and the number of rows it hands to Eliminator.add."""
    offered = count()
    add = Eliminator.add

    def counting_add(self, row):
        next(offered)
        return add(self, row)

    monkeypatch.setattr(Eliminator, "add", counting_add)
    return compute(), next(offered)


@pytest.mark.parametrize("K,L", [(3, 2), (2, 3)])
def test_closure_offers_the_face_rule_count(K, L, monkeypatch):
    # All 2n derivatives of every row offered 4686 (3,2) and 4683 (2,3) rows.
    delta = build_delta(hook_partition(K, L))
    (dim, _), offered = rows_offered(monkeypatch, lambda: derivative_closure(delta))
    assert dim == 720
    assert offered == 2407


def test_quotient_offers_no_row_past_full_rank(monkeypatch):
    # Without the stop at full rank, quotient_hilbert(2, 2) offered 6308 rows.
    qt, offered = rows_offered(monkeypatch, lambda: quotient_hilbert(2, 2))
    assert qt.total == 120
    assert offered == 4278


def test_quotient_catches_a_stop_one_row_early(monkeypatch):
    monkeypatch.setattr(annihilator, "_graded_quotient_dim", mutated(
        annihilator._graded_quotient_dim,
        "if elim.rank == len(cols):", "if elim.rank == len(cols) - 1:"))
    hooks = [(K, n - 1 - K) for n in range(1, 5) for K in range(n)]
    assert any(quotient_hilbert(K, L).table
               != derivative_closure(build_delta(hook_partition(K, L)))[1] for K, L in hooks)


def test_closure_takes_exponents_past_255():
    # The base is 1 + the largest total degree of the starts, 303 here; a
    # fixed base of 256 would carry the digit 300 into its neighbour.
    start = parse_poly("x1^300*y2^2 + x2^300*y1^2", 2)
    dim, table = linalg._closure([start], [0, 1, 2, 3])
    assert (dim, table) == oracle_closure([start], sum(derivative_ops(2), []))
    # the start, and the 301 * 3 - 1 proper derivatives of each term, whose
    # constants coincide
    assert dim == 1 + 2 * (301 * 3 - 1) - 1


def image_families(mu):
    """The cross and the white image families of mu's drawings."""
    delta = build_delta(mu)
    halves = [split_general(d) for d in enumerate_general(mu)]
    return ([apply_diff(s, delta.value) for s, _ in halves],
            [apply_diff(t, delta.value) for _, t in halves])


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)], ids=str)
def test_family_rank_matches_the_polynomial_oracle(mu):
    for family in image_families(mu):
        assert homogeneous_family_rank(family) == oracle_closure(family, [])[0]


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)], ids=str)
def test_image_families_arrive_in_echelon_form(mu, monkeypatch):
    # Each image leads at its own minimal monomial and no two leads coincide,
    # so in the mono_less column order no row takes an elimination step.
    stepped = []

    def spy(row, pivots):
        lead, out = eliminate(row, pivots)
        stepped.append(out != row)
        return lead, out

    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", spy)
    for family in image_families(mu):
        assert homogeneous_family_rank(family) == len(family)
    assert stepped and not any(stepped)


def with_reversed_columns(monkeypatch, compute):
    """compute() in the mono_less column order, then in the reverse order.

    Every row reaches an Eliminator through Eliminator.add, so negating its
    keys there reverses the order of every rank.  Also returns whether the
    reversal took effect: some eliminator, taken in the order of first use,
    ends with a different set of pivot columns.
    """
    add = Eliminator.add

    def run(sign):
        used = {}

        def signed_add(self, row):
            used.setdefault(id(self), self)
            return add(self, {sign * c: v for c, v in row.items()})

        monkeypatch.setattr(Eliminator, "add", signed_add)
        result = compute()
        return result, [{sign * c for c in elim.pivots} for elim in used.values()]

    (forward, forward_pivots), (reverse, reverse_pivots) = run(1), run(-1)
    return forward, reverse, forward_pivots != reverse_pivots


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)], ids=str)
def test_closures_do_not_depend_on_the_column_order(mu, monkeypatch):
    delta = build_delta(mu)
    forward, reverse, moved = with_reversed_columns(
        monkeypatch, lambda: (derivative_closure(delta), x_degree_zero_closure(delta)))
    assert forward == reverse
    assert moved == (mu.n > 1)


@pytest.mark.parametrize("K,L", [(K, n - 1 - K) for n in range(1, 6) for K in range(n)])
def test_cross_image_rank_does_not_depend_on_the_column_order(K, L, monkeypatch):
    images = cross_images(enumerate_drawings(K, L))
    forward, reverse, moved = with_reversed_columns(
        monkeypatch, lambda: homogeneous_family_rank(images))
    assert forward == reverse
    assert moved == (K + L > 0)


@pytest.mark.parametrize("K,L", [(K, n - 1 - K) for n in range(1, 5) for K in range(n)])
def test_quotient_does_not_depend_on_the_column_order(K, L, monkeypatch):
    forward, reverse, moved = with_reversed_columns(monkeypatch, lambda: quotient_hilbert(K, L))
    assert forward == reverse
    assert moved == (K + L > 0)


def full_reduction_eliminate(row, pivots):
    """Full reduction, the oracle of the echelon kernel: reduce every pivot
    column of row, smallest first, dividing by the gcd after every step."""
    def normalize(r):
        g = gcd(*r.values())
        return {c: v // g for c, v in r.items()} if g > 1 else r

    row = dict(row)
    while True:
        col = min((c for c in row if c in pivots), default=None)
        if col is None:
            return min(row, default=0), row
        piv = pivots[col]
        lead, mine = piv[col], row[col]
        scaled = {c: v * lead for c, v in row.items()}
        for c, v in piv.items():
            new = scaled.get(c, 0) - v * mine
            if new:
                scaled[c] = new
            else:
                scaled.pop(c, None)
        row = normalize(scaled)


def with_full_reduction(monkeypatch, compute):
    """compute() with the echelon kernel, then with the full-reduction kernel."""
    echelon = compute()
    monkeypatch.setattr(linalg, "_eliminate", full_reduction_eliminate)
    return echelon, compute()


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)], ids=str)
def test_closures_match_the_full_reduction_kernel(mu, monkeypatch):
    delta = build_delta(mu)
    echelon, full = with_full_reduction(
        monkeypatch, lambda: (derivative_closure(delta), x_degree_zero_closure(delta)))
    assert echelon == full


@pytest.mark.parametrize("K,L", [(K, n - 1 - K) for n in range(1, 6) for K in range(n)])
def test_cross_image_rank_matches_the_full_reduction_kernel(K, L, monkeypatch):
    images = cross_images(enumerate_drawings(K, L))
    echelon, full = with_full_reduction(monkeypatch, lambda: homogeneous_family_rank(images))
    assert echelon == full


@pytest.mark.parametrize("K,L", [(K, n - 1 - K) for n in range(1, 5) for K in range(n)])
def test_quotient_matches_the_full_reduction_kernel(K, L, monkeypatch):
    echelon, full = with_full_reduction(monkeypatch, lambda: quotient_hilbert(K, L))
    assert echelon == full
