from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ghbasis import linalg
from ghbasis.annihilator import quotient_hilbert
from ghbasis.delta import DeltaPolynomial, build_delta
from ghbasis.errors import InvariantError
from ghbasis.hooks import cross_images, enumerate_drawings
from ghbasis.linalg import (
    Eliminator,
    derivative_closure,
    homogeneous_family_rank,
    x_degree_zero_closure,
)
from ghbasis.partitions import Partition, hook_partition, partitions_of
from ghbasis.poly import parse_poly


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


@pytest.mark.parametrize("n", range(1, 7))
def test_derivative_closure_factorial_for_hooks(n):
    from math import factorial
    for K in range(n):
        dim, _ = derivative_closure(build_delta(hook_partition(K, n - 1 - K)))
        assert dim == factorial(n)


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
    broken = DeltaPolynomial(value=delta.value + stray, mu=delta.mu, bidegree=delta.bidegree)
    with pytest.raises(InvariantError):
        x_degree_zero_closure(broken)


def test_homogeneous_family_rank_groups_by_bidegree():
    polys = [parse_poly("x1", 2), parse_poly("y1", 2), parse_poly("x1 + x2", 2),
             parse_poly("0", 2)]
    assert homogeneous_family_rank(polys) == 3


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
            return row
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
    images = cross_images(enumerate_drawings(K, L), build_delta(hook_partition(K, L)))
    echelon, full = with_full_reduction(monkeypatch, lambda: homogeneous_family_rank(images))
    assert echelon == full


@pytest.mark.parametrize("K,L", [(K, n - 1 - K) for n in range(1, 5) for K in range(n)])
def test_quotient_matches_the_full_reduction_kernel(K, L, monkeypatch):
    echelon, full = with_full_reduction(monkeypatch, lambda: quotient_hilbert(K, L))
    assert echelon == full
