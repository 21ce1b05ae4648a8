import pytest
from hypothesis import given, strategies as st

from ghbasis.delta import DeltaPolynomial, build_delta
from ghbasis.errors import InvariantError
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
