import pytest
from hypothesis import given, strategies as st

from ghbasis.delta import build_delta
from ghbasis.linalg import Eliminator, derivative_closure, homogeneous_family_rank
from ghbasis.partitions import Partition, hook_partition
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


def test_homogeneous_family_rank_groups_by_bidegree():
    polys = [parse_poly("x1", 2), parse_poly("y1", 2), parse_poly("x1 + x2", 2),
             parse_poly("0", 2)]
    assert homogeneous_family_rank(polys) == 3
