from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ghbasis.delta import build_delta
from ghbasis.errors import SizeLimitError
from ghbasis.partitions import Partition, conjugate, n_stat, partitions_of
from ghbasis.poly import Monomial, Polynomial, apply_diff, parse_poly


def swap_variable_pair(p: Polynomial, i: int, j: int) -> Polynomial:
    """Exchange (x_i, y_i) <-> (x_j, y_j); indices are 1-based."""
    out: dict[Monomial, int] = {}
    a, b = i - 1, j - 1
    for m, c in p.terms.items():
        xe = list(m.xexp)
        ye = list(m.yexp)
        xe[a], xe[b] = xe[b], xe[a]
        ye[a], ye[b] = ye[b], ye[a]
        out[Monomial(tuple(xe), tuple(ye))] = c
    return Polynomial(p.n, out)


def swap_alphabets(p: Polynomial) -> Polynomial:
    """Exchange the x and y alphabets wholesale."""
    return Polynomial(p.n, {Monomial(m.yexp, m.xexp): c for m, c in p.terms.items()})


def test_vandermonde_specializations():
    assert build_delta(Partition((1, 1))).value == parse_poly("x2 - x1", 2)
    assert build_delta(Partition((2,))).value == parse_poly("y2 - y1", 2)


def test_delta_21_expansion():
    want = parse_poly("y2*x3 - y3*x2 - y1*x3 + y3*x1 + y1*x2 - y2*x1", 3)
    assert build_delta(Partition((2, 1))).value == want


def test_apply_diff_on_delta_21():
    delta = build_delta(Partition((2, 1)))
    image = apply_diff(next(iter(parse_poly("y1", 3).terms)), delta.value)
    assert image == parse_poly("x2 - x3", 3)


def test_bidegree_metadata():
    d = build_delta(Partition((3, 1)))
    assert d.bidegree == (n_stat(d.mu), n_stat(conjugate(d.mu)))


def test_size_limit():
    with pytest.raises(SizeLimitError):
        build_delta(Partition((5, 5)), limit=9)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_permutation_gives_its_own_term(n):
    # The biexponents of mu are distinct, so no two of the n! terms cancel.
    for mu in partitions_of(n):
        terms = build_delta(mu).value.terms
        assert len(terms) == factorial(n)
        assert set(terms.values()) <= {1, -1}


@pytest.mark.parametrize("n", range(1, 7))
def test_bihomogeneity_all_partitions(n):
    for mu in partitions_of(n):
        d = build_delta(mu)
        nx, ny = d.bidegree
        assert not d.value.is_zero()
        for m in d.value.terms:
            assert m.xdeg() == nx
            assert m.ydeg() == ny


@pytest.mark.parametrize("n", range(2, 7))
def test_antisymmetry_all_transpositions(n):
    for mu in partitions_of(n):
        d = build_delta(mu)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert swap_variable_pair(d.value, i, j) == -d.value


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugate_swaps_alphabets_up_to_sign(n):
    for mu in partitions_of(n):
        d = build_delta(mu)
        d_conj = build_delta(conjugate(mu))
        swapped = swap_alphabets(d.value)
        assert swapped == d_conj.value or swapped == -d_conj.value


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_statistic_consistency(n):
    # n(mu) + n(mu') equals the total degree of every Delta term
    for mu in partitions_of(n):
        d = build_delta(mu)
        total = n_stat(mu) + n_stat(conjugate(mu))
        for m in d.value.terms:
            assert m.xdeg() + m.ydeg() == total
