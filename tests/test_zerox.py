import hashlib
from itertools import product
from math import factorial

import pytest

from ghbasis import zerox
from ghbasis.delta import build_delta, diff_delta
from ghbasis.errors import NoPreimageError
from ghbasis.linalg import column, homogeneous_family_rank, pack, x_degree_zero_closure
from ghbasis.partitions import Partition, conjugate_factorial, partitions_of
from ghbasis.poly import Monomial, apply_diff, format_monomial, min_monomial, parse_poly
from ghbasis.zerox import (
    GeneralDrawing,
    check_minimal_monomials,
    corner_recursion_check,
    count_check,
    enumerate_general,
    reconstruct_general,
    split_general,
    verify_zero_x_degree_basis,
)


def s_string(d):
    return format_monomial(split_general(d)[0]) or "1"


def test_enumerate_21_by_hand():
    drawings = enumerate_general(Partition((2, 1)))
    assert len(drawings) == 3
    assert sorted(s_string(d) for d in drawings) == ["x1", "x1*y2", "x2"]


def test_enumerate_single_column_and_row():
    assert len(enumerate_general(Partition((1, 1, 1, 1)))) == 1
    assert len(enumerate_general(Partition((4,)))) == factorial(4)


def test_enumerate_22_by_hand():
    # bar orders contribute 0, 2 and 4 drawings
    drawings = enumerate_general(Partition((2, 2)))
    assert len(drawings) == 6
    by_order = {}
    for d in drawings:
        by_order.setdefault(tuple((nx, ny) for nx, ny, _ in d.bars), []).append(d)
    counts = sorted(len(v) for v in by_order.values())
    assert counts == [2, 4]  # the third legal order admits no drawing


def test_bar_orders_are_strictly_increasing():
    # enumerate_general relies on this order without sorting.
    for n in range(1, 9):
        for mu in partitions_of(n):
            orders = list(zerox._bar_orders(mu))
            assert all(a < b for a, b in zip(orders, orders[1:])), mu


def test_enumeration_is_unchanged():
    # sha256 of the bars of every drawing with n <= 8, one partition after
    # another in the order of partitions_of.
    digest = hashlib.sha256()
    for n in range(1, 9):
        for mu in partitions_of(n):
            digest.update(repr([d.bars for d in enumerate_general(mu)]).encode())
    assert digest.hexdigest() == "46af367fd6a3d07203af4cc17b147a17d48bb16013cf7029ec7739c923e52c6c"


@pytest.mark.parametrize("n", range(1, 9))
def test_count_check_all_partitions(n):
    for mu in partitions_of(n):
        count, expected = count_check(mu)
        assert count == expected == factorial(n) // conjugate_factorial(mu)


@pytest.mark.parametrize("n", range(1, 8))
def test_count_check_counts_the_enumeration(n):
    for mu in partitions_of(n):
        assert count_check(mu)[0] == len(enumerate_general(mu))


def test_count_check_builds_no_drawing(monkeypatch):
    def no_drawing(*args, **kwargs):
        raise AssertionError("a drawing was built")

    monkeypatch.setattr(zerox, "GeneralDrawing", no_drawing)
    assert count_check(Partition((12,)), limit=12) == (479001600, 479001600)


def test_count_check_catches_cross_ranges_without_the_rule_3_floor(monkeypatch):
    monkeypatch.setattr(zerox, "_cross_ranges", lambda order: [range(ny + 1) for _, ny in order])
    assert any(count_check(mu)[0] != factorial(n) // conjugate_factorial(mu)
               for n in range(1, 5) for mu in partitions_of(n))


def test_count_check_examples():
    assert count_check(Partition((2, 1))) == (3, 3)
    assert count_check(Partition((2, 2))) == (6, 6)
    assert count_check(Partition((5,))) == (120, 120)


@pytest.mark.parametrize("n", range(1, 9))
def test_corner_recursion(n):
    for mu in partitions_of(n):
        assert corner_recursion_check(mu)


def test_corner_recursion_example():
    # (2,1): 3 = 1 * (2!/mu'^1!) + 1 * (2!/mu'^2!) = 1 + 2
    assert corner_recursion_check(Partition((2, 1)))


def test_split_examples():
    drawings = enumerate_general(Partition((2, 1)))
    d = next(d for d in drawings if d.bars == ((0, 1, 0), (1, 0, 0)))
    s, t = split_general(d)
    assert format_monomial(s) == "x2"
    assert format_monomial(t) == "y1"
    all_crossed = next(d for d in drawings if s_string(d) == "x1*y2")
    assert split_general(all_crossed)[1].is_unit()


@pytest.mark.parametrize("n", range(1, 7))
def test_reconstruct_round_trips(n):
    for mu in partitions_of(n):
        for d in enumerate_general(mu):
            s, t = split_general(d)
            assert reconstruct_general(s, True, mu) == d
            assert reconstruct_general(t, False, mu) == d


def box(n, top_x, top_y):
    """Every monomial in n variables with x-exponents <= top_x and y-exponents <= top_y."""
    return [Monomial(x, y) for x in product(range(top_x + 1), repeat=n)
            for y in product(range(top_y + 1), repeat=n)]


def preimage(reconstruct, *args):
    """reconstruct(*args), or None when it raises NoPreimageError."""
    try:
        return reconstruct(*args)
    except NoPreimageError:
        return None


@pytest.mark.parametrize("n", range(1, 5))
def test_reconstruct_agrees_with_the_split_lookup_on_a_box(n):
    # Most monomials of the box are not halves; each must get no drawing.
    monomials = box(n, 2, 3)
    for mu in partitions_of(n):
        drawings = enumerate_general(mu)
        for half, from_s in ((0, True), (1, False)):
            lookup = {split_general(d)[half]: d for d in drawings}
            for part in monomials:
                assert preimage(reconstruct_general, part, from_s, mu) == lookup.get(part)


def test_reconstruct_example_and_failure():
    mu = Partition((2, 1))
    s = next(iter(parse_poly("x2", 3).terms))
    d = reconstruct_general(s, True, mu)
    assert d.bars == ((0, 1, 0), (1, 0, 0))
    with pytest.raises(NoPreimageError):
        reconstruct_general(next(iter(parse_poly("x2*x3", 3).terms)), True, mu)
    with pytest.raises(NoPreimageError):
        reconstruct_general(next(iter(parse_poly("y1^5", 3).terms)), False, mu)


def test_reconstruct_of_another_ambient_has_no_preimage():
    with pytest.raises(NoPreimageError):
        reconstruct_general(Monomial((0, 0), (1, 0)), True, Partition((2, 1)))


def test_minimal_monomial_examples():
    mu = Partition((2, 1))
    delta = build_delta(mu)
    for d in enumerate_general(mu):
        assert check_minimal_monomials(d)
    # the S = dx2 drawing: image is y1 - y3 with minimum y1 = M_T
    d = next(d for d in enumerate_general(mu) if s_string(d) == "x2")
    s, t = split_general(d)
    assert apply_diff(s, delta.value) == parse_poly("y1 - y3", 3)
    assert format_monomial(t) == "y1"


@pytest.mark.parametrize("n", range(1, 7))
def test_minimal_monomials_and_distinctness(n):
    for mu in partitions_of(n):
        whites = set()
        for d in enumerate_general(mu):
            assert check_minimal_monomials(d)
            whites.add(split_general(d)[1])
        assert len(whites) == len(enumerate_general(mu))


@pytest.mark.parametrize("parts", [(2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 2, 1),
                                   (3, 2, 1), (2, 2, 1, 1), (3, 3), (2, 2, 2)])
def test_verify_zero_x_degree_basis(parts):
    mu = Partition(parts)
    delta = build_delta(mu)
    report = verify_zero_x_degree_basis(mu, delta)
    expected = factorial(mu.n) // conjugate_factorial(mu)
    assert report["count"] == expected
    assert report["x_degree_zero_ok"]
    assert report["x_degree_top_ok"]
    assert report["triangularity_ok"]
    assert report["distinct_minimal_monomials"]
    assert report["rank_s"] == report["rank_t"] == expected
    assert report["dim_zero_slice"] == expected


def oracle_verify(mu):
    """verify_zero_x_degree_basis on image Polynomials: per-term x-degrees,
    poly.min_monomial and linalg.homogeneous_family_rank, all images kept."""
    delta = build_delta(mu)
    n_mu = delta.bidegree[0]
    drawings = enumerate_general(mu)
    halves = [split_general(d) for d in drawings]
    s_images = [diff_delta(s, delta) for s, _ in halves]
    t_images = [diff_delta(t, delta) for _, t in halves]
    return {
        "count": len(drawings),
        "x_degree_zero_ok": all(p.terms and all(m.xdeg() == 0 for m in p.terms)
                                for p in s_images),
        "x_degree_top_ok": all(p.terms and all(m.xdeg() == n_mu for m in p.terms)
                               for p in t_images),
        "triangularity_ok": all(oracle_minimal_monomials(s, t, ps, pt)
                                for (s, t), ps, pt in zip(halves, s_images, t_images)),
        "distinct_minimal_monomials": len({t for _, t in halves}) == len(drawings),
        "rank_s": homogeneous_family_rank(s_images),
        "rank_t": homogeneous_family_rank(t_images),
        "dim_zero_slice": x_degree_zero_closure(delta)[0],
    }


def oracle_minimal_monomials(s, t, image_s, image_t):
    return (not image_s.is_zero() and not image_t.is_zero()
            and min_monomial(image_s) == t and min_monomial(image_t) == s)


@pytest.mark.parametrize("mu", [mu for n in range(1, 6) for mu in partitions_of(n)], ids=str)
def test_verify_matches_the_polynomial_oracle(mu):
    assert verify_zero_x_degree_basis(mu, build_delta(mu)) == oracle_verify(mu)


@pytest.mark.parametrize("n", range(1, 6))
def test_check_minimal_monomials_matches_the_polynomial_oracle(n):
    for mu in partitions_of(n):
        delta = build_delta(mu)
        for d in enumerate_general(mu):
            s, t = split_general(d)
            expected = oracle_minimal_monomials(s, t, diff_delta(s, delta), diff_delta(t, delta))
            assert check_minimal_monomials(d) == expected


def test_verify_catches_swapped_white_halves(monkeypatch):
    mu = Partition((2, 2, 1))
    first, second = enumerate_general(mu)[:2]
    real = split_general

    def swapped(d):
        s, t = real(d)
        if d == first:
            return s, real(second)[1]
        if d == second:
            return s, real(first)[1]
        return s, t

    monkeypatch.setattr(zerox, "split_general", swapped)
    report = verify_zero_x_degree_basis(mu, build_delta(mu))
    assert not report["triangularity_ok"]
    assert report["distinct_minimal_monomials"]


def test_verify_catches_cross_and_white_halves_exchanged(monkeypatch):
    # Each d^T Delta then stands where a cross image should, at x-degree
    # n(mu) = 4, and each d^S Delta at x-degree 0 where a white image should.
    mu = Partition((2, 2, 1))
    real = split_general
    monkeypatch.setattr(zerox, "split_general", lambda d: real(d)[::-1])
    report = verify_zero_x_degree_basis(mu, build_delta(mu))
    assert not report["x_degree_zero_ok"]
    assert not report["x_degree_top_ok"]


def test_minimal_monomial_test_rejects_a_column_of_another_bidegree():
    # M_T = y1 for this drawing of (2,1).  At the base, x2^base has y1's
    # column too, since the digit y1 = 1 is x2 = base one place down.
    mu = Partition((2, 1))
    delta = build_delta(mu)
    base = 1 + sum(delta.bidegree)
    d = next(d for d in enumerate_general(mu) if d.bars == ((0, 1, 0), (1, 0, 0)))
    s, t = split_general(d)
    alias = Monomial((0, base, 0), (0, 0, 0))
    assert t == Monomial((0, 0, 0), (1, 0, 0))
    packed = pack(diff_delta(s, delta), base)
    assert min(packed[1]) == column(t, base) == column(alias, base)
    assert zerox._has_minimum(packed, t, base)
    assert not zerox._has_minimum(packed, alias, base)


def test_verify_21_rank_three():
    mu = Partition((2, 1))
    report = verify_zero_x_degree_basis(mu, build_delta(mu))
    expected = factorial(mu.n) // conjugate_factorial(mu)
    assert report["rank_s"] == report["rank_t"] == expected == 3


def test_verify_rejects_a_delta_of_another_partition():
    with pytest.raises(ValueError):
        verify_zero_x_degree_basis(Partition((2, 1)), build_delta(Partition((3,))))
