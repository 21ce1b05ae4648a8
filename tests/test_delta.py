import dataclasses
import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ghbasis import delta as delta_module
from ghbasis.annihilator import bounded_operators, generators
from ghbasis.delta import (DeltaPolynomial, build_delta, diff_delta, diff_delta_poly, diff_delta_row,
                           perm_sign)
from ghbasis.errors import SizeLimitError
from ghbasis.linalg import derivative_closure, pack, x_degree_zero_closure
from ghbasis.partitions import (Partition, biexponents, conjugate, hook_partition, n_stat,
                                 partitions_of)
from ghbasis.poly import (Monomial, Polynomial, apply_diff, apply_diff_poly, format_poly,
                          parse_poly, unit_monomial)


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


def test_mu_is_the_only_field():
    assert [f.name for f in dataclasses.fields(DeltaPolynomial)] == ["mu"]
    value = build_delta(Partition((2, 1))).value
    with pytest.raises(TypeError):
        DeltaPolynomial(value=value, mu=Partition((2, 1)))


def test_deltas_of_equal_mu_are_equal_and_hash_equally():
    a, b = build_delta(Partition((3, 1))), DeltaPolynomial(Partition((3, 1)))
    a.value  # an expanded Delta equals one that is not expanded yet
    assert a == b and hash(a) == hash(b)
    assert len({a, b, build_delta(Partition((2, 2)))}) == 2
    assert a != build_delta(Partition((2, 1, 1)))


def test_value_is_expanded_once_on_first_read(monkeypatch):
    calls = []
    real = delta_module._expand

    def counted(parts, op, scale):
        calls.append(parts)
        return real(parts, op, scale)

    monkeypatch.setattr(delta_module, "_expand", counted)
    delta = build_delta(Partition((2, 1)))
    assert delta.bidegree == (1, 1) and not calls
    assert delta.value is delta.value
    assert calls == [(2, 1)]


@pytest.mark.parametrize("n", range(1, 5))
def test_value_diff_delta_and_both_closures_agree(n):
    for mu in partitions_of(n):
        delta = build_delta(mu)
        assert diff_delta(unit_monomial(n), delta) == delta.value
        dim, table = derivative_closure(delta)
        slice_dim, slice_table = x_degree_zero_closure(delta)
        assert dim == factorial(n), mu
        assert slice_table == {ab: d for ab, d in table.items() if ab[0] == 0}, mu
        assert slice_dim == sum(slice_table.values())


def test_parse_of_the_text_of_delta_gives_delta_back():
    value = build_delta(Partition((4, 2, 1))).value
    assert parse_poly(format_poly(value)) == value


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_sign_is_the_parity_of_the_inversions(n):
    for sigma in permutations(range(n)):
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        assert perm_sign(sigma) == (-1) ** inversions
        assert perm_sign(list(sigma)) == perm_sign(sigma)


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


def expanded_by_permutations(mu: Partition) -> dict[Monomial, int]:
    """Delta_mu as the signed sum over itertools.permutations: the oracle."""
    cols = [b.as_pair() for b in biexponents(mu)]
    return {Monomial(tuple(cols[j][0] for j in sigma), tuple(cols[j][1] for j in sigma)):
            perm_sign(sigma) for sigma in permutations(range(mu.n))}


@pytest.mark.parametrize("n", range(1, 8))
def test_build_delta_matches_the_permutation_loop_in_order(n):
    for mu in partitions_of(n):
        want = expanded_by_permutations(mu)
        assert list(build_delta(mu).value.terms.items()) == list(want.items()), mu


def box_operators(delta):
    """Every monomial operator within the bidegree of Delta."""
    return bounded_operators(delta.n, *delta.bidegree)


def image_base(delta):
    """1 + n(mu) + n(mu'): above every exponent of every d^m Delta."""
    return 1 + sum(delta.bidegree)


def row_matches_the_oracle(op, delta):
    base = image_base(delta)
    return diff_delta_row(op, delta, base) == pack(apply_diff(op, delta.value), base)


@pytest.mark.parametrize("n", range(1, 5))
def test_diff_delta_matches_apply_diff_on_the_operator_box(n):
    for mu in partitions_of(n):
        delta = build_delta(mu)
        for op in box_operators(delta):
            assert diff_delta(op, delta) == apply_diff(op, delta.value), (mu, op)
            assert row_matches_the_oracle(op, delta), (mu, op)


@pytest.mark.parametrize("mu", [*partitions_of(5), *(hook_partition(K, 5 - K) for K in range(6))],
                         ids=str)
def test_diff_delta_matches_apply_diff_on_a_sample(mu):
    delta = build_delta(mu)
    operators = list(box_operators(delta))
    for op in random.Random(16).sample(operators, min(2000, len(operators))):
        assert diff_delta(op, delta) == apply_diff(op, delta.value), op
        assert row_matches_the_oracle(op, delta), op


@pytest.mark.parametrize("K,L", [(K, n - 1 - K) for n in range(1, 5) for K in range(n)])
def test_diff_delta_poly_matches_apply_diff_poly_on_the_generators(K, L):
    delta = build_delta(hook_partition(K, L))
    # Every generator kills Delta, so the images of its terms cancel in the sum.
    for tag, P in generators(K, L).entries:
        assert diff_delta_poly(P, delta) == apply_diff_poly(P, delta.value), tag
        assert diff_delta_poly(P, delta).is_zero(), tag


def test_diff_delta_does_not_assume_a_hook():
    # No column of a hook has p, q >= 1, so x1*y1 kills every hook's Delta;
    # (2,2) has the biexponent (1, 1), and the image is nonzero.
    delta = build_delta(Partition((2, 2)))
    op = Monomial((1, 0, 0, 0), (1, 0, 0, 0))
    image = diff_delta(op, delta)
    assert not image.is_zero()
    assert image == apply_diff(op, delta.value)
    hook = build_delta(hook_partition(2, 1))
    assert diff_delta(op, hook).is_zero()
    assert diff_delta_row(op, hook, image_base(hook)) == (None, {})
    assert diff_delta_row(op, delta, image_base(delta)) == pack(image, image_base(delta))


def test_diff_delta_rejects_an_operator_of_another_ambient():
    delta = build_delta(Partition((2, 1)))
    with pytest.raises(ValueError):
        diff_delta(Monomial((1, 0), (0, 0)), delta)
    with pytest.raises(ValueError):
        diff_delta_poly(parse_poly("x1 + x4", 4), delta)
    with pytest.raises(ValueError):
        diff_delta_row(Monomial((1, 0), (0, 0)), delta, image_base(delta))


def test_a_row_table_missing_a_column_fails_the_oracle(monkeypatch):
    # The last column leaves the choices of every row an operator touches.
    real = delta_module._row_table

    def dropped(parts):
        choices, ps, qs = real(parts)
        last = len(ps) - 1
        return {ab: tuple(c for c in row if c[0] != last) for ab, row in choices.items()}, ps, qs

    monkeypatch.setattr(delta_module, "_row_table", dropped)
    delta = build_delta(Partition((2, 1)))
    assert delta.value == Polynomial(3, expanded_by_permutations(Partition((2, 1))))
    mismatches = [op for op in box_operators(delta)
                  if diff_delta(op, delta) != apply_diff(op, delta.value)]
    assert mismatches
    assert all(not row_matches_the_oracle(op, delta) for op in mismatches)
