import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from ghbasis.errors import PolynomialSyntaxError
from ghbasis.poly import (
    Monomial,
    Polynomial,
    apply_diff,
    apply_diff_poly,
    descent_key,
    format_poly,
    min_monomial,
    mono_key,
    mono_less,
    parse_poly,
    unit_monomial,
)


def mono(text, n):
    p = parse_poly(text, n)
    assert len(p.terms) == 1
    return next(iter(p.terms))


def exponents(n, bound=4):
    return st.tuples(*[st.integers(0, bound) for _ in range(n)])


def monomials(n):
    return st.builds(Monomial, exponents(n), exponents(n))


def dict_accumulate(pairs):
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    return out


def poly_strategy(n=3):
    return st.lists(st.tuples(monomials(n), st.integers(-5, 5)), max_size=6).map(
        lambda pairs: Polynomial(n, dict_accumulate(pairs)))


def test_order_examples():
    assert mono_less(mono("y1", 3), mono("y3", 3))
    assert not mono_less(mono("y3", 3), mono("y1", 3))
    m = mono("x2*y1", 3)
    assert not mono_less(m, m)
    # the y-alphabet outranks the x-alphabet
    assert mono_less(mono("x3", 3), mono("y1", 3))


@given(monomials(3), monomials(3))
def test_order_total_and_strict(m1, m2):
    assert (m1 == m2) == (not mono_less(m1, m2) and not mono_less(m2, m1))
    assert not (mono_less(m1, m2) and mono_less(m2, m1))


def test_order_multiplicative_randomized():
    # strict total order compatible with multiplication, 10^4 random triples
    rng = random.Random(20240817)
    for _ in range(10_000):
        def rand_mono():
            return Monomial(tuple(rng.randrange(4) for _ in range(3)),
                            tuple(rng.randrange(4) for _ in range(3)))
        m1, m2, m = rand_mono(), rand_mono(), rand_mono()
        if mono_less(m1, m2):
            assert mono_less(m.mul(m1), m.mul(m2))
        if descent_key(m1) < descent_key(m2):
            assert descent_key(m.mul(m1)) < descent_key(m.mul(m2))


def test_descent_key_is_reverse_tuple_order():
    box = [Monomial(xe, ye) for xe in iproduct(range(3), repeat=2)
           for ye in iproduct(range(3), repeat=2)]
    for a in box:
        for b in box:
            assert (descent_key(a) < descent_key(b)) == (a > b), (a, b)


def test_mismatched_ambient_rejected():
    with pytest.raises(ValueError):
        mono_less(mono("x1", 2), mono("x1", 3))
    with pytest.raises(ValueError):
        parse_poly("x1", 2) + parse_poly("x1", 3)
    with pytest.raises(ValueError):  # a zero coefficient does not hide the wrong ambient
        Polynomial(2, {mono("x1", 2): 1, mono("x1", 3): 0})


def test_ring_arithmetic_examples():
    n = 2
    zero = parse_poly("x1", n) + parse_poly("-1*x1", n)
    assert zero.is_zero()
    prod = parse_poly("x1 + y1", n) * parse_poly("x1 - y1", n)
    assert prod == parse_poly("x1^2 - y1^2", n)
    assert parse_poly("2*x1", n).scale(3) == parse_poly("6*x1", n)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def test_apply_diff_examples():
    # d/dy1 of Delta_(2,1) is checked in test_delta; basic behavior here
    p = parse_poly("y1^2", 1)
    assert apply_diff(mono("y1^2", 1), p) == Polynomial.constant(1, 2)
    assert apply_diff(unit_monomial(1), p) == p
    assert apply_diff(mono("x1^2", 1), parse_poly("x1", 1)).is_zero()


@given(monomials(2), monomials(2), poly_strategy(2))
def test_apply_diff_composition(op1, op2, p):
    lhs = apply_diff(op1, apply_diff(op2, p))
    rhs = apply_diff(op1.mul(op2), p)
    assert lhs == rhs


@given(monomials(2), poly_strategy(2))
def test_apply_diff_kills_nondivisible(op, p):
    filtered = Polynomial(2, {m: c for m, c in p.terms.items() if not op.divides(m)})
    assert op.is_unit() or apply_diff(op, filtered).is_zero()


def test_apply_diff_poly_linear():
    n = 2
    operator = parse_poly("x1 + x2", n)
    target = parse_poly("x1*x2", n)
    assert apply_diff_poly(operator, target) == parse_poly("x1 + x2", n)


def test_min_monomial_examples():
    assert min_monomial(parse_poly("y1 - y3", 3)) == mono("y1", 3)
    assert min_monomial(parse_poly("y3 - y2", 3)) == mono("y2", 3)
    assert min_monomial(Polynomial.constant(3, 5)) == unit_monomial(3)
    with pytest.raises(ValueError):
        min_monomial(Polynomial.zero(3))


def test_parse_examples():
    p = parse_poly("x2*y2*x3^4", 4)
    m = next(iter(p.terms))
    assert m.xexp == (0, 1, 4, 0)
    assert m.yexp == (0, 1, 0, 0)
    assert parse_poly("0", 2).is_zero()
    assert parse_poly("-3*x1 + 3*x1", 2).is_zero()
    assert parse_poly("x1 + 2*x1 - x2 + x2 + 0*y1", 2) == parse_poly("3*x1", 2)
    assert parse_poly("-3*x1^2*y3 + 2*x2", 3) == parse_poly("2*x2 - 3*x1^2*y3", 3)


def test_parse_errors_carry_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly("x1 + @", 2)
    assert err.value.position == 5
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x1 x2", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x9", 2)


@pytest.mark.parametrize("text,position", [
    ("x1^" + "9" * 5000, 3),  # an exponent past int()'s digit limit
    ("x" + "9" * 5000, 0),  # a variable index
    ("9" * 5000 + "*x1", 0),  # a coefficient
    ("x1^\u00b2", 3),  # a superscript two is a digit, but not a decimal one
], ids=["exponent", "index", "coefficient", "superscript"])
def test_an_unreadable_integer_is_a_syntax_error_at_its_token(text, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly(text, 2)
    assert err.value.position == position


def test_format_fixtures_round_trip():
    for text in ("x2*y2*x3^4*x4^3*x6*x7^2*x8", "y1^3*y2*y5^2*y6*y9"):
        assert format_poly(parse_poly(text)) == text


@given(poly_strategy())
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p), n=3) == p
