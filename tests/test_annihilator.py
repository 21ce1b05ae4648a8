from itertools import product as iproduct
from math import comb, factorial

import pytest

from ghbasis.annihilator import (
    CASE_CROSS_OVERFLOW_Y,
    CASE_NULL,
    CASE_VALID,
    annihilates,
    classify_diagram,
    generators,
    normal_form,
    proposition_instances,
    quotient_hilbert,
    reduce_step,
)
from ghbasis import annihilator, checks, hooks
from ghbasis.delta import build_delta
from ghbasis.errors import SizeLimitError
from ghbasis.hooks import enumerate_drawings, s_monomial
from ghbasis.linalg import Eliminator, derivative_closure
from ghbasis.partitions import hook_partition
from ghbasis.poly import (
    Monomial,
    Polynomial,
    apply_diff,
    descent_key,
    format_poly,
    parse_poly,
)


def mono(text, n):
    return next(iter(parse_poly(text, n).terms))


def hooks_up_to(nmax):
    for n in range(1, nmax + 1):
        for K in range(n):
            yield K, n - 1 - K


def test_generator_family_composition():
    gs = generators(1, 1)
    assert len(gs) == 3 * 3 + comb(3, 2) + comb(3, 2) == 15
    rendered = {format_poly(p) for _, p in gs.entries}
    assert format_poly(parse_poly("x1 + x2 + x3", 3)) in rendered
    assert format_poly(parse_poly("x2*y2", 3)) in rendered
    assert format_poly(parse_poly("x1*x3", 3)) in rendered
    assert format_poly(parse_poly("y2*y3", 3)) in rendered


def test_generator_family_degenerate_hook():
    gs = generators(0, 0)
    rendered = {format_poly(p) for _, p in gs.entries}
    assert rendered == {"x1", "y1", "x1*y1"}


def test_annihilates_examples():
    delta = build_delta(hook_partition(1, 1))
    assert annihilates(parse_poly("x1 + x2 + x3", 3), delta)
    assert not annihilates(parse_poly("x1", 3), delta)
    assert annihilates(parse_poly("x1*y1", 3), delta)


@pytest.mark.parametrize("K,L", list(hooks_up_to(6)))
def test_generators_annihilate(K, L):
    delta = build_delta(hook_partition(K, L))
    for tag, p in generators(K, L).entries:
        assert annihilates(p, delta), tag


def test_proposition_instance_examples():
    # schema 1 at n = 3 includes h_2(y1, y2)
    insts = [format_poly(p) for p in proposition_instances(3, 1, 1, 1)]
    assert format_poly(parse_poly("y1^2 + y1*y2 + y2^2", 3)) in insts
    # schema 2 at K = 1 includes ybar * h_1(Y') with Y = {y1}, Y' = {y1, y2}
    insts2 = [format_poly(p) for p in proposition_instances(3, 1, 1, 2)]
    assert format_poly(parse_poly("y1^2 + y1*y2", 3)) in insts2
    # schema 4 at n = 3 includes y1 * h_2(x1)
    insts4 = [format_poly(p) for p in proposition_instances(3, 1, 1, 4)]
    assert format_poly(parse_poly("y1*x1^2", 3)) in insts4


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_proposition_instances_annihilate_small(K, L, which):
    n = K + L + 1
    delta = build_delta(hook_partition(K, L))
    for inst in proposition_instances(n, K, L, which):
        assert annihilates(inst, delta)


def test_classify_examples():
    assert classify_diagram(mono("y1", 3), 1, 1).case == CASE_VALID
    cls = classify_diagram(mono("y1^2", 3), 1, 1)
    assert cls.case == CASE_CROSS_OVERFLOW_Y and cls.place == 1
    assert classify_diagram(mono("x1*y1", 3), 1, 1).case == CASE_NULL


def test_classify_total_on_bidegree_box():
    K = L = 1
    delta = build_delta(hook_partition(K, L))
    bx, by = delta.bidegree
    for xe in iproduct(range(bx + 1), repeat=3):
        for ye in iproduct(range(by + 1), repeat=3):
            cls = classify_diagram(Monomial(tuple(xe), tuple(ye)), K, L)
            assert cls.case is not None


def test_reduce_step_examples():
    out = reduce_step(mono("x3", 3), 1, 1)
    assert sorted((c, m.xexp) for c, m in out) == [
        (-1, (0, 1, 0)), (-1, (1, 0, 0))]
    assert reduce_step(mono("y1^2", 3), 1, 1) == []
    with pytest.raises(ValueError):
        reduce_step(mono("y1", 3), 1, 1)  # already a drawing operator


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_reduce_step_descends_and_matches_oracle(K, L):
    n = K + L + 1
    delta = build_delta(hook_partition(K, L))
    bx, by = delta.bidegree
    for xe in iproduct(range(bx + 1), repeat=n):
        if sum(xe) > bx:
            continue
        for ye in iproduct(range(by + 1), repeat=n):
            if sum(ye) > by:
                continue
            op = Monomial(tuple(xe), tuple(ye))
            cls = classify_diagram(op, K, L)
            if not cls.is_anomaly:
                continue
            out = reduce_step(op, K, L)
            for _, m in out:
                assert descent_key(m) < descent_key(op)
            lhs = apply_diff(op, delta.value)
            rhs = Polynomial.zero(n)
            for c, m in out:
                rhs = rhs + apply_diff(m, delta.value).scale(c)
            assert lhs == rhs


def test_normal_form_examples():
    n = 3
    delta = build_delta(hook_partition(1, 1))
    nf = normal_form(mono("x3", 3), 1, 1, delta=delta, validate=True)
    rendered = {s_monomial(d, n): c for d, c in nf.items()}
    assert rendered == {mono("x1", 3): -1, mono("x2", 3): -1}
    assert normal_form(mono("x1*y1", 3), 1, 1, delta=delta, validate=True) == {}
    nf_drawing = normal_form(mono("y1", 3), 1, 1, delta=delta, validate=True)
    assert list(nf_drawing.values()) == [1]


def test_normal_form_respects_the_drawing_size_cap(monkeypatch):
    def enumerated(*args):
        raise AssertionError("drawings enumerated past the size cap")

    monkeypatch.setattr(hooks, "_shape_from_y_places", enumerated)
    with pytest.raises(SizeLimitError):
        normal_form(mono("x1", 8), 3, 4)


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_normal_form_exhaustive_small(K, L):
    n = K + L + 1
    delta = build_delta(hook_partition(K, L))
    bx, by = delta.bidegree
    for xe in iproduct(range(bx + 1), repeat=n):
        if sum(xe) > bx:
            continue
        for ye in iproduct(range(by + 1), repeat=n):
            if sum(ye) > by:
                continue
            op = Monomial(tuple(xe), tuple(ye))
            normal_form(op, K, L, delta=delta, validate=True)


def test_quotient_hilbert_examples():
    qt = quotient_hilbert(1, 1)
    assert qt.table == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}
    assert qt.total == 6
    assert qt.shell_zero
    qt0 = quotient_hilbert(0, 0)
    assert qt0.table == {(0, 0): 1} and qt0.total == 1
    for K in range(4):
        assert quotient_hilbert(K, 0).total == factorial(K + 1)


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_quotient_matches_derivative_closure_small(K, L):
    qt = quotient_hilbert(K, L)
    delta = build_delta(hook_partition(K, L))
    dim, table = derivative_closure(delta)
    assert qt.total == dim == factorial(K + L + 1)
    assert qt.table == table
    assert qt.shell_zero


def bidegree_monomials(a, b, n):
    return [Monomial(xe, ye)
            for xe in iproduct(range(a + 1), repeat=n) if sum(xe) == a
            for ye in iproduct(range(b + 1), repeat=n) if sum(ye) == b]


def generic_quotient_dim(K, L, a, b):
    """dim (R/I)_(a,b) by brute force: every multiple of every generator
    that lands in bidegree (a, b) is a row over all monomials of (a, b)."""
    n = K + L + 1
    cols = {m: i for i, m in enumerate(bidegree_monomials(a, b, n))}
    elim = Eliminator()
    for g in annihilator.generators(K, L).polynomials:
        ga, gb = next(iter(g.terms)).bidegree()
        if ga <= a and gb <= b:
            for m in bidegree_monomials(a - ga, b - gb, n):
                shifted = g * Polynomial.monomial(m)
                elim.add({cols[t]: c for t, c in shifted.terms.items()})
    return len(cols) - elim.rank


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_quotient_matches_generic_elimination_small(K, L, monkeypatch):
    exact = quotient_hilbert(K, L)
    monkeypatch.setattr(annihilator, "_graded_quotient_dim",
                        lambda standard, others, a, b: generic_quotient_dim(K, L, a, b))
    generic = quotient_hilbert(K, L)
    assert (exact.table, exact.total, exact.shell_zero) == (
        generic.table, generic.total, generic.shell_zero)


@pytest.mark.parametrize("family,totals", [("xy(", [9, 48, 48]), ("h_X(", [9, 76, 36])])
def test_a6_fails_without_a_generator_family(family, totals, monkeypatch):
    listed = annihilator.generators

    def without_family(K, L):
        gens = listed(K, L)
        kept = tuple(e for e in gens.entries if not e[0].startswith(family))
        assert len(kept) < len(gens)
        return annihilator.GeneratorSet(K=K, L=L, entries=kept)

    monkeypatch.setattr(annihilator, "generators", without_family)
    for (K, L), total in zip([(1, 1), (1, 2), (2, 1)], totals):
        ctx = checks.HookContext(K, L)
        rows = checks.criterion("A6").rows(ctx)
        assert ctx.quotient.total == total
        assert not all(row.passed for row in rows), (family, K, L)
