from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product as iproduct
from math import comb, factorial, prod

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
from ghbasis.hooks import enumerate_drawings, split
from ghbasis.linalg import Eliminator, derivative_closure
from ghbasis.partitions import Partition, hook_partition, partitions_of
from ghbasis.poly import (
    Monomial,
    Polynomial,
    apply_diff,
    apply_diff_poly,
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


@pytest.mark.parametrize("text,n", [("x1^9", 1), ("x1^9", 5), ("x1", 1)])
def test_annihilates_rejects_another_ambient(text, n):
    # x1^9 is past the x-degree of Delta, which once skipped the ambient check.
    with pytest.raises(ValueError):
        annihilates(parse_poly(text, n), build_delta(hook_partition(1, 1)))


def perturbed_copies(P):
    """P with one term dropped, and P plus a term with its x-vector reversed."""
    items = list(P.terms.items())
    if len(items) > 1:
        yield Polynomial(P.n, dict(items[1:]))
    if items:
        (m, c), terms = items[0], dict(P.terms)
        reversed_x = Monomial(m.xexp[::-1], m.yexp)
        terms[reversed_x] = terms.get(reversed_x, 0) + c
        yield Polynomial(P.n, terms)


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_annihilates_matches_the_full_expansion(K, L):
    n = K + L + 1
    delta = build_delta(hook_partition(K, L))
    operators = list(generators(K, L).polynomials)
    for which in (1, 2, 3, 4):
        operators += proposition_instances(n, K, L, which)
    verdicts = set()
    for P in operators:
        for Q in (P, *perturbed_copies(P)):
            expected = apply_diff_poly(Q, delta.value).is_zero()
            assert annihilates(Q, delta) == expected, format_poly(Q)
            verdicts.add(expected)
    assert verdicts == ({True} if n == 1 else {True, False})


@pytest.mark.parametrize("mu", [Partition(p) for p in ((1,), (2, 1), (2, 2), (3, 1), (2, 1, 1))])
def test_annihilates_rejects_the_unit_and_a_term_of_delta(mu):
    delta = build_delta(mu)
    assert not annihilates(Polynomial.constant(mu.n, 1), delta)
    m0 = next(iter(delta.value.terms))  # d^{m0} Delta = m0!, a nonzero constant
    assert not annihilates(Polynomial.monomial(m0), delta)


@pytest.mark.parametrize("text,n,blocks", [
    ("x1^2 + x1*x2 + x2^2", 3, [(0, 1)]),
    ("x1^2 + x1*x3 + x3^2", 3, [(0, 2)]),
    ("x1^2 + x1*x2 + x2^2 + x1*x3 + x2*x3 + x3^2", 3, [(0, 1, 2)]),
    ("x1^2 + x2^2 + y3 + y4", 4, [(0, 1), (2, 3)]),
    ("x1*y2", 4, [(2, 3)]),
    ("x1 + 2*x2", 2, []),
])
def test_stabilizer_blocks(text, n, blocks):
    # h_2(x1, x2) at n = 3 is fixed by (1 2) only, not by all of S_3.
    assert annihilator._stabilizer_blocks(parse_poly(text, n).terms, n) == blocks


def test_annihilates_expands_one_term_per_orbit(monkeypatch):
    # Under all of S_6 the orbits of the terms of h_i(X) are the partitions of
    # i into at most 6 parts; the hook (0, 5) has x-degree 15, so none of its
    # h_X(i) is dropped by degree.
    seen = []

    def counting(operator, p):
        seen.append(len(operator.terms))
        return apply_diff_poly(operator, p)

    monkeypatch.setattr(annihilator, "apply_diff_poly", counting)
    delta = build_delta(hook_partition(0, 5))
    for tag, P in generators(0, 5).entries:
        if tag.startswith("h_X("):
            i = int(tag[4:-1])
            seen.clear()
            assert annihilates(P, delta)
            assert seen == [sum(1 for p in partitions_of(i) if len(p.parts) <= 6)], tag


def test_annihilates_drops_the_terms_over_the_degree_of_delta(monkeypatch):
    delta = build_delta(hook_partition(1, 1))  # bidegree (1, 1)
    h1 = parse_poly("x1 + x2 + x3", 3)
    assert annihilates(h1 + parse_poly("x1^2", 3), delta)
    assert annihilates(h1 + parse_poly("y2^2*x3", 3), delta)
    assert not annihilates(h1 + parse_poly("x1", 3), delta)

    def no_expansion(operator, p):
        raise AssertionError("an operator over the degree of Delta was expanded")

    monkeypatch.setattr(annihilator, "apply_diff_poly", no_expansion)
    assert annihilates(parse_poly("x1^2 - 3*y1^2*x2 + y3^5", 3), delta)


def test_normal_form_rejects_a_delta_of_another_partition():
    with pytest.raises(ValueError):
        normal_form(mono("x3", 3), 1, 1, delta=build_delta(Partition((3,))), validate=True)
    with pytest.raises(ValueError):
        normal_form(mono("x1*y1", 2), 1, 1)


def test_proposition_instances_reject_another_n():
    with pytest.raises(ValueError):
        next(proposition_instances(3, 2, 2, 1))


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


# The operators as products of polynomials, the way they read in the paper:
# the oracle for the exponent-vector construction of the library.

def variable(i, n, y=False):
    e = tuple(int(j == i) for j in range(1, n + 1))
    zero = (0,) * n
    return Polynomial.monomial(Monomial(zero, e) if y else Monomial(e, zero))


def product_of_variables(indices, n, y=False):
    return prod((variable(i, n, y) for i in indices), start=Polynomial.constant(n, 1))


@lru_cache(maxsize=None)
def h_by_products(degree, indices, n, y=False):
    terms = {}
    for combo in combinations_with_replacement(indices, degree):
        (m, c), = product_of_variables(combo, n, y).terms.items()
        terms[m] = terms.get(m, 0) + c
    return Polynomial(n, terms)


def generators_by_products(K, L):
    n = K + L + 1
    everything = tuple(range(1, n + 1))
    return ([(f"h_X({i})", h_by_products(i, everything, n)) for i in everything]
            + [(f"h_Y({i})", h_by_products(i, everything, n, y=True)) for i in everything]
            + [(f"xy({i})", variable(i, n) * variable(i, n, y=True)) for i in everything]
            + [(f"xbar{c}", product_of_variables(c, n)) for c in combinations(everything, L + 1)]
            + [(f"ybar{c}", product_of_variables(c, n, y=True))
               for c in combinations(everything, K + 1)])


def instances_by_products(n, K, L, which):
    ky_max = K * (K + 1) // 2 + 1
    lx_max = L * (L + 1) // 2 + 1
    everything = tuple(range(1, n + 1))
    subsets = [S for size in range(n + 1) for S in combinations(everything, size)]
    if which == 1:
        return [h_by_products(k, Y, n, y=True) for k in range(1, ky_max + 1)
                for size in range(max(0, n - k + 1), n + 1)
                for Y in combinations(everything, size)]
    if which == 2:
        return [product_of_variables(Y, n, y=True) * h_by_products(k, Yp, n, y=True)
                for Yp in subsets for y_size in range(len(Yp) + 1)
                for Y in combinations(Yp, y_size)
                for k in range(1, ky_max + 1) if k + len(Y) > K]
    out = []
    for Y in subsets:
        for X in subsets:
            yx, xy = set(Y) <= set(X), set(X) <= set(Y)
            for k in range(1, ky_max + 1):
                for l in range(1, lx_max + 1):
                    if which == 3:
                        hit = (yx or xy) and k + l + len(Y) + len(X) >= 2 * n
                    else:
                        hit = yx and k + l + len(Y) > n or xy and k + l + len(X) > n
                    if hit:
                        out.append(h_by_products(k, Y, n, y=True) * h_by_products(l, X, n))
    return out


def term_lists(polys):
    return [(p.n, list(p.terms.items())) for p in polys]


@pytest.mark.parametrize("n", range(1, 8))
def test_generators_match_the_product_construction(n):
    for K in range(n):
        built = generators(K, n - 1 - K).entries
        oracle = generators_by_products(K, n - 1 - K)
        assert [tag for tag, _ in built] == [tag for tag, _ in oracle]
        assert term_lists(p for _, p in built) == term_lists(p for _, p in oracle)


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_instances_match_the_product_construction(K, L):
    n = K + L + 1
    for which in (1, 2, 3, 4):
        assert term_lists(proposition_instances(n, K, L, which)) == term_lists(
            instances_by_products(n, K, L, which)), which


def test_smoke_suite_forms_no_polynomial_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("the library multiplied two polynomials")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    rows = checks.run("smoke")
    assert rows and all(row.passed for _, row in rows)


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
    delta = build_delta(hook_partition(1, 1))
    nf = normal_form(mono("x3", 3), 1, 1, delta=delta, validate=True)
    rendered = {split(d)[0]: c for d, c in nf.items()}
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


@pytest.mark.parametrize("n", range(1, 5))
def test_bounded_operators_fill_the_box(n):
    # A4's box holds as many operators as the rewriter's budget counts.
    for bx in range(4):
        for by in range(4):
            ops = list(annihilator.bounded_operators(n, bx, by))
            assert len(ops) == comb(bx + n, n) * comb(by + n, n)
            assert set(ops) == {m for a in range(bx + 1) for b in range(by + 1)
                                for m in bidegree_monomials(a, b, n)}


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
