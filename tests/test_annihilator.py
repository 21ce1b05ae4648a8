from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product as iproduct, starmap
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
from ghbasis.delta import build_delta, diff_delta_poly
from ghbasis.errors import InvariantError, RewriteDefectError, SizeLimitError
from ghbasis.hooks import enumerate_drawings, split
from ghbasis.linalg import Eliminator, column, derivative_closure
from ghbasis.partitions import Partition, hook_partition, partitions_of
from ghbasis.poly import (
    Monomial,
    Polynomial,
    apply_diff,
    apply_diff_poly,
    descent_key,
    format_poly,
    parse_poly,
    unit_monomial,
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

    def counting(operator, delta):
        seen.append(len(operator.terms))
        return diff_delta_poly(operator, delta)

    monkeypatch.setattr(annihilator, "diff_delta_poly", counting)
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

    def no_expansion(operator, delta):
        raise AssertionError("an operator over the degree of Delta was expanded")

    monkeypatch.setattr(annihilator, "diff_delta_poly", no_expansion)
    assert annihilates(parse_poly("x1^2 - 3*y1^2*x2 + y3^5", 3), delta)


def test_normal_form_rejects_a_delta_of_another_partition():
    with pytest.raises(ValueError):
        normal_form(mono("x3", 3), 1, 1, delta=build_delta(Partition((3,))), validate=True)
    with pytest.raises(ValueError):
        normal_form(mono("x1*y1", 2), 1, 1)
    with pytest.raises(ValueError):
        normal_form(mono("x1*y1", 2), -1, 2)


def test_normal_form_builds_no_partition_without_a_delta(monkeypatch):
    # n and Delta's bidegree are read from (K, L); only a given Delta's mu is
    # compared with a built hook.
    op = mono("x2*y3", 3)
    expected = normal_form(op, 1, 1, validate=True)  # fills the hook's memo
    built = []
    check = Partition.__post_init__
    monkeypatch.setattr(Partition, "__post_init__", lambda self: built.append(self) or check(self))
    assert normal_form(op, 1, 1) == expected
    assert normal_form(mono("x1^2*y2", 3), 1, 1) == {}  # above Delta's bidegree (1, 1)
    assert built == []


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

    # A cached _shapes(3, 4) would never reach the patched function.
    hooks._shapes.cache_clear()
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


def normal_form_by_worklist(op, K, L, memo, s_halves):
    """The memoized rewriting loop with its own null test and set of S
    halves, and reduce_step for everything else: the oracle for normal_form,
    which takes both tests from classify_diagram."""
    rewrites = {}
    stack = [op]
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
            continue
        if any(a and b for a, b in zip(m.xexp, m.yexp)):
            memo[m] = {}
            stack.pop()
            continue
        if m in s_halves:
            memo[m] = {m: 1}
            stack.pop()
            continue
        if m not in rewrites:
            rewrites[m] = reduce_step(m, K, L)
        pending = [mm for _, mm in rewrites[m] if mm not in memo]
        if pending:
            stack.extend(pending)
            continue
        combined = {}
        for coeff, mm in rewrites[m]:
            for sm, c in memo[mm].items():
                s = combined.get(sm, 0) + coeff * c
                if s:
                    combined[sm] = s
                else:
                    combined.pop(sm, None)
        memo[m] = combined
        stack.pop()
    return memo[op]


def hook_box(K, L):
    return annihilator.bounded_operators(K + L + 1, L * (L + 1) // 2, K * (K + 1) // 2)


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_normal_form_matches_the_worklist_oracle(K, L):
    memo = {}
    s_halves = {split(d)[0] for d in enumerate_drawings(K, L)}
    for op in hook_box(K, L):
        got = [(split(d)[0], c) for d, c in normal_form(op, K, L).items()]
        assert got == list(normal_form_by_worklist(op, K, L, memo, s_halves).items()), op


def box_ring(K, L, width=2):
    """The operators above the hook's box by at most width in x- or y-degree."""
    bx, by = L * (L + 1) // 2, K * (K + 1) // 2
    return [op for op in annihilator.bounded_operators(K + L + 1, bx + width, by + width)
            if op.xdeg() > bx or op.ydeg() > by]


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_normal_form_above_the_box_is_zero_like_the_worklist_oracle(K, L):
    memo = {}
    s_halves = {split(d)[0] for d in enumerate_drawings(K, L)}
    for op in box_ring(K, L):
        assert normal_form(op, K, L) == {}, op
        assert normal_form_by_worklist(op, K, L, memo, s_halves) == {}, op
    # Negative control: at the box's edge the two still agree, and some
    # normal forms are not zero.
    bx, by = L * (L + 1) // 2, K * (K + 1) // 2
    nonzero = 0
    for op in hook_box(K, L):
        if op.xdeg() == bx or op.ydeg() == by:
            got = [(split(d)[0], c) for d, c in normal_form(op, K, L).items()]
            assert got == list(normal_form_by_worklist(op, K, L, memo, s_halves).items()), op
            nonzero += bool(got)
    assert nonzero


def test_normal_form_above_the_box_rewrites_nothing(monkeypatch):
    def no_rewrite(op, K, L):
        raise AssertionError(f"{op} was rewritten")

    monkeypatch.setattr(annihilator, "reduce_step", no_rewrite)
    assert normal_form(mono(f"x1^{10 ** 8}", 3), 1, 1) == {}
    assert normal_form(mono("y1*y2^2", 3), 1, 1, validate=True) == {}
    # validate=True still applies both sides to Delta.
    monkeypatch.setattr(annihilator, "annihilates", lambda P, delta: False)
    with pytest.raises(RewriteDefectError, match="oracle"):
        normal_form(mono("x1^2", 3), 1, 1, validate=True)


def test_normal_form_stops_at_a_non_descending_rewrite(monkeypatch):
    # Every replacement term becomes the unit, the largest monomial in the
    # descent order; without the descent check x3 would get the all-white
    # drawing with coefficient -2.
    monkeypatch.setattr(annihilator, "_shift", lambda op, dx, dy: unit_monomial(op.n))
    monkeypatch.setattr(annihilator, "_rewriter", lambda K, L: {})
    with pytest.raises(RewriteDefectError, match="non-descending"):
        normal_form(mono("x3", 3), 1, 1)


def test_normal_form_rewrites_each_monomial_once(monkeypatch):
    # The memo lasts across calls, so over a whole box each monomial reaches
    # reduce_step at most once; benchmark traces count those calls as the
    # rewrite steps, so the loop must go through the public reduce_step.
    rewritten = Counter()

    def spy(op, K, L):
        rewritten[op] += 1
        return reduce_step(op, K, L)

    annihilator._rewriter.cache_clear()
    monkeypatch.setattr(annihilator, "reduce_step", spy)
    for op in hook_box(2, 2):
        normal_form(op, 2, 2)
    assert rewritten and max(rewritten.values()) == 1


def first_defect(K, L):
    """The first operator of the hook's box whose validated normal form
    raises RewriteDefectError, or None."""
    delta = build_delta(hook_partition(K, L))
    for op in hook_box(K, L):
        try:
            normal_form(op, K, L, delta=delta, validate=True)
        except RewriteDefectError:
            return op
    return None


@pytest.mark.parametrize("case", annihilator.ANOMALY_CASES)
def test_every_rewriting_schema_is_needed(case, monkeypatch):
    # Negative control: with one case of _rule_at skipped, some normal form
    # at n <= 4 finds no schema, climbs, or fails the oracle.
    rule_at = annihilator._rule_at

    def skipping(op, K, L, g):
        rule = rule_at(op, K, L, g)
        return None if rule is not None and rule[0] == case else rule

    monkeypatch.setattr(annihilator, "_rule_at", skipping)
    annihilator._rewriter.cache_clear()
    try:
        assert any(first_defect(K, L) for K, L in hooks_up_to(4))
    finally:
        annihilator._rewriter.cache_clear()  # drop the memo of the skipping rule


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
    # A4's box: every operator of x-degree <= bx and y-degree <= by, each once.
    for bx in range(4):
        for by in range(4):
            ops = list(annihilator.bounded_operators(n, bx, by))
            assert len(ops) == comb(bx + n, n) * comb(by + n, n)
            assert set(ops) == {m for a in range(bx + 1) for b in range(by + 1)
                                for m in bidegree_monomials(a, b, n)}


def oracle_quotient_hilbert(K, L):
    """(table, total, shell_zero) of the quotient on Monomials: the standard
    monomials filtered with Monomial.divides, each shift built with
    Monomial.mul and looked up in a Monomial -> column dict."""
    n = K + L + 1
    gens = generators(K, L).polynomials
    singles = [next(iter(g.terms)) for g in gens if len(g.terms) == 1]
    others = [g for g in gens if len(g.terms) > 1]
    amax, bmax = L * (L + 1) // 2, K * (K + 1) // 2
    vectors = [[tuple(Counter(combo)[i] for i in range(n))
                for combo in combinations_with_replacement(range(n), d)]
               for d in range(max(amax, bmax) + 2)]
    standard = {(a, b): [m for m in starmap(Monomial, iproduct(vectors[a], vectors[b]))
                         if not any(g.divides(m) for g in singles)]
                for a in range(amax + 2) for b in range(bmax + 2)}

    def dim(a, b):
        cols = {m: column(m, a + b + 1) for m in standard[a, b]}
        elim = Eliminator()
        for g in others:
            ga, gb = next(iter(g.terms)).bidegree()
            if ga <= a and gb <= b:
                for r in standard[a - ga, b - gb]:
                    shifted = ((t.mul(r), c) for t, c in g.terms.items())
                    elim.add({cols[t]: c for t, c in shifted if t in cols})
        return len(cols) - elim.rank

    table = {(a, b): dim(a, b) for a in range(amax + 1) for b in range(bmax + 1)}
    shell = ([dim(amax + 1, b) for b in range(bmax + 1)]
             + [dim(a, bmax + 1) for a in range(amax + 2)])
    return table, sum(table.values()), all(v == 0 for v in shell)


# (4, 0) and (0, 4) are left out: both sides spend about 6 s there in
# elimination, which the oracle shares, not in the listing or the shifts.
@pytest.mark.parametrize("K,L", list(hooks_up_to(4)) + [(3, 1), (2, 2), (1, 3)])
def test_quotient_matches_the_monomial_oracle(K, L):
    qt = quotient_hilbert(K, L)
    assert (qt.table, qt.total, qt.shell_zero) == oracle_quotient_hilbert(K, L)


def test_quotient_rejects_a_single_term_generator_that_is_not_squarefree(monkeypatch):
    # x1^2 divides x1^2 but not x1, while their supports are equal: support
    # masks would strike x1 from the standard monomials, so it must raise.
    listed = annihilator.generators

    def with_a_square(K, L):
        gens = listed(K, L)
        square = Polynomial.monomial(mono("x1^2", K + L + 1))
        return annihilator.GeneratorSet(K=K, L=L, entries=gens.entries + (("sq", square),))

    monkeypatch.setattr(annihilator, "generators", with_a_square)
    with pytest.raises(InvariantError):
        quotient_hilbert(1, 1)


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
