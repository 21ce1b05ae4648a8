import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product as iproduct, starmap
from math import comb, factorial, prod
from operator import add

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
    schema_orbits,
)
from ghbasis import annihilator, checks, hooks
from ghbasis import delta as delta_module
from ghbasis.delta import build_delta, diff_delta_poly, perm_sign
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


def pair_terms(P):
    """P's terms keyed by their pairs (x_i, y_i), as annihilates keys them."""
    return {tuple(zip(*m)): c for m, c in P.terms.items()}


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
    assert annihilator._stabilizer_blocks(pair_terms(parse_poly(text, n)), n) == blocks


def test_annihilates_expands_one_term_per_orbit(monkeypatch):
    # Under all of S_6 the orbits of the terms of h_i(X) are the partitions of
    # i into at most 6 parts; the hook (0, 5) has x-degree 15, so none of its
    # h_X(i) is dropped by degree.
    seen = []
    fold = annihilator._fold

    def counting(parts, weights, blocks):
        seen.append(len(weights))
        return fold(parts, weights, blocks)

    monkeypatch.setattr(annihilator, "_fold", counting)
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

    def no_expansion(parts, weights, blocks):
        raise AssertionError("an operator over the degree of Delta was expanded")

    monkeypatch.setattr(annihilator, "_fold", no_expansion)
    monkeypatch.setattr(annihilator, "_fill", no_expansion)
    assert annihilates(parse_poly("x1^2 - 3*y1^2*x2 + y3^5", 3), delta)


# The orbit path before class folding, kept as the oracle of delta._fold: the
# weighted canonical terms are expanded by diff_delta_poly, and each image term
# goes to its canonical form with the sign of its sorting permutation.

def signed_form(m, blocks):
    """The pairs of m sorted inside each block, and the sign of the sorting;
    (None, 0) when a block repeats a pair."""
    pairs = list(zip(*m))
    sign = 1
    for block in blocks:
        inside = [pairs[k] for k in block]
        if len(set(inside)) < len(inside):
            return None, 0
        order = sorted(range(len(inside)), key=inside.__getitem__)
        sign *= perm_sign(order)
        for k, o in zip(block, order):
            pairs[k] = inside[o]
    return tuple(pairs), sign


def orbit_sums(weights, blocks, delta):
    """The nonzero signed canonical sums of sum_R w_R d^R Delta, by expansion."""
    operator = Polynomial(delta.n, {Monomial(*zip(*form)): w for form, w in weights.items()})
    sums = {}
    for m, c in diff_delta_poly(operator, delta).terms.items():
        form, sign = signed_form(m, blocks)
        if sign:
            sums[form] = sums.get(form, 0) + sign * c
    return {form: v for form, v in sums.items() if v}


def folded_sums(weights, blocks, delta):
    """The nonzero sums of delta._fold, each form written in place order."""
    n = delta.n
    singles = [k for k in range(n) if all(k not in block for block in blocks)]
    out = {}
    for form, v in annihilator._fold(delta.mu.parts, weights, blocks).items():
        if v:
            pairs = [None] * n
            for places, inside in zip([*blocks, singles], form):
                for k, p in zip(places, inside):
                    pairs[k] = p
            out[tuple(pairs)] = v
    return out


def canonical_weights(P, delta):
    """(weights, blocks) as annihilates makes them from P's terms in Delta's box."""
    bx, by = delta.bidegree
    terms = {pairs: c for pairs, c in pair_terms(P).items()
             if sum(x for x, _ in pairs) <= bx and sum(y for _, y in pairs) <= by}
    blocks = annihilator._stabilizer_blocks(terms, P.n) if terms else []
    weights = {}
    for pairs, c in terms.items():
        form = annihilator._sorted_form(pairs, blocks)
        weights[form] = weights.get(form, 0) + c
    return weights, blocks


def assert_folding_matches_the_orbit_path(operators, delta):
    """Every operator and its perturbed copies; returns the verdicts seen."""
    verdicts = set()
    for P in operators:
        for Q in (P, *perturbed_copies(P)):
            weights, blocks = canonical_weights(Q, delta)
            expected = orbit_sums(weights, blocks, delta)
            assert folded_sums(weights, blocks, delta) == expected, format_poly(Q)
            assert annihilates(Q, delta) == (not expected), format_poly(Q)
            verdicts.add(not expected)
    return verdicts


def hook_operators(K, L):
    n = K + L + 1
    operators = list(generators(K, L).polynomials)
    for which in (1, 2, 3, 4):
        operators += proposition_instances(n, K, L, which)
    return operators


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_folding_matches_the_orbit_path(K, L):
    delta = build_delta(hook_partition(K, L))
    verdicts = assert_folding_matches_the_orbit_path(hook_operators(K, L), delta)
    assert verdicts == ({True} if K + L == 0 else {True, False})


def h_vectors(degree, size, n):
    """The exponent vectors of h_degree over the places 1..size, in n variables."""
    return [tuple(combo.count(i) for i in range(n))
            for combo in combinations_with_replacement(range(size), degree)]


def full_representative(n, rep):
    """Ybar h_k(Y) h_l(X) over the prefix sets of rep = (|Ybar|, k, |Y|, l, |X|),
    term by term."""
    bar, k, ys, l, xs = rep
    ybar = tuple(int(i < bar) for i in range(n))
    return Polynomial(n, {Monomial(a, tuple(map(add, b, ybar))): 1
                          for b in h_vectors(k, ys, n) for a in h_vectors(l, xs, n)})


def representatives_in_the_box(K, L):
    """(which, orbit size, rep) for the representatives that schema_orbits
    expands: those within the bidegree of Delta."""
    n = K + L + 1
    bx, by = L * (L + 1) // 2, K * (K + 1) // 2
    return [(which, size, rep) for which in (1, 2, 3, 4)
            for size, rep in annihilator._schema_representatives(n, K, L, which)
            if rep[3] <= bx and rep[1] + rep[0] <= by]


def permuted(P, sigma):
    """P with place i moved to place sigma[i]."""
    terms = {}
    for m, c in P.terms.items():
        x, y = [0] * P.n, [0] * P.n
        for i, j in enumerate(sigma):
            x[j], y[j] = m.xexp[i], m.yexp[i]
        terms[Monomial(tuple(x), tuple(y))] = c
    return Polynomial(P.n, terms)


@pytest.mark.parametrize("K,L", [(K, 4 - K) for K in range(5)])
def test_folding_matches_the_orbit_path_on_a_sample_at_n_5(K, L):
    # Each representative in the box, moved by a seeded permutation, is an
    # instance whose stabilizer blocks need not be runs of places.
    n = K + L + 1
    delta = build_delta(hook_partition(K, L))
    rng = random.Random(25 + K)
    operators = list(generators(K, L).polynomials)
    for _, _, rep in representatives_in_the_box(K, L):
        operators.append(permuted(full_representative(n, rep), rng.sample(range(n), n)))
    assert assert_folding_matches_the_orbit_path(operators, delta) == {True, False}


def mismatches_with_the_full_expansion(nmax):
    return [format_poly(Q) for K, L in hooks_up_to(nmax)
            for delta in [build_delta(hook_partition(K, L))]
            for P in hook_operators(K, L) for Q in (P, *perturbed_copies(P))
            if annihilates(Q, delta) != apply_diff_poly(Q, delta.value).is_zero()]


def sort_keeping_repeats(pairs):
    return tuple(sorted(pairs)), perm_sign(sorted(range(len(pairs)), key=pairs.__getitem__))


@pytest.mark.parametrize("mutant", ["class factorial dropped", "repeated pair kept",
                                    "single-term test inverted"])
def test_folding_catches_each_mutant(mutant, monkeypatch):
    fill = annihilator._fill
    if mutant == "class factorial dropped":
        monkeypatch.setattr(delta_module, "factorial", lambda k: 1)
    elif mutant == "repeated pair kept":
        monkeypatch.setattr(delta_module, "_signed_sort", sort_keeping_repeats)
    else:
        monkeypatch.setattr(annihilator, "_fill", lambda parts, pairs, scale: (
            *fill(parts, pairs, scale)[:-1], [] if fill(parts, pairs, scale)[-1] else [None]))
    assert mismatches_with_the_full_expansion(3)


def blocks_inside(known, blocks):
    """True iff every known block lies inside one of blocks."""
    return all(any(set(b) <= set(c) for c in blocks) for b in known)


@pytest.mark.parametrize("K,L", list(hooks_up_to(5)))
def test_schema_orbits_equal_the_instance_rows(K, L):
    n = K + L + 1
    delta = build_delta(hook_partition(K, L))
    for which in (1, 2, 3, 4):
        seen = good = 0
        for instance in proposition_instances(n, K, L, which):
            seen += 1
            good += annihilates(instance, delta)
        orbits = list(schema_orbits(K, L, which, delta))
        assert sum(size for size, _ in orbits) == seen, which
        assert sum(size for size, kills in orbits if kills) == good, which


@pytest.mark.parametrize("K,L", list(hooks_up_to(5)))
def test_representatives_are_built_under_blocks_that_fix_them(K, L):
    # The known blocks lie inside the stabilizer blocks of the representative
    # built term by term, and its canonical terms under them carry its orbits.
    n = K + L + 1
    for which, _, rep in representatives_in_the_box(K, L):
        weights, blocks = annihilator._representative(n, rep)
        terms = pair_terms(full_representative(n, rep))
        if terms:
            assert blocks_inside(blocks, annihilator._stabilizer_blocks(terms, n)), (which, rep)
        expected = Counter()
        for pairs, c in terms.items():
            expected[annihilator._sorted_form(pairs, blocks)] += c
        assert weights == expected, (which, rep)


def test_blocks_that_do_not_fix_a_representative_fail_the_block_test():
    # h_2(y1, y2) at n = 3 is fixed by S_{1,2} x S_{3}, not by S_3.
    rep = (0, 2, 2, 0, 0)
    terms = pair_terms(full_representative(3, rep))
    stabilizer = annihilator._stabilizer_blocks(terms, 3)
    assert blocks_inside(annihilator._representative(3, rep)[1], stabilizer)
    assert not blocks_inside([(0, 1, 2)], stabilizer)


def test_a_representative_that_does_not_annihilate_is_decided_false():
    # y1 on the hook (2, 2); the orbit path agrees.  (h_3(y1) does annihilate
    # there, so it cannot serve.)
    delta = build_delta(hook_partition(2, 2))
    rep = (0, 1, 1, 0, 0)
    weights, blocks = annihilator._representative(5, rep)
    assert any(annihilator._fold(delta.mu.parts, weights, blocks).values())
    assert orbit_sums(*canonical_weights(full_representative(5, rep), delta), delta)
    h3 = (0, 3, 1, 0, 0)
    assert not orbit_sums(*canonical_weights(full_representative(5, h3), delta), delta)
    assert not any(annihilator._fold(delta.mu.parts, *annihilator._representative(5, h3)).values())


def test_schema_orbits_reject_a_delta_of_another_partition():
    with pytest.raises(ValueError):
        next(schema_orbits(1, 1, 1, build_delta(Partition((3,)))))
    with pytest.raises(ValueError):
        next(schema_orbits(1, 1, 5, build_delta(hook_partition(1, 1))))


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


def reduce_step_by_shift(op, K, L):
    """The rewriting step built term by term: every other monomial of the
    h-product shifts the base, mixed terms are dropped once built, and each
    kept term is checked against op by descent_key; the oracle for
    reduce_step."""
    g = classify_diagram(op, K, L).place
    _, own_places, k, other_places, partner, l = annihilator._rule_at(op, K, L, g)
    n = K + L + 1
    guilty_y = op.yexp[g - 1] > 0
    own, other = (op.yexp, op.xexp) if guilty_y else (op.xexp, op.yexp)
    own_base, other_base = annihilator._drop(own, g, k), annihilator._drop(other, partner, l)
    out = []
    for v in annihilator._h_exponents(k, own_places, n):
        for w in annihilator._h_exponents(l, other_places, n):
            if v[g - 1] == k and w[partner - 1] == l:
                continue
            a, b = tuple(map(add, own_base, v)), tuple(map(add, other_base, w))
            if any(p and q for p, q in zip(a, b)):
                continue
            m = Monomial(b, a) if guilty_y else Monomial(a, b)
            assert descent_key(m) < descent_key(op), (op, m)
            out.append((-1, m))
    return out


def sampled_anomalies(K, L, size, seed):
    ops = random.Random(seed).sample(list(hook_box(K, L)), size)
    return [op for op in ops if classify_diagram(op, K, L).is_anomaly]


@pytest.mark.parametrize("K,L", list(hooks_up_to(4)))
def test_reduce_step_matches_the_shift_oracle_on_the_box(K, L):
    anomalies = [op for op in hook_box(K, L) if classify_diagram(op, K, L).is_anomaly]
    assert anomalies or K + L < 2
    for op in anomalies:
        assert reduce_step(op, K, L) == reduce_step_by_shift(op, K, L), op


@pytest.mark.parametrize("K,L", [(K, L) for K, L in hooks_up_to(6) if K + L >= 4])
def test_reduce_step_matches_the_shift_oracle_on_a_sample(K, L):
    anomalies = sampled_anomalies(K, L, 400, seed=1000 * K + L)
    assert anomalies
    for op in anomalies:
        assert reduce_step(op, K, L) == reduce_step_by_shift(op, K, L), op


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
    halves, and reduce_step for everything else: the oracle for
    normal_form."""
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
    # Every h-factor becomes the constant 1, so the one replacement term of
    # x3 is the unit, the largest monomial in the descent order; without the
    # descent check x3 would get the all-white drawing with coefficient -1.
    monkeypatch.setattr(annihilator, "_masked_h", lambda degree, places, n: (((0,) * n, 0),))
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
