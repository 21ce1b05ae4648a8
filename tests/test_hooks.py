from collections import Counter
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ghbasis import checks, hooks
from ghbasis.checks import HookContext, flip_dual
from ghbasis.delta import build_delta
from ghbasis.errors import NoPreimageError
from ghbasis.hooks import (
    HookDrawing,
    closed_form_count,
    cross_images,
    descendant_graph,
    diff_op_of,
    enumerate_drawings,
    flip,
    is_acyclic,
    is_son,
    is_valid_drawing,
    reconstruct,
    son_edges,
    split,
    _shape_from_y_places,
)
from ghbasis.partitions import Partition, hook_partition
from ghbasis.poly import Monomial, apply_diff, format_monomial, parse_poly


def hooks_up_to(nmax):
    for n in range(1, nmax + 1):
        for K in range(n):
            yield K, n - 1 - K


def test_small_enumeration_by_hand():
    # (K, L) = (1, 1): shape (Y, X) admits exactly crosses (1,0) and (0,1);
    # shape (X, Y) admits all four cross vectors.
    drawings = enumerate_drawings(1, 1)
    assert len(drawings) == 6
    by_shape = {}
    for d in drawings:
        by_shape.setdefault(d.shape.kinds, []).append(d.crosses)
    assert sorted(by_shape[("y", "x")]) == [(0, 1), (1, 0)]
    assert sorted(by_shape[("x", "y")]) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_degenerate_hooks():
    assert len(enumerate_drawings(0, 0)) == 1
    assert len(enumerate_drawings(2, 0)) == 6
    assert len(enumerate_drawings(0, 2)) == 6


def oracle_y_choices(shape, crosses, place):
    """The y-column rule restated: with no x-column to the right any count;
    else the first plain x-column to the right forces a cross if all white
    and a white cell if all crossed."""
    height = shape.sizes[place]
    right = [q for q in range(place + 1, shape.places) if shape.kinds[q] == "x"]
    if not right:
        return range(0, height + 1)
    plain = next(q for q in right if crosses[q] in (0, shape.sizes[q]))
    return range(1, height + 1) if crosses[plain] == 0 else range(0, height)


def constructive_drawings(K, L):
    """Per-shape x-fills, then every y-fill the rule admits, sorted as
    enumerate_drawings documents: an oracle for the family and its order."""
    out = []
    places = K + L
    for y_combo in combinations(range(1, places + 1), K):
        shape = _shape_from_y_places(set(y_combo), K, L)
        x_places = [p for p in range(places) if shape.kinds[p] == "x"]
        y_places = [p for p in range(places) if shape.kinds[p] == "y"]
        for x_fill in product(*(range(shape.sizes[p] + 1) for p in x_places)):
            crosses = [0] * places
            for p, c in zip(x_places, x_fill):
                crosses[p] = c
            # y-choices depend only on the x-crosses
            for y_fill in product(*(oracle_y_choices(shape, crosses, p) for p in y_places)):
                full = list(crosses)
                for p, c in zip(y_places, y_fill):
                    full[p] = c
                out.append(HookDrawing(shape=shape, crosses=tuple(full)))
    out.sort(key=lambda d: (d.shape.kinds, d.crosses))
    return out


@pytest.mark.parametrize("K,L", list(hooks_up_to(7)))
def test_enumeration_equals_the_constructive_oracle(K, L):
    assert enumerate_drawings(K, L) == constructive_drawings(K, L)


@pytest.mark.parametrize("K,L", list(hooks_up_to(7)))
def test_counts_match_factorial_and_closed_form(K, L):
    n = K + L + 1
    drawings = enumerate_drawings(K, L)
    assert len(drawings) == factorial(n)
    assert len(set(drawings)) == len(drawings)
    assert closed_form_count(K, L) == factorial(n)


def test_closed_form_examples():
    assert closed_form_count(1, 1) == 6
    assert closed_form_count(2, 1) == 24
    assert closed_form_count(3, 2) == 720
    for K in range(5):
        assert closed_form_count(K, 0) == factorial(K + 1)


def test_closed_form_summand_split():
    # (K, L) = (1, 1): the two summands contribute 4 (k1 = 1) and 2 (k1 = 0)
    from ghbasis.hooks import _shape_from_y_places  # noqa: F401  (module import sanity)
    from math import comb
    def summand(k1, K, L):
        k2 = K - k1
        first = 1
        for t in range(2, k1 + 2):
            first *= t
        second = 1
        for t in range(k1 + 1, K + 1):
            second *= t
        binom = 1 if k2 == 0 else comb(k2 + L - 1, k2)
        return first * second * factorial(L + 1) * binom
    assert summand(1, 1, 1) == 4
    assert summand(0, 1, 1) == 2


@pytest.mark.parametrize("K,L", list(hooks_up_to(7)))
def test_flip_involution_preserves_family(K, L):
    drawings = enumerate_drawings(K, L)
    family = set(drawings)
    for d in drawings:
        fd = flip(d)
        assert fd in family
        assert flip(fd) == d


def test_flip_example():
    drawings = enumerate_drawings(1, 1)
    d = next(d for d in drawings if d.shape.kinds == ("y", "x") and d.crosses == (1, 0))
    assert flip(d).crosses == (0, 1)
    empty = next(d for d in drawings if d.shape.kinds == ("x", "y") and d.crosses == (0, 0))
    assert flip(empty).crosses == (1, 1)


def test_split_complementarity():
    for d in enumerate_drawings(2, 1):
        s, t = split(d)
        for sx, sy, tx, ty, size, kind in zip(
                s.xexp, s.yexp, t.xexp, t.yexp, d.shape.sizes, d.shape.kinds):
            if kind == "x":
                assert sx + tx == size and sy == ty == 0
            else:
                assert sy + ty == size and sx == tx == 0


def test_split_example():
    d = next(d for d in enumerate_drawings(1, 1)
             if d.shape.kinds == ("y", "x") and d.crosses == (1, 0))
    s, t = split(d)
    assert s == Monomial((0, 0, 0), (1, 0, 0))
    assert t == Monomial((0, 1, 0), (0, 0, 0))
    assert format_monomial(diff_op_of(s, 3)) == "y1"


def place_monomial(d, orders):
    """The monomial with orders[i] on x_{i+1} or y_{i+1} by the kind of place i + 1."""
    n = d.shape.places + 1
    xe, ye = [0] * n, [0] * n
    for i, (kind, o) in enumerate(zip(d.shape.kinds, orders)):
        (xe if kind == "x" else ye)[i] = o
    return Monomial(tuple(xe), tuple(ye))


@pytest.mark.parametrize("K,L", list(hooks_up_to(6)))
def test_split_halves_are_the_place_monomials(K, L):
    n = K + L + 1
    for d in enumerate_drawings(K, L):
        whites = tuple(size - c for size, c in zip(d.shape.sizes, d.crosses))
        s, t = split(d)
        assert (s, t) == (place_monomial(d, d.crosses), place_monomial(d, whites))
        assert diff_op_of(s, n) == s


def test_diff_op_of_pads_and_rejects_a_smaller_ambient():
    s = split(enumerate_drawings(1, 1)[0])[0]
    padded = diff_op_of(s, 5)
    assert padded.n == 5 and padded.xexp[:3] == s.xexp and padded.yexp[:3] == s.yexp
    assert not any(padded.xexp[3:] + padded.yexp[3:])
    with pytest.raises(ValueError):
        diff_op_of(s, 2)


@pytest.mark.parametrize("K,L", list(hooks_up_to(6)))
def test_reconstruct_round_trips(K, L):
    for d in enumerate_drawings(K, L):
        s, t = split(d)
        assert reconstruct(s, True, K, L) == d
        assert reconstruct(t, False, K, L) == d


@pytest.mark.parametrize("n", range(1, 5))
def test_reconstruct_agrees_with_the_split_lookup_on_a_box(n):
    # Most monomials of the box are not halves; each must get no drawing.
    monomials = [Monomial(x, y) for x in product(range(3), repeat=n)
                 for y in product(range(4), repeat=n)]
    for K in range(n):
        drawings = enumerate_drawings(K, n - 1 - K)
        for half, from_s in ((0, True), (1, False)):
            lookup = {split(d)[half]: d for d in drawings}
            for part in monomials:
                try:
                    got = reconstruct(part, from_s, K, n - 1 - K)
                except NoPreimageError:
                    got = None
                assert got == lookup.get(part)


def test_reconstruct_example_and_failure():
    d = reconstruct(Monomial((0, 0, 0), (1, 0, 0)), True, 1, 1)
    assert d.shape.kinds == ("y", "x") and d.crosses == (1, 0)
    with pytest.raises(NoPreimageError):
        reconstruct(Monomial((0, 0, 0), (2, 0, 0)), True, 1, 1)


@pytest.mark.parametrize("from_s", [True, False])
def test_reconstruct_rejects_a_monomial_of_another_ambient(from_s):
    # Negative control: a half of an (n-1)- or (n+1)-variable drawing is not a half here.
    for part in (Monomial((0, 0), (1, 0)), Monomial((0, 0, 0, 0), (1, 0, 0, 0))):
        with pytest.raises(NoPreimageError):
            reconstruct(part, from_s, 1, 1)


@pytest.mark.parametrize("from_s", [True, False])
def test_reconstruct_rejects_a_monomial_on_variable_n(from_s):
    # Negative control: every half of a drawing has x_n = y_n = 0, and with
    # either raised the orders at places 1..n-1 still name a drawing.
    for K, L in hooks_up_to(4):
        for d in enumerate_drawings(K, L):
            half = split(d)[0 if from_s else 1]
            for xn, yn in ((1, 0), (0, 1)):
                part = Monomial(half.xexp[:-1] + (xn,), half.yexp[:-1] + (yn,))
                with pytest.raises(NoPreimageError):
                    reconstruct(part, from_s, K, L)


def test_worked_operator_fixture():
    # the seven-place drawing whose operator is dy1^2 dx2 dx4 dx5^2 dy6
    text = "y1^2*x2*x4*x5^2*y6"
    op = next(iter(parse_poly(text, n=8).terms))
    assert op.xexp == (0, 1, 0, 1, 2, 0, 0, 0)
    assert op.yexp == (2, 0, 0, 0, 0, 1, 0, 0)
    d = reconstruct(op, True, 3, 4)
    assert is_valid_drawing(d)
    assert format_monomial(split(d)[0]) == text


def test_diff_op_identity():
    identity = diff_op_of(Monomial((0, 0), (0, 0)), 3)
    assert identity.is_unit() and identity.n == 3


def test_full_shape_monomial_has_unit_coefficient():
    # the S + T monomial of any drawing appears in Delta with coefficient +-1
    for K, L in hooks_up_to(6):
        delta = build_delta(hook_partition(K, L))
        seen = set()
        for d in enumerate_drawings(K, L):
            full = Monomial.mul(*split(d))
            if full in seen:
                continue
            seen.add(full)
            assert delta.value.terms.get(full) in (1, -1)


def test_is_son_examples():
    drawings = enumerate_drawings(1, 1)
    parent = next(d for d in drawings if d.shape.kinds == ("y", "x") and d.crosses == (1, 0))
    candidate = next(d for d in drawings if d.shape.kinds == ("x", "y") and d.crosses == (0, 1))
    assert not is_son(parent, candidate)
    with pytest.raises(ValueError):
        is_son(parent, parent)
    # exhaustive: no son edges at all for n = 3
    count = sum(is_son(a, b) for a in drawings for b in drawings if a != b)
    assert count == 0


def test_drawings_of_two_hooks_have_no_common_delta():
    # The hooks (2,1) and (3) both have n = 3, so only the hook check catches it.
    ours, other = enumerate_drawings(1, 1)[0], enumerate_drawings(2, 0)[0]
    with pytest.raises(ValueError):
        is_son(ours, other)
    with pytest.raises(ValueError):
        cross_images([ours, other])


def test_descendant_graph_rejects_a_delta_of_another_partition():
    # (2,2) has n = 4 like the hook (2,1,1), so only the partition check catches it.
    with pytest.raises(ValueError):
        descendant_graph(1, 2, build_delta(Partition((2, 2))))


@pytest.mark.parametrize("K,L", list(hooks_up_to(5)))
def test_descendant_graph_acyclic(K, L):
    delta = build_delta(hook_partition(K, L))
    _, edges, acyclic = descendant_graph(K, L, delta)
    assert acyclic


@pytest.mark.parametrize("K", range(6))
def test_descendant_graph_acyclic_n6(K):
    L = 5 - K
    delta = build_delta(hook_partition(K, L))
    _, _, acyclic = descendant_graph(K, L, delta)
    assert acyclic


@pytest.mark.parametrize("K,L", list(hooks_up_to(5)))
def test_flip_son_duality(K, L):
    # The pairwise is_son path is the oracle for the edge-based check.
    delta = build_delta(hook_partition(K, L))
    drawings, edges, _ = descendant_graph(K, L, delta)
    assert drawings == enumerate_drawings(K, L)
    sons = {(a, b) for a in drawings for b in drawings if a != b and is_son(a, b)}
    assert {(drawings[i], drawings[j]) for i, js in edges.items() for j in js} == sons
    for a in drawings:
        for b in drawings:
            if a != b:
                assert ((a, b) in sons) == ((flip(b), flip(a)) in sons)
    assert flip_dual(drawings, edges)


def test_flip_dual_rejects_a_broken_graph():
    delta = build_delta(hook_partition(2, 1))
    drawings, edges, _ = descendant_graph(2, 1, delta)
    index = {d: k for k, d in enumerate(drawings)}
    i, j = next((i, j) for i, sons in edges.items() for j in sons
                if (index[flip(drawings[j])], index[flip(drawings[i])]) != (i, j))
    edges[i] = [s for s in edges[i] if s != j]
    assert not flip_dual(drawings, edges)


def test_support_rule_needs_distinct_drawings():
    # Negative control: each drawing's white half is in the support of its own
    # cross image, so only the i != j exclusion keeps self-loops out.
    for K, L in hooks_up_to(4):
        drawings = enumerate_drawings(K, L)
        images = cross_images(drawings)
        assert all(split(d)[1] in f.terms for d, f in zip(drawings, images))
        assert all(i not in sons for i, sons in son_edges(drawings, images).items())


def test_is_acyclic_rejects_cycles():
    assert is_acyclic({0: [1], 1: [], 2: [0, 1]})
    assert not is_acyclic({0: [0]})
    assert not is_acyclic({0: [1], 1: [0]})


@pytest.mark.parametrize("K,L", list(hooks_up_to(5)))
def test_registry_son_graph_matches_descendant_graph(K, L):
    ctx = HookContext(K, L)
    drawings, edges, _ = descendant_graph(K, L, ctx.delta)
    assert ctx.drawings == drawings
    assert list(ctx.son_edges.items()) == list(edges.items())


def test_each_hook_enumerates_and_differentiates_once(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(hooks, "diff_delta", counting("diff_delta", hooks.diff_delta))
    enumerate_counted = counting("enumerate_drawings", hooks.enumerate_drawings)
    for module in (hooks, checks):
        monkeypatch.setattr(module, "enumerate_drawings", enumerate_counted)
    smoke_hooks = list(hooks_up_to(checks.criterion("A7b").smoke))
    checks.run("smoke", [checks.criterion(label) for label in ("A2", "A7b", "A7c")])
    assert calls["diff_delta"] == sum(factorial(K + L + 1) for K, L in smoke_hooks) == 119
    calls.clear()
    checks.run("smoke", [checks.criterion("A1"), checks.criterion("A7b")])
    assert calls["enumerate_drawings"] == len(smoke_hooks) == 10
