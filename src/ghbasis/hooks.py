"""Cross drawings for hook partitions mu = (K+1, 1^L).

A shape has K+L places on a horizontal axis; K of them carry y-columns of
heights K, K-1, ..., 1 (left to right) above the axis and L carry x-columns
of depths L, L-1, ..., 1 below it.  A drawing puts crosses in the columns:

* x-columns take any number of crosses up to their depth;
* a y-column with no x-column to its right is unconstrained; otherwise the
  first plain x-column to its right (all crossed or all white; the depth-1
  column guarantees one exists) decides: all white forces at least one
  cross, all crossed forces at least one white cell.

Places are numbered 1..n-1 left to right and bound to variable indices, so
a drawing D encodes the operator dD = prod dx_i^(x-crosses) dy_i^(y-crosses).
Its cross half S and white half T are monomials, as for bar drawings.
There are exactly n! drawings, they are closed under the cross/white flip,
and either half of the cross/white split determines the drawing.

Each rule is stated once: `is_valid_drawing` is the rule, with the y-column
rule in `_y_choices`, and `_shapes` is the one source of shapes.
`enumerate_drawings` applies the rules constructively, shape by shape, and
`reconstruct` searches the shapes for the one drawing the rules accept.
`is_son` and `cross_images` differentiate Delta of the drawings' own hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, product
from math import comb, factorial, perm

from .delta import DeltaPolynomial, diff_delta
from .errors import InvariantError, NoPreimageError, SizeLimitError
from .partitions import hook_partition
from .poly import Monomial, Polynomial, apply_diff

DEFAULT_LIMIT = 7


@dataclass(frozen=True)
class HookShape:
    kinds: tuple[str, ...]  # 'y' or 'x' per place, left to right
    sizes: tuple[int, ...]  # height (y) or depth (x) per place

    @property
    def places(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class HookDrawing:
    shape: HookShape
    crosses: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "places": [
                {"kind": k, "size": s, "crosses": c}
                for k, s, c in zip(self.shape.kinds, self.shape.sizes, self.crosses)
            ]
        }


def _shape_from_y_places(y_places, K: int, L: int) -> HookShape:
    kinds = []
    sizes = []
    ny = nx = 0
    for place in range(1, K + L + 1):
        if place in y_places:
            kinds.append("y")
            sizes.append(K - ny)
            ny += 1
        else:
            kinds.append("x")
            sizes.append(L - nx)
            nx += 1
    return HookShape(kinds=tuple(kinds), sizes=tuple(sizes))


def _first_plain_right(shape: HookShape, crosses, place: int) -> int | None:
    """Index of the first plain x-column right of place; None if no x-column there.

    A plain column is all white or all crossed.  When any x-column lies to
    the right, the depth-1 column is among them and is always plain, so the
    scan cannot fail on a valid shape.
    """
    seen_x = False
    for q in range(place + 1, shape.places):
        if shape.kinds[q] == "x":
            seen_x = True
            if crosses[q] == 0 or crosses[q] == shape.sizes[q]:
                return q
    if not seen_x:
        return None
    raise InvariantError("no plain x-column right of a y-column; depth-1 must be plain")


def _y_choices(shape: HookShape, crosses, place: int) -> range:
    """Allowed cross counts for the y-column at place, given the x-crosses."""
    height = shape.sizes[place]
    plain = _first_plain_right(shape, crosses, place)
    if plain is None:
        return range(0, height + 1)
    if crosses[plain] == 0:
        return range(1, height + 1)
    return range(0, height)


def is_valid_drawing(d: HookDrawing) -> bool:
    shape, crosses = d.shape, d.crosses
    for place in range(shape.places):
        if not 0 <= crosses[place] <= shape.sizes[place]:
            return False
    for place in range(shape.places):
        if shape.kinds[place] == "y" and crosses[place] not in _y_choices(shape, crosses, place):
            return False
    return True


@lru_cache(maxsize=None)
def _shapes(K: int, L: int) -> tuple[HookShape, ...]:
    """Every shape of the hook, by its y-places in combinations order: the
    one shape source of enumeration and reconstruction."""
    return tuple(_shape_from_y_places(set(y_places), K, L)
                 for y_places in combinations(range(1, K + L + 1), K))


def enumerate_drawings(K: int, L: int, limit: int = DEFAULT_LIMIT) -> list[HookDrawing]:
    """Every valid drawing exactly once; (K+L+1)! of them in total.

    Deterministic order: shapes by their kind word, then cross vectors
    lexicographically.
    """
    n = K + L + 1
    if n > limit:
        raise SizeLimitError(f"n = {n} exceeds the drawing size limit {limit}")
    out = []
    for shape in _shapes(K, L):
        for fill in product(*(range(size + 1) if kind == "x" else (0,)
                              for kind, size in zip(shape.kinds, shape.sizes))):
            # y-choices depend only on the x-crosses
            for crosses in product(*(_y_choices(shape, fill, p) if kind == "y" else (c,)
                                     for p, (kind, c) in enumerate(zip(shape.kinds, fill)))):
                out.append(HookDrawing(shape=shape, crosses=crosses))
    out.sort(key=lambda d: (d.shape.kinds, d.crosses))
    return out


def closed_form_count(K: int, L: int) -> int:
    """The summation-by-shape count; equals (K+L+1)! by Chu-Vandermonde.

    Summand over k1 + k2 = K, with k1 the number of y-columns right of the
    last x-column: [2*3*...*(k1+1)] * [(k1+1)*...*(k1+k2)] * (L+1)! * C(k2+L-1, k2).
    """
    return sum(factorial(k1 + 1) * perm(K, K - k1) * factorial(L + 1)
               * (comb(K - k1 + L - 1, K - k1) if K > k1 else 1)
               for k1 in range(K + 1))


def flip(d: HookDrawing) -> HookDrawing:
    """Invert white cells and crosses; an involution preserving the family."""
    return HookDrawing(
        shape=d.shape,
        crosses=tuple(s - c for s, c in zip(d.shape.sizes, d.crosses)),
    )


def split(d: HookDrawing) -> tuple[Monomial, Monomial]:
    """(S, T): the cross half and the white half of the drawing as monomials
    in n = K+L+1 variables; place i carries x_i or y_i, and x_n = y_n = 0."""
    kinds = d.shape.kinds

    def half(orders) -> Monomial:
        return Monomial(*(tuple(o if k == kind else 0 for k, o in zip(kinds, orders)) + (0,)
                          for kind in "xy"))

    return half(d.crosses), half(flip(d).crosses)


def diff_op_of(half: Monomial, n: int) -> Monomial:
    """The half as an operator in n >= half.n variables, padded with zero orders."""
    if half.n > n:
        raise ValueError(f"half has {half.n} variables but ambient n is {n}")
    pad = (0,) * (n - half.n)
    return Monomial(half.xexp + pad, half.yexp + pad)


def reconstruct(part: Monomial, from_s: bool, K: int, L: int) -> HookDrawing:
    """The unique drawing whose S (resp. T) half equals part.

    Every shape is a candidate unless part has an order of the other
    alphabet at one of its places; a candidate's crosses are part's orders
    of its own alphabet, and it survives when is_valid_drawing accepts it.
    One survivor is the answer; none or several raise NoPreimageError.
    Variable n carries no place, so part must have x_n = y_n = 0.
    Reconstruction from T is the flip of the drawing whose S half is part.
    """
    n = K + L + 1
    if part.n != n:
        raise NoPreimageError(f"monomial ambient {part.n} != n = {n}")
    if part.xexp[-1] or part.yexp[-1]:
        raise NoPreimageError("diagram touches variable n; drawings have n-1 places")
    if not from_s:
        return flip(reconstruct(part, True, K, L))
    found = []
    for shape in _shapes(K, L):
        places = list(zip(shape.kinds, part.xexp, part.yexp))
        if any(yo if k == "x" else xo for k, xo, yo in places):
            continue
        d = HookDrawing(shape=shape, crosses=tuple(xo if k == "x" else yo for k, xo, yo in places))
        if is_valid_drawing(d):
            found.append(d)
    if len(found) != 1:
        raise NoPreimageError(f"{len(found)} drawings have this half; reconstruction needs one")
    return found[0]


def _hook_delta(drawings) -> DeltaPolynomial:
    """Delta of the drawings' hook: K y-places and L x-places make the hook
    (K+1, 1^L).  Drawings of two hooks raise ValueError."""
    hooks = {hook_partition(d.shape.kinds.count("y"), d.shape.kinds.count("x")) for d in drawings}
    if len(hooks) != 1:
        raise ValueError(f"drawings of {len(hooks)} hooks given; one hook is needed")
    return DeltaPolynomial(hooks.pop())


def is_son(parent: HookDrawing, candidate: HookDrawing) -> bool:
    """True iff applying the candidate's crosses then the parent's whites to
    Delta leaves a nonzero constant: the definition of a son (see son_edges).
    Drawings of two hooks raise ValueError."""
    if parent == candidate:
        raise ValueError("son relation requires two different drawings")
    image = diff_delta(split(candidate)[0], _hook_delta((parent, candidate)))
    image = apply_diff(split(parent)[1], image)
    return image.is_constant() and not image.is_zero()


def cross_images(drawings: list[HookDrawing]) -> list[Polynomial]:
    """The image of Delta under each drawing's cross operator, in drawing
    order.  Drawings of two hooks raise ValueError."""
    delta = _hook_delta(drawings) if drawings else None
    return [diff_delta(split(d)[0], delta) for d in drawings]


def son_edges(drawings: list[HookDrawing], images: list[Polynomial]) -> dict[int, list[int]]:
    """edges[i]: every j != i, ascending, whose drawing is a son of drawing i.

    images[j] is f = d^{S_j} Delta, the cross image of drawing j; T_i is the
    white half of drawing i.  d^T sends a term m to a nonzero multiple of m/T
    if T divides m and kills it otherwise.  Delta is bihomogeneous, so all
    terms of f share one bidegree: if T has it, d^T f = T! * [T]f (d^T T =
    T!); if not, d^T f is zero or a sum of non-constant terms.  So drawing j
    is a son of drawing i (is_son) exactly when T_i is in the support of f.
    """
    by_white = {split(d)[1]: i for i, d in enumerate(drawings)}
    edges: dict[int, list[int]] = {i: [] for i in range(len(drawings))}
    for j, f in enumerate(images):
        for m in f.terms:
            i = by_white.get(m)
            if i is not None and i != j:
                edges[i].append(j)
    return edges


def descendant_graph(K: int, L: int, delta: DeltaPolynomial,
                     limit: int = DEFAULT_LIMIT) -> tuple[list[HookDrawing], dict[int, list[int]], bool]:
    """(drawings, son edges by index, acyclic flag); a Delta of another
    partition than hook_partition(K, L) raises ValueError."""
    if delta.mu != (mu := hook_partition(K, L)):
        raise ValueError(f"Delta of {delta.mu} given for the hook {mu}")
    drawings = enumerate_drawings(K, L, limit=limit)
    edges = son_edges(drawings, cross_images(drawings))
    return drawings, edges, is_acyclic(edges)


def is_acyclic(edges: dict[int, list[int]]) -> bool:
    try:
        tuple(TopologicalSorter(edges).static_order())
    except CycleError:
        return False
    return True
