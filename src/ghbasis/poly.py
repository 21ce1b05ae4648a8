"""Sparse polynomials in x_1..x_n, y_1..y_n over arbitrary-precision integers.

A :class:`Monomial` stores the two exponent vectors and doubles as a monomial
differential operator (apply it with :func:`apply_diff`).

The monomial order compares total y-degree first (the y-alphabet outranks
the x-alphabet), and on ties scans the variables place by place,
x_1, y_1, x_2, y_2, ..., x_n, y_n: at the first variable where the exponents
differ, the monomial with the *larger* exponent is the smaller one.  A
monomial therefore gets smaller as its weight moves toward low-index places,
which is the sense in which white cells "pushed to the left" give minimal
monomials for the triangularity arguments.  (Within a bihomogeneous
polynomial the y-degree component is constant, so there the order is the
pure place-by-place comparison.)

The ideal rewriting in :mod:`ghbasis.annihilator` descends under the related
block order (:func:`descent_key`), which scans x_1..x_n then y_1..y_n with
the same polarity, the reverse of tuple order on (xexp, yexp); see that
module for why the two orders differ.
"""

from __future__ import annotations

from math import perm
from operator import itemgetter
from typing import NamedTuple

from .errors import PolynomialSyntaxError


class Monomial(NamedTuple):
    xexp: tuple[int, ...]
    yexp: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.xexp)

    def xdeg(self) -> int:
        return sum(self.xexp)

    def ydeg(self) -> int:
        return sum(self.yexp)

    def bidegree(self) -> tuple[int, int]:
        return (self.xdeg(), self.ydeg())

    def is_unit(self) -> bool:
        return self.xdeg() == 0 and self.ydeg() == 0

    def mul(self, other: "Monomial") -> "Monomial":
        _check_same_n(self, other)
        return Monomial(
            tuple(a + b for a, b in zip(self.xexp, other.xexp)),
            tuple(a + b for a, b in zip(self.yexp, other.yexp)),
        )

    def divides(self, other: "Monomial") -> bool:
        _check_same_n(self, other)
        return all(a <= b for a, b in zip(self.xexp, other.xexp)) and all(
            a <= b for a, b in zip(self.yexp, other.yexp)
        )


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n, (0,) * n)


def _check_same_n(m1: Monomial, m2: Monomial) -> None:
    if len(m1.xexp) != len(m2.xexp):
        raise ValueError(f"mismatched ambient n: {len(m1.xexp)} vs {len(m2.xexp)}")


def mono_key(m: Monomial):
    """Sort key: key(m1) < key(m2) iff mono_less(m1, m2)."""
    slots = []
    for a, b in zip(m.xexp, m.yexp):
        slots.append(-a)
        slots.append(-b)
    return (sum(m.yexp), tuple(slots))


def mono_less(m1: Monomial, m2: Monomial) -> bool:
    """Strict total order on same-ambient monomials; see the module docstring."""
    _check_same_n(m1, m2)
    return mono_key(m1) < mono_key(m2)


def descent_key(m: Monomial):
    """Key for the rewriting's block order: scan x_1..x_n, y_1..y_n upward,
    larger exponent at the first difference = smaller monomial.

    Same-ambient monomials compare under it as the reverse of tuple order on
    (xexp, yexp): descent_key(a) < descent_key(b) exactly when a > b, since
    both vectors have length n and the key negates x then y.
    """
    return tuple(-e for e in m.xexp) + tuple(-e for e in m.yexp)


class Polynomial:
    """Immutable-by-convention sparse polynomial: a map Monomial -> nonzero int."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, int] | None = None):
        self.n = n
        terms = terms or {}
        ambients = set(map(len, map(itemgetter(0), terms)))  # of each m.xexp
        ambients.discard(n)
        if ambients:
            raise ValueError(f"monomial ambient {ambients.pop()} != polynomial ambient {n}")
        self.terms = {m: c for m, c in terms.items() if c} if 0 in terms.values() else dict(terms)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: int) -> "Polynomial":
        return cls(n, {unit_monomial(n): c})

    @classmethod
    def monomial(cls, m: Monomial, c: int = 1) -> "Polynomial":
        return cls(m.n, {m: c})

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and next(iter(self.terms)).is_unit())

    def xdeg(self) -> int:
        return max((m.xdeg() for m in self.terms), default=0)

    def ydeg(self) -> int:
        return max((m.ydeg() for m in self.terms), default=0)

    # -- ring operations -----------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.n)
        return Polynomial(self.n, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.n, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    def _check(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched ambient n: {self.n} vs {other.n}")

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending monomial order (largest first)."""
        return sorted(self.terms.items(), key=lambda mc: mono_key(mc[0]), reverse=True)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


def _diff_term_into(op: Monomial, terms: dict, scale_by: int, out: dict) -> None:
    """Accumulate scale_by * (d^op applied to terms) into out."""
    ox = [(i, a) for i, a in enumerate(op.xexp) if a]
    oy = [(i, a) for i, a in enumerate(op.yexp) if a]
    for m, c in terms.items():
        mx, my = m.xexp, m.yexp
        coeff = c * scale_by
        for i, a in ox:
            e = mx[i]
            if e < a:
                coeff = 0
                break
            coeff *= perm(e, a)
        if coeff == 0:
            continue
        for i, a in oy:
            e = my[i]
            if e < a:
                coeff = 0
                break
            coeff *= perm(e, a)
        if coeff == 0:
            continue
        if ox:
            nx = list(mx)
            for i, a in ox:
                nx[i] -= a
            nx = tuple(nx)
        else:
            nx = mx
        if oy:
            ny = list(my)
            for i, a in oy:
                ny[i] -= a
            ny = tuple(ny)
        else:
            ny = my
        nm = Monomial(nx, ny)
        s = out.get(nm, 0) + coeff
        if s:
            out[nm] = s
        else:
            out.pop(nm, None)


def apply_diff(op: Monomial, p: Polynomial) -> Polynomial:
    """Apply the monomial differential operator op (x_i -> d/dx_i, etc.) to p.

    Falling-factorial constants are kept exactly: d^2/dy^2 of y^2 is 2.
    Over-differentiated terms vanish.
    """
    if len(op.xexp) != p.n:
        raise ValueError(f"mismatched ambient n: {len(op.xexp)} vs {p.n}")
    out: dict[Monomial, int] = {}
    _diff_term_into(op, p.terms, 1, out)
    return Polynomial(p.n, out)


def apply_diff_poly(operator: Polynomial, p: Polynomial) -> Polynomial:
    """Apply a polynomial operator P(d) = sum c_m * (d^m) to p, extending linearly."""
    operator._check(p)
    out: dict[Monomial, int] = {}
    for m, c in operator.terms.items():
        _diff_term_into(m, p.terms, c, out)
    return Polynomial(p.n, out)


def min_monomial(p: Polynomial) -> Monomial:
    """The unique minimum of p's support under mono_less; p must be nonzero."""
    if p.is_zero():
        raise ValueError("zero polynomial has no minimal monomial")
    return min(p.terms, key=mono_key)


# ---------------------------------------------------------------------------
# text form
#
# Grammar: signed integer coefficients, variables x<i> / y<i> (1-based),
# '^' powers, '*' products, '+'/'-' sums.  Example: -3*x1^2*y3 + 2*x2
# ---------------------------------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit() or ch in "xy":
            # an integer, or a variable and its index: a run of digits either way
            start = j = i if ch.isdigit() else i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == start:
                raise PolynomialSyntaxError(f"variable {ch!r} needs an index", i)
            try:
                value = int(text[start:j])
            except ValueError:  # past int()'s digit limit, or a superscript digit
                raise PolynomialSyntaxError(f"unreadable integer of {j - start} digits", i) from None
            tokens.append(("int", value, i) if start == i else ("var", (ch, value), i))
            i = j
        else:
            raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse_poly(text: str, n: int | None = None) -> Polynomial:
    """Parse text into a Polynomial; ambient n defaults to the largest index seen."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial text", 0)

    max_index = max((value[1] for kind, value, _ in tokens if kind == "var"), default=1)
    ambient = n if n is not None else max_index
    if max_index > ambient:
        raise PolynomialSyntaxError(f"variable index {max_index} exceeds ambient n={ambient}", 0)

    # split on top-level +/- into signed terms
    pos = 0
    terms: dict[Monomial, int] = {}
    sign = 1
    while pos < len(tokens):
        kind, value, where = tokens[pos]
        if kind in "+-":
            sign = 1 if kind == "+" else -1
            pos += 1
            if pos >= len(tokens):
                raise PolynomialSyntaxError("dangling sign", where)
        elif pos:  # only the first term may come without a sign
            raise PolynomialSyntaxError("expected '+' or '-' between terms", where)
        coeff = sign
        xe = [0] * ambient
        ye = [0] * ambient
        expect_factor = True
        saw_factor = False
        while pos < len(tokens):
            kind, value, where = tokens[pos]
            if kind in "+-":
                break
            if kind == "*":
                if expect_factor:
                    raise PolynomialSyntaxError("unexpected '*'", where)
                expect_factor = True
                pos += 1
                continue
            if not expect_factor:
                raise PolynomialSyntaxError("missing '*' between factors", where)
            if kind == "int":
                coeff *= value
                pos += 1
            elif kind == "var":
                alphabet, index = value
                if index < 1 or index > ambient:
                    raise PolynomialSyntaxError(f"variable index {index} out of range", where)
                power = 1
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "int":
                        raise PolynomialSyntaxError("'^' needs an integer exponent",
                                                    tokens[pos - 1][2])
                    power = tokens[pos][1]
                    pos += 1
                if alphabet == "x":
                    xe[index - 1] += power
                else:
                    ye[index - 1] += power
            else:
                raise PolynomialSyntaxError(f"unexpected token {value!r}", where)
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            raise PolynomialSyntaxError("empty term", tokens[pos - 1][2] if pos else 0)
        m = Monomial(tuple(xe), tuple(ye))
        if s := terms.get(m, 0) + coeff:
            terms[m] = s
        else:
            terms.pop(m, None)
    return Polynomial(ambient, terms)


def format_monomial(m: Monomial) -> str:
    """Variables in ascending index, x_i before y_i at equal index; '' for the unit."""
    factors = []
    for i in range(m.n):
        if m.xexp[i]:
            factors.append(f"x{i + 1}" + (f"^{m.xexp[i]}" if m.xexp[i] > 1 else ""))
        if m.yexp[i]:
            factors.append(f"y{i + 1}" + (f"^{m.yexp[i]}" if m.yexp[i] > 1 else ""))
    return "*".join(factors)


def format_poly(p: Polynomial) -> str:
    """Deterministic text form: terms in descending monomial order."""
    if p.is_zero():
        return "0"
    pieces = []
    for idx, (m, c) in enumerate(p.sorted_terms()):
        mono = format_monomial(m)
        mag = abs(c)
        if mono == "":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)
