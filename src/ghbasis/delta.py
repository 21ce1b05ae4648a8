"""The determinant Delta_mu of the biexponent monomial matrix.

Delta_mu = det( x_i^{p_j} y_i^{q_j} ), rows indexed by the variable index i,
columns by the biexponents (p_j, q_j) of mu in lexicographic order.  It is
bihomogeneous of bidegree (n(mu), n(mu')); for mu = (1^n) or (n) it reduces
to the Vandermonde determinant in x or y.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import permutations

from .errors import SizeLimitError
from .partitions import Partition, biexponents, conjugate, n_stat
from .poly import Monomial, Polynomial

DEFAULT_LIMIT = 9


@dataclass(frozen=True)
class DeltaPolynomial:
    value: Polynomial
    mu: Partition
    bidegree: tuple[int, int]  # (n(mu), n(mu'))

    @property
    def n(self) -> int:
        return self.mu.n


def build_delta(mu: Partition, limit: int = DEFAULT_LIMIT) -> DeltaPolynomial:
    """Expand the determinant as a signed sum over all n! permutations.

    The sign convention makes the identity permutation positive; downstream
    checks are insensitive to the global sign.  The biexponents of mu are
    distinct, so distinct permutations give distinct monomials and no two
    terms cancel: Delta has exactly n! terms, each with coefficient +-1.
    """
    n = mu.n
    if n > limit:
        raise SizeLimitError(f"n = {n} exceeds the determinant size limit {limit}")
    cols = [b.as_pair() for b in biexponents(mu)]
    terms: dict[Monomial, int] = {}
    for sigma in permutations(range(n)):
        sign = perm_sign(sigma)
        xe = [0] * n
        ye = [0] * n
        for i in range(n):
            p, q = cols[sigma[i]]
            xe[i] = p
            ye[i] = q
        terms[Monomial(tuple(xe), tuple(ye))] = sign
    value = Polynomial(n, terms)
    return DeltaPolynomial(value=value, mu=mu, bidegree=(n_stat(mu), n_stat(conjugate(mu))))


def perm_sign(sigma: Sequence[int]) -> int:
    """The sign of the permutation k -> sigma[k] of range(len(sigma)): -1 for
    each cycle of even length."""
    seen = [False] * len(sigma)
    sign = 1
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
