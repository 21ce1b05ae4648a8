"""Integer partitions, Ferrers-diagram cells, biexponents, and hook data.

Cells of the Ferrers diagram of mu (French notation) are indexed (i, j) with
i the row (height) and j the position in the row, both 1-based.  The
biexponent of a cell is (i-1, j-1); the sorted biexponent list supplies the
column exponents of the determinant built in :mod:`ghbasis.delta`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial

from .errors import NotAHookError, PartitionError


@dataclass(frozen=True, order=True)
class Biexponent:
    p: int  # x-exponent, row index minus 1
    q: int  # y-exponent, column index minus 1

    def as_pair(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass(frozen=True)
class HookParams:
    K: int  # arm length: mu = (K+1, 1^L)
    L: int  # leg length

    @property
    def n(self) -> int:
        return self.K + self.L + 1


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers; the empty partition is rejected."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) == 0:
            raise PartitionError("empty partition is not allowed")
        for part in self.parts:
            if not isinstance(part, int) or part < 1:
                raise PartitionError(f"parts must be positive integers, got {self.parts}")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise PartitionError(f"parts must be weakly decreasing, got {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def to_json(self) -> str:
        return json.dumps({"parts": list(self.parts)})

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        data = json.loads(text)
        return cls(tuple(data["parts"]))


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated decimal string like "3,2,1"; whitespace is ignored."""
    cleaned = text.replace(" ", "").replace("\t", "")
    if not cleaned:
        raise PartitionError("empty partition text")
    try:
        parts = tuple(int(tok) for tok in cleaned.split(","))
    except ValueError as exc:
        raise PartitionError(f"bad partition text {text!r}") from exc
    return Partition(parts)


def conjugate(mu: Partition) -> Partition:
    """Transpose of the Ferrers diagram."""
    width = mu.parts[0]
    cols = [0] * width
    for part in mu.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(tuple(cols))


def cells(mu: Partition):
    """All cells (i, j), 1-based, row by row."""
    for i, part in enumerate(mu.parts, start=1):
        for j in range(1, part + 1):
            yield (i, j)


def biexponents(mu: Partition) -> list[Biexponent]:
    """All n biexponents (i-1, j-1), sorted lexicographically by (p, q)."""
    out = [Biexponent(i - 1, j - 1) for (i, j) in cells(mu)]
    out.sort()
    return out


def n_stat(mu: Partition) -> int:
    """n(mu) = sum (i-1) * mu_i, the total x-degree of the biexponent list."""
    return sum((i - 1) * part for i, part in enumerate(mu.parts, start=1))


def hook_params(mu: Partition) -> HookParams:
    """Arm/leg lengths (K, L) when mu = (K+1, 1^L); raises NotAHookError otherwise."""
    if any(part >= 2 for part in mu.parts[1:]):
        raise NotAHookError(f"{mu} is not a hook")
    return HookParams(K=mu.parts[0] - 1, L=len(mu.parts) - 1)


def hook_size(K: int, L: int) -> int:
    """n = K + L + 1 of the hook (K+1, 1^L), read without building the hook."""
    if K < 0 or L < 0:
        raise PartitionError("hook parameters must be nonnegative")
    return K + L + 1


def hook_partition(K: int, L: int) -> Partition:
    """The hook (K+1, 1^L)."""
    hook_size(K, L)
    return Partition((K + 1,) + (1,) * L)


def conjugate_factorial(mu: Partition) -> int:
    """mu'! = product of factorials of the parts of the conjugate partition."""
    out = 1
    for part in conjugate(mu).parts:
        out *= factorial(part)
    return out


def corners(mu: Partition) -> list[int]:
    """Row indices (1-based) of the removable corner cells."""
    rows = []
    for i in range(1, mu.k + 1):
        nxt = mu.parts[i] if i < mu.k else 0
        if mu.parts[i - 1] > nxt:
            rows.append(i)
    return rows


def remove_corner(mu: Partition, row: int) -> Partition:
    """Remove the corner cell at the end of the given row; may drop the row."""
    if row not in corners(mu):
        raise PartitionError(f"row {row} is not a corner of {mu}")
    parts = list(mu.parts)
    parts[row - 1] -= 1
    if parts[row - 1] == 0:
        parts.pop(row - 1)
    if not parts:
        raise PartitionError("cannot remove the last cell: empty partition is rejected")
    return Partition(tuple(parts))


def partitions_of(n: int):
    """All partitions of n, in reverse-lexicographic order."""
    if n < 1:
        return
    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + [part])
    yield from rec(n, n, [])
