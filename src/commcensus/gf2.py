"""GF(2) linear algebra on int bitmasks.

Vectors are Python ints, bit j = coordinate j. Small dimensions only;
everything is exact.
"""

from __future__ import annotations

__all__ = ["rank", "left_kernel", "solve"]


def _insert(basis: list[list[int]], row: int, tag: int) -> tuple[int, int]:
    """Reduce (row, tag) against basis rows by their pivot (lowest) bits."""
    for r, t in basis:
        if row & (r & -r):
            row ^= r
            tag ^= t
    return row, tag


def rank(rows: list[int]) -> int:
    """Rank of the span of the given vectors."""
    return len(rows) - len(left_kernel(rows))


def left_kernel(rows: list[int]) -> list[int]:
    """Basis of row combinations (bit i = row i) whose XOR vanishes."""
    basis: list[list[int]] = []
    kernel = []
    for i, row in enumerate(rows):
        row, tag = _insert(basis, row, 1 << i)
        if row:
            basis.append([row, tag])
        else:
            kernel.append(tag)
    return kernel


def solve(rows: list[int], rhs: list[int]) -> int | None:
    """One solution x (column bitmask) of row . x = rhs over GF(2), or None.

    Free coordinates are set to 0, so the answer is deterministic. Each basis
    row holds no pivot of an earlier one, so reading the basis in reverse
    fixes every pivot bit from pivots already set.
    """
    basis: list[list[int]] = []
    for row, b in zip(rows, rhs):
        row, b = _insert(basis, row, b & 1)
        if row:
            basis.append([row, b])
        elif b:
            return None
    x = 0
    for row, b in reversed(basis):
        if b ^ (row & x).bit_count() & 1:
            x |= row & -row
    return x
