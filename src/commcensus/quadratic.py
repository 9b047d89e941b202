"""Real quadratic fields, their orders, and prime splitting.

A field is its squarefree radicand d > 1; its fundamental discriminant is
derived (d when d = 1 mod 4, else 4d). Orders are identified inside a
field by their conductor. Only real quadratic fields are supported;
imaginary radicands are rejected at construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .arith import (
    _check_disc, _check_radicand, factorize, kronecker, norm_one_fundamental, squarefree_part
)
from .errors import DomainError

__all__ = [
    "SplitType",
    "QuadField",
    "QuadOrder",
    "field_from_d",
    "splitting",
    "prime_disc_vector",
    "norm_one_unit",
    "order_from_disc",
]


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True, order=True)
class QuadField:
    """Real quadratic field Q(sqrt(d)): squarefree d > 1, fundamental disc."""

    d: int

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


@dataclass(frozen=True)
class QuadOrder:
    """Order of conductor f inside the maximal order of a real quadratic field."""

    field: QuadField
    conductor: int

    @property
    def order_disc(self) -> int:
        return self.conductor**2 * self.field.disc

    def __str__(self) -> str:
        return f"order(disc={self.order_disc}) in {self.field}"


def field_from_d(n: int) -> QuadField:
    """Field Q(sqrt(n)) for any integer value n > 1 that is not a perfect square.

    The radicand is reduced to its squarefree part, so field_from_d(12)
    and field_from_d(3) are the same field.
    """
    d, _ = squarefree_part(_check_radicand(n))
    return QuadField(d)


def splitting(field: QuadField, p: int) -> SplitType:
    """Behavior of the rational prime p in the field."""
    s = kronecker(field.disc, p)
    if s == 1:
        return SplitType.SPLIT
    if s == -1:
        return SplitType.INERT
    return SplitType.RAMIFIED


def prime_disc_vector(field: QuadField) -> frozenset[int]:
    """Factor the discriminant into prime fundamental discriminants.

    Each odd prime q dividing disc contributes q* = (-1)**((q-1)/2) * q;
    the remaining 2-part is one of -4, 8, -8 (or absent). The product of
    the returned set is exactly disc; d must be a squarefree integer > 1.
    """
    if not isinstance(field.d, int) or field.d <= 1:
        raise DomainError(f"{field!r} is not a real quadratic field: need an integer d > 1")
    disc = field.disc
    parts = []
    prod = 1
    for q, e in factorize(disc).factors:
        if e > (3 if q == 2 else 1):
            raise DomainError(f"{field!r} is not a real quadratic field: d is not squarefree")
        if q == 2:
            continue
        qs = q if q % 4 == 1 else -q
        parts.append(qs)
        prod *= qs
    two_part = disc // prod
    if two_part != 1:
        parts.append(two_part)
    return frozenset(parts)


def norm_one_unit(order: QuadOrder) -> int:
    """Trace of the fundamental norm-one unit of the order.

    This is the minimal X >= 3 with X**2 - D*Y**2 = 4 solvable, D the order
    discriminant; every norm-one unit of the order has trace in the
    recurrence u(n+1) = X*u(n) - u(n-1) seeded by 2, X.
    """
    X, _ = norm_one_fundamental(order.order_disc)
    return X


def order_from_disc(D: int) -> QuadOrder:
    """The unique real quadratic order of discriminant D.

    D must be positive, 0 or 1 mod 4, and not a square; it then factors
    uniquely as conductor**2 times a fundamental discriminant.
    """
    D = _check_disc(D)
    fld = field_from_d(D)
    return QuadOrder(fld, math.isqrt(D // fld.disc))

