"""Geodesic length spectra over Q: the trace side of the dictionary.

A closed geodesic of a class here is pinned down by an integer trace
t >= 3; its length is 2*arccosh(t/2). The eigenvalue lambda of the
corresponding hyperbolic element generates the real quadratic field
Q(sqrt(t**2 - 4)), and Z[lambda] is the canonical order attached to the
class. Lengths are a lossy float view; traces are the internal key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotRealizableError
from .quadratic import QuadField, QuadOrder, field_from_d, norm_one_unit, order_from_disc

__all__ = [
    "DEFAULT_TOL",
    "GeodesicClass",
    "SpectrumSpec",
    "trace_to_length",
    "length_to_trace",
    "geodesic_class",
    "spectrum_from_inputs",
]

DEFAULT_TOL = 1e-9


def trace_to_length(t: int) -> float:
    """Geodesic length 2*arccosh(t/2) of the class with integer trace t >= 3."""
    if t < 3:
        raise DomainError(
            f"trace {t} is not hyperbolic with a real quadratic eigenvalue (need t >= 3)"
        )
    return 2.0 * math.acosh(t / 2.0)


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and non-negative, got {tol}")


def length_to_trace(length: float, tol: float = DEFAULT_TOL) -> int:
    """Integer trace whose geodesic length matches `length` within tol.

    The band around 2*cosh(length/2) is tol widened by the rounding error
    the float length itself carries, which cosh magnifies by sinh(length/2).
    Raises NotRealizableError unless the widened band holds exactly one
    integer >= 3 (the message names the candidates when it holds several),
    or when that rounding error alone reaches 1/2, so that the length can no
    longer pin down an integer; raises DomainError for non-positive lengths,
    which are not lengths of closed geodesics at all, and for a NaN,
    infinite or negative tol.
    """
    _check_tol(tol)
    if not length > 0.0:
        raise DomainError(f"geodesic length must be positive, got {length}")
    if not math.isfinite(length):
        raise DomainError(f"geodesic length must be finite, got {length}")
    try:
        t_real = 2.0 * math.cosh(length / 2.0)
        slack = 2.0 * math.sinh(length / 2.0) * math.ulp(length) + math.ulp(t_real)
    except OverflowError:  # cosh(length/2) is past the float range
        slack = math.inf
    if slack >= 0.5:
        raise NotRealizableError(
            f"length {length!r} is too long to pin down an integer trace: "
            f"its float rounding moves 2*cosh(l/2) by up to {slack:.3g}",
            value=length,
        )
    # the integers >= 3 in the band are lo..hi, its ends taken exactly from the floats
    t_exact, width = Fraction(t_real), Fraction(tol + slack)
    lo, hi = max(3, math.ceil(t_exact - width)), math.floor(t_exact + width)
    if lo > hi:
        raise NotRealizableError(
            f"length {length!r} gives 2*cosh(l/2) = {t_real!r}, "
            f"not within {tol} of an integer trace >= 3",
            value=length,
        )
    if lo < hi:
        raise NotRealizableError(
            f"length {length!r} gives 2*cosh(l/2) = {t_real!r}, "
            f"within {tol} of every integer trace from {lo} to {hi}",
            value=length,
        )
    return lo


@dataclass(frozen=True)
class GeodesicClass:
    """One prescribed geodesic class: its trace and canonical order Z[lambda]."""

    trace: int
    order: QuadOrder

    @property
    def length(self) -> float:
        return trace_to_length(self.trace)

    @property
    def field(self) -> QuadField:
        return self.order.field


@dataclass(frozen=True)
class SpectrumSpec:
    """Deduplicated geodesic classes, sorted by strictly increasing trace."""

    classes: tuple[GeodesicClass, ...]

    def traces(self) -> tuple[int, ...]:
        return tuple(c.trace for c in self.classes)

    def fields(self) -> tuple[QuadField, ...]:
        """Embedding fields, deduplicated, in first-appearance order."""
        return tuple(dict.fromkeys(c.field for c in self.classes))


def geodesic_class(t: int) -> GeodesicClass:
    """Geodesic class of integer trace t >= 3 with its canonical order Z[lambda].

    Z[lambda], for the eigenvalue with lambda + 1/lambda = t, has discriminant
    exactly t**2 - 4; its field and conductor come from that one number.
    """
    if t < 3:
        raise DomainError(f"need trace t >= 3, got {t}")
    return GeodesicClass(t, order_from_disc(t * t - 4))


def spectrum_from_inputs(
    lengths=None,
    traces=None,
    radicands=None,
    tol: float = DEFAULT_TOL,
) -> SpectrumSpec:
    """Assemble a spectrum from any mix of lengths, traces, and radicands.

    Radicand r contributes the shortest geodesic with eigenvalue field
    Q(sqrt(r)): the trace of the fundamental norm-one unit of the maximal
    order. Errors carry the index of the offending entry in its input list.
    """
    _check_tol(tol)
    found: set[int] = set()
    for i, t in enumerate(traces or ()):
        if not 3 <= t < math.inf or t != int(t):
            raise DomainError(f"traces[{i}] = {t!r} is not an integer trace >= 3")
        found.add(int(t))
    for i, length in enumerate(lengths or ()):
        try:
            found.add(length_to_trace(float(length), tol))
        except NotRealizableError as exc:
            exc.index = i
            raise
        except DomainError as exc:
            raise DomainError(f"lengths[{i}]: {exc}") from None
    for i, r in enumerate(radicands or ()):
        if not -math.inf < r < math.inf or r != int(r):
            raise DomainError(f"radicands[{i}] = {r!r} is not an integer radicand")
        try:
            fld = field_from_d(int(r))
        except DomainError as exc:
            raise DomainError(f"radicands[{i}]: {exc}") from None
        found.add(norm_one_unit(QuadOrder(fld, 1)))
    if not found:
        raise DomainError("empty spectrum: provide lengths, traces, or radicands")
    return SpectrumSpec(tuple(geodesic_class(t) for t in sorted(found)))
