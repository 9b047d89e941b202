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

from .errors import DomainError, NotRealizableError
from .quadratic import QuadField, QuadOrder, field_from_d, norm_one_unit, order_from_lambda

__all__ = [
    "DEFAULT_TOL",
    "GeodesicClass",
    "SpectrumSpec",
    "trace_to_length",
    "length_to_trace",
    "embedding_field",
    "invariant_trace_data",
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


def length_to_trace(length: float, tol: float = DEFAULT_TOL) -> int:
    """Integer trace whose geodesic length matches `length` within tol.

    The band around 2*cosh(length/2) is tol widened by the rounding error
    the float length itself carries, which cosh magnifies by sinh(length/2).
    Raises NotRealizableError when the widened band holds no integer >= 3,
    or when that rounding error alone reaches 1/2, so that the length can no
    longer pin down an integer; raises DomainError for non-positive lengths,
    which are not lengths of closed geodesics at all.
    """
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
    t = round(t_real)
    if abs(t_real - t) > tol + slack or t < 3:
        raise NotRealizableError(
            f"length {length!r} gives 2*cosh(l/2) = {t_real!r}, "
            f"not within {tol} of an integer trace >= 3",
            value=length,
        )
    return t


def embedding_field(t: int) -> QuadField:
    """Field generated by the eigenvalue of a trace-t class: Q(sqrt(t**2 - 4))."""
    return order_from_lambda(t).field


def invariant_trace_data(t: int) -> tuple[int, QuadField]:
    """Trace of the squared class and its eigenvalue field.

    The square of a trace-t element has trace t**2 - 2 and generates the
    same field, since (t**2 - 2)**2 - 4 = t**2 * (t**2 - 4).
    """
    if t < 3:
        raise DomainError(f"need trace t >= 3, got {t}")
    return t * t - 2, embedding_field(t)


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
    """Geodesic class of integer trace t >= 3 with its canonical order Z[lambda]."""
    return GeodesicClass(t, order_from_lambda(t))


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
    found: set[int] = set()
    for i, t in enumerate(traces or ()):
        if t != int(t) or t < 3:
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
        try:
            fld = field_from_d(int(r))
        except DomainError as exc:
            raise DomainError(f"radicands[{i}]: {exc}") from None
        found.add(norm_one_unit(QuadOrder(fld, 1)))
    if not found:
        raise DomainError("empty spectrum: provide lengths, traces, or radicands")
    return SpectrumSpec(tuple(geodesic_class(t) for t in sorted(found)))
