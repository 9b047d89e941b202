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

from .arith import _integer
from .errors import DomainError, NotRealizableError
from .quadratic import QuadField, QuadOrder, field_from_d, norm_one_unit, order_from_disc

__all__ = [
    "DEFAULT_TOL",
    "GeodesicClass",
    "SpectrumSpec",
    "trace_to_length",
    "length_to_trace",
    "geodesic_class",
    "radicand_fields",
    "spectrum_from_inputs",
]

DEFAULT_TOL = 1e-9


def _check_trace(t) -> int:
    n = t if type(t) is int else _integer(t)
    if n is None or n < 3:
        raise DomainError(f"{t!r} is not an integer trace >= 3")
    return n


def trace_to_length(t: int) -> float:
    """Geodesic length 2*arccosh(t/2) of the class with integer trace t >= 3."""
    return 2.0 * math.acosh(_check_trace(t) / 2.0)


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
    t = _check_trace(t)
    return GeodesicClass(t, order_from_disc(t * t - 4))


def _tagged(name: str, values, convert) -> dict:
    """convert(v) of each entry, as the keys of a dict in first-appearance order.

    A DomainError from entry i is raised again as "name[i]: message"; a
    NotRealizableError keeps its message and takes i as its index.
    """
    out = {}
    for i, v in enumerate(values):
        try:
            out[convert(v)] = None
        except NotRealizableError as exc:
            exc.index = i
            raise
        except DomainError as exc:
            raise DomainError(f"{name}[{i}]: {exc}") from None
    return out


def radicand_fields(radicands) -> tuple[QuadField, ...]:
    """Field Q(sqrt(r)) of each radicand, deduplicated, in first-appearance order.

    The one radicand -> field path: a bad entry raises DomainError "radicands[i]: ...".
    """
    return tuple(_tagged("radicands", radicands, field_from_d))


def spectrum_from_inputs(
    lengths=None,
    traces=None,
    radicands=None,
    tol: float = DEFAULT_TOL,
) -> SpectrumSpec:
    """Assemble a spectrum from any mix of lengths, traces, and radicands.

    Radicand r contributes the shortest geodesic with eigenvalue field
    Q(sqrt(r)): the trace of the fundamental norm-one unit of the maximal
    order. A bad entry i of an input list is named in the error as name[i]
    (a NotRealizableError carries i as its index instead).
    """
    _check_tol(tol)
    found: set[int] = set()
    if traces:
        found.update(_tagged("traces", traces, _check_trace))
    if lengths:
        found.update(_tagged("lengths", lengths, lambda x: length_to_trace(float(x), tol)))
    if radicands:
        for fld in radicand_fields(radicands):
            found.add(norm_one_unit(QuadOrder(fld, 1)))
    if not found:
        raise DomainError("empty spectrum: provide lengths, traces, or radicands")
    return SpectrumSpec(tuple(geodesic_class(t) for t in sorted(found)))
