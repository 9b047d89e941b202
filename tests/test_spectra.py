"""Length-trace conversion and spectrum assembly."""
from __future__ import annotations

import dataclasses
import math

import pytest

from commcensus import arith, quadratic
from commcensus.arith import squarefree_part
from commcensus.errors import DomainError, NotRealizableError
from commcensus.quadratic import field_from_d
from commcensus.spectra import (
    GeodesicClass,
    SpectrumSpec,
    geodesic_class,
    length_to_trace,
    radicand_fields,
    spectrum_from_inputs,
    trace_to_length,
)


def test_trace_to_length_values():
    assert abs(trace_to_length(3) - 2 * math.log((3 + math.sqrt(5)) / 2)) < 1e-14
    assert abs(trace_to_length(4) - 2 * math.log(2 + math.sqrt(3))) < 1e-14
    for bad in (2, 1, 0, -4):
        with pytest.raises(DomainError):
            trace_to_length(bad)


def test_round_trip_up_to_1e4():
    for t in [*range(3, 10**4 + 1), 10**8, 10**9, 10**12]:
        assert length_to_trace(trace_to_length(t)) == t
    # float lengths are too coarse to single out one trace near 1e14
    with pytest.raises(NotRealizableError):
        length_to_trace(trace_to_length(10**14))


def test_trace_to_length_strictly_increasing():
    prev = trace_to_length(3)
    for t in range(4, 500):
        cur = trace_to_length(t)
        assert cur > prev
        prev = cur


def test_length_to_trace_rejections():
    for bad in (0.0, -1.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            length_to_trace(bad)
    with pytest.raises(NotRealizableError) as info:
        length_to_trace(2.0)  # 2*cosh(1) = 3.086...: no integer trace
    assert info.value.value == 2.0
    with pytest.raises(NotRealizableError):
        length_to_trace(2000.0)  # cosh(1000) overflows a float


def test_tolerance_must_be_finite_and_non_negative():
    good = trace_to_length(5)
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(DomainError, match="tol"):
            length_to_trace(good, tol)
        with pytest.raises(DomainError, match="tol"):
            spectrum_from_inputs(traces=[4], tol=tol)
    assert length_to_trace(good, 0.0) == 5


def test_length_to_trace_tolerance_band():
    good = trace_to_length(5)
    assert length_to_trace(good + 1e-12) == 5
    with pytest.raises(NotRealizableError):
        length_to_trace(good + 1e-6, tol=1e-9)
    # a loose tolerance swallows the same perturbation
    assert length_to_trace(good + 1e-6, tol=1e-4) == 5
    # 2*cosh(1) = 3.086 is within 1 of both 3 and 4: no single trace
    with pytest.raises(NotRealizableError, match="every integer trace from 3 to 4") as info:
        length_to_trace(2.0, tol=1.0)
    assert info.value.value == 2.0
    assert length_to_trace(2.0, tol=0.1) == 3


def test_embedding_field_examples():
    assert geodesic_class(3).field == field_from_d(5)
    assert geodesic_class(4).field == field_from_d(3)
    assert geodesic_class(6).field == field_from_d(2)
    assert geodesic_class(66).field == field_from_d(17)
    assert geodesic_class(100).field == field_from_d(51)


def test_geodesic_class_disc_identity():
    """The order of the axis unit has discriminant exactly t**2 - 4."""
    for t in range(3, 101):
        assert geodesic_class(t).order.order_disc == t * t - 4
    with pytest.raises(DomainError):
        geodesic_class(2)
    with pytest.raises(DomainError):
        geodesic_class(-5)


def test_invariant_trace_field_coincidence():
    """The squared class, of trace t**2 - 2, generates the same field, traces 3..10**3."""
    for t in range(3, 10**3 + 1):
        t2 = t * t - 2
        assert geodesic_class(t2).field == geodesic_class(t).field
        assert squarefree_part(t * t - 4)[0] == squarefree_part(t2 * t2 - 4)[0]


def test_geodesic_class_bundle():
    g = geodesic_class(4)
    assert g.trace == 4
    assert g.field == field_from_d(3)
    assert g.order.order_disc == 12
    assert abs(g.length - trace_to_length(4)) < 1e-15
    # length and field derive from the stored (trace, order)
    assert [f.name for f in dataclasses.fields(GeodesicClass)] == ["trace", "order"]
    assert g == GeodesicClass(4, g.order)


def test_geodesic_class_factors_once(monkeypatch):
    """Field and order of a class come from one factorization of t**2 - 4."""
    calls = []
    factorize = arith.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return factorize(n, *args, **kwargs)

    monkeypatch.setattr(arith, "factorize", counting)
    for t in (4, 66, 1000, 12345):
        calls.clear()
        g = geodesic_class(t)
        assert calls == [t * t - 4]
        assert g.field == field_from_d(t * t - 4)


def test_geodesic_class_checks_square_once(monkeypatch):
    """t**2 - 4 is tested for a square once, by the radicand rule behind field_from_d."""
    calls = []
    is_square = arith.is_square

    def counting(n):
        calls.append(n)
        return is_square(n)

    monkeypatch.setattr(arith, "is_square", counting)
    # a check through an is_square imported into quadratic counts too
    monkeypatch.setattr(quadratic, "is_square", counting, raising=False)
    geodesic_class(66)
    assert calls == [66 * 66 - 4]


def test_trace_rule_is_shared():
    """geodesic_class and trace_to_length take integer values t >= 3 and nothing else."""
    g = geodesic_class(4.0)
    assert g.trace == 4 and type(g.trace) is int
    assert g == geodesic_class(4)
    assert trace_to_length(4.0) == trace_to_length(4)
    for bad in (3.5, math.nan, math.inf, 2):
        with pytest.raises(DomainError, match="is not an integer trace >= 3"):
            geodesic_class(bad)
        with pytest.raises(DomainError, match="is not an integer trace >= 3"):
            trace_to_length(bad)


def test_radicand_fields_dedup_and_tags():
    fields = radicand_fields([3, 12, 17])
    assert fields == (field_from_d(3), field_from_d(17))
    assert radicand_fields([17.0, 3]) == (field_from_d(17), field_from_d(3))
    with pytest.raises(DomainError, match=r"^radicands\[2\]: 25 is a perfect square"):
        radicand_fields([3, 17, 25])
    with pytest.raises(DomainError, match=r"^radicands\[0\]: 3.5 is not an integer radicand"):
        radicand_fields([3.5])


def test_spectrum_from_radicands():
    spec = spectrum_from_inputs(radicands=[3, 17, 51])
    assert spec.traces() == (4, 66, 100)
    assert [f.disc for f in spec.fields()] == [12, 17, 204]


def test_spectrum_from_a_radicand_past_the_rho_budget():
    """t**2 - 4 = 1321 * f**2 for the unit trace t of Q(sqrt 1321): trial division leaves
    the square of f's part past 10**6, whose root rho could not split within RHO_BUDGET."""
    (g,) = spectrum_from_inputs(radicands=[1321]).classes
    assert g.field == field_from_d(1321)
    assert g.trace**2 - 4 == g.field.disc * g.order.conductor**2


def test_spectrum_mixed_inputs_dedup_and_sort():
    spec = spectrum_from_inputs(
        traces=[100, 4],
        lengths=[trace_to_length(4)],
        radicands=[3],
    )
    assert spec.traces() == (4, 100)


def test_spectrum_idempotent_reingestion():
    spec = spectrum_from_inputs(radicands=[3, 17, 51])
    again = spectrum_from_inputs(traces=list(spec.traces()))
    assert again == spec


def test_spectrum_error_tagging():
    with pytest.raises(DomainError):
        spectrum_from_inputs()
    with pytest.raises(NotRealizableError) as info:
        spectrum_from_inputs(lengths=[trace_to_length(4), 2.0])
    assert info.value.index == 1
    with pytest.raises(DomainError) as info2:
        spectrum_from_inputs(radicands=[3, 4])
    assert "radicands[1]" in str(info2.value)
    with pytest.raises(DomainError):
        spectrum_from_inputs(traces=[2])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match=r"traces\[1\]: .* is not an integer trace >= 3"):
            spectrum_from_inputs(traces=[4, bad])
    for bad in (3.5, float("nan"), float("inf")):
        with pytest.raises(DomainError, match=r"radicands\[1\]: .* is not an integer radicand"):
            spectrum_from_inputs(radicands=[3, bad])
    with pytest.raises(DomainError, match=r"radicands\[0\]: need a real quadratic radicand n > 1"):
        spectrum_from_inputs(radicands=[1])


def test_spectrum_fields_first_appearance_order():
    # traces 4 and 14 share Q(sqrt 3); the field list stays deduplicated
    spec = spectrum_from_inputs(traces=[4, 14])
    assert spec.traces() == (4, 14)
    assert [f.d for f in spec.fields()] == [3]
    assert isinstance(spec, SpectrumSpec)
