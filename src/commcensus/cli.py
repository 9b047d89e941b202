"""Command line interface.

Every invocation prints exactly one structured document to stdout (JSON by
default, sorted keys, floats at 12 significant digits; --format csv
flattens the row table). Logs go to stderr, controlled by the COMMCENSUS_LOG
environment variable. Exit codes: 0 success, 2 domain error, 3 search
exhaustion, 1 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .census import (
    FAMILY_SEARCH_BOUND,
    InfiniteCensusError,
    construct_family,
    count_algebras,
    pi_of_V,
    selectivity_check,
    short_interval_delta,
    verify_chebotarev_interval,
)
from .errors import DomainError, NotRealizableError, SearchExhaustedError
from .quadratic import QuadField, QuadOrder, order_from_disc
from .quaternion import RamSet, coarea_general, coarea_rational, zeta_k_minus1
from .spectra import DEFAULT_TOL, SpectrumSpec, _check_tol, radicand_fields, spectrum_from_inputs

log = logging.getLogger("commcensus")

MAX_CLASS_ROWS = 200


@dataclass
class Report:
    """The one document an invocation prints."""

    command: str
    inputs: dict[str, Any]
    result: dict[str, Any]
    warnings: list[str] = field(default_factory=list)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report: Report, fmt: str) -> None:
    doc = {
        "command": report.command,
        "inputs": _jsonable(report.inputs),
        "result": _jsonable(report.result),
        "warnings": report.warnings,
    }
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return
    # csv: the row table if the command has one, key,value rows otherwise
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = report.result.get("classes")
    if rows:
        keys = sorted(rows[0])
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in keys])
    else:
        writer.writerow(["key", "value"])
        for key in sorted(report.result):
            writer.writerow([key, _csv_cell(report.result[key])])
    sys.stdout.write(buf.getvalue())


def _csv_cell(value):
    if isinstance(value, float):
        return f"{_sig12(value):.12g}"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return " ".join(f"{k}={v}" for k, v in sorted(value.items(), key=lambda kv: str(kv[0])))
    return value


def _field_doc(fld: QuadField) -> dict:
    return {"d": fld.d, "disc": fld.disc}


def _order_doc(order: QuadOrder) -> dict:
    return {
        "field": _field_doc(order.field),
        "conductor": order.conductor,
        "order_disc": order.order_disc,
    }


def _verdict_doc(verdict) -> dict:
    doc: dict[str, Any] = {"finite": verdict.finite}
    if verdict.square_witness is not None:
        doc["square_witness_indices"] = list(verdict.square_witness)
    if verdict.sign_witness is not None:
        doc["sign_witness"] = {str(k): v for k, v in sorted(verdict.sign_witness.items())}
    return doc


def _class_table(classes, warnings: list[str]) -> list[dict]:
    """Rows of the first MAX_CLASS_ROWS classes; a warning says when rows were left off."""
    if len(classes) > MAX_CLASS_ROWS:
        warnings.append(f"class table truncated to {MAX_CLASS_ROWS} of {len(classes)} rows")
    return [
        {
            "ram": list(cls.ram.finite_primes),
            "coarea_exact": str(cls.coarea),
            "coarea": cls.coarea.value,
            "is_division": cls.is_division,
        }
        for cls in classes[:MAX_CLASS_ROWS]
    ]


def _census_doc(census) -> dict:
    """The finite census of a CensusReport: fields, nonsplit primes and counts."""
    return {
        "fields": [_field_doc(f) for f in census.fields],
        "nonsplit_primes": list(census.nonsplit),
        "count_total": census.count_total,
        "count_division": census.count_division,
        "eventual_pi": census.eventual_pi,
    }


def _parse_list(args, flag: str, kind: type = int) -> list:
    """The comma separated values of --flag (empty tokens skipped) as `kind`."""
    values = []
    for tok in (getattr(args, flag, None) or "").split(","):
        if tok.strip() == "":
            continue
        try:
            values.append(kind(tok))
        except ValueError:
            raise DomainError(f"--{flag}: {tok!r} is not a valid {kind.__name__}") from None
    return values


def _spectrum_inputs(args) -> dict[str, Any]:
    inputs = {
        "lengths": _parse_list(args, "lengths", float),
        "traces": _parse_list(args, "traces"),
        "radicands": _parse_list(args, "radicands"),
        "tol": getattr(args, "tol", DEFAULT_TOL),
    }
    _check_tol(inputs["tol"])  # count reaches spectrum_from_inputs only with traces or lengths
    return inputs


def _build_spectrum(args) -> tuple[SpectrumSpec, dict[str, Any]]:
    inputs = _spectrum_inputs(args)
    return spectrum_from_inputs(**inputs), inputs


def _census_fields(args) -> tuple[tuple[QuadField, ...], dict[str, Any]]:
    """Fields for census commands: the spectrum's fields of the traces and
    lengths, then the field of each radicand, in first-appearance order."""
    inputs = _spectrum_inputs(args)
    fields: tuple[QuadField, ...] = ()
    if inputs["traces"] or inputs["lengths"]:
        spec = spectrum_from_inputs(inputs["lengths"], inputs["traces"], tol=inputs["tol"])
        fields = spec.fields()
    elif not inputs["radicands"]:
        raise DomainError("provide --radicands, --traces, or --lengths")
    return tuple(dict.fromkeys(fields + radicand_fields(inputs["radicands"]))), inputs


def cmd_spectra(args) -> Report:
    spec, inputs = _build_spectrum(args)
    rows = [
        {
            "trace": c.trace,
            "length": c.length,
            "field": _field_doc(c.field),
            "order": _order_doc(c.order),
        }
        for c in spec.classes
    ]
    return Report("spectra", inputs, {"classes": rows, "traces": list(spec.traces())})


def cmd_count(args) -> Report:
    fields, inputs = _census_fields(args)
    report = count_algebras(fields)
    warnings: list[str] = []
    result = {
        **_census_doc(report),
        "verdict": _verdict_doc(report.verdict),
        "classes": _class_table(report.classes, warnings),
    }
    return Report("count", inputs, result, warnings)


def cmd_pi(args) -> Report:
    spec, inputs = _build_spectrum(args)
    inputs["volume"] = args.volume
    value, classes = pi_of_V(spec, args.volume)
    warnings: list[str] = []
    result = {"pi": value, "volume": args.volume, "classes": _class_table(classes, warnings)}
    return Report("pi", inputs, result, warnings)


def cmd_interval(args) -> Report:
    spec, inputs = _build_spectrum(args)
    inputs["V"] = args.V
    inputs["W"] = args.W
    rep = short_interval_delta(spec, args.V, args.W)
    result = {
        "traces": list(rep.traces),
        "V": rep.volume,
        "W": rep.window,
        "count_at_v": rep.count_at_v,
        "count_at_v_plus_w": rep.count_at_v_plus_w,
        "delta": rep.delta,
        "bound": rep.bound,
        "meets_bound": rep.meets_bound,
    }
    return Report("interval", inputs, result)


def cmd_family(args) -> Report:
    inputs = {"n": args.n, "search_bound": args.search_bound}
    fam = construct_family(args.n, args.search_bound)
    result = {"n": fam.n, "primes": list(fam.primes), "d4": fam.d4, **_census_doc(fam.census)}
    return Report("family", inputs, result)


def cmd_volume(args) -> Report:
    if args.ramified is not None:
        primes = _parse_list(args, "ramified")
        coarea = coarea_rational(RamSet(tuple(primes)))
        result = {"ram": primes, "coarea_exact": str(coarea), "coarea": coarea.value}
        return Report("volume", {"ramified": primes}, result)
    if args.disc is not None:
        if args.zeta_minus1 is not None or args.degree != 2:
            raise DomainError(
                "--disc means degree 2 and gives zeta_k(-1): no --zeta-minus1, no other --degree"
            )
        zeta = zeta_k_minus1(args.disc)
    elif args.zeta_minus1 is not None:
        try:
            zeta = Fraction(args.zeta_minus1)
        except (ValueError, ZeroDivisionError):
            text = args.zeta_minus1
            raise DomainError(f"--zeta-minus1: {text!r} is not a fraction p/q") from None
    else:
        raise DomainError("provide --ramified, --disc, or --degree with --zeta-minus1")
    norms = _parse_list(args, "norms")
    inputs = {"degree": args.degree, "disc": args.disc, "zeta_minus1": str(zeta), "norms": norms}
    coarea = coarea_general(args.degree, zeta, norms)
    result = {"coarea_exact": str(coarea), "coarea": coarea.value, "zeta_minus1": str(zeta)}
    return Report("volume", inputs, result)


def cmd_chebotarev(args) -> Report:
    radicands = _parse_list(args, "radicands")
    if not radicands:
        raise DomainError("provide --radicands naming the fields")
    inputs = {"radicands": radicands, "X": args.X, "Y": args.Y}
    rep = verify_chebotarev_interval(radicand_fields(radicands), args.X, args.Y)
    result = {
        "fields": [_field_doc(f) for f in rep.fields],
        "X": rep.x,
        "Y": rep.y,
        "actual": rep.actual,
        "predicted": rep.predicted,
        "ratio": rep.ratio,
        "density": rep.density,
    }
    return Report("chebotarev", inputs, result)


def cmd_selectivity(args) -> Report:
    primes = _parse_list(args, "ramified")
    order = order_from_disc(args.order_disc)
    inputs = {"ramified": primes, "order_disc": args.order_disc}
    verdict = selectivity_check(RamSet(tuple(primes)), order)
    result = {
        "order": _order_doc(order),
        "ram": primes,
        "selective_possible": verdict.selective_possible,
        "condition1": verdict.condition1,
        "condition2": verdict.condition2,
        "condition3": verdict.condition3,
        "certificate_prime": verdict.certificate_prime,
        "conductor_primes": [
            {"p": p, "splitting": s.value} for p, s in verdict.conductor_primes
        ],
    }
    return Report("selectivity", inputs, result)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_spectrum_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lengths", help="comma separated geodesic lengths")
    sub.add_argument("--traces", help="comma separated integer traces")
    sub.add_argument("--radicands", help="comma separated field radicands")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commcensus",
        description="Census of commensurability classes with prescribed geodesic lengths",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectra", help="resolve lengths/traces/radicands to geodesic classes")
    _add_spectrum_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_spectra)

    p = subs.add_parser("count", help="total census over the embedding fields")
    _add_spectrum_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("pi", help="classes with coarea below a volume bound")
    _add_spectrum_flags(p)
    p.add_argument("--volume", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pi)

    p = subs.add_parser("interval", help="census growth over (V, V+W]")
    _add_spectrum_flags(p)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--W", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_interval)

    p = subs.add_parser("family", help="four fields forcing a census count of 2**n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--search-bound", type=int, default=FAMILY_SEARCH_BOUND, dest="search_bound")
    _add_common(p)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("volume", help="coarea of a maximal order unit group")
    p.add_argument("--ramified", help="comma separated finite ramified primes")
    p.add_argument("--degree", type=int, default=2, help="degree of the totally real base field")
    p.add_argument("--disc", type=int, help="real quadratic base field discriminant (degree 2)")
    p.add_argument("--zeta-minus1", dest="zeta_minus1", help="zeta_k(-1) of the base field as p/q")
    p.add_argument("--norms", help="comma separated ramified prime norms (general form)")
    _add_common(p)
    p.set_defaults(func=cmd_volume)

    p = subs.add_parser("chebotarev", help="inert-prime density check on [X, X+Y]")
    p.add_argument("--radicands", required=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--Y", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_chebotarev)

    p = subs.add_parser("selectivity", help="selectivity conditions for (algebra, order)")
    p.add_argument("--ramified", required=True)
    p.add_argument("--order-disc", type=int, required=True, dest="order_disc")
    _add_common(p)
    p.set_defaults(func=cmd_selectivity)

    return parser


def _error_doc(command: str, exc: Exception) -> dict:
    doc: dict[str, Any] = {
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if isinstance(exc, NotRealizableError):
        if exc.index is not None:
            doc["error"]["index"] = exc.index
        if exc.value is not None:
            doc["error"]["value"] = _jsonable(exc.value)
    if isinstance(exc, InfiniteCensusError):
        doc["error"]["verdict"] = _jsonable(_verdict_doc(exc.verdict))
    if isinstance(exc, SearchExhaustedError) and exc.bound is not None:
        doc["error"]["bound"] = exc.bound
    return doc


def main(argv=None) -> int:
    level = os.environ.get("COMMCENSUS_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except SearchExhaustedError as exc:
        log.error("search exhausted: %s", exc)
        code, error = 3, exc
    except DomainError as exc:
        log.error("domain error: %s", exc)
        code, error = 2, exc
    except Exception as exc:  # pragma: no cover - internal failure path
        log.exception("internal error")
        code, error = 1, exc
    else:
        _emit(report, args.format)
        return 0
    sys.stdout.write(json.dumps(_error_doc(args.command, error), sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
