"""Command line interface.

Every invocation but --help prints exactly one document to stdout, a usage
error included: {command, inputs, result, warnings} on success and {command,
error} on failure, floats at 12 significant digits. JSON is the default, with
sorted keys. --format csv prints the same document as a path,value header and
then one row per leaf: dict keys sorted, list items by index, joined by dots
(result.classes.1.ram.0); an empty list or dict is one leaf; a string that does
not parse as JSON is its own cell, any other leaf its JSON text. An error
document is always JSON. Logs go to stderr, at the level named by the
COMMCENSUS_LOG environment variable (default warning). Exit codes: 0 success, 2
domain error or usage error, 3 search exhaustion, 1 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
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
    """What a command found: main prints it as the invocation's one document."""

    command: str
    inputs: dict[str, Any]
    result: dict[str, Any]
    warnings: list[str] = field(default_factory=list)


def _jsonable(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _leaves(node, path: str = ""):
    """(path, value) of each leaf of a JSON document: dict keys sorted, list items
    by index, joined by dots; an empty dict or list is a leaf."""
    if not isinstance(node, (dict, list)) or not node:
        yield path, node
        return
    for key, value in sorted(node.items()) if isinstance(node, dict) else enumerate(node):
        yield from _leaves(value, f"{path}.{key}" if path else str(key))


def _emit(doc: dict, fmt: str) -> None:
    """Print a document as JSON, or as csv: a path,value row per leaf, a string leaf
    as its text unless that parses as JSON ("-1"), and the rest as their JSON text."""
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["path", "value"])
    writer.writerows((path, _cell(value)) for path, value in _leaves(doc))


def _cell(value) -> str:
    if isinstance(value, str):
        try:
            json.loads(value)
        except ValueError:
            return value
    return json.dumps(value)


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


def _coarea_doc(coarea) -> dict:
    return {"coarea_exact": str(coarea), "coarea": coarea.value}


def _class_table(classes, warnings: list[str]) -> list[dict]:
    """Rows of the first MAX_CLASS_ROWS classes; a warning says when rows were left off."""
    if len(classes) > MAX_CLASS_ROWS:
        warnings.append(f"class table truncated to {MAX_CLASS_ROWS} of {len(classes)} rows")
    return [
        {"ram": list(cls.ram.finite_primes), **_coarea_doc(cls.coarea), "is_division": cls.is_division}
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


def _convert(flag: str, kind: type, text: str):
    """text as `kind`; DomainError naming --flag if it is not one."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"--{flag}: {text!r} is not a valid {kind.__name__}") from None


def _parse_list(args, flag: str, kind: type = int) -> list:
    """The comma separated values of --flag (empty tokens skipped) as `kind`."""
    return [
        _convert(flag, kind, tok)
        for tok in (getattr(args, flag, None) or "").split(",")
        if tok.strip() != ""
    ]


def _spectrum_inputs(args) -> dict[str, Any]:
    inputs = {
        "lengths": _parse_list(args, "lengths", float),
        "traces": _parse_list(args, "traces"),
        "radicands": _parse_list(args, "radicands"),
        "tol": getattr(args, "tol", DEFAULT_TOL),
    }
    _check_tol(inputs["tol"])  # count and pi reach spectrum_from_inputs only with traces or lengths
    return inputs


def _build_spectrum(args) -> tuple[SpectrumSpec, dict[str, Any]]:
    inputs = _spectrum_inputs(args)
    return spectrum_from_inputs(**inputs), inputs


def _census_fields(args) -> tuple[tuple[QuadField, ...], dict[str, Any]]:
    """Fields for count and pi: the spectrum's fields of the traces and
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
    fields, inputs = _census_fields(args)
    inputs["volume"] = args.volume
    value, classes = pi_of_V(fields, args.volume)
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
        others = {"--degree": args.degree, "--disc": args.disc,
                  "--zeta-minus1": args.zeta_minus1, "--norms": args.norms}
        given = [flag for flag, value in others.items() if value is not None]
        if given:
            raise DomainError(f"--ramified gives the coarea over Q: no {', '.join(given)}")
        primes = _parse_list(args, "ramified")
        coarea = coarea_rational(RamSet(tuple(primes)))
        return Report("volume", {"ramified": primes}, {"ram": primes, **_coarea_doc(coarea)})
    degree = 2 if args.degree is None else args.degree
    if args.disc is not None:
        if args.zeta_minus1 is not None or degree != 2:
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
    inputs = {"degree": degree, "disc": args.disc, "zeta_minus1": str(zeta), "norms": norms}
    coarea = coarea_general(degree, zeta, norms)
    return Report("volume", inputs, {**_coarea_doc(coarea), "zeta_minus1": str(zeta)})


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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors, a flag value not of its type among
    them, raise DomainError, which main prints as a document: argparse would
    print usage on stderr and exit instead."""

    def error(self, message: str):
        raise DomainError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once and shared: parsing leaves it as it
    was, and no caller may change it."""
    parser = _Parser(
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
    p.add_argument(
        "--search-bound", type=int, default=FAMILY_SEARCH_BOUND,
        dest="search_bound",
    )
    _add_common(p)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("volume", help="coarea of a maximal order unit group")
    p.add_argument("--ramified", help="comma separated finite ramified primes")
    p.add_argument(
        "--degree", type=int, help="degree of the totally real base field (default 2)"
    )
    p.add_argument(
        "--disc", type=int, help="real quadratic base field discriminant (degree 2)"
    )
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


def _error_doc(command: str | None, exc: Exception) -> dict:
    doc: dict[str, Any] = {
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if isinstance(exc, NotRealizableError):
        if exc.index is not None:
            doc["error"]["index"] = exc.index
        if exc.value is not None:
            doc["error"]["value"] = exc.value
    if isinstance(exc, InfiniteCensusError):
        doc["error"]["verdict"] = _verdict_doc(exc.verdict)
    if isinstance(exc, SearchExhaustedError) and exc.bound is not None:
        doc["error"]["bound"] = exc.bound
    return doc


def main(argv=None) -> int:
    # getLevelName maps a registered level name to its number and any other text
    # to a string; logging.getLevelNamesMapping is Python 3.11+
    level = logging.getLevelName(os.environ.get("COMMCENSUS_LOG", "warning").upper())
    logging.basicConfig(
        stream=sys.stderr,
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # the subcommand is recorded in args before its flags are parsed
    args = argparse.Namespace()
    try:
        build_parser().parse_args(argv, args)
        code, doc, fmt = 0, asdict(args.func(args)), args.format
    except SearchExhaustedError as exc:
        log.error("search exhausted: %s", exc)
        code, error = 3, exc
    except DomainError as exc:
        log.error("domain error: %s", exc)
        code, error = 2, exc
    except Exception as exc:  # pragma: no cover - internal failure path
        log.exception("internal error")
        code, error = 1, exc
    if code:
        # an error document is JSON: a usage error may come before --format is read
        doc, fmt = _error_doc(getattr(args, "command", None), error), "json"
    _emit(_jsonable(doc), fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
