"""Golden CLI corpus: the exit code and stdout of each command, byte for byte.

tests/golden/<case>.json.out holds "exit <code>" on its first line and the
command's json stdout after it, for every case below. It is the one stored
expectation of a case, and every other check is derived from it: the csv run
prints the status line and the document's leaves as path,value rows (an
error's csv run prints the json file, since an error document is always
JSON), each document is strict JSON with distinct leaf paths, and every
README command is a case. A changed byte is either a contract change or a
defect. A contract change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names each file that changed, and why, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import pathlib
import shlex

import pytest

from commcensus import arith
from commcensus.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"
FORMATS = ("json", "csv")

# case -> (argv, RHO_BUDGET for the run, or None for the default)
CASES = {
    # the README examples
    "count": (["count", "--radicands", "3,17,51"], None),
    "spectra": (["spectra", "--lengths", "2.633916", "--traces", "66", "--tol", "1e-4"], None),
    "pi": (["pi", "--radicands", "3,17,51", "--volume", "40"], None),
    "interval": (["interval", "--traces", "4", "--V", "100000", "--W", "10000"], None),
    "family": (["family", "--n", "3"], None),
    "volume_ramified": (["volume", "--ramified", "3,17"], None),
    "volume_disc": (["volume", "--disc", "5"], None),
    "volume_degree3": (["volume", "--degree", "3", "--zeta-minus1=-1/21"], None),
    "chebotarev": (["chebotarev", "--radicands", "3,17", "--X", "1000000", "--Y", "100000"], None),
    "selectivity": (["selectivity", "--ramified", "2,5", "--order-disc", "45"], None),
    # both verdicts, a truncated class table, a unit trace past the rho budget's reach
    "count_2_3_6": (["count", "--radicands", "2,3,6"], None),
    "count_3_5_15_7": (["count", "--radicands", "3,5,15,7"], None),
    "count_infinite": (["count", "--radicands", "3,1201", "--traces", "4"], None),
    "pi_infinite_truncated": (["pi", "--traces", "4", "--volume", "1e5"], None),
    "family_n0": (["family", "--n", "0"], None),
    # 2**22 classes, past CLASS_BUDGET: a family's count lists none
    "family_n22": (["family", "--n", "22", "--search-bound", "4000000"], None),
    "spectra_radicand_1321": (["spectra", "--radicands", "1321"], None),
    # one case per error type, exit 2 or 3, and an argparse usage error
    "count_square_radicand": (["count", "--radicands", "3,4"], None),
    "count_nan_tol": (["count", "--radicands", "3,17,51", "--tol", "nan"], None),
    "spectra_trace_2": (["spectra", "--traces", "2"], None),
    "spectra_unrealizable_length": (["spectra", "--lengths", "1.5"], None),
    "volume_disc_7": (["volume", "--disc", "7"], None),
    "volume_float_overflow": (["volume", "--degree", "3", "--zeta-minus1=-1e308"], None),
    "selectivity_disc_7": (["selectivity", "--ramified", "2,5", "--order-disc", "7"], None),
    "family_search_exhausted": (["family", "--n", "3", "--search-bound", "50"], None),
    "pi_unrecognized_flag": (["pi", "--traces", "4", "--volume", "10", "--extra", "1"], None),
    # t**2 - 4 = 1000033 * 1000037 needs rho, which one iteration cannot finish
    "spectra_factor_budget": (["spectra", "--traces", "1000035"], 1),
}


def render(argv: list[str], rho_budget: int | None = None) -> str:
    """The "exit <code>" line and the stdout of one in-process CLI run."""
    out = io.StringIO()
    default = arith.RHO_BUDGET
    if rho_budget is not None:
        arith.RHO_BUDGET = rho_budget
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        arith.RHO_BUDGET = default
    return f"exit {code}\n{out.getvalue()}"


def _path(name: str) -> pathlib.Path:
    return GOLDEN / f"{name}.json.out"


def _run(name: str, fmt: str) -> str:
    argv, rho_budget = CASES[name]
    return render([*argv, "--format", fmt], rho_budget)


def _flatten(value, path: str = "") -> list[list[str]]:
    """The [path, cell] rows of a JSON value: dict keys sorted, list items by index,
    joined by dots; an empty dict or list is one row; a string cell is the string
    unless it parses as JSON, and any other cell, or such a string, is the value's
    JSON text."""
    prefix = f"{path}." if path else ""
    if isinstance(value, dict) and value:
        return [row for key in sorted(value) for row in _flatten(value[key], prefix + key)]
    if isinstance(value, list) and value:
        return [row for i, item in enumerate(value) for row in _flatten(item, f"{prefix}{i}")]
    if isinstance(value, str):
        try:
            json.loads(value)
        except ValueError:
            return [[path, value]]
    return [[path, json.dumps(value)]]


def _as_csv(golden: str) -> str:
    """The csv run a json golden file implies: its status line, then a path,value header
    and the document's leaves; an error's json file as it is."""
    status, _, document = golden.partition("\n")
    if status != "exit 0":
        return golden
    table = io.StringIO()
    rows = [["path", "value"], *_flatten(json.loads(document))]
    csv.writer(table, lineterminator="\n").writerows(rows)
    return f"{status}\n{table.getvalue()}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt):
    golden = _path(name).read_bytes().decode()
    assert _run(name, fmt) == (golden if fmt == "json" else _as_csv(golden))


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_golden_is_the_json_golden_flattened(name):
    """The csv expectation is the json golden's document flattened, so that document must
    be strict JSON (NaN and Infinity are not JSON tokens) with no two leaves on one path."""
    document = _path(name).read_text().partition("\n")[2]
    paths = [path for path, _ in _flatten(json.loads(document, parse_constant=_reject_constant))]
    assert len(set(paths)) == len(paths)


def test_readme_cli_examples_are_cases():
    """Each README line that starts with "commcensus " is, split as a shell splits it,
    the argv of a case, so the golden files check every README example's output."""
    examples = [
        shlex.split(line)[1:] for line in README.read_text().splitlines()
        if line.startswith("commcensus ")
    ]
    argvs = [argv for argv, _ in CASES.values()]
    assert examples
    for argv in examples:
        assert argv in argvs, shlex.join(["commcensus", *argv])


def test_golden_files_are_the_cases():
    """No case lacks its file, and no file outlives its case."""
    expected = sorted(_path(name).name for name in CASES)
    assert sorted(p.name for p in GOLDEN.iterdir()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for name in CASES:
        _path(name).write_bytes(_run(name, "json").encode())
