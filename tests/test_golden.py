"""Golden CLI corpus: the exit code and stdout of each command, byte for byte.

tests/golden/<case>.<format>.out holds "exit <code>" on its first line and
the command's stdout after it, for every case below in json and in csv.
A changed byte is either a contract change or a defect. A contract change
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names each file that changed, and why, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from commcensus import arith
from commcensus.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
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
    "spectra_radicand_1321": (["spectra", "--radicands", "1321"], None),
    # one case per error type, exit 2 or 3
    "count_square_radicand": (["count", "--radicands", "3,4"], None),
    "count_nan_tol": (["count", "--radicands", "3,17,51", "--tol", "nan"], None),
    "spectra_trace_2": (["spectra", "--traces", "2"], None),
    "spectra_unrealizable_length": (["spectra", "--lengths", "1.5"], None),
    "volume_disc_7": (["volume", "--disc", "7"], None),
    "volume_float_overflow": (["volume", "--degree", "3", "--zeta-minus1=-1e308"], None),
    "selectivity_disc_7": (["selectivity", "--ramified", "2,5", "--order-disc", "7"], None),
    "family_search_exhausted": (["family", "--n", "3", "--search-bound", "50"], None),
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


def _path(name: str, fmt: str) -> pathlib.Path:
    return GOLDEN / f"{name}.{fmt}.out"


def _run(name: str, fmt: str) -> str:
    argv, rho_budget = CASES[name]
    return render([*argv, "--format", fmt], rho_budget)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt):
    assert _run(name, fmt) == _path(name, fmt).read_bytes().decode()


def test_golden_files_are_the_cases():
    """No case lacks its files, and no file outlives its case."""
    expected = sorted(_path(name, fmt).name for name in CASES for fmt in FORMATS)
    assert sorted(p.name for p in GOLDEN.iterdir()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for name in CASES:
        for fmt in FORMATS:
            _path(name, fmt).write_bytes(_run(name, fmt).encode())
