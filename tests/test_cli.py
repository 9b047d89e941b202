"""CLI contract: document shape, formats, determinism, exit codes."""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from commcensus import arith, census, cli, quadratic, spectra
from commcensus.arith import norm_one_fundamental
from commcensus.census import CLASS_BUDGET, SIEVE_BUDGET, construct_family
from commcensus.cli import MAX_CLASS_ROWS, main
from commcensus.errors import DomainError
from commcensus.quadratic import QuadOrder, field_from_d, norm_one_unit, order_from_disc
from commcensus.quaternion import ZETA_DISC_BOUND, zeta_k_minus1
from commcensus.spectra import trace_to_length


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def run_json(capsys, *argv):
    """The exit code and the document of a run, which must be strict JSON: NaN and
    Infinity are not JSON tokens."""
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_reject_constant)


def test_count_radicands_example(capsys):
    code, doc = run_json(capsys, "count", "--radicands", "3,17,51")
    assert code == 0
    assert doc["command"] == "count"
    res = doc["result"]
    assert res["nonsplit_primes"] == [3, 17]
    assert res["count_total"] == 2
    assert res["count_division"] == 1
    assert res["eventual_pi"] == 2
    assert [row["ram"] for row in res["classes"]] == [[], [3, 17]]
    assert res["classes"][0]["coarea_exact"] == "pi/3"
    assert res["classes"][1]["coarea_exact"] == "32*pi/3"
    assert res["verdict"] == {"finite": True, "square_witness_indices": [0, 1, 2]}


def test_spectra_mixed_inputs(capsys):
    length_4 = trace_to_length(4)
    code, doc = run_json(
        capsys, "spectra", "--lengths", f"{length_4:.12f}", "--radicands", "17"
    )
    assert code == 0
    assert doc["result"]["traces"] == [4, 66]
    rows = doc["result"]["classes"]
    assert rows[0]["field"] == {"d": 3, "disc": 12}
    assert rows[1]["order"]["order_disc"] == 66 * 66 - 4


def test_pi_command(capsys):
    code, doc = run_json(
        capsys, "pi", "--radicands", "3,17,51", "--volume", "40"
    )
    assert code == 0
    assert doc["result"]["pi"] == 2
    assert len(doc["result"]["classes"]) == 2
    assert doc["warnings"] == []


def test_interval_command(capsys):
    code, doc = run_json(
        capsys, "interval", "--traces", "4", "--V", "10000", "--W", "1000"
    )
    assert code == 0
    res = doc["result"]
    assert res["delta"] == res["count_at_v_plus_w"] - res["count_at_v"]
    assert isinstance(res["meets_bound"], bool)
    assert abs(res["bound"] - 1000 / (2 * math.log(10000))) < 1e-9


def test_family_command(capsys):
    code, doc = run_json(capsys, "family", "--n", "1")
    assert code == 0
    res = doc["result"]
    assert res["primes"] == [17, 41, 73]
    assert res["d4"] == 13
    assert res["eventual_pi"] == 2
    assert res["nonsplit_primes"] == [41, 73]


def test_volume_rational(capsys):
    code, doc = run_json(capsys, "volume", "--ramified", "3,17")
    assert code == 0
    assert doc["result"]["coarea_exact"] == "32*pi/3"
    assert doc["result"]["coarea"] == pytest.approx(32 * math.pi / 3, rel=1e-11)


def test_volume_general_degree_two(capsys):
    code, doc = run_json(capsys, "volume", "--disc", "5")
    assert code == 0
    assert doc["result"]["zeta_minus1"] == "1/30"
    assert doc["result"]["coarea"] == pytest.approx(math.pi / 15, rel=1e-11)
    assert doc["result"]["coarea_exact"] == "pi/15"


def test_volume_general_degree_three(capsys):
    """The cubic field of discriminant 49 has zeta_k(-1) = -1/21, so its coarea is pi/21."""
    code, doc = run_json(capsys, "volume", "--degree", "3", "--zeta-minus1=-1/21")
    assert code == 0
    assert doc["result"]["zeta_minus1"] == "-1/21"
    assert doc["result"]["coarea_exact"] == "pi/21"
    assert doc["result"]["coarea"] == pytest.approx(math.pi / 21, rel=1e-11)
    code, doc = run_json(capsys, "volume", "--degree", "3", "--zeta-minus1=-1/21", "--norms", "8")
    assert doc["result"]["coarea_exact"] == "pi/3"


def test_volume_zeta_minus1_source_is_one_flag(capsys):
    """--disc gives zeta_k(-1) for degree 2; with --zeta-minus1 or another --degree it is an error."""
    for argv in (
        ("--disc", "5", "--zeta-minus1", "1/30"),
        ("--disc", "5", "--degree", "3"),
        ("--degree", "3"),
        ("--degree", "3", "--zeta-minus1", "1/30"),  # a cubic zeta_k(-1) is negative
        ("--degree", "3", "--zeta-minus1", "inf"),
        ("--degree", "3", "--zeta-minus1", "1/0"),
    ):
        code, doc = run_json(capsys, "volume", *argv)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv


def test_volume_past_float_range_exits_2(capsys):
    """Both volume paths reach one float-range rule: a coarea past it exits 2, not 1."""
    primes = []
    p = 10**15
    while len(primes) < 22:
        p += 1
        if arith.is_prime(p):
            primes.append(p)
    argvs = (
        ("--ramified", ",".join(map(str, primes))),
        ("--degree", "3", "--zeta-minus1=-1e308"),  # a finite coefficient, an infinite product with pi
    )
    for argv in argvs:
        code, doc = run_json(capsys, "volume", *argv)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv
        assert doc["error"]["message"] == "coarea is past the float range"


def test_volume_huge_degree_exits_2_at_once(capsys):
    """2**(3 - n) underflows; the rule rejects it before any 2**(n - 3) is built."""
    start = time.perf_counter()
    code, doc = run_json(capsys, "volume", "--degree", "1000000000000", "--zeta-minus1", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, doc["error"]["type"]) == (2, "DomainError")
    assert doc["error"]["message"] == "coarea is past the float range"


def test_chebotarev_command(capsys):
    code, doc = run_json(
        capsys, "chebotarev", "--radicands", "3,17", "--X", "10000", "--Y", "2000"
    )
    assert code == 0
    assert doc["result"]["density"] == 0.25
    assert doc["result"]["ratio"] == pytest.approx(
        doc["result"]["actual"] / doc["result"]["predicted"], rel=1e-9
    )


def test_selectivity_command(capsys):
    code, doc = run_json(
        capsys, "selectivity", "--ramified", "2,5", "--order-disc", "45"
    )
    assert code == 0
    res = doc["result"]
    assert res["selective_possible"] is False
    assert res["condition2"] is False
    assert res["certificate_prime"] == 5
    assert res["conductor_primes"] == [{"p": 3, "splitting": "inert"}]


def test_byte_identical_reruns(capsys):
    _, first = run(capsys, "count", "--radicands", "3,17,51")
    _, second = run(capsys, "count", "--radicands", "3,17,51")
    assert first == second


def _read_cell(cell: str):
    """A csv cell read back: its JSON value if it parses as JSON, else the string itself."""
    try:
        return json.loads(cell)
    except ValueError:
        return cell


def test_csv_string_that_reads_as_json_is_quoted(capsys):
    """The JSON string "-1" is the cell "-1", quotes included, so it reads back as the
    string and not as the number -1; a string that is no JSON stays its own text."""
    code, out = run(capsys, "volume", "--degree", "3", "--zeta-minus1=-1", "--format", "csv")
    assert code == 0
    assert 'inputs.zeta_minus1,"""-1"""\n' in out
    cells = dict(list(csv.reader(io.StringIO(out)))[1:])
    assert _read_cell(cells["inputs.zeta_minus1"]) == "-1"
    assert _read_cell(cells["result.zeta_minus1"]) == "-1"
    assert cells["result.coarea_exact"] == "pi" and cells["inputs.degree"] == "3"


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--n", "0"),
        ("spectra", "--radicands", "1321"),
        ("selectivity", "--ramified", "2,5", "--order-disc", "45"),
        ("count", "--radicands", "3,17,51"),
        ("pi", "--traces", "4", "--volume", "1e3"),
        ("volume", "--degree", "3", "--zeta-minus1=-1"),
    ],
)
def test_csv_cells_read_back_as_the_json_document(capsys, argv):
    """Each csv path, split at its dots, looks up the json document's value, which
    is the cell as a string, unless that parses as JSON, or as JSON text; the rows
    are all of its leaves."""
    code, doc = run_json(capsys, *argv)
    assert code == 0
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["path", "value"]
    for path, cell in rows[1:]:
        value = doc
        for part in path.split("."):
            value = value[int(part)] if isinstance(value, list) else value[part]
        assert value in ([], {}) or not isinstance(value, (dict, list)), (argv, path)
        as_text = isinstance(value, str) and _read_cell(value) is value
        assert cell == (value if as_text else json.dumps(value)), (argv, path)
        assert _read_cell(cell) == value, (argv, path)

    def count(value):
        if isinstance(value, (dict, list)) and value:
            return sum(map(count, value.values() if isinstance(value, dict) else value))
        return 1

    assert len(rows) - 1 == len({path for path, _ in rows[1:]}) == count(doc), argv


def test_domain_error_exit_code(capsys):
    code, doc = run_json(capsys, "count", "--traces", "2")
    assert code == 2
    assert doc["error"]["type"] == "DomainError"
    code, doc = run_json(capsys, "pi", "--radicands", "3", "--volume", "-5")
    assert code == 2
    code, doc = run_json(capsys, "volume", "--ramified", "3")  # odd cardinality
    assert code == 2
    code, doc = run_json(capsys, "interval", "--traces", "4", "--V", "10", "--W", "20")
    assert code == 2
    # an infinite V, or V = 1 where the floor's ln V is 0
    for argv in (
        ("pi", "--traces", "4", "--volume", "inf"),
        ("interval", "--traces", "4", "--V", "inf", "--W", "1"),
        ("interval", "--traces", "4", "--V", "1", "--W", "0.5"),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv


def test_every_command_tags_a_bad_radicand(capsys):
    """Radicands reach their fields through one path, so every command names the entry."""
    for argv in (
        ("count",),
        ("spectra",),
        ("pi", "--volume", "10"),
        ("chebotarev", "--X", "1000", "--Y", "100"),
    ):
        code, doc = run_json(capsys, *argv, "--radicands", "3,4")
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv
        assert doc["error"]["message"] == "radicands[1]: 4 is a perfect square, Q(sqrt(4)) = Q"


def test_empty_inputs_name_the_flags(capsys):
    """A census command with no input names the flags it reads: pi, like count, reads fields."""
    for argv, message in (
        (("count",), "provide --radicands, --traces, or --lengths"),
        (("pi", "--volume", "10"), "provide --radicands, --traces, or --lengths"),
        (("chebotarev", "--radicands", ",", "--X", "1000", "--Y", "100"),
         "provide --radicands naming the fields"),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv
        assert doc["error"]["message"] == message, argv


def test_bad_trace_is_tagged(capsys):
    code, doc = run_json(capsys, "spectra", "--traces", "4,2")
    assert (code, doc["error"]["type"]) == (2, "DomainError")
    assert doc["error"]["message"] == "traces[1]: 2 is not an integer trace >= 3"


def test_chebotarev_past_int64_is_domain_error(capsys, monkeypatch):
    """X + Y >= 2**62 exits 2 before the base sieve of sqrt(X) is built."""

    def no_base(hi, modulus):
        raise AssertionError("the base sieve must not be built")

    monkeypatch.setattr(arith, "_sieve_base", no_base)
    code, doc = run_json(capsys, "chebotarev", "--radicands", "3", "--X", str(2**62), "--Y", "1")
    assert (code, doc["error"]["type"]) == (2, "DomainError")
    assert "2**62" in doc["error"]["message"]


def test_malformed_list_is_domain_error(capsys):
    for argv, flag, token in (
        (("count", "--radicands", "3.5"), "--radicands", "'3.5'"),
        (("spectra", "--lengths", "abc"), "--lengths", "'abc'"),
        (("volume", "--ramified", "3,x"), "--ramified", "'x'"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 2, argv
        assert doc["error"]["type"] == "DomainError"
        assert flag in doc["error"]["message"] and token in doc["error"]["message"]


def test_bad_typed_flag_is_domain_error(capsys):
    """A value that is not of a flag's type prints a strict-JSON DomainError
    document naming the flag and exits 2, as a bad list entry does."""
    for argv, flag, token in (
        (("volume", "--degree", "x"), "--degree", "'x'"),
        (("volume", "--disc", "5.5"), "--disc", "'5.5'"),
        (("pi", "--traces", "4", "--volume", "abc"), "--volume", "'abc'"),
        (("pi", "--traces", "4", "--volume", "10", "--tol", "t"), "--tol", "'t'"),
        (("interval", "--traces", "4", "--V", "v", "--W", "1"), "--V", "'v'"),
        (("interval", "--traces", "4", "--V", "10", "--W", "w"), "--W", "'w'"),
        (("family", "--n", "x"), "--n", "'x'"),
        (("family", "--n", "1", "--search-bound", "1e6"), "--search-bound", "'1e6'"),
        (("chebotarev", "--radicands", "3", "--X", "x", "--Y", "10"), "--X", "'x'"),
        (("chebotarev", "--radicands", "3", "--X", "1000", "--Y", "y"), "--Y", "'y'"),
        (("selectivity", "--ramified", "2,3", "--order-disc", "d"), "--order-disc", "'d'"),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["command"], doc["error"]["type"]) == (2, argv[0], "DomainError"), argv
        assert flag in doc["error"]["message"] and token in doc["error"]["message"], argv


def test_volume_ramified_refuses_other_flags(capsys):
    """--ramified is the coarea over Q; a --degree, --disc, --zeta-minus1 or
    --norms given beside it is refused, even a --degree of 2."""
    for extra in (
        ("--zeta-minus1", "5"),
        ("--degree", "5"),
        ("--degree", "2"),
        ("--disc", "5"),
        ("--norms", "8"),
        ("--degree", "3", "--norms", "8"),
    ):
        code, doc = run_json(capsys, "volume", "--ramified", "3,17", *extra)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), extra
        flags = [tok for tok in extra if tok.startswith("--")]
        assert doc["error"]["message"] == f"--ramified gives the coarea over Q: no {', '.join(flags)}"


def test_volume_rejects_norms_below_two(capsys):
    for norm in ("0", "1", "-5"):
        code, doc = run_json(capsys, "volume", "--disc", "5", "--norms", norm)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), norm
        assert doc["error"]["message"] == f"prime norm {norm} is not a prime power"


def test_non_finite_floats_are_domain_errors(capsys):
    """NaN, infinite or negative tol, a non-finite zeta_k(-1) and a coarea past the float range.

    Each exits 2 with a document that parses as strict JSON (no NaN or Infinity).
    """
    for argv in (
        ("spectra", "--lengths", "3.0", "--tol", "nan"),
        ("spectra", "--traces", "4", "--tol", "inf"),
        ("pi", "--lengths", "3.0", "--tol", "-1", "--volume", "10"),
        ("volume", "--degree", "3", "--zeta-minus1", "inf"),
        ("volume", "--degree", "2", "--zeta-minus1", "nan"),
        ("volume", "--degree", "1", "--zeta-minus1=-1e400"),
        ("volume", "--degree", "1100", "--zeta-minus1", "2"),
        ("count", "--radicands", "3,17,51", "--tol", "nan"),
        ("count", "--radicands", "3,17,51", "--tol", "inf"),
        ("count", "--radicands", "3,17,51", "--tol", "-1"),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv


def test_discriminant_rule_is_shared(capsys):
    """The three entry points that read a discriminant give one message for a bad one."""
    readers = (norm_one_fundamental, order_from_disc, zeta_k_minus1)
    for bad in (7, 0, -4, 13.5, math.nan):
        messages = set()
        for f in readers:
            with pytest.raises(DomainError) as info:
                f(bad)
            messages.add(str(info.value))
        assert len(messages) == 1, (bad, messages)
    for f in readers:
        assert f(12.0) == f(12)
    messages = [
        run_json(capsys, *argv)[1]["error"]["message"]
        for argv in (
            ("volume", "--disc", "7"),
            ("selectivity", "--ramified", "2,5", "--order-disc", "7"),
        )
    ]
    assert messages[0] == messages[1]


def test_family_search_bound_below_two(capsys):
    code, doc = run_json(capsys, "family", "--n", "3", "--search-bound", "1")
    assert (code, doc["error"]["type"]) == (2, "DomainError")
    assert "search_bound" in doc["error"]["message"]


def test_not_realizable_error_carries_position(capsys):
    code, doc = run_json(capsys, "spectra", "--lengths", "2.0")
    assert code == 2
    err = doc["error"]
    assert err["type"] == "NotRealizableError"
    assert err["index"] == 0
    assert err["value"] == 2.0


def test_infinite_census_error_carries_verdict(capsys):
    code, doc = run_json(capsys, "count", "--radicands", "3,17")
    assert code == 2
    err = doc["error"]
    assert err["type"] == "InfiniteCensusError"
    assert err["verdict"]["finite"] is False
    assert err["verdict"]["sign_witness"] == {"-4": -1, "-3": 1, "17": -1}


def test_count_takes_radicands_straight_to_fields(capsys, monkeypatch):
    """Beside a trace, a radicand is still taken as its field: t**2 - 4 for the
    unit of Q(sqrt 1201) is never factored."""
    unit_trace = norm_one_unit(QuadOrder(field_from_d(1201), 1))
    calls = []
    factorize = arith.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return factorize(n, *args, **kwargs)

    monkeypatch.setattr(arith, "factorize", counting)
    monkeypatch.setattr(quadratic, "factorize", counting)
    code, doc = run_json(capsys, "count", "--radicands", "3,1201", "--traces", "4")
    assert code == 2
    assert doc["error"]["type"] == "InfiniteCensusError"
    assert 12 in calls and unit_trace**2 - 4 not in calls


def test_pi_takes_radicands_straight_to_fields(capsys, monkeypatch):
    """pi reads a radicand as its field, as count does: no norm-one unit is walked for, so
    Q(sqrt 107637381713), a family's field, needs neither its unit nor that unit's t**2 - 4."""
    def no_unit(*args):
        raise AssertionError("walked for a norm-one unit")

    for module in (arith, quadratic):
        monkeypatch.setattr(module, "norm_one_fundamental", no_unit)
    for module in (quadratic, spectra):
        monkeypatch.setattr(module, "norm_one_unit", no_unit)
    code, doc = run_json(capsys, "pi", "--radicands", "107637381713", "--volume", "40")
    assert (code, doc["result"]["pi"]) == (0, 3)


def test_search_exhaustion_exit_code(capsys):
    code, doc = run_json(capsys, "family", "--n", "3", "--search-bound", "50")
    assert code == 3
    assert doc["error"]["type"] == "SearchExhaustedError"
    assert doc["error"]["bound"] == 50


def test_volume_disc_past_zeta_budget_exit_code(capsys):
    """The budget is checked first: a D past it exits 3 before it is even factored."""
    code, doc = run_json(capsys, "volume", "--disc", str(ZETA_DISC_BOUND + 2))
    assert code == 3
    assert doc["error"]["type"] == "SearchExhaustedError"
    assert doc["error"]["bound"] == ZETA_DISC_BOUND


def test_count_past_class_budget_exit_code(capsys):
    """Radicands p1, p1...p24 and p2...p24, for primes p = 1 mod 4 with (p | 5) = -1
    after p1 = 5: each p is inert in Q(sqrt(5)) and, as 23 is odd, 5 is inert in
    Q(sqrt(p2...p24)). All 24 primes are nonsplit: 2**23 classes, past the budget."""
    primes = [5] + [p for p in range(13, 1000, 4) if arith.is_prime(p) and arith.kronecker(5, p) == -1][:23]
    assert len(primes) == 24 and 2**23 > CLASS_BUDGET
    radicands = [5, math.prod(primes), math.prod(primes[1:])]
    code, doc = run_json(capsys, "count", "--radicands", ",".join(map(str, radicands)))
    assert code == 3
    assert doc["error"]["type"] == "SearchExhaustedError"
    assert doc["error"]["bound"] == CLASS_BUDGET
    assert doc["error"]["message"].startswith(f"{2 ** 23} classes")


def test_pi_on_a_finite_census_within_the_cutoff_is_sized_not_walked(capsys, monkeypatch):
    """The three fields construct_family starts from for 30 primes: p1 = 17, then the next
    29 primes = 1 mod 8 inert in Q(sqrt(17)). Their 2**29 classes all lie below V = 1e100,
    so pi exits 3 on that size alone, before any walk."""
    inert = (p for p in range(25, 10**4, 8) if arith.is_prime(p) and arith.kronecker(17, p) == -1)
    primes = [17, *itertools.islice(inert, 29)]
    radicands = [17, math.prod(primes), math.prod(primes[1:])]
    assert radicands[1:] == [
        21804658339090781255846392786464831536822301964045929603336175281891985104350297,
        1282626961122987132696846634497931266871900115532113506078598545993646182608841,
    ]
    assert math.pi / 3 * math.prod(p - 1 for p in primes) < 1e100

    def no_walk(fac, top):
        raise AssertionError("walked a census its size refuses")

    monkeypatch.setattr(census, "_odd_nodes", no_walk)
    argv = ("pi", "--radicands", ",".join(map(str, radicands)), "--volume", "1e100")
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc["error"]["type"] == "SearchExhaustedError"
    assert doc["error"]["bound"] == CLASS_BUDGET == 2_097_152
    assert doc["error"]["message"].startswith(f"{2 ** 29} classes")


def test_pi_past_class_budget_exit_code(capsys):
    """Trace 4 below V = 2e7 has 2,747,198 classes: counted, past the budget, never built."""
    code, doc = run_json(capsys, "pi", "--traces", "4", "--volume", "2e7")
    assert code == 3
    assert doc["error"]["type"] == "SearchExhaustedError"
    assert doc["error"]["bound"] == CLASS_BUDGET
    assert doc["error"]["message"].startswith("2747198 classes")


def test_sieve_budget_exit_code(capsys, monkeypatch):
    """pi, interval and chebotarev past SIEVE_BUDGET numbers exit 3 before sieving.

    The budget is checked before the 2**62 limit of the sieve, so a volume
    whose cutoff passes that limit exits 3 too.
    """

    def no_sieve(*args):
        raise AssertionError("sieved past the budget")

    monkeypatch.setattr(census, "prime_segments", no_sieve)
    monkeypatch.setattr(census, "prime_count", no_sieve)
    for argv in (
        ("pi", "--traces", "4", "--volume", "5e8"),
        ("pi", "--traces", "4,5", "--volume", "1e30"),
        ("interval", "--traces", "4", "--V", "1e9", "--W", "1e8"),
        ("chebotarev", "--radicands", "3,17", "--X", "1000000000000", "--Y", str(SIEVE_BUDGET)),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["error"]["type"]) == (3, "SearchExhaustedError"), argv
        assert doc["error"]["bound"] == SIEVE_BUDGET


def _csv_rows(capsys, argv) -> list[list[str]]:
    """The path,value rows of a command's csv output, header dropped."""
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["path", "value"]
    return rows[1:]


def test_class_table_truncation(capsys):
    """count and pi print the first MAX_CLASS_ROWS classes and warn; the counts stay
    whole, and csv prints the warning as the warnings.0 row."""
    def family_radicands(n):  # 2**n classes
        return ",".join(str(f.d) for f in construct_family(n).fields)

    for argv, key, total in (
        (("count", "--radicands", family_radicands(8)), "count_total", 256),
        (("pi", "--traces", "4", "--volume", "1e5"), "pi", 16_720),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        rows = doc["result"]["classes"]
        assert doc["result"][key] == total
        assert len(rows) == MAX_CLASS_ROWS == 200
        warning = f"class table truncated to 200 of {total} rows"
        assert doc["warnings"] == [warning]
        pairs = _csv_rows(capsys, argv)
        assert [f"result.{key}", str(total)] in pairs
        assert ["result.classes.199.coarea_exact", rows[-1]["coarea_exact"]] in pairs
        assert pairs[-1] == ["warnings.0", warning]
    argv = ("count", "--radicands", family_radicands(7))
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert len(doc["result"]["classes"]) == doc["result"]["count_total"] == 128
    assert doc["warnings"] == []
    pairs = _csv_rows(capsys, argv)
    assert ["result.count_total", "128"] in pairs
    assert pairs[-1] == ["warnings", "[]"]


def test_argparse_rejects_missing_required(capsys):
    """A missing required flag or an unknown command prints a strict-JSON DomainError
    document and exits 2, naming the command when argparse got that far."""
    for argv in (("pi", "--radicands", "3"), ("pi", "--traces", "4")):  # --volume is required
        code, doc = run_json(capsys, *argv)
        assert (code, doc["command"], doc["error"]["type"]) == (2, "pi", "DomainError"), argv
        assert doc["error"]["message"] == "the following arguments are required: --volume"
    code, doc = run_json(capsys, "nonsense")
    assert (code, doc["command"], doc["error"]["type"]) == (2, None, "DomainError")
    assert "invalid choice: 'nonsense'" in doc["error"]["message"]


def test_usage_errors_are_documents(capsys):
    """A bad choice, an unknown flag or no command at all exits 2 with one
    strict-JSON document on stdout; --help still prints usage and exits 0."""
    for argv, command, message in (
        (("count", "--radicands", "3", "--format", "xml"), "count",
         "argument --format: invalid choice: 'xml'"),
        (("pi", "--traces", "4", "--volume", "10", "--extra", "1"), "pi",
         "unrecognized arguments: --extra 1"),
        ((), None, "the following arguments are required: command"),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["command"], doc["error"]["type"]) == (2, command, "DomainError"), argv
        assert doc["error"]["message"].startswith(message), argv
    with pytest.raises(SystemExit) as info:
        main(["pi", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: commcensus pi")


def test_errors_stay_json_under_csv(capsys):
    """An error document is JSON whatever --format says, a usage error read before
    --format included."""
    for argv in (
        ("pi", "--traces", "4", "--volume", "abc", "--format", "csv"),
        ("pi", "--format", "csv", "--traces", "4", "--volume", "abc"),
        ("count", "--radicands", "3,4", "--format", "csv"),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv


def test_parser_is_built_once_and_left_as_it_was(capsys):
    """main reuses one parser; after good and bad invocations it parses as a new one does."""
    assert cli.build_parser() is cli.build_parser()
    for argv in (["family", "--n", "x"], ["pi", "--traces", "4"], ["count", "--radicands", "3,17,51"]):
        main(argv)
    capsys.readouterr()
    fresh = cli.build_parser.__wrapped__()
    for argv in (
        ["count", "--radicands", "3,17,51"],
        ["family", "--n", "3"],
        ["pi", "--traces", "4", "--volume", "10", "--format", "csv"],
        ["volume", "--ramified", "3,17"],
    ):
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv)), argv


def test_domain_error_logged_not_printed(capsys, caplog):
    code, _ = run_json(capsys, "count", "--traces", "2")  # stdout stays a clean document
    assert code == 2
    assert any("domain error" in rec.message for rec in caplog.records)


def test_log_level_must_be_a_level_name():
    """COMMCENSUS_LOG names a logging level; any other attribute of logging, like
    basic_format, falls back to warning instead of failing in basicConfig."""
    env = dict(
        os.environ,
        COMMCENSUS_LOG="basic_format",
        PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]),
    )
    argv = [sys.executable, "-m", "commcensus.cli", "volume", "--ramified", "3,17"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout, parse_constant=_reject_constant)["result"]["coarea_exact"] == "32*pi/3"
