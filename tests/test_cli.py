"""CLI contract: document shape, formats, determinism, exit codes."""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from commcensus import arith, census, quadratic
from commcensus.arith import character_table, norm_one_fundamental
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


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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


def test_csv_class_table(capsys):
    code, out = run(capsys, "count", "--radicands", "3,17,51", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "coarea,coarea_exact,is_division,ram"
    assert len(lines) == 3
    assert "32*pi/3" in lines[2]


def test_csv_key_value_fallback(capsys):
    code, out = run(capsys, "volume", "--ramified", "3,17", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("coarea_exact,") for line in lines)


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


def test_volume_rejects_norms_below_two(capsys):
    for norm in ("0", "1", "-5"):
        code, doc = run_json(capsys, "volume", "--disc", "5", "--norms", norm)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), norm
        assert doc["error"]["message"] == f"prime norm {norm} is not a prime power"


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


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
        code, out = run(capsys, *argv)
        doc = json.loads(out, parse_constant=_reject_constant)
        assert (code, doc["error"]["type"]) == (2, "DomainError"), argv


def test_discriminant_rule_is_shared(capsys):
    """The four entry points that read a discriminant give one message for a bad one."""
    readers = (character_table, norm_one_fundamental, order_from_disc, zeta_k_minus1)
    for bad in (7, 0, -4, 13.5, math.nan):
        messages = set()
        for f in readers:
            with pytest.raises(DomainError) as info:
                f(bad)
            messages.add(str(info.value))
        assert len(messages) == 1, (bad, messages)
    assert np.array_equal(character_table(12.0), character_table(12))
    for f in readers[1:]:
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
    for argv in (
        ("pi", "--traces", "4", "--volume", "5e8"),
        ("pi", "--traces", "4,5", "--volume", "1e30"),
        ("interval", "--traces", "4", "--V", "1e9", "--W", "1e8"),
        ("chebotarev", "--radicands", "3,17", "--X", "1000000000000", "--Y", str(SIEVE_BUDGET)),
    ):
        code, doc = run_json(capsys, *argv)
        assert (code, doc["error"]["type"]) == (3, "SearchExhaustedError"), argv
        assert doc["error"]["bound"] == SIEVE_BUDGET


def _table_rows(capsys, argv) -> tuple[dict, list[str]]:
    """The json document of a command and the lines of its csv table."""
    code, doc = run_json(capsys, *argv)
    assert code == 0
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    return doc, out.strip().split("\n")


def test_class_table_truncation(capsys):
    """count and pi print the first MAX_CLASS_ROWS classes and warn; the counts stay whole."""
    def family_radicands(n):  # 2**n classes
        return ",".join(str(f.d) for f in construct_family(n).fields)

    for argv, key, total in (
        (("count", "--radicands", family_radicands(8)), "count_total", 256),
        (("pi", "--traces", "4", "--volume", "1e5"), "pi", 16_720),
    ):
        doc, lines = _table_rows(capsys, argv)
        rows = doc["result"]["classes"]
        assert doc["result"][key] == total
        assert len(rows) == MAX_CLASS_ROWS == 200
        assert doc["warnings"] == [f"class table truncated to 200 of {total} rows"]
        assert lines[0] == "coarea,coarea_exact,is_division,ram"
        assert len(lines) == 1 + MAX_CLASS_ROWS
        assert lines[-1].split(",")[1] == rows[-1]["coarea_exact"]
    doc, lines = _table_rows(capsys, ("count", "--radicands", family_radicands(7)))
    assert len(doc["result"]["classes"]) == doc["result"]["count_total"] == 128
    assert doc["warnings"] == []
    assert len(lines) == 1 + 128


def test_argparse_rejects_missing_required(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pi", "--radicands", "3"])  # --volume is required
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_domain_error_logged_not_printed(capsys, caplog):
    code = main(["count", "--traces", "2"])
    assert code == 2
    json.loads(capsys.readouterr().out)  # stdout stays a clean document
    assert any("domain error" in rec.message for rec in caplog.records)
