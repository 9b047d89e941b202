"""The four census workloads: their seeded inputs, their ops and the checks
on every op's output.

Each workload answers one of the paper's user-facing questions and stresses
different layers of the package:

- ``pi_census``: pi(V) for the trace-4 geodesic at V = 3e5. The only
  workload that materialises classes, so it is the one that shows the
  ``quaternion`` layer (``RamSet`` re-checking primality, exact coareas).
- ``interval_census``: growth on (V, V+W] for traces 4, 5 at V = 3e6,
  W = 3e5. Counts without materialising: the nonsplit pool (``splitting``
  and ``kronecker`` per prime, built twice) and subset enumeration.
- ``chebotarev_scan``: the inert-prime density on [1e9, 1.03e9] for
  Q(sqrt 3) and Q(sqrt 17) through the CLI in-process, default threading.
  The only workload through ``cli`` and the thread pool; dominated by
  ``sieve_segment``.

Both are a third of the sizes of the baseline timings in ROADMAP.md
(V = 1e7, Y = 1e8): ops of about two seconds give a run enough ops for a
steady median, and the layer mix is the same.
- ``radicand_spectra``: radicand -> shortest geodesic, one radicand per op,
  over a seeded stratified sample of the squarefree radicands in
  [2, 2000]. The radicands are ordered by the period of the continued
  fraction of sqrt(d), which tracks the size of the fundamental unit and
  so the cost, and the sample takes one from each run of three. The
  ``pell_fundamental``/``factorize`` path, no sieve. Its cost is
  heavy-tailed (a dozen radicands hold most of the time), and a few
  radicands (1201, 1321, 1699, 1753, 1801, 1831) raise ``FactorBudgetError``
  today; they stay in the population and count as failed ops. The sample
  is fixed by the seed alone, so both sides of a comparison time the same
  radicands however fast the program is, and stratifying keeps its
  latency percentiles close to those of the whole range.

The checks share no code with the package beyond reading its result
objects: primes come from a plain numpy sieve, characters from Euler's
criterion, and the expected counts were cross-checked by an independent
count of the even ramification sets.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from functools import cache

import numpy as np

from commcensus import census, cli, quadratic, spectra

PI_TRACES = (4,)
PI_VOLUME = 3e5
PI_COUNT = 47_793

INTERVAL_TRACES = (4, 5)
INTERVAL_V = 3e6
INTERVAL_W = 3e5
INTERVAL_COUNTS = (131_849, 144_322)  # pi(V), pi(V + W)

CHEB_RADICANDS = (3, 17)
CHEB_X = 10**9
CHEB_Y = 3 * 10**7
CHEB_ARGV = ("chebotarev", "--radicands", "3,17", "--X", str(CHEB_X), "--Y", str(CHEB_Y))
CHEB_ACTUAL = 361_774

RADICAND_RANGE = (2, 2000)
RADICAND_STRATUM = 3


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- independent arithmetic for the checks -------------------------------------


@cache
def _primes_upto(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0]


@cache
def _prime_set(n: int) -> frozenset[int]:
    return frozenset(int(p) for p in _primes_upto(n))


def _is_squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _fundamental_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _splits(disc: int, p: int) -> bool:
    """Whether the prime p splits in the quadratic field of discriminant disc."""
    if disc % p == 0:
        return False
    if p == 2:
        return disc % 8 == 1
    return _legendre(disc, p) == 1


def _prime_discs(disc: int) -> list[int]:
    """Prime discriminants whose product is the fundamental discriminant."""
    parts, rest, q = [], disc, 3
    while rest % 2 == 0:
        rest //= 2
    while q <= rest:
        if rest % q == 0:
            parts.append(q if q % 4 == 1 else -q)
            rest //= q
        q += 2
    two = disc // math.prod(parts)
    return parts + ([two] if two != 1 else [])


def _check_field(fld, d: int) -> None:
    _require(_is_squarefree(d), f"radicand {d} is not squarefree")
    _require((fld.d, fld.disc) == (d, _fundamental_disc(d)),
             f"field {fld} is not Q(sqrt({d})) with discriminant {_fundamental_disc(d)}")


def _check_verdict(fields, verdict) -> None:
    """Check a FinitenessVerdict's witness without the package's code."""
    discs = [f.disc for f in fields]
    if verdict.finite:
        idx = verdict.square_witness
        _require(len(idx) % 2 == 1, f"square witness {idx} has even size")
        prod = math.prod(discs[i] for i in idx)
        _require(math.isqrt(prod) ** 2 == prod, f"square witness {idx} gives non-square {prod}")
        return
    signs = verdict.sign_witness
    for disc in discs:
        pds = _prime_discs(disc)
        _require(all(k in signs for k in pds), f"sign witness misses a prime disc of {disc}")
        _require(math.prod(signs[k] for k in pds) == -1,
                 f"sign witness does not make the character of {disc} equal -1")
    # the assignment must be realised by an actual prime inert in every field
    for p in _primes_upto(10**5)[1:]:
        p = int(p)
        if all(k % p and _legendre(k, p) == s for k, s in signs.items()):
            _require(all(_legendre(disc, p) == -1 for disc in discs),
                     f"prime {p} realises the signs but is not inert everywhere")
            return
    raise CheckFailed("no prime below 1e5 realises the sign witness")


def _check_spectrum_fields(spec, traces) -> None:
    _require(spec.traces() == traces, f"spectrum traces {spec.traces()} != {traces}")
    fields = spec.fields()
    for fld in fields:
        _check_field(fld, fld.d)
    _check_verdict(fields, census.nonsplit_is_finite(fields))


# -- the workloads ----------------------------------------------------------------


def _pi_run(_):
    spec = spectra.spectrum_from_inputs(traces=list(PI_TRACES))
    return spec, census.pi_of_V(spec, PI_VOLUME)


def _pi_check(_, out) -> None:
    spec, (count, classes) = out
    _require(count == PI_COUNT, f"pi(V) = {count}, expected {PI_COUNT}")
    _require(len(classes) == count, f"{len(classes)} classes for a count of {count}")
    _check_spectrum_fields(spec, PI_TRACES)
    disc = spec.fields()[0].disc
    bound = 3.0 * PI_VOLUME / math.pi
    primes = _prime_set(int(bound) + 2)
    prev = Fraction(0)
    seen = set()
    for c in classes:
        ram = c.ram.finite_primes
        _require(len(ram) % 2 == 0, f"class {ram} has odd ramification")
        _require(all(p in primes for p in ram), f"class {ram} has a non-prime entry")
        _require(not any(_splits(disc, p) for p in ram), f"class {ram} has a split prime")
        prod = math.prod(p - 1 for p in ram)
        _require(prod < bound, f"class {ram} is above the volume bound")
        coef = c.coarea.coef
        _require(coef == Fraction(prod, 3), f"class {ram} has coarea {c.coarea}")
        _require(coef >= prev, f"coareas out of order at {ram}")
        _require(c.is_division == bool(ram), f"class {ram} has the wrong division flag")
        prev = coef
        seen.add(ram)
    _require(len(seen) == count, "repeated ramification sets")


def _interval_run(_):
    spec = spectra.spectrum_from_inputs(traces=list(INTERVAL_TRACES))
    return spec, census.short_interval_delta(spec, INTERVAL_V, INTERVAL_W)


def _interval_check(_, out) -> None:
    spec, rep = out
    lo, hi = INTERVAL_COUNTS
    got = (rep.count_at_v, rep.count_at_v_plus_w, rep.delta)
    _require(got == (lo, hi, hi - lo), f"interval counts {got}, expected {(lo, hi, hi - lo)}")
    _check_spectrum_fields(spec, INTERVAL_TRACES)


def _cheb_run(_):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(CHEB_ARGV))
    return rc, buf.getvalue()


def _cheb_check(_, out) -> None:
    rc, text = out
    _require(rc == 0, f"exit code {rc}")
    result = json.loads(text)["result"]
    _require(result["actual"] == CHEB_ACTUAL,
             f"actual = {result['actual']}, expected {CHEB_ACTUAL}")
    _require([f["d"] for f in result["fields"]] == list(CHEB_RADICANDS),
             f"fields {result['fields']}")


def cheb_fields():
    return tuple(quadratic.field_from_d(d) for d in CHEB_RADICANDS)


def cheb_serial(fields):
    """The library's default call: no workers argument, so serial."""
    return census.verify_chebotarev_interval(fields, CHEB_X, CHEB_Y)


def cheb_serial_check(_, rep) -> None:
    _require(rep.actual == CHEB_ACTUAL, f"serial actual = {rep.actual}, expected {CHEB_ACTUAL}")


def _radicand_run(d):
    return spectra.spectrum_from_inputs(radicands=[d])


def _radicand_check(d, spec) -> None:
    _require(len(spec.classes) == 1, f"{len(spec.classes)} classes for one radicand")
    cls = spec.classes[0]
    t = cls.trace
    _require(t >= 3, f"trace {t} < 3")
    _check_field(cls.field, d)
    disc = _fundamental_disc(d)
    q, r = divmod(t * t - 4, disc)
    _require(r == 0 and math.isqrt(q) ** 2 == q, f"(t^2-4)/disc is not a square for t = {t}")
    _require(cls.field == quadratic.field_from_d(d), f"class field {cls.field} != field_from_d({d})")


def _cf_period(d: int) -> int:
    """Period length of the continued fraction of sqrt(d), d not a square."""
    a0 = math.isqrt(d)
    m, q, a, n = 0, 1, a0, 0
    while a != 2 * a0:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        n += 1
    return n


def _radicand_inputs(seed: int) -> list[int]:
    lo, hi = RADICAND_RANGE
    population = sorted((d for d in range(lo, hi + 1) if _is_squarefree(d)),
                        key=lambda d: (_cf_period(d), d))
    rng = random.Random(seed)
    sample = [rng.choice(population[i : i + RADICAND_STRATUM])
              for i in range(0, len(population), RADICAND_STRATUM)]
    rng.shuffle(sample)
    return sample


def _single(seed: int) -> list[None]:
    return [None]


WORKLOADS = {
    "pi_census": (_single, _pi_run, _pi_check),
    "interval_census": (_single, _interval_run, _interval_check),
    "chebotarev_scan": (_single, _cheb_run, _cheb_check),
    "radicand_spectra": (_radicand_inputs, _radicand_run, _radicand_check),
}


def make_inputs(name: str, seed: int) -> list:
    """One round of a workload's op inputs, fixed by the seed."""
    return WORKLOADS[name][0](seed)
