"""Exact integer arithmetic against trial-division and scan oracles."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

import oracles
from commcensus import arith
from commcensus.arith import (
    PellSolution,
    factorize,
    is_prime,
    is_square,
    kronecker,
    norm_one_fundamental,
    pell_fundamental,
    prime_count,
    prime_segments,
    sieve_segment,
    squarefree_part,
)
from commcensus.census import verify_chebotarev_interval
from commcensus.errors import DomainError, FactorBudgetError
from commcensus.quadratic import field_from_d


def _primes(lo, hi):
    return [int(p) for block in prime_segments(lo, hi) for p in block]


def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == oracles.trial_is_prime(n), n


def test_is_prime_pseudoprimes_and_large():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7 simultaneously
    assert not is_prime(3215031751)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)  # largest prime below the deterministic cutoff
    assert is_prime(2**89 - 1)  # randomized path
    assert not is_prime((2**61 - 1) * (2**31 - 1))


def test_is_prime_psi12_needs_random_rounds():
    """psi_12 < 2**79 is a strong pseudoprime to all twelve fixed bases (Sorenson and
    Webster 2017): the fixed set alone is deterministic only below 2**64."""
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    assert not any(arith._mr_witness(n, a, d, s) for a in arith._MR_WITNESSES)
    assert not is_prime(n)


def test_factorize_roundtrip_to_1e5():
    """Every n in 1..10**5 reassembles and each factor is prime."""
    for n in range(1, 10**5 + 1):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_signs_and_zero():
    f = factorize(-12)
    assert f.sign == -1
    assert f.factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_past_trial_bound():
    # both prime factors exceed the trial-division cutoff, forcing rho
    n = 1000003 * 1000033
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))
    assert factorize(1000003**2).factors == ((1000003, 2),)


def test_factorize_at_trial_bound():
    """Prime factors on both sides of 10**6, small primes, and cofactors past 10**12."""
    big = 10**12 + 39  # prime, above the trial bound squared
    cases = {
        999983: ((999983, 1),),  # largest prime below 10**6
        1000003: ((1000003, 1),),  # smallest prime above it
        999983**2: ((999983, 2),),
        1000003**2: ((1000003, 2),),
        999983 * 1000003: ((999983, 1), (1000003, 1)),
        2**7 * 3**4 * 5**3 * big: ((2, 7), (3, 4), (5, 3), (big, 1)),
        # near 10**40; the cofactor 1000003 * (2**89 - 1) is split by rho
        2**4 * 999983 * 1000003 * (2**89 - 1): ((2, 4), (999983, 1), (1000003, 1), (2**89 - 1, 1)),
    }
    pool = [int(p) for p in oracles.sieve_upto(10**6) if p > 10**5]
    rng = random.Random(10)
    for _ in range(30):
        ps = rng.choices(pool, k=rng.randint(1, 3))
        expected = sorted((p, ps.count(p)) for p in set(ps)) + [(big, 1)]
        cases[math.prod(ps) * big] = tuple(expected)
    for n, expected in cases.items():
        assert factorize(n).factors == expected, n


def test_factorize_splits_a_square_cofactor_once(monkeypatch):
    """factorize(r * r) runs rho on r once, so as often as factorize(r) does."""
    calls = []
    brent = arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho", lambda *args: calls.append(args) or brent(*args))
    p, q = 10000019, 10000079  # both past the trial bound: r = p * q needs rho
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    once = len(calls)
    calls.clear()
    assert factorize((p * q) ** 2).factors == ((p, 2), (q, 2))
    assert len(calls) == once > 0


def test_factorize_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(arith, "RHO_BUDGET", 1)
    with pytest.raises(FactorBudgetError) as info:
        factorize(1000003 * 1000033)
    assert info.value.bound == 1


def test_squarefree_part_examples():
    assert squarefree_part(12) == (3, 2)
    assert squarefree_part(17) == (17, 1)
    assert squarefree_part(-18) == (-2, 3)
    assert squarefree_part(49) == (1, 7)
    assert squarefree_part(1) == (1, 1)


def test_squarefree_part_takes_a_square_leftover_whole(monkeypatch):
    """r**2 is all that trial division leaves of 3 * r**2: it adds nothing to s, so
    r goes into f unfactored, and rho, which would have to split r, never runs."""

    def no_rho(*args):
        raise AssertionError("rho ran")

    monkeypatch.setattr(arith, "_brent_rho", no_rho)
    r = (2**61 - 1) * (2**89 - 1)
    assert squarefree_part(3 * r * r) == (3, r)
    assert squarefree_part(-12 * r**4) == (-3, 2 * r * r)


def test_squarefree_part_random_roundtrip():
    rng = random.Random(20260819)
    for _ in range(300):
        n = rng.randint(1, 10**9) * rng.choice((1, -1))
        s, f = squarefree_part(n)
        assert s * f * f == n
        assert oracles.squarefree_reduce(n) == s


def test_kronecker_euler_criterion_oracle():
    """Against a^((p-1)/2) mod p at odd primes: no shared code path."""
    rng = random.Random(901)
    odd_primes = oracles.trial_primes(3, 500)
    for _ in range(10**4):
        a = rng.randint(-10**6, 10**6)
        p = rng.choice(odd_primes)
        assert kronecker(a, p) == oracles.legendre(a, p), (a, p)


def test_kronecker_completely_multiplicative():
    rng = random.Random(902)
    for _ in range(10**4):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        n = rng.randint(-500, 500)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n), (a, b, n)


def test_kronecker_conventions():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(-3, -1) == -1
    assert kronecker(3, -1) == 1
    # bottom argument 2: the mod-8 rule
    assert [kronecker(a, 2) for a in (1, 3, 5, 7)] == [1, -1, -1, 1]
    assert kronecker(4, 2) == 0
    assert all(kronecker(a, 1) == 1 for a in range(-5, 6))


def _sqrt_expansion(d: int) -> tuple[int, list[int]]:
    """sqrt(d) = [a0; period repeated], read off _partial_quotients(4d): theta = sqrt(4d)/2."""
    quotients = (a for a, _ in arith._partial_quotients(4 * d))
    a0 = next(quotients)
    period = [next(quotients)]
    while period[-1] != 2 * a0:
        period.append(next(quotients))
    return a0, period


def test_partial_quotients_sqrt_examples():
    assert _sqrt_expansion(2) == (1, [2])
    assert _sqrt_expansion(3) == (1, [1, 2])
    assert _sqrt_expansion(7) == (2, [1, 1, 1, 4])
    assert _sqrt_expansion(13) == (3, [1, 1, 1, 1, 6])


def test_radicand_rule_is_shared():
    """pell_fundamental and field_from_d read a radicand by one rule."""
    assert pell_fundamental(12.0) == pell_fundamental(12)
    for f in (pell_fundamental, field_from_d):
        for bad in (3.5, math.nan, math.inf, "7"):
            with pytest.raises(DomainError, match="is not an integer radicand"):
                f(bad)
        with pytest.raises(DomainError, match=r"^4 is a perfect square, Q\(sqrt\(4\)\) = Q$"):
            f(4)
        with pytest.raises(DomainError, match=r"^need a real quadratic radicand n > 1, got 1$"):
            f(1.0)


def test_partial_quotients_sqrt_period_shape():
    """The period of sqrt(d) ends at 2*a0 and its body is a palindrome."""
    for d in range(2, 300):
        if is_square(d):
            continue
        a0, period = _sqrt_expansion(d)
        assert period[-1] == 2 * a0
        body = period[:-1]
        assert body == body[::-1], d


def test_pell_identity_squarefree_to_500():
    for d in range(2, 501):
        if oracles.squarefree_reduce(d) != d:
            continue
        x, y = pell_fundamental(d)
        assert x * x - d * y * y == 1
        assert x > 1 and y > 0


def test_pell_minimality_small_d_scan_oracle():
    """d <= 60 is fully inside a 10**5 exhaustive scan."""
    for d in range(2, 61):
        if is_square(d):
            continue
        found = oracles.pell_scan(d, limit=10**5)
        assert found is not None
        assert pell_fundamental(d) == PellSolution(*found), d


def test_pell_famous_large_solution():
    assert pell_fundamental(61) == (1766319049, 226153980)


def test_pell_fundamental_checks_square_once(monkeypatch):
    """The radicand rule tests d for a square; the walk on 4d does not test again."""
    calls = []
    is_square_ = arith.is_square

    def counting(n):
        calls.append(n)
        return is_square_(n)

    monkeypatch.setattr(arith, "is_square", counting)
    assert pell_fundamental(13) == (649, 180)
    assert calls == [13]


def test_pell_rejects_bad_input():
    with pytest.raises(DomainError):
        pell_fundamental(16)
    with pytest.raises(DomainError):
        pell_fundamental(1)
    for bad in (-5, 0, 4, 7, 10, 16, 25):  # negative, square, or 2, 3 mod 4
        with pytest.raises(DomainError):
            norm_one_fundamental(bad)


def test_primes_in_range_trial_windows():
    """20 random width-10**3 windows below 10**7 against trial division."""
    rng = random.Random(903)
    for _ in range(20):
        lo = rng.randint(2, 10**7 - 10**3)
        hi = lo + 10**3
        assert _primes(lo, hi) == oracles.trial_primes(lo, hi)


def test_primes_in_range_edges():
    assert _primes(10, 20) == [11, 13, 17, 19]
    assert _primes(2, 2) == [2]
    assert _primes(24, 28) == []
    for entry in (prime_segments, prime_count):
        with pytest.raises(DomainError):
            entry(1, 10)  # validated before the first block is asked for
        with pytest.raises(DomainError):
            entry(50, 40)


def test_sieve_segment_matches_unsegmented():
    """prime_segments spans three 2**19 blocks; sieve_segment pieces agree."""
    whole = oracles.sieve_upto(1_200_000).tolist()
    blocks = list(prime_segments(2, 1_200_000))
    assert len(blocks) == 3
    assert all(block[-1] < nxt[0] for block, nxt in zip(blocks, blocks[1:]))
    assert [int(p) for block in blocks for p in block] == whole
    assert _primes(2, 1_200_000) == whole
    small = oracles.sieve_upto(math.isqrt(10**5)).astype(np.int64)
    base = (small, small - 1)  # -1/1 mod p
    pieces = []
    for lo in range(2, 10**5 + 1, 1000):
        pieces.extend(int(p) for p in sieve_segment(lo, min(lo + 999, 10**5), base))
    assert pieces == [p for p in whole if p <= 10**5]


@pytest.mark.parametrize("modulus", [1, 8, 12, 84, 204])
def test_prime_segments_progressions_match_sieve(modulus):
    """Every unit class mod modulus, and subsets of them, against one flat sieve.

    Each block ascends, and a single residue's blocks ascend throughout;
    prime_count counts what the blocks hold. lo = 2 puts base primes inside
    the progressions; 1_000_003 and 4_999_999 are prime; [2, 5e6] mod 8 is
    625_000 numbers per class, more than one 2**19 block, and [1e8, 3e8]
    mod 204 spans two stretches of 204 * 2**19 numbers (5 and 7 are two of
    the classes inert in Q(sqrt 3) and Q(sqrt 17)).
    """
    whole = oracles.sieve_upto(5_000_000)
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    rng = random.Random(modulus)
    picks = [units, units[::2], [rng.choice(units)]]
    for lo, hi in [(2, 5_000_000), (1_000_003, 4_999_999), (2, 2), (3, 400), (1_000_004, 1_000_030)]:
        for residues in picks:
            blocks = list(prime_segments(lo, hi, modulus, residues))
            got = np.concatenate([np.empty(0, np.int64), *blocks])
            want = whole[(whole >= lo) & (whole <= hi) & np.isin(whole % modulus, residues)]
            assert np.sort(got).tolist() == want.tolist(), (lo, hi, residues)
            if len(residues) == 1:
                assert got.tolist() == want.tolist()
            assert all(b.dtype == np.int64 and np.all(b[:-1] < b[1:]) for b in blocks)
            assert prime_count(lo, hi, modulus, residues) == len(got) == len(want)
    if modulus == 8:
        assert len(list(prime_segments(2, 5_000_000, 8, [1]))) == 2
    if modulus == 204:
        blocks = list(prime_segments(10**8, 3 * 10**8, 204, [5, 7]))
        assert len(blocks) == 4
        assert prime_count(10**8, 3 * 10**8, 204, [5, 7]) == sum(map(len, blocks))


def test_prime_segments_rejects_bad_residues():
    for modulus, residues in [(12, (2,)), (12, (13,)), (12, (-1,)), (8, ()), (8, (1, 1)), (0, (0,))]:
        for entry in (prime_segments, prime_count):
            with pytest.raises(DomainError):
                entry(2, 100, modulus, residues)


@pytest.mark.parametrize("modulus", [1, 8, 12, 84, 204])
def test_sieve_base_inverses_match_pow(modulus):
    primes, hops = arith._sieve_base(10**9, modulus)
    small = oracles.sieve_upto(math.isqrt(10**9))
    assert primes.tolist() == small[modulus % small != 0].tolist()
    assert hops.dtype == np.int64
    assert hops.tolist() == [pow(-modulus, -1, p) for p in primes.tolist()]


def _progression(whole, lo, hi, modulus, residue):
    return whole[(whole >= lo) & (whole <= hi) & (whole % modulus == residue)].tolist()


def test_sieve_segment_large_primes_scatter():
    """Base primes above sqrt(width) are crossed out by one scatter per pass.

    Random progressions and widths; widths of 0, 1 and 2 cells, where every
    base prime scatters and most first multiples lie past the end; and
    progressions through base primes, which survive because crossing out
    starts at p**2.
    """
    whole = oracles.sieve_upto(3_000_000)
    rng = random.Random(11)
    cases = []
    for _ in range(300):
        modulus = rng.choice([1, 2, 8, 12, 84, 204, 997, 30030])
        residue = rng.choice([r for r in range(modulus) if math.gcd(r, modulus) == 1])
        lo = rng.randint(2, 2_900_000)
        width = rng.choice([0, 1, 2, 3, 10, 500, 70_000])
        hi = min(lo + modulus * width + rng.randrange(modulus), 3_000_000)
        cases.append((lo, hi, modulus, residue))
    for start in (2, 1000, 999_983, 2_000_000):
        cases += [(start, start, 1, 0), (start, start + 1, 1, 0)]
        for modulus, residue in ((12, 11), (204, 13), (30030, 997)):
            lo = start - start % modulus + residue + 1  # just past a member
            for cells in (0, 1, 2):
                cases.append((lo, lo + modulus * (cells + 1) - 2, modulus, residue))
    for lo, hi, modulus, residue in cases:
        got = sieve_segment(lo, hi, arith._sieve_base(hi, modulus), modulus, residue)
        want = _progression(whole, lo, hi, modulus, residue)
        assert got.tolist() == want, (lo, hi, modulus, residue)
    # base primes past sqrt(width) in their own progressions: 43 = 3 (mod 8), 13, 997
    for lo, hi, modulus, p in [(2, 10_000, 8, 43), (2, 30_000, 204, 13), (2, 10**6, 30030, 997)]:
        assert math.isqrt((hi - lo) // modulus + 1) < p <= math.isqrt(hi)
        assert p in sieve_segment(lo, hi, arith._sieve_base(hi, modulus), modulus, p % modulus)


def test_sieve_segment_full_pass_near_1e9():
    """One 2**19 pass near 10**9, modulus 1: about 3,400 base primes, most scattering."""
    lo = 10**9 - 2**18
    hi = lo + 2**19 - 1
    base = arith._sieve_base(hi, 1)
    got = sieve_segment(lo, hi, base)
    assert got.tolist() == oracles.sieve_between(lo, hi).tolist()
    for a, b in ((lo, lo + 1000), (hi - 1000, hi)):
        assert got[(got >= a) & (got <= b)].tolist() == oracles.trial_primes(a, b)
    assert [int(p) for block in prime_segments(lo, hi) for p in block] == got.tolist()


def test_prime_segments_rejects_hi_past_int64(monkeypatch):
    """hi >= 2**62 fails the eager check, listing or counting, before any base sieve is built."""

    def no_base(hi, modulus):
        raise AssertionError("the base sieve must not be built")

    monkeypatch.setattr(arith, "_sieve_base", no_base)
    cases = [(2, 2**62, 1, (0,)), (2**62, 2**62 + 5, 8, (1,)), (2, 2**64, 1, (0,))]
    for lo, hi, modulus, residues in cases:
        for entry in (prime_segments, prime_count):
            with pytest.raises(DomainError, match="2\\*\\*62"):
                entry(lo, hi, modulus, residues)
    prime_segments(2**62 - 10, 2**62 - 1)  # accepted; never iterated
    with pytest.raises(DomainError, match="2\\*\\*62"):
        verify_chebotarev_interval((field_from_d(3), field_from_d(17)), 2**62, 1)


def test_is_square():
    squares = {n * n for n in range(100)}
    for n in range(-5, 9000):
        assert is_square(n) == (n in squares)
    assert is_square((10**9 + 7) ** 2)
    assert not is_square((10**9 + 7) ** 2 - 1)
