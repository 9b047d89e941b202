"""Exact integer arithmetic primitives.

Everything here works on arbitrary-precision Python ints. Primality is
deterministic below 2**64 (fixed Miller-Rabin witness set) and randomized
with negligible error above. Factoring is trial division by the sieved
primes up to 10**6, followed by Brent's variant of Pollard rho under an
effort budget.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, FactorBudgetError

__all__ = [
    "PrimeFactorization",
    "PellSolution",
    "is_prime",
    "factorize",
    "squarefree_part",
    "kronecker",
    "pell_fundamental",
    "norm_one_fundamental",
    "prime_segments",
    "prime_count",
    "sieve_segment",
    "is_square",
]

_TRIAL_BOUND = 10**6

# correct below 2**64 and up to psi_12 = 318665857834031151167461, which is a strong
# pseudoprime to all twelve (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Most Brent rho iterations one factorize call spends past trial division.
RHO_BUDGET = 4_000_000

_SEGMENT = 1 << 19


def is_square(n: int) -> bool:
    """True iff n is a perfect square."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """One Miller-Rabin round; True means a witnesses compositeness."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test, deterministic for n < 2**64.

    Above 2**64 runs 64 additional random rounds on top of the fixed
    witness set, so a false positive has probability below 4**-64.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if _mr_witness(n, a, d, s):
            return False
    if n < 2**64:
        return True
    rng = random.Random(n)
    for _ in range(64):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, d, s):
            return False
    return True


@dataclass(frozen=True)
class PrimeFactorization:
    """Factorization of a nonzero integer: sign and sorted (prime, exponent) pairs."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def sign(self) -> int:
        return -1 if self.value < 0 else 1

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _brent_rho(n: int, seed: int, budget: int) -> tuple[int, int]:
    """Brent cycle-finding rho. Returns (factor, iterations used).

    factor == n signals failure for this seed; caller retries.
    """
    rng = random.Random(seed)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    used = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            used += min(m, r - k)
            if used > budget:
                return n, used
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            used += 1
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
            if used > budget:
                return n, used
    return g, used


def factorize(n: int, *, _whole_squares: bool = False) -> PrimeFactorization:
    """Full prime factorization of a nonzero integer.

    Trial division by the primes up to 10**6, then Pollard rho (Brent).
    RHO_BUDGET caps the total rho iterations; exceeding it raises
    FactorBudgetError rather than silently returning a partial factorization.
    With _whole_squares (for squarefree_part) a perfect square m**2 left past
    trial division is entered as (m, 2) unfactored, so m may be composite.
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    value = n
    n = abs(n)
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    remaining = RHO_BUDGET
    stack = [(n, 1)] if n > 1 else []  # (m, e): m**e divides what is left
    while stack:
        m, e = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        if is_square(m):
            r = math.isqrt(m)
            if _whole_squares:
                factors[r] = factors.get(r, 0) + 2 * e
            else:
                stack.append((r, 2 * e))
            continue
        g = m
        seed = 1
        while g == m:
            g, used = _brent_rho(m, seed, remaining)
            remaining -= used
            if remaining <= 0 and g == m:
                raise FactorBudgetError(f"factoring budget exhausted on {m}", bound=RHO_BUDGET)
            seed += 1
        stack.extend(((g, e), (m // g, e)))
    return PrimeFactorization(value, tuple(sorted(factors.items())))


def squarefree_part(n: int) -> tuple[int, int]:
    """Split n = s * f**2 with s squarefree. Returns (s, f), sign carried by s.

    A square left past trial division adds nothing to s, so it is not factored.
    """
    fact = factorize(n, _whole_squares=True)
    s, f = fact.sign, 1
    for p, e in fact.factors:
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return s, f


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of the Jacobi symbol.

    Conventions: (a|0) is 1 for a = +-1 and 0 otherwise, (a|-1) is the sign
    of a, and (a|2) is 0 for even a, +1 for a = +-1 mod 8, -1 otherwise.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        if t % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _integer(x) -> int | None:
    """x as an int if it is a finite integer value (7, 7.0, numpy's 7), else None."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


def _check_radicand(d) -> int:
    n = d if type(d) is int else _integer(d)
    if n is None:
        raise DomainError(f"{d!r} is not an integer radicand")
    if n <= 1:
        raise DomainError(f"need a real quadratic radicand n > 1, got {n}")
    if is_square(n):
        raise DomainError(f"{n} is a perfect square, Q(sqrt({n})) = Q")
    return n


def _check_disc(D) -> int:
    """D as an int if it is an integer value D >= 1 with D = 0 or 1 mod 4: the discriminant rule."""
    n = D if type(D) is int else _integer(D)
    if n is None or n < 1 or n % 4 > 1:
        raise DomainError(f"{D!r} is not an integer discriminant D >= 1 with D = 0 or 1 mod 4")
    return n


def _check_integer(x, name: str) -> int:
    """x as an int if it is a finite integer value, else DomainError naming the argument."""
    n = _integer(x)
    if n is None:
        raise DomainError(f"{name} = {x!r} is not an integer")
    return n


def _partial_quotients(D: int) -> Iterator[tuple[int, int]]:
    """Partial quotients a_k of theta = (sqrt(D) - r)/2, r = D mod 2, with q_(k+1).

    D > 0 is a non-square, 0 or 1 mod 4. The complete quotients are
    (m + sqrt(D))/q with q dividing D - m**2, starting from m = -r, q = 2;
    one step is a = floor((m + sqrt(D))/q), m -> a*q - m, q -> (D - m**2)/q.
    """
    s = math.isqrt(D)
    m, q = -(D % 2), 2
    while True:
        a = (m + s) // q
        m = a * q - m
        q = (D - m * m) // q
        yield a, q


def norm_one_fundamental(D: int) -> tuple[int, int]:
    """Minimal (X, Y), X, Y >= 1, with X**2 - D*Y**2 = 4.

    D > 0 is a non-square, 0 or 1 mod 4: (X + Y*sqrt(D))/2 is then the
    fundamental norm-one unit of the order of discriminant D. It is the
    first convergent P/Q of theta = (sqrt(D) - r)/2 with X = 2P + rQ,
    Y = Q solving the equation (Lenstra, Notices AMS 49, 2002). Since
    (2P_k + rQ_k)**2 - D*Q_k**2 = (-1)**(k+1) * 2 * q_(k+1), that is the
    first odd k with q_(k+1) = 2.
    """
    return _norm_one_walk(_check_radicand(_check_disc(D)))


def _norm_one_walk(D: int) -> tuple[int, int]:
    """norm_one_fundamental for a D its caller has already checked."""
    r = D % 2
    p_prev, p = 0, 1  # convergent numerators P_(k-2), P_(k-1)
    y_prev, y = 1, 0  # and denominators Q_(k-2), Q_(k-1)
    for k, (a, q_next) in enumerate(_partial_quotients(D)):
        p_prev, p = p, a * p + p_prev
        y_prev, y = y, a * y + y_prev
        if k % 2 and q_next == 2:
            return 2 * p + r * y, y


class PellSolution(NamedTuple):
    x: int
    y: int


def pell_fundamental(d: int) -> PellSolution:
    """Minimal positive solution of x**2 - d*y**2 = 1, for every non-square d > 1.

    The case D = 4d of norm_one_fundamental: X = 2x, Y = y.
    """
    X, Y = _norm_one_walk(4 * _check_radicand(d))
    return PellSolution(X // 2, Y)


def _small_sieve(limit: int) -> np.ndarray:
    """Primes below `limit` as a numpy int64 array."""
    mask = np.ones(limit, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


# factorize's trial divisors: every prime up to the trial bound, sieved once at import
_TRIAL_PRIMES = array("q", _small_sieve(_TRIAL_BOUND + 1).tobytes())


def _sieve_base(hi: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes p <= sqrt(hi) not dividing modulus, and -1/modulus mod p for each.

    The inverses are Fermat's a**(p-2) mod p for a = -modulus mod p, by
    square-and-multiply over the whole array; p < 2**31 keeps every
    product below 2**62.
    """
    primes = _small_sieve(math.isqrt(hi) + 1)
    primes = primes[modulus % primes != 0]
    a = -modulus % primes
    exp = primes - 2
    inv = np.ones_like(primes)
    while exp.any():
        inv = np.where(exp & 1, inv * a % primes, inv)
        a = a * a % primes
        exp >>= 1
    return primes, inv


def _sieve_mask(
    lo: int, hi: int, base: tuple[np.ndarray, np.ndarray], modulus: int = 1, residue: int = 0
) -> tuple[int, np.ndarray]:
    """One pass over [lo, hi]: (k_lo, mask), mask[i] set when residue + modulus*(k_lo + i) is prime.

    Sieves one mask over n = residue + modulus*k. residue is coprime to
    modulus, and base holds every prime p <= sqrt(hi) not dividing modulus
    with its -1/modulus mod p: p divides n exactly when k = residue *
    (-1/modulus) (mod p). Crossing out starts at p**2, so p itself survives.

    A prime up to sqrt(width), the number of cells, clears many cells and
    takes one slice assignment. The larger primes clear few cells each, so
    their hits are built as one index array and cleared in one scatter: the
    hits of each prime are a run of steps p, and a cumulative sum over the
    steps, with each run's first step reset to jump to its first hit, gives
    every index. That transient array holds about width * sum(1/p) int64
    entries over the large primes, width * ln(ln(hi) / ln(width)): 2 MB for
    a 2**19-cell pass at hi = 10**9 and 5 MB just below 2**62. (int32
    indices would not save memory: numpy copies them to int64 to scatter.)
    It is freed on return, so only the mask outlives the pass.
    """
    k_lo = -((residue - lo) // modulus)
    width = max((hi - residue) // modulus - k_lo + 1, 0)
    primes, hops = base
    n = int(np.searchsorted(primes, math.isqrt(hi), side="right"))
    primes, hops = primes[:n], hops[:n]
    k_first = np.maximum(k_lo, -((residue - primes * primes) // modulus))
    k_first += (residue % primes * hops - k_first) % primes
    offsets = k_first - k_lo
    mask = np.ones(width, dtype=bool)
    split = int(np.searchsorted(primes, math.isqrt(width), side="right"))
    for offset, p in zip(offsets[:split].tolist(), primes[:split].tolist()):
        mask[offset::p] = False
    primes, offsets = primes[split:], offsets[split:]
    counts = np.maximum(width - offsets + primes - 1, 0) // primes
    hit = counts > 0
    primes, offsets, counts = primes[hit], offsets[hit], counts[hit]
    steps = np.repeat(primes, counts)
    lasts = offsets + primes * (counts - 1)
    steps[np.cumsum(counts) - counts] = offsets - np.concatenate(([0], lasts[:-1]))
    mask[np.cumsum(steps, out=steps)] = False
    return k_lo, mask


def sieve_segment(
    lo: int, hi: int, base: tuple[np.ndarray, np.ndarray], modulus: int = 1, residue: int = 0
) -> np.ndarray:
    """Primes p in [lo, hi] with p = residue (mod modulus), ascending, for 2 <= lo <= hi.

    The primes read off one _sieve_mask pass. Its index array is freed
    before the block is made, which may then take its place: blocks that a
    caller keeps pass after pass pack without holes (a pool of 10.6 M
    primes, trace 4 at V = 3.8e8, then peaks 13 MB lower in RSS).
    """
    k_lo, mask = _sieve_mask(lo, hi, base, modulus, residue)
    return residue + modulus * (np.flatnonzero(mask) + k_lo)


def _check_progressions(lo: int, hi: int, modulus: int, residues: Iterable[int]) -> list[int]:
    """The residues, sorted, once [lo, hi] and the progressions pass the sieve's checks."""
    if lo < 2 or hi < lo:
        raise DomainError(f"need 2 <= lo <= hi, got ({lo}, {hi})")
    if hi >= 2**62:
        raise DomainError(f"need hi < 2**62, got {hi}")
    residues = sorted(residues)
    if modulus < 1 or not residues or len(set(residues)) != len(residues):
        raise DomainError(f"need modulus >= 1 and distinct residues, got {modulus}, {residues}")
    if not all(0 <= r < modulus and math.gcd(r, modulus) == 1 for r in residues):
        raise DomainError(f"residues must be units mod {modulus}, got {residues}")
    return residues


def _passes(lo: int, hi: int, modulus: int, residues: list[int], sieve) -> Iterator:
    """sieve(start, end, base, modulus, r) for each pass: stretch by stretch, residue by residue."""
    base = _sieve_base(hi, modulus)
    start = lo
    while start <= hi:
        end = min(start + modulus * _SEGMENT - 1, hi)
        for r in residues:
            yield sieve(start, end, base, modulus, r)
        start = end + 1


def prime_segments(
    lo: int, hi: int, modulus: int = 1, residues: Iterable[int] = (0,)
) -> Iterator[np.ndarray]:
    """Yield the primes p in [lo, hi] with p mod modulus in residues, in ascending blocks.

    Segmented sieve over arithmetic progressions: the range is cut into
    stretches of modulus * 2**19 numbers, and each residue takes one
    sieve_segment pass of 2**19 numbers per stretch. Blocks come stretch by
    stretch and, within one, residue by residue, so they ascend throughout
    only for a single residue; the plain sieve is modulus 1, residue 0. The
    base primes up to sqrt(hi) are sieved once. Within a pass the base
    primes up to sqrt(2**19) cross out by slices and the larger ones by one
    scatter of an index array (see _sieve_mask), so memory stays
    O(sqrt(hi) + 2**19) no matter how wide the range is; the index array
    is transient and under 5 MB. Arguments are validated eagerly, before
    iteration and before anything is allocated: hi must be below 2**62,
    where the int64 products p**2 and the sieved values stop being exact,
    and the residues must be distinct, in [0, modulus) and coprime to
    modulus. prime_count counts the same passes off their masks.
    """
    return _passes(lo, hi, modulus, _check_progressions(lo, hi, modulus, residues), sieve_segment)


def prime_count(lo: int, hi: int, modulus: int = 1, residues: Iterable[int] = (0,)) -> int:
    """The number of primes prime_segments(lo, hi, modulus, residues) yields.

    The same passes, each counted off its mask: no prime array is built, so
    a pass holds its 2**19-cell mask and the transient index array only.
    Arguments are validated as prime_segments validates them.
    """
    residues = _check_progressions(lo, hi, modulus, residues)
    passes = _passes(lo, hi, modulus, residues, _sieve_mask)
    return sum(int(np.count_nonzero(mask)) for _, mask in passes)
