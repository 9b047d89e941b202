"""Independent brute-force oracles for the test suite.

Every routine here recomputes its answer from first principles (trial
division, exhaustive modular search, direct series summation) and shares no
code with the package under test. Where a brute search cannot finish in
test time, the fallback is stated next to the routine that uses it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# primes by trial division and a plain sieve


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by trial division against a small prime list."""
    small = [p for p in range(2, math.isqrt(max(hi, 4)) + 1) if trial_is_prime(p)]
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % p for p in small if p * p <= n):
            out.append(n)
    return out


def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit, single flat sieve (no wheel, no segments)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0]


def sieve_between(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi], 0 <= lo <= hi, from one flat mask.

    Every prime p <= sqrt(hi) crosses out its multiples from p*p on, one
    slice each, so it needs memory for hi - lo cells, not hi.
    """
    mask = np.ones(hi - lo + 1, dtype=bool)
    mask[: max(2 - lo, 0)] = False
    for p in sieve_upto(math.isqrt(hi)).tolist():
        start = max(p * p, -(-lo // p) * p)
        mask[start - lo :: p] = False
    return lo + np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# quadratic characters from Euler's criterion, no reciprocity anywhere


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p via a^((p-1)/2) mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def prime_disc_split(D: int) -> list[int]:
    """Factor a fundamental discriminant into prime discriminants."""
    mm = abs(D)
    while mm % 2 == 0:
        mm //= 2
    parts = []
    q = 3
    while q * q <= mm:
        if mm % q == 0:
            e = 0
            while mm % q == 0:
                mm //= q
                e += 1
            if e != 1:
                raise ValueError(f"{D} is not fundamental")
            parts.append(q if q % 4 == 1 else -q)
        q += 2
    if mm > 1:
        parts.append(mm if mm % 4 == 1 else -mm)
    prod = 1
    for s in parts:
        prod *= s
    if D % prod:
        raise ValueError(f"{D} did not split over its odd primes")
    rest = D // prod
    if rest not in (1, -4, 8, -8):
        raise ValueError(f"{D} is not fundamental (2-part {rest})")
    if rest != 1:
        parts.append(rest)
    return parts


def _component(pd: int, n: int) -> int:
    """Character attached to one prime discriminant, evaluated at n."""
    if pd % 2:
        return legendre(n, abs(pd))
    if n % 2 == 0:
        return 0
    if pd == -4:
        return 1 if n % 4 == 1 else -1
    if pd == 8:
        return 1 if n % 8 in (1, 7) else -1
    if pd == -8:
        return 1 if n % 8 in (1, 3) else -1
    raise ValueError(f"not a prime discriminant: {pd}")


def chi_table(D: int) -> np.ndarray:
    """chi_D(r) for r = 0..|D|-1, from the prime-discriminant components."""
    parts = prime_disc_split(D)
    out = np.ones(abs(D), dtype=np.int8)
    for r in range(abs(D)):
        v = 1
        for pd in parts:
            v *= _component(pd, r)
        out[r] = v
    return out


def split_at(d_disc: int, p: int) -> int:
    """Character of the field with discriminant d_disc at prime p.

    +1 split, -1 inert, 0 ramified. Uses Euler's criterion at odd p and the
    explicit mod-8 rule at p = 2.
    """
    if p == 2:
        if d_disc % 2 == 0:
            return 0
        return 1 if d_disc % 8 == 1 else -1
    if d_disc % p == 0:
        return 0
    return legendre(d_disc, p)


def nonsplit_scan(discs: list[int], limit: int) -> list[int]:
    """Primes p <= limit with split_at(disc, p) != +1 for every disc."""
    out = []
    for p in map(int, sieve_upto(limit)):
        if all(split_at(D, p) != 1 for D in discs):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# local solvability of a x^2 + b y^2 = z^2 by exhaustive modular search


def squarefree_reduce(n: int) -> int:
    """Remove the largest square factor of n, keeping the sign."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    core = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                core *= d
        d += 1
    return sign * core * n


def _val(n: int, p: int) -> int:
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def _nontrivial_zero_mod_p(a: int, b: int, p: int) -> bool:
    """Zero of a x^2 + b y^2 - z^2 mod p with (x, y, z) != (0, 0, 0).

    Only sound as a Z_p test when p is odd and p divides neither a nor b
    (a smooth conic mod p; any nontrivial zero lifts).
    """
    xs = np.arange(p, dtype=np.int64)
    squares = np.zeros(p, dtype=bool)
    squares[(xs * xs) % p] = True
    avals = (a * xs * xs) % p
    bvals = (b * xs * xs) % p
    sums = (avals[:, None] + bvals[None, :]) % p
    hit = squares[sums]
    hit[0, 0] = False  # x = y = 0 forces z = 0: the trivial zero
    return bool(hit.any())


def _primitive_zero_exists(a: int, b: int, p: int, k: int) -> bool:
    """Zero of a x^2 + b y^2 - z^2 mod p^k with a unit coordinate.

    Counts pairs by cyclic convolution over Z/p^k: reachable sums with at
    least one of x, y a unit, matched against all squares; then pairs with
    both x, y nonunits matched against unit squares.
    """
    M = p**k
    xs = np.arange(M, dtype=np.int64)
    unit = xs % p != 0
    asq = (a * xs * xs) % M
    bsq = (b * xs * xs) % M
    zsq = (xs * xs) % M
    z_all = np.zeros(M, dtype=bool)
    z_all[zsq] = True
    z_unit = np.zeros(M, dtype=bool)
    z_unit[zsq[unit]] = True

    def conv(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(f, n=M) * np.fft.rfft(g, n=M), n=M)

    cnt_all = conv(
        np.bincount(asq, minlength=M).astype(np.float64),
        np.bincount(bsq, minlength=M).astype(np.float64),
    )
    cnt_nonunit = conv(
        np.bincount(asq[~unit], minlength=M).astype(np.float64),
        np.bincount(bsq[~unit], minlength=M).astype(np.float64),
    )
    if bool(np.any((cnt_all - cnt_nonunit > 0.5) & z_all)):
        return True
    return bool(np.any((cnt_nonunit > 0.5) & z_unit))


@lru_cache(maxsize=None)
def local_solvable(a: int, b: int, place) -> bool:
    """Does a x^2 + b y^2 = z^2 have a nontrivial zero over the completion?

    Infinite place: sign analysis. Finite p: exhaustive search for a
    primitive zero modulo p^k, where k makes a primitive zero liftable
    (k = 3 at odd p once square parts are stripped; k = 3 + 2 v_2(4ab)
    at p = 2). Square parts of a and b are stripped first, which changes
    neither the conic's points over the field nor, therefore, the answer.
    """
    if place == math.inf:
        return a > 0 or b > 0
    p = int(place)
    a = squarefree_reduce(a)
    b = squarefree_reduce(b)
    if p == 2:
        k = 3 + 2 * (2 + _val(a, 2) + _val(b, 2))
        return _primitive_zero_exists(a, b, 2, k)
    if a % p and b % p:
        return _nontrivial_zero_mod_p(a, b, p)
    return _primitive_zero_exists(a, b, p, 3)


def relevant_places(a: int, b: int) -> list:
    """2, the odd primes dividing ab, and the infinite place."""
    places = [2]
    n = abs(a * b)
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            places.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        places.append(n)
    places.append(math.inf)
    return places


# ---------------------------------------------------------------------------
# Pell minimality: bounded exhaustive scan, Chebyshev descent beyond it


def pell_scan(d: int, limit: int = 10**7, chunk: int = 10**6):
    """Smallest (x, y) with x^2 - d y^2 = 1 and 1 <= y <= limit, else None."""
    for lo in range(1, limit + 1, chunk):
        ys = np.arange(lo, min(lo + chunk, limit + 1), dtype=np.int64)
        t = d * ys * ys + 1
        s = np.rint(np.sqrt(t.astype(np.float64))).astype(np.int64)
        hit = (s * s == t) | ((s - 1) * (s - 1) == t) | ((s + 1) * (s + 1) == t)
        idx = np.nonzero(hit)[0]
        if len(idx):
            y = int(ys[idx[0]])
            x = math.isqrt(d * y * y + 1)
            assert x * x - d * y * y == 1
            return x, y
    return None


def chebyshev_x(u: int, k: int) -> int:
    """x-coordinate of the k-th power of a unit whose x-coordinate is u."""
    a, b = 1, u
    for _ in range(k - 1):
        a, b = b, 2 * u * b - a
    return b


def pell_is_fundamental(d: int, x: int, y: int) -> bool:
    """Exact minimality check: x + y sqrt(d) admits no integer k-th root.

    Any smaller solution u + v sqrt(d) would give x = T_k(u) for some
    k >= 2 (solutions form a cyclic group), so it suffices to invert the
    Chebyshev map at every feasible k and test the candidate exactly.
    """
    if x <= 1 or y <= 0 or x * x - d * y * y != 1:
        return False
    kmax = int(math.acosh(x) / math.acosh(2)) + 1
    for k in range(2, kmax + 1):
        guess = int(round(math.cosh(math.acosh(x) / k)))
        for u in range(max(2, guess - 2), guess + 3):
            if chebyshev_x(u, k) == x:
                vv, rem = divmod(u * u - 1, d)
                if rem == 0 and math.isqrt(vv) ** 2 == vv:
                    return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _trace_power(u: int, k: int) -> int:
    """V_k for V_0 = 2, V_1 = u, V_(j+1) = u V_j - V_(j-1): trace of the k-th power."""
    a, b = 2, u
    for _ in range(k - 1):
        a, b = b, u * b - a
    return b


def norm_one_is_fundamental(D: int, X: int, Y: int) -> bool:
    """Exact minimality of the unit (X + Y sqrt(D))/2 among norm-one units > 1.

    A smaller one, eta with trace u >= 3, would give X = V_k(u) for some
    k >= 2, and then for a prime k too (eta**(k/p) is a p-th root). For
    every prime k with V_k(3) <= X the candidate traces near X**(1/k) are
    tested for u**2 - 4 = D v**2 and V_k(u) = X exactly. The guess is a
    float for small roots and an integer k-th root for large ones.
    """
    if X < 3 or Y < 1 or X * X - D * Y * Y != 4:
        return False
    log_x = math.log(X)
    k, smallest = 1, (2, 3)  # (V_(k-1)(3), V_k(3))
    while True:
        k += 1
        smallest = (smallest[1], 3 * smallest[1] - smallest[0])
        if smallest[1] > X:
            return True
        if not trial_is_prime(k):
            continue
        if log_x / k < 30:
            guess = round(math.exp(log_x / k) + math.exp(-log_x / k))
            candidates = range(max(3, guess - 1), guess + 2)
        else:  # u = floor(lambda) + 1 and X**(1/k) is within 1e-13 of lambda
            root = _iroot(X, k)
            candidates = range(root, root + 3)
        for u in candidates:
            v2, rem = divmod(u * u - 4, D)
            if rem == 0 and math.isqrt(v2) ** 2 == v2 and _trace_power(u, k) == X:
                return False


def brute_norm_one_trace(D: int, bound: int = 10**6):
    """Smallest X >= 3 with X^2 - D Y^2 = 4 solvable, scanning Y upward."""
    for y in range(1, bound):
        t = D * y * y + 4
        s = math.isqrt(t)
        if s * s == t:
            return s
    return None


def norm_one_scan(D: int, limit: int = 10**5):
    """Vectorized variant of brute_norm_one_trace; None if no y <= limit."""
    ys = np.arange(1, limit + 1, dtype=np.int64)
    t = D * ys * ys + 4
    s = np.rint(np.sqrt(t.astype(np.float64))).astype(np.int64)
    hit = (s * s == t) | ((s - 1) * (s - 1) == t) | ((s + 1) * (s + 1) == t)
    idx = np.nonzero(hit)[0]
    if len(idx) == 0:
        return None
    y = int(ys[idx[0]])
    x = math.isqrt(D * y * y + 4)
    assert x * x - D * y * y == 4
    return x


# ---------------------------------------------------------------------------
# pi as an exact rational interval, for coarea cutoffs


@lru_cache(maxsize=None)
def pi_interval(digits: int = 50) -> tuple[Fraction, Fraction]:
    """lo < pi < hi with hi - lo < 10**-digits, by Machin's formula.

    pi = 16 atan(1/5) - 4 atan(1/239), each arctangent an alternating
    series of decreasing terms summed exactly: a partial sum lies within
    the first omitted term of the true value.
    """
    eps = Fraction(1, 100 * 10**digits)

    def atan_inv(x: int) -> tuple[Fraction, Fraction]:
        total, j = Fraction(0), 0
        while True:
            term = Fraction(1, (2 * j + 1) * x ** (2 * j + 1))
            if term < eps:
                return total - term, total + term
            total += -term if j % 2 else term
            j += 1

    lo5, hi5 = atan_inv(5)
    lo239, hi239 = atan_inv(239)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def coarea_cutoff(volume) -> int:
    """Largest integer N with N pi < 3V: coarea N pi/3 < V exactly when prod <= N."""
    lo, hi = pi_interval()
    three_v = 3 * Fraction(volume)
    n = math.ceil(three_v / hi) - 1
    if n != math.ceil(three_v / lo) - 1:
        raise ValueError(f"{volume!r} is undecided with pi to 50 digits")
    return n


def even_subset_products(factors: list[int], limit: int) -> list[int]:
    """Sorted products <= limit of the even-size sub-multisets (empty set included)."""
    factors = sorted(factors)
    found = []

    def walk(start: int, prod: int, size: int) -> None:
        if size % 2 == 0:
            found.append(prod)
        for i in range(start, len(factors)):
            if prod * factors[i] > limit:
                break
            walk(i + 1, prod * factors[i], size + 1)

    walk(0, 1, 0)
    return sorted(found)


# ---------------------------------------------------------------------------
# Dedekind zeta at 2 for real quadratic fields: two independent routes


def zeta_k2_direct(D: int, terms: int = 10**7) -> float:
    """zeta(2) * L(2, chi_D) by direct summation in natural order.

    Character partial sums are bounded by |D|, so the tail after N terms
    is below 2 |D| / N^2: far inside 1e-10 at the default N.
    """
    chi = chi_table(D)
    total = 0.0
    chunk = 10**6
    for lo in range(1, terms + 1, chunk):
        ns = np.arange(lo, min(lo + chunk, terms + 1), dtype=np.int64)
        total += float(np.sum(chi[ns % D] / (ns.astype(np.float64) ** 2)))
    return (math.pi**2 / 6.0) * total


def zeta_k2_euler(D: int, plimit: int = 3 * 10**7) -> float:
    """zeta(2) * L(2, chi_D) via the Euler product over p <= plimit."""
    chi = chi_table(D)
    ps = sieve_upto(plimit)
    vals = chi[ps % D].astype(np.float64)
    logs = -np.log1p(-vals / ps.astype(np.float64) ** 2)
    return (math.pi**2 / 6.0) * math.exp(float(np.sum(logs)))


def zeta_k2_cubic7_direct(terms: int = 2 * 10**6) -> float:
    """zeta_k(2) = zeta(2) * |L(2, chi)|**2 for the cubic field k of discriminant 49.

    k is the real cubic subfield of Q(zeta_7), and chi a cubic character mod 7:
    chi(3**j mod 7) = exp(2 pi i j / 3), since 3 generates (Z/7)*. L(2, chi) is
    summed directly in natural order, and L(2, conj chi) is its conjugate. The
    partial sums of chi have modulus at most 1, so the tail of L after N terms
    is below 2 / N**2 and the result is within 4 * zeta(2)**2 / N**2 of zeta_k(2).
    """
    chi = np.zeros(7, dtype=np.complex128)
    for j in range(6):
        chi[pow(3, j, 7)] = np.exp(2j * np.pi * j / 3)
    total = 0j
    chunk = 10**6
    for lo in range(1, terms + 1, chunk):
        ns = np.arange(lo, min(lo + chunk, terms + 1), dtype=np.int64)
        total += complex(np.sum(chi[ns % 7] / (ns.astype(np.float64) ** 2)))
    return (math.pi**2 / 6.0) * abs(total) ** 2


def zeta_k_minus1_bernoulli(D: int) -> Fraction:
    """zeta_k(-1) = zeta(-1) * L(-1, chi_D) = B_{2,chi}/24, in exact integers.

    B_{2,chi} = D * sum_{a<=D} chi(a) * B_2(a/D) with B_2(x) = x**2 - x + 1/6,
    and the constant term drops out because chi sums to 0 over a period.
    """
    chi = chi_table(D).tolist()
    s2 = sum(chi[a % D] * a * a for a in range(1, D + 1))
    s1 = sum(chi[a % D] * a for a in range(1, D + 1))
    return (Fraction(s2, D) - s1) / 24


# ---------------------------------------------------------------------------
# even-subset census by direct enumeration


def even_subset_count(factors: list[int], bound: float) -> int:
    """Even-size subsets of the multiset with product strictly below bound.

    Plain meet-in-the-middle-free enumeration; only usable for small pools.
    """
    n = len(factors)
    count = 0
    for mask in range(1 << n):
        if bin(mask).count("1") % 2:
            continue
        prod = 1
        for i in range(n):
            if mask >> i & 1:
                prod *= factors[i]
        if prod < bound:
            count += 1
    return count


# ---------------------------------------------------------------------------
# GF(2) solve by Gauss-Jordan elimination


def _gf2_insert(basis: list[list[int]], row: int, tag: int) -> tuple[int, int]:
    """Reduce (row, tag) against basis rows by their pivot (lowest) bits."""
    for r, t in basis:
        if row & (r & -r):
            row ^= r
            tag ^= t
    return row, tag


def gf2_solve_gauss_jordan(rows: list[int], rhs: list[int]) -> int | None:
    """One solution x of row . x = rhs over GF(2) with every free coordinate 0, or None.

    Keeps the basis fully reduced, so x is read off the pivots directly.
    This is the package's earlier `gf2.solve`, kept as the reference for the
    solution the finiteness verdict's sign witness is built from.
    """
    basis: list[list[int]] = []
    for row, b in zip(rows, rhs):
        row, b = _gf2_insert(basis, row, b & 1)
        if not row:
            if b:
                return None
            continue
        piv = row & -row
        for ent in basis:
            if ent[0] & piv:
                ent[0] ^= row
                ent[1] ^= b
        basis.append([row, b])
    x = 0
    for row, b in basis:
        if b:
            x |= row & -row
    return x
