"""Quaternion algebras over Q as ramification sets.

An algebra class is pinned down by the finite set of places where it
ramifies (even cardinality, by reciprocity). Local behavior at a prime is
computed with Hilbert symbols. The coarea of the unit group of a maximal
order in the indefinite case is an exact rational multiple of pi, in every
degree of the totally real base field k, since zeta_k(-1) is rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import _check_disc, _check_integer, _integer, factorize, is_prime, kronecker
from .errors import DomainError, SearchExhaustedError
from .quadratic import QuadField, SplitType, order_from_disc, splitting

__all__ = [
    "INFINITE_PLACE",
    "PiMultiple",
    "RamSet",
    "AlgebraClass",
    "hilbert_local",
    "from_hilbert",
    "admits_embedding",
    "coarea_rational",
    "coarea_general",
    "algebra_class",
    "zeta_k_minus1",
]

INFINITE_PLACE = math.inf
ZETA_DISC_BOUND = 10**10


@dataclass(frozen=True, order=True, slots=True)
class PiMultiple:
    """Exact rational multiple of pi, with a float rendering."""

    coef: Fraction

    @property
    def value(self) -> float:
        return float(self.coef) * math.pi

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        n, d = self.coef.numerator, self.coef.denominator
        head = "pi" if n == 1 else f"{n}*pi"
        return head if d == 1 else f"{head}/{d}"


@dataclass(frozen=True, slots=True)
class RamSet:
    """Ramification set: sorted finite primes plus an infinite-place flag.

    The public constructor sorts and deduplicates the entries, proves each
    prime and requires an even total cardinality.
    """

    finite_primes: tuple[int, ...] = ()
    at_infinity: bool = False

    def __post_init__(self):
        primes = tuple(sorted(set(self.finite_primes)))
        for p in primes:
            if _integer(p) is None or not is_prime(int(p)):
                raise DomainError(f"ramification set entry {p} is not prime")
        primes = tuple(map(int, primes))
        if (len(primes) + (1 if self.at_infinity else 0)) % 2:
            raise DomainError(
                f"ramification set {primes} (infinity={self.at_infinity}) has odd cardinality"
            )
        object.__setattr__(self, "finite_primes", primes)

    @property
    def is_division(self) -> bool:
        return bool(self.finite_primes) or self.at_infinity

    def __str__(self) -> str:
        names = [str(p) for p in self.finite_primes]
        if self.at_infinity:
            names.append("inf")
        return "{" + ",".join(names) + "}"


@dataclass(frozen=True, slots=True)
class AlgebraClass:
    """Isomorphism class of a quaternion algebra: its ramification set."""

    ram: RamSet

    @property
    def is_division(self) -> bool:
        return self.ram.is_division

    @property
    def coarea(self) -> PiMultiple | None:
        """Exact coarea; None for a definite algebra, which has no Fuchsian group."""
        return None if self.ram.at_infinity else coarea_rational(self.ram)


def _unchecked_class(primes: tuple[int, ...], ram_set=RamSet, algebra=AlgebraClass) -> AlgebraClass:
    """The class ramified at primes, built with none of RamSet's checks: primes must be
    ascending, distinct, proven prime and even in number, as a census listing's are.
    The classes are default arguments, bound when this is defined, so a wrapper rebound
    to the name RamSet (as the benchmark tracer does) cannot reach in.
    """
    ram = object.__new__(ram_set)
    object.__setattr__(ram, "finite_primes", primes)
    object.__setattr__(ram, "at_infinity", False)
    return algebra(ram)


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    """n = p**v * u with p not dividing u; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_local(a: int, b: int, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or at INFINITE_PLACE.

    +1 when a*x**2 + b*y**2 = z**2 has a nontrivial solution in the local
    field, -1 otherwise.
    """
    a, b = _integer(a), _integer(b)
    if not a or not b:
        raise DomainError("Hilbert symbol needs nonzero integers a, b")
    if place == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = _integer(place)
    if p is None or not is_prime(p):
        raise DomainError(f"{place} is not a prime or the infinite place")
    return _hilbert_at(a, b, p)


def _hilbert_at(a: int, b: int, p: int) -> int:
    """hilbert_local at a prime p, for nonzero ints a, b; none of them is checked."""
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    if p == 2:
        # unit square classes mod 8 decide everything at 2
        eps_u = (u - 1) // 2 % 2
        eps_v = (v - 1) // 2 % 2
        omega_u = (u * u - 1) // 8 % 2
        omega_v = (v * v - 1) // 8 % 2
        exp = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exp % 2 else 1
    sym = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sym = -sym
    if beta % 2:
        sym *= kronecker(u, p)
    if alpha % 2:
        sym *= kronecker(v, p)
    return sym


def from_hilbert(a: int, b: int) -> RamSet:
    """Ramification set of the quaternion algebra (a, b) over Q.

    Only 2, primes dividing a*b, and the infinite place can ramify.
    """
    a, b = _integer(a), _integer(b)
    if not a or not b:
        raise DomainError("need nonzero integers a, b")
    candidates = {2}
    candidates.update(factorize(a).primes())
    candidates.update(factorize(b).primes())
    ram = [p for p in sorted(candidates) if _hilbert_at(a, b, p) == -1]
    return RamSet(tuple(ram), at_infinity=(a < 0 and b < 0))


def admits_embedding(b: RamSet, L: QuadField) -> bool:
    """Whether the field L embeds into the algebra with ramification set b.

    Fails iff some ramified place splits in L; for real quadratic L the
    real place always splits, so a definite algebra never works.
    """
    if b.at_infinity:
        return False
    return all(splitting(L, p) is not SplitType.SPLIT for p in b.finite_primes)


def coarea_rational(b: RamSet) -> PiMultiple:
    """Coarea pi/3 * prod(p - 1) over Q: coarea_general's degree 1, zeta(-1) = -1/12.

    Only indefinite algebras give Fuchsian groups; at_infinity is rejected.
    The primes of a RamSet are proven already, so they are not checked again.
    """
    if b.at_infinity:
        raise DomainError("definite algebra: no Fuchsian group, no coarea")
    return _coarea(1, Fraction(-1, 12), math.prod(p - 1 for p in b.finite_primes))


def algebra_class(b: RamSet) -> AlgebraClass:
    """Algebra class of a ramification set; is_division and coarea derive from it."""
    return AlgebraClass(b)


def coarea_general(n_k: int, zeta_minus1: int | Fraction, prime_norms) -> PiMultiple:
    """Coarea 2**(3 - n_k) * pi * |zeta_k(-1)| * prod(N(p) - 1) over a totally real k of degree n_k.

    Borel's 8 * pi * d_k**(3/2) * zeta_k(2) * prod(N(p) - 1) / (4 * pi**2)**n_k, through
    d_k**(3/2) * zeta_k(2) = (2 * pi**2)**n_k * |zeta_k(-1)| (Borel, Ann. Sc. Norm. Sup. Pisa 8,
    1981; Maclachlan-Reid, GTM 219, 11.1). zeta_k(-1) is rational (Siegel-Klingen), nonzero
    with the sign (-1)**n_k. The norms run over the finite ramified primes.
    """
    n_k = _check_integer(n_k, "degree")
    if n_k < 1:
        raise DomainError(f"need degree >= 1, got {n_k}")
    if not isinstance(zeta_minus1, (int, Fraction)):
        raise DomainError(f"zeta_k(-1) = {zeta_minus1!r} is not an int or a Fraction")
    if zeta_minus1 == 0 or (zeta_minus1 < 0) != (n_k % 2 == 1):
        raise DomainError(
            f"zeta_k(-1) of a totally real field of degree {n_k} is nonzero"
            f" with the sign (-1)**{n_k}, got {zeta_minus1}"
        )
    prod = 1
    for norm in prime_norms:
        nm = _integer(norm)
        if nm is None or nm < 2 or len(factorize(nm).factors) != 1:
            raise DomainError(f"prime norm {norm} is not a prime power")
        prod *= nm - 1
    return _coarea(n_k, zeta_minus1, prod)


def _coarea(n_k: int, zeta_minus1: int | Fraction, prod: int) -> PiMultiple:
    """coarea_general past its checks; DomainError unless coef * pi is a finite float > 0."""
    num, den, shift = abs(zeta_minus1.numerator) * prod, zeta_minus1.denominator, n_k - 3
    # coef = num / (den * 2**shift) is within a factor 2 of 2**e: past |e| = 1100 it is
    # far outside the float range, and 2**shift is never built
    e = num.bit_length() - den.bit_length() - shift
    if abs(e) < 1100:
        coef = Fraction(num, den << shift) if shift >= 0 else Fraction(num << -shift, den)
        try:
            value = float(coef) * math.pi
        except OverflowError:
            value = math.inf
        if 0 < value < math.inf:
            return PiMultiple(coef)
    raise DomainError("coarea is past the float range")


def zeta_k_minus1(D: int) -> Fraction:
    """Exact zeta_k(-1) for the real quadratic field of fundamental discriminant D.

    60 * zeta_k(-1) = sum of sigma_1((D - b**2) / 4) over b = D (mod 2), b**2 < D
    (Cohen, Math. Ann. 217, 1975; Zagier, Enseign. Math. 22, 1976). For D < 4 * 10**12
    each argument is below 10**12, so trial division alone factors it: no FactorBudgetError.
    Past ZETA_DISC_BOUND (the sum takes about 4 s there) it raises SearchExhaustedError up front.
    """
    n = _integer(D)
    if n is not None and n > ZETA_DISC_BOUND:
        raise SearchExhaustedError(f"disc {n} is past the zeta_k(-1) budget", ZETA_DISC_BOUND)
    D = _check_disc(D)
    if order_from_disc(D).conductor != 1:
        raise DomainError(f"{D} is not a real quadratic fundamental discriminant")
    sigma = [
        math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize((D - b * b) // 4).factors)
        for b in range(D % 2, math.isqrt(D - 1) + 1, 2)
    ]
    # b and -b give equal terms; b = 0, for even D, counts once
    return Fraction(2 * sum(sigma) - (1 - D % 2) * sigma[0], 60)
