"""Census of commensurability classes with prescribed geodesic lengths.

Given the embedding fields of a spectrum, the quaternion algebras that can
contain all of them are exactly those ramified inside the set of primes
that split in none of the fields. Whether that set is finite is a GF(2)
linear-algebra question on discriminant characters; when finite with m
nonsplit primes there are exactly 2**(m-1) classes (even subsets), all but
the empty one division algebras.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from . import gf2
from .arith import _SEGMENT, _check_integer, character_table, factorize, kronecker, prime_segments
from .errors import DomainError, SearchExhaustedError
from .quadratic import QuadField, QuadOrder, SplitType, field_from_d, prime_disc_vector, splitting
from .quaternion import AlgebraClass, RamSet, _trusted_classes
from .spectra import SpectrumSpec

__all__ = [
    "FinitenessVerdict",
    "CensusReport",
    "IntervalReport",
    "FamilyResult",
    "SelectivityVerdict",
    "ChebotarevReport",
    "InfiniteCensusError",
    "nonsplit_is_finite",
    "nonsplit_primes",
    "count_algebras",
    "pi_of_V",
    "short_interval_delta",
    "construct_family",
    "selectivity_check",
    "verify_chebotarev_interval",
]

# Most classes a listing builds. A listing peaks near 250 bytes of RSS per class
# (pi_of_V, trace 4 at V = 1e7: 1,403,587 classes, 362 MB; count_algebras on 20
# nonsplit primes: 2**19 classes, 163 MB), so about 0.5 GB at the budget.
CLASS_BUDGET = 1 << 21

# Most numbers one call sieves for inert primes. Trace 4's pool, the densest (half
# the primes), peaks near 1.2 bytes of RSS per number sieved (short_interval_delta
# at V = 3.8e8, W = 3.8e7: 399,160,597 numbers, 520 MB), so about 0.5 GB at the budget.
SIEVE_BUDGET = 4 * 10**8

# Default bound on construct_family's generating primes and fourth-field radicand.
FAMILY_SEARCH_BOUND = 10**6


class InfiniteCensusError(DomainError):
    """Raised when a total census is requested but the nonsplit set is infinite."""

    def __init__(self, message: str, verdict: "FinitenessVerdict"):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class FinitenessVerdict:
    """Outcome of the finiteness test, with a checkable witness either way.

    finite: square_witness is a tuple of field indices, odd in number, whose
    discriminant product is a perfect square. infinite: sign_witness assigns
    +-1 to each prime discriminant so that every field's character comes out
    -1; primes realizing the assignment are nonsplit in every field.
    """

    finite: bool
    square_witness: tuple[int, ...] | None = None
    sign_witness: dict[int, int] | None = None


def _character_generators(prime_disc: int) -> tuple[int, ...]:
    # chi(-8) = chi(-4) * chi(8): only two of the three 2-adic prime
    # discriminants are independent as characters
    if prime_disc == -8:
        return (-4, 8)
    return (prime_disc,)


class _System(NamedTuple):
    """A field system and its discriminant characters, derived once per call."""

    fields: tuple[QuadField, ...]
    prime_discs: list[frozenset[int]]  # prime_disc_vector of each field
    vecs: list[int]  # F2 character vector of each field over the generator columns
    cols: dict[int, int]  # generator -> column
    rank: int
    square_witness: tuple[int, ...] | None  # fields of the first odd kernel relation
    ramified: list[int]  # primes dividing some disc, ascending

    @property
    def finite(self) -> bool:
        return self.square_witness is not None


def _system(fields) -> _System:
    """Validate the fields; factor each disc once and eliminate over GF(2) once.

    The rank is s minus the kernel dimension, and the ramified primes are
    read off the generator columns: |q| for odd q, 2 for -4 and 8.
    """
    fields = tuple(fields)
    if not fields:
        raise DomainError("need at least one field")
    if len(set(fields)) != len(fields):
        raise DomainError("fields must be pairwise distinct")
    pds = [prime_disc_vector(fld) for fld in fields]
    cols: dict[int, int] = {}
    vecs = []
    for field_pds in pds:
        v = 0
        for pd in field_pds:
            for gen in _character_generators(pd):
                v ^= 1 << cols.setdefault(gen, len(cols))
        vecs.append(v)
    kernel = gf2.left_kernel(vecs)
    odd = next((combo for combo in kernel if combo.bit_count() % 2), 0)
    witness = tuple(i for i in range(len(fields)) if odd >> i & 1) or None
    ramified = sorted({abs(gen) if gen % 2 else 2 for gen in cols})
    return _System(fields, pds, vecs, cols, len(fields) - len(kernel), witness, ramified)


def nonsplit_is_finite(fields) -> FinitenessVerdict:
    """Decide whether only finitely many primes split in none of the fields.

    Finite exactly when some odd-sized subset of the fields has a square
    discriminant product (their characters multiply to the trivial one, so
    a prime inert everywhere would have to satisfy (-1)**odd = +1).
    """
    return _verdict(_system(fields))


def _verdict(system: _System) -> FinitenessVerdict:
    if system.finite:
        return FinitenessVerdict(finite=True, square_witness=system.square_witness)
    x = gf2.solve(system.vecs, [1] * len(system.vecs))
    if x is None:
        raise RuntimeError("no odd kernel relation yet all-ones system insolvable")
    sign_of_gen = {gen: -1 if x >> bit & 1 else 1 for gen, bit in system.cols.items()}
    witness = {
        pd: math.prod(sign_of_gen[gen] for gen in _character_generators(pd))
        for pds in system.prime_discs
        for pd in pds
    }
    return FinitenessVerdict(finite=False, sign_witness=witness)


def nonsplit_primes(fields) -> tuple[int, ...]:
    """The finite set of primes splitting in none of the fields.

    Only primes ramified in at least one field can qualify: any prime
    unramified everywhere and inert everywhere would contradict the finite
    verdict. Rejects field systems with an infinite nonsplit set.
    """
    system = _system(fields)
    return _nonsplit_primes(system, _verdict(system))


def _nonsplit_primes(system: _System, verdict: FinitenessVerdict) -> tuple[int, ...]:
    if not verdict.finite:
        raise InfiniteCensusError("infinitely many primes are nonsplit in every field", verdict)
    return tuple(_ramified_nonsplit(system))


def _ramified_nonsplit(system: _System) -> list[int]:
    """The ramified primes splitting in none of the fields, ascending."""
    return [
        p for p in system.ramified
        if all(splitting(fld, p) is not SplitType.SPLIT for fld in system.fields)
    ]


@dataclass(frozen=True)
class CensusReport:
    """Complete census over a field system with finite nonsplit set."""

    fields: tuple[QuadField, ...]
    verdict: FinitenessVerdict
    nonsplit: tuple[int, ...]
    classes: tuple[AlgebraClass, ...]
    count_total: int

    @property
    def count_division(self) -> int:
        """All classes but the matrix algebra (empty ramification set) are division."""
        return self.count_total - 1

    @property
    def eventual_pi(self) -> int:
        """pi(V) for V past every coarea: the whole finite census."""
        return self.count_total


def count_algebras(fields) -> CensusReport:
    """All commensurability classes admitting every field, with coareas.

    The classes are the even subsets of the nonsplit prime set, so the
    total is 2**(m-1) for m >= 1 nonsplit primes (1 when m = 0: only the
    matrix algebra), and all but the empty set are division algebras.
    Past CLASS_BUDGET classes it raises SearchExhaustedError instead.
    """
    system = _system(fields)
    verdict = _verdict(system)
    s0 = _nonsplit_primes(system, verdict)
    fac = [p - 1 for p in s0]
    classes = _classes(fac, math.prod(fac), 2 ** (len(s0) - 1) if s0 else 1)
    return CensusReport(
        fields=system.fields,
        verdict=verdict,
        nonsplit=s0,
        classes=tuple(classes),
        count_total=len(classes),
    )


def _inert_mask(ps: np.ndarray, chars) -> np.ndarray:
    """Mask of the numbers in ps at which every character is -1; a None table calls kronecker."""
    keep = np.ones(len(ps), dtype=bool)
    for disc, table in chars:
        if table is None:
            vals = np.fromiter((kronecker(disc, int(p)) for p in ps), np.int8, len(ps))
        else:
            vals = table[ps % disc]
        keep &= vals < 0
    return keep


def _inert_blocks(system: _System, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Blocks of the primes in [lo, hi] inert in every field, each ascending.

    Those primes lie in the unit classes mod M = lcm(discs) at which every
    character is -1: R = phi(M)/2**rank of them for an infinite nonsplit
    set, none for a finite one. Sieving only those progressions takes R
    passes per M * 2**19 numbers; the plain sieve and a character filter
    take one pass per 2**19. Route to whichever makes fewer passes,
    deciding before anything M long exists. Past SIEVE_BUDGET numbers it
    raises SearchExhaustedError before sieving any.
    """
    if system.finite:
        return
    span = hi - lo + 1
    if span > SIEVE_BUDGET:
        raise SearchExhaustedError(
            f"sieving {span} numbers is past the budget of {SIEVE_BUDGET}", bound=SIEVE_BUDGET
        )
    discs = [fld.disc for fld in system.fields]
    modulus = math.lcm(*discs)
    units = modulus
    for p in system.ramified:
        units = units // p * (p - 1)
    classes = units >> system.rank
    passes = classes * -(-span // (modulus * _SEGMENT))
    plain = passes > -(-span // _SEGMENT)
    # A table costs one kronecker call per residue: the filter builds one only
    # if it holds no more residues than there are numbers to classify.
    table_max = min(1 << 20, span) if plain else 1 << 20
    chars = [(disc, character_table(disc) if disc <= table_max else None) for disc in discs]
    if plain:
        for ps in prime_segments(lo, hi):
            yield ps[_inert_mask(ps, chars)]
        return
    residues = np.flatnonzero(_inert_mask(np.arange(modulus), chars)).tolist()
    yield from prime_segments(lo, hi, modulus, residues)


def _nonsplit_pool(system: _System, pmax: int) -> np.ndarray:
    """Primes p <= pmax splitting in none of the fields, ascending.

    The unramified ones are inert in every field; the ramified ones are sorted in.
    """
    ramified = np.array([p for p in _ramified_nonsplit(system) if p <= pmax], dtype=np.int64)
    blocks = _inert_blocks(system, 2, pmax)
    return np.sort(np.concatenate([ramified, *blocks]), kind="stable")


def _pi_within(bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < pi < hi from Euler's pi = 4 atan(1/2) + 4 atan(1/3).

    Summed in units of 2**-bits: each truncated term, and each alternating
    tail left off, is off by less than one unit.
    """
    one = 1 << bits
    total, slack = 0, 2
    for x in (2, 3):
        power, k = one // x, 1
        while power:
            total += (-1) ** (k // 2) * (power // k)
            power //= x * x
            k += 2
            slack += 1
    return Fraction(4 * (total - slack), one), Fraction(4 * (total + slack), one)


def _cutoff(volume: float | Fraction) -> int:
    """Largest integer N < 3V/pi: coarea pi/3 * prod(p - 1) < V iff prod(p - 1) <= N.

    Decided exactly for a rational V > 0: 3V/pi is irrational, so a fine
    enough enclosure of pi puts both ends in the same integer step.
    """
    three_v = 3 * Fraction(volume)
    bits = 64
    while True:
        lo, hi = _pi_within(bits)
        n = math.ceil(three_v / hi) - 1
        if n == math.ceil(three_v / lo) - 1:
            return n
        bits *= 2


def _ram_factors(system: _System, top: int) -> list[int]:
    """Ascending factors p - 1 of the primes a class within cutoff top may ramify at."""
    return (_nonsplit_pool(system, max(top + 1, 2)) - 1).tolist()


def _odd_nodes(fac: list[int], top: int):
    """Odd-size sets S of factors with an even child S + {j} within the cutoff.

    Yields (start, prod(S), indices of S); the children are the j >= start
    with fac[j] <= top // prod(S). Walks an explicit stack of even sets (a
    recursive closure would leave reference cycles behind), stacking one
    only if some odd child of it has an even child in turn.
    """
    n = len(fac)
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 1, ())]
    while stack:
        start, prod, even = stack.pop()
        for k in range(start, n - 1):
            odd = prod * fac[k]
            if odd * fac[k + 1] > top:
                break
            chosen = even + (k,)
            yield k + 1, odd, chosen
            for j in range(k + 1, n - 2):
                nxt = odd * fac[j]
                if nxt * fac[j + 1] * fac[j + 2] > top:
                    break
                stack.append((j + 1, nxt, chosen + (j,)))


def _count_even_ram_sets(fac: list[int], cutoffs: list[int]) -> list[int]:
    """Number of even subsets R of the factors with prod(R) <= N, per cutoff N.

    The integer cutoffs ascend and share one traversal. The last level is
    never visited: an odd set's even children within N are counted at once
    by bisection, as in Deleglise-Rivat prime counting. The empty set counts
    for every N >= 1.
    """
    counts = [int(c >= 1) for c in cutoffs]
    for start, prod, _ in _odd_nodes(fac, cutoffs[-1]):
        for i, c in enumerate(cutoffs):
            counts[i] += bisect_right(fac, c // prod, start) - start
    return counts


def _even_ram_sets(fac: list[int], top: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every even set R of the primes with prod(p - 1) <= top, as (prod, R)."""
    primes = [f + 1 for f in fac]
    found = [(1, ())] if top >= 1 else []
    for start, prod, chosen in _odd_nodes(fac, top):
        head = tuple(primes[i] for i in chosen)
        for j in range(start, bisect_right(fac, top // prod, start)):
            found.append((prod * fac[j], head + (primes[j],)))
    return found


def _classes(fac: list[int], top: int, count: int) -> list[AlgebraClass]:
    """The count classes of the even sets R with prod(p - 1) <= top, by ascending coarea.

    Past CLASS_BUDGET classes it raises SearchExhaustedError before building any.
    fac ascends and each p was proven prime by the sieve or factorize: R needs no checks.
    The walk, the sort and the build make a few collector-tracked objects per class
    and no reference cycle, so the cyclic collector is paused for them: its passes
    would rescan the growing heap and free nothing. The pause is process-wide
    while it lasts; the collector is turned back on only if it was on at entry.
    """
    if count > CLASS_BUDGET:
        raise SearchExhaustedError(
            f"{count} classes is past the budget of {CLASS_BUDGET}", bound=CLASS_BUDGET
        )
    enabled = gc.isenabled()
    gc.disable()
    try:
        classes = _trusted_classes([ram for _, ram in sorted(_even_ram_sets(fac, top))])
    finally:
        if enabled:
            gc.enable()
    if len(classes) != count:
        raise RuntimeError("even-subset count mismatch")
    return classes


def pi_of_V(spec: SpectrumSpec, volume: float) -> tuple[int, list[AlgebraClass]]:
    """Number of classes of coarea strictly below `volume` containing the spectrum.

    Works for both verdicts: with an infinite nonsplit set the prime pool
    is cut off below 1 + 3V/pi, which no admissible ramified prime can
    reach. Returns the count and the classes sorted by coarea. The classes
    are counted first: past CLASS_BUDGET it raises SearchExhaustedError.
    """
    if not volume > 0:
        raise DomainError(f"volume bound must be positive, got {volume}")
    if not math.isfinite(volume):
        raise DomainError(f"volume bound must be finite, got {volume}")
    system = _system(spec.fields())
    top = _cutoff(volume)
    fac = _ram_factors(system, top)
    classes = _classes(fac, top, _count_even_ram_sets(fac, [top])[0])
    return len(classes), classes


@dataclass(frozen=True)
class IntervalReport:
    """Growth of the census count across (V, V + W]."""

    traces: tuple[int, ...]
    volume: float
    window: float
    count_at_v: int
    count_at_v_plus_w: int
    delta: int
    bound: float

    @property
    def meets_bound(self) -> bool:
        return self.delta >= self.bound


def short_interval_delta(spec: SpectrumSpec, volume: float, window: float) -> IntervalReport:
    """Census growth pi(V+W) - pi(V) against the density floor W/(2**r * ln V).

    r is the number of prescribed geodesic classes. Requires 0 < W < V, V finite and not 1.
    Counts without enumerating: one finiteness verdict, one prime pool up
    to the V + W cutoff, and one traversal that counts both exact integer
    cutoffs, each odd-size set's even children counted in bulk.
    """
    if not volume > 0 or not window > 0:
        raise DomainError("need positive volume and window")
    if window >= volume:
        raise DomainError(f"window {window} must be smaller than volume {volume}")
    if not math.isfinite(volume) or volume == 1:
        raise DomainError(f"need a finite volume other than 1 (ln V = 0), got {volume}")
    system = _system(spec.fields())
    r = len(spec.classes)
    cutoffs = [_cutoff(volume), _cutoff(Fraction(volume) + Fraction(window))]
    c_lo, c_hi = _count_even_ram_sets(_ram_factors(system, cutoffs[-1]), cutoffs)
    bound = window / (2**r * math.log(volume))
    return IntervalReport(
        traces=spec.traces(),
        volume=volume,
        window=window,
        count_at_v=c_lo,
        count_at_v_plus_w=c_hi,
        delta=c_hi - c_lo,
        bound=bound,
    )


@dataclass(frozen=True)
class FamilyResult:
    """A four-field system whose census count is exactly 2**n."""

    n: int
    primes: tuple[int, ...]
    d4: int
    fields: tuple[QuadField, ...]
    census: CensusReport


def construct_family(n: int, search_bound: int = FAMILY_SEARCH_BOUND) -> FamilyResult:
    """Build four real quadratic fields forcing eventual_pi = 2**n.

    Take the smallest prime p1 = 1 mod 8, then the m-1 smallest further
    primes = 1 mod 8 in which Q(sqrt(p1)) is inert (m = n + 2). The fields
    Q(sqrt(p1)), Q(sqrt(p1...pm)), Q(sqrt(p2...pm)) leave {p1, ..., pm}
    nonsplit; a fourth field chosen with p1 split and the others inert
    trims the set to {p2, ..., pm}. All searches are smallest-first, so
    the family is deterministic.
    """
    n, search_bound = _check_integer(n, "n"), _check_integer(search_bound, "search_bound")
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if search_bound < 2:
        raise DomainError(f"need search_bound >= 2, got {search_bound}")
    m = n + 2
    primes: list[int] = []
    blocks = prime_segments(2, search_bound, 8, (1,))
    for p in (p for block in blocks for p in block.tolist()):
        if not primes or kronecker(primes[0], p) == -1:
            primes.append(p)
            if len(primes) == m:
                break
    if len(primes) < m:
        raise SearchExhaustedError(
            f"found only {len(primes)} of {m} generating primes below {search_bound}",
            bound=search_bound,
        )
    p1 = primes[0]
    d2 = math.prod(primes)
    d3 = math.prod(primes[1:])
    l1, l2, l3 = field_from_d(p1), field_from_d(d2), field_from_d(d3)
    l4 = None
    rest = primes[1:]
    for d in range(2, search_bound + 1):
        # (d|p) = (disc|p) at these odd primes. The first d to pass is
        # squarefree: d = s*f**2 passes only if its squarefree part s < d does.
        if kronecker(d, p1) == 1 and all(kronecker(d, p) == -1 for p in rest):
            l4 = field_from_d(d)
            break
    if l4 is None:
        raise SearchExhaustedError(
            f"no fourth field with the required splitting below {search_bound}",
            bound=search_bound,
        )
    fields = (l1, l2, l3, l4)
    census = count_algebras(fields)
    if census.eventual_pi != 2**n or set(census.nonsplit) != set(rest):
        raise RuntimeError(
            f"family construction for n={n} produced census {census.nonsplit} "
            f"with count {census.count_total}"
        )
    return FamilyResult(n=n, primes=tuple(primes), d4=l4.d, fields=fields, census=census)


@dataclass(frozen=True)
class SelectivityVerdict:
    """Condition-by-condition selectivity report; never selective over Q."""

    selective_possible = False
    condition1 = True
    condition2 = False
    condition3: bool
    certificate_prime: int
    conductor_primes: tuple[tuple[int, SplitType], ...]


def selectivity_check(b: RamSet, order: QuadOrder) -> SelectivityVerdict:
    """Check the three selectivity conditions for (algebra, quadratic order).

    Over Q condition (2) always fails: the field discriminant exceeds 1, so
    some finite prime ramifies in the field (the certificate). Condition (3)
    is reported for transparency: the primes dividing the conductor, each of
    which would have to split. Condition (1) holds structurally for every
    real quadratic order.
    """
    if b.at_infinity:
        raise DomainError("selectivity concerns indefinite algebras only")
    fld = order.field
    certificate = min(factorize(fld.disc).primes())
    cond_primes = tuple(
        (p, splitting(fld, p)) for p in factorize(order.conductor).primes()
    )
    condition3 = all(s is SplitType.SPLIT for _, s in cond_primes)
    return SelectivityVerdict(
        condition3=condition3,
        certificate_prime=certificate,
        conductor_primes=cond_primes,
    )


@dataclass(frozen=True)
class ChebotarevReport:
    """Observed vs predicted count of primes inert in every field on [X, X+Y]."""

    fields: tuple[QuadField, ...]
    x: int
    y: int
    actual: int
    predicted: float
    ratio: float
    density: float


def verify_chebotarev_interval(fields, x: int, y: int) -> ChebotarevReport:
    """Compare the inert-in-all count on [X, X+Y] with (1/2**s) * Y / ln X.

    Requires independent discriminant characters (a dependent or finite
    system has the wrong density and is rejected) and X >= 1000, 0 < Y <= X.
    """
    x, y = _check_integer(x, "X"), _check_integer(y, "Y")
    if x < 1000:
        raise DomainError(f"need X >= 1000, got {x}")
    if not 0 < y <= x:
        raise DomainError(f"need 0 < Y <= X, got Y={y}")
    system = _system(fields)
    s = len(system.fields)
    if system.finite:
        raise DomainError("nonsplit set is finite for these fields; no inert density to verify")
    if system.rank != s:
        raise DomainError("discriminant characters are dependent; the inert density is not 1/2**s")
    actual = sum(len(ps) for ps in _inert_blocks(system, x, x + y))
    predicted = y / (2**s * math.log(x))
    return ChebotarevReport(
        fields=system.fields,
        x=x,
        y=y,
        actual=actual,
        predicted=predicted,
        ratio=actual / predicted,
        density=1.0 / 2**s,
    )
