"""Census of commensurability classes with prescribed geodesic lengths.

Given the embedding fields of a spectrum, the quaternion algebras that can
contain all of them are exactly those ramified inside the set of primes
that split in none of the fields. Whether that set is finite is a GF(2)
linear-algebra question on discriminant characters; when finite with m
nonsplit primes there are exactly 2**(m-1) classes (even subsets), all but
the empty one division algebras.

A listing is a ClassTable: the pool's primes and, for each even set by coarea, its
odd node of the walk and last index. It holds no class object; each class is built
when it is read.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from . import gf2
from .arith import (
    _SEGMENT, _check_integer, _check_progressions, factorize, is_prime, kronecker, prime_count,
    prime_segments,
)
from .errors import DomainError, SearchExhaustedError
from .quadratic import QuadField, QuadOrder, SplitType, field_from_d, prime_disc_vector, splitting
from .quaternion import AlgebraClass, RamSet, _unchecked_class
from .spectra import SpectrumSpec

__all__ = [
    "FinitenessVerdict",
    "CensusReport",
    "ClassTable",
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

# Most classes a listing sorts, so most odd sets a walk holds (each has an even child); a finite
# census whose 2**(m-1) classes all lie within the cutoff is refused on that size before any
# walk. A ClassTable holds a node and a last index per class: pi_of_V peaks near 40 bytes of RSS
# a class (commcensus pi --traces 4 --volume 1.5e7: 2,078,722 classes, 110 MB with the interpreter),
# under 200 MB at the budget; a finite count's Python-int coareas take more (22 primes: 419 MB).
CLASS_BUDGET = 1 << 21

# Most numbers one call sieves for inert primes, and most base numbers up to sqrt(hi) it
# sieves them with, so a Chebotarev X + Y is accepted up to about 1.6e17. Trace 4's pool,
# the densest (half the primes), stays in its sieved blocks, never merged, so a count peaks
# near 0.3 bytes of RSS per number sieved (commcensus interval --traces 4 --V 3.8e8 --W
# 3.8e7: 399,160,597 numbers, 121 MB, the interpreter included), so under 130 MB at the
# budget. A Chebotarev count holds one pass's mask, never its primes (--radicands 3,17
# --X 1e9 --Y 399999999: 34 MB).
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
    return _finite(_system(fields))


def _finite(system: _System) -> tuple[int, ...]:
    """The nonsplit primes of a finite system; InfiniteCensusError for an infinite one."""
    if not system.finite:
        raise InfiniteCensusError(
            "infinitely many primes are nonsplit in every field", _verdict(system)
        )
    return tuple(_merged(_nonsplit_pool(system, system.ramified[-1])).tolist())


class ClassTable(Sequence):
    """A listing's classes by ascending coarea, read-only, each built when it is read.

    Class i ramifies at the primes of indices chosen[node[i]] + (last[i],): an odd set of
    the walk (_Walk.chosen) and the index of its even child. node[i] = -1 is the empty set.
    A slice is a table; == compares with any sequence of classes, item by item, and hash
    is that of the tuple of the classes.
    """

    def __init__(self, primes: list[int], chosen: list[tuple[int, ...]], node, last):
        self._primes, self._chosen, self._node, self._last = primes, chosen, node, last

    def __len__(self) -> int:
        return len(self._node)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ClassTable(self._primes, self._chosen, self._node[index], self._last[index])
        index = operator.index(index)
        return self._build(self._node[index], self._last[index])

    def __iter__(self) -> Iterator[AlgebraClass]:
        return map(self._build, self._node, self._last)  # class by class: no list of a column

    def _build(self, node: np.integer, last: np.integer) -> AlgebraClass:
        if node < 0:
            return _unchecked_class(())
        primes = self._primes
        return _unchecked_class(tuple([primes[j] for j in self._chosen[node]] + [primes[last]]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class CensusReport:
    """Complete census over a field system with finite nonsplit set."""

    fields: tuple[QuadField, ...]
    verdict: FinitenessVerdict
    nonsplit: tuple[int, ...]
    classes: ClassTable
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

    The classes are the even subsets of the nonsplit prime set, so the total is 2**(m-1)
    for m >= 1 nonsplit primes (1 when m = 0: only the matrix algebra), and all but the
    empty set are division algebras. It lists through pi_of_V's path at the cutoff prod(p - 1)
    past every coarea, which refuses past CLASS_BUDGET classes before any walk.
    """
    system = _system(fields)
    s0 = _finite(system)
    _, classes = _listing(system, math.prod(p - 1 for p in s0))
    return CensusReport(system.fields, _verdict(system), s0, classes, len(classes))


def _character(q: int, ns: np.ndarray) -> np.ndarray:
    """The Kronecker symbol (q|n) of a prime discriminant q at every n >= 0 of ns.

    Its period m is 8 for q = -4, 8, -8 and |q| otherwise. ns of at least m entries
    takes each residue's value once and gathers; a shorter one is evaluated directly.
    For odd |q| < 2**31 the value is the Legendre symbol (n | |q|), Euler's criterion
    by square-and-multiply over the array, every square below 2**62; a 2-adic or
    larger q calls kronecker per entry, at most 8 times for a 2-adic one.
    """
    m = abs(q) if q % 2 else 8
    gather = len(ns) >= m
    xs = np.arange(m) if gather else ns
    if m == 8 or m >> 31:
        vals = np.array([kronecker(q, x) for x in xs.tolist()], np.int8)
    else:
        power, a, e = np.ones(len(xs), np.int64), xs.astype(np.int64, copy=False) % m, m // 2
        while e:
            if e & 1:
                power = power * a % m
            a, e = a * a % m, e >> 1
        vals = np.where(power == m - 1, -1, power).astype(np.int8)
    if not gather:
        return vals
    # n & 7 and n - n // m * m are n % m in a tenth and half its time (numpy's // is fast)
    return vals[ns & 7 if m == 8 else ns - ns // m * m]


def _keep_inert(ns: np.ndarray, prime_discs: list[frozenset[int]]) -> np.ndarray:
    """The entries of ns, in order, at which every field's character, the product of its
    prime discriminants' characters, is -1. Each field reads only the entries the fields
    before it kept, so s fields cost about two evaluations over ns, not s. (np.compress
    takes a fifth of the time of ns[mask] on a mask of scattered entries.)"""
    for pds in prime_discs:
        ns = np.compress(math.prod(_character(q, ns) for q in pds) < 0, ns)
    return ns


def _inert_route(system: _System, lo: int, hi: int) -> tuple[int, list[int]]:
    """How to sieve [lo, hi] for the primes inert in every field of an infinite system.

    Those primes lie in the unit classes mod M = lcm(discs) at which every character is
    -1: R = phi(M)/2**rank of them. A pass costs its cells plus the base numbers up to
    sqrt(hi) it walks, as SIEVE_BUDGET counts them: R passes of about span/M cells per
    M * 2**19 numbers on the progressions, one of 2**19 cells per 2**19 on the plain sieve
    and its character filter. Route to the plain sieve only when its work is smaller,
    deciding before anything M long exists (trace 4's pool to 286,479: 47,746 cells mod 12).
    Returns (modulus, residues): (M, the inert classes), whose every sieved prime is
    inert, or (1, [0]), the plain route, whose primes _keep_inert filters. Before any
    sieving it raises SearchExhaustedError past SIEVE_BUDGET numbers, then the sieve's
    DomainError for hi >= 2**62, then SearchExhaustedError past SIEVE_BUDGET base
    numbers up to sqrt(hi).
    """
    span = hi - lo + 1
    if span > SIEVE_BUDGET:
        raise SearchExhaustedError(
            f"sieving {span} numbers is past the budget of {SIEVE_BUDGET}", bound=SIEVE_BUDGET
        )
    _check_progressions(lo, hi, 1, (0,))
    base = math.isqrt(hi)
    if base > SIEVE_BUDGET:
        raise SearchExhaustedError(
            f"sieving the base primes up to sqrt({hi}) is past the budget of {SIEVE_BUDGET}",
            bound=SIEVE_BUDGET,
        )
    modulus = math.lcm(*(fld.disc for fld in system.fields))
    units = modulus
    for p in system.ramified:
        units = units // p * (p - 1)
    classes = units >> system.rank
    work = classes * (span // modulus + -(-span // (modulus * _SEGMENT)) * base)
    if span + -(-span // _SEGMENT) * base < work:
        return 1, [0]
    return modulus, _keep_inert(np.arange(modulus), system.prime_discs).tolist()


def _inert_blocks(system: _System, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Blocks of the primes in [lo, hi] inert in every field, each ascending (see _inert_route)."""
    if system.finite:
        return
    modulus, residues = _inert_route(system, lo, hi)
    for ps in prime_segments(lo, hi, modulus, residues):
        yield _keep_inert(ps, system.prime_discs) if modulus == 1 else ps


def _inert_count(system: _System, lo: int, hi: int) -> int:
    """How many primes _inert_blocks yields for an infinite system; progressions list none."""
    modulus, residues = _inert_route(system, lo, hi)
    if modulus > 1:
        return prime_count(lo, hi, modulus, residues)
    return sum(len(_keep_inert(ps, system.prime_discs)) for ps in prime_segments(lo, hi))


def _nonsplit_pool(system: _System, pmax: int) -> list[np.ndarray]:
    """Primes p <= pmax splitting in none of the fields, as disjoint ascending blocks.

    The unramified ones are inert in every field: the blocks _inert_blocks yields.
    A finite system has none, and its one block, the ramified primes, holds Python
    ints, since only the discs bound its primes. A count reads the blocks as they
    are (_walk, _spans); only a listing merges them into one array (_merged).
    """
    # sieved first: past SIEVE_BUDGET that raises before a ramified p overflows int64
    blocks = list(_inert_blocks(system, 2, pmax))
    blocks.append(np.array(
        [p for p in system.ramified
         if p <= pmax and all(splitting(fld, p) is not SplitType.SPLIT for fld in system.fields)],
        dtype=object if system.finite else np.int64,
    ))
    return blocks


def _merged(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks' entries in one ascending array; they are distinct, so an unstable sort will do."""
    merged = np.concatenate(blocks)
    merged.sort()
    return merged


@functools.cache
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


def _ram_factors(system: _System, top: int) -> list[np.ndarray]:
    """Factors p - 1 of the primes a class within cutoff top may ramify at, in the
    pool's disjoint ascending blocks: int64 for an infinite system, object for a finite one.
    """
    blocks = _nonsplit_pool(system, max(top + 1, 2))
    for block in blocks:
        block -= 1
    return blocks


def _odd_nodes(fac: list[int], top: int) -> tuple[array | list, ...]:
    """Odd-size sets S of factors with an even child S + {j} within the cutoff, as the columns
    of _Walk in preorder; the integer columns are C int arrays, holding no Python int per entry.
    Past CLASS_BUDGET sets S, each with its own even child, it raises SearchExhaustedError."""
    cols = (array("i"), [], [], array("i"), array("i"), array("i"))
    _descend(fac, top, 0, 1, (), cols)
    return cols


def _descend(fac: list[int], top: int, start: int, prod: int, even: tuple[int, ...], cols) -> None:
    """Append the odd sets even + {k}, k >= start, to cols: k ascending, each before its subtree.
    The children of S with odd descendants are a prefix of its children, as the j loop stops at
    its first failure: each is a one-child chunk just before its subtree, and one chunk after
    them holds the rest. Recursive at module level: a closure would leave reference cycles."""
    starts, prods, chosen, nodes, firsts, rests = cols
    n = len(fac)
    for k in range(start, n - 1):
        odd = prod * fac[k]
        if odd * fac[k + 1] > top:
            break
        node = len(chosen)
        starts.append(k + 1)
        prods.append(odd)
        chosen.append(even + (k,))
        j = k + 1
        while j < n - 2 and odd * fac[j] * fac[j + 1] * fac[j + 2] <= top:
            nodes.append(node)
            firsts.append(j)
            _descend(fac, top, j + 1, odd * fac[j], chosen[node] + (j,), cols)
            j += 1
        rests.append(len(nodes))
        nodes.append(node)
        firsts.append(j)
    if len(chosen) > CLASS_BUDGET:
        raise SearchExhaustedError(f"more than {CLASS_BUDGET} classes", bound=CLASS_BUDGET)


class _Walk(NamedTuple):
    """One walk's odd nodes S, in preorder: chosen[i] holds the indices of S, prods[i] = prod(S),
    and starts[i] is the first j of an even child S + {j}. Chunk c holds the children of node
    nodes[c] from j = firsts[c] on: one, or at the positions rests all within the cutoff. In
    order, they give every nonempty even set ascending by its indices, a prefix first."""

    top: int
    starts: np.ndarray
    prods: np.ndarray  # fac's dtype
    chosen: list[tuple[int, ...]]
    nodes: np.ndarray
    firsts: np.ndarray
    rests: np.ndarray


def _walk(blocks: list[np.ndarray], top: int) -> _Walk:
    """The odd nodes of the even sets R of the factors with prod(R) <= top, walked once.

    blocks are the disjoint ascending blocks of _ram_factors, int64 or object alike, and
    fac is their merge. The walk is handed only the head fac[:K + 1], K = #{f <= isqrt(top)}.
    Every factor is at least 1, so a k that passes its check in _descend has
    fac[k] * fac[k + 1] <= top, and a j has fac[j + 1] * fac[j + 2] <= top. The smaller of
    two such factors is at most isqrt(top): k < K and j + 1 < K. The k and j loops over the
    head end just where the walk over all of fac would stop, and the last factor either
    reads is fac[K]. The head merges each block's factors up to isqrt(top) and its next one:
    fac[K] is the least of those next ones, so the merge cut at K + 1 keeps it.
    """
    ends = [int(np.searchsorted(block, math.isqrt(top), "right")) for block in blocks]
    head = _merged([block[:end + 1] for block, end in zip(blocks, ends)])[:sum(ends) + 1]
    starts, prods, chosen, *chunks = _odd_nodes(head.tolist(), top)
    starts, *chunks = (np.frombuffer(col, np.intc) for col in (starts, *chunks))
    return _Walk(top, starts, np.array(prods, head.dtype), chosen, *chunks)


def _spans(blocks: list[np.ndarray], walk: _Walk, cutoff: int) -> np.ndarray:
    """Each node's number of even children within cutoff <= walk.top, the j >= start with
    fac[j] <= cutoff // prod(S). pi_pool(cutoff // prod(S)) is one searchsorted per block
    for every node, as in Deleglise-Rivat prime counting; the walk never visits this last
    level, and the blocks are not merged for it."""
    quotients = cutoff // walk.prods
    below = sum(np.searchsorted(block, quotients, "right") for block in blocks)
    return np.maximum(below - walk.starts, 0)


def _even_count(blocks: list[np.ndarray], walk: _Walk, cutoff: int) -> int:
    """Number of even sets R with prod(R) <= cutoff <= walk.top, the empty one included."""
    return int(cutoff >= 1) + int(_spans(blocks, walk, cutoff).sum())


def _sorted_even_sets(fac: np.ndarray, walk: _Walk, spans: np.ndarray) -> ClassTable:
    """Every even set R of the primes f + 1 with prod(f) <= walk.top, ascending by (prod, R).

    fac is the merge of the blocks walked (_merged); spans are the nodes' _spans at walk.top.
    The walk's chunks, expanded, give the node and the last index of every nonempty R,
    ascending by R, so a stable sort by prod gives (prod, R). Equal coareas are common
    (trace 4 at V = 3e5: 22,966 of 47,793 classes share one), so the tie order matters.
    When every key prod * 2**bits + i, i the position, lies below 2**62, the keys are distinct
    and one unstable int64 sort gives that order; else (a finite count's Python ints, say) a
    stable argsort of prod does, since Python-int keys would cost a finite count far more RAM.
    The sorted columns, the empty set first, are the table; no class is built here.
    """
    lengths = np.ones(len(walk.nodes), np.intp)
    lengths[walk.rests] = (walk.starts + spans)[walk.nodes[walk.rests]] - walk.firsts[walk.rests]
    index_type = np.min_scalar_type(-len(fac) - 1)  # holds -1, the empty set's, for no fac too
    node = np.repeat(walk.nodes, lengths)
    last = np.arange(len(node)) - np.repeat(np.cumsum(lengths) - lengths - walk.firsts, lengths)
    last = last.astype(index_type)
    bits = len(node).bit_length()
    if walk.top >> (62 - bits):
        order = np.argsort(walk.prods[node] * fac[last], kind="stable")
    else:  # every listed prod is at most walk.top, so int64 holds it, also from object columns
        order = np.repeat(walk.prods[walk.nodes], lengths).astype(np.int64, copy=False)
        order *= fac[last].astype(np.int64, copy=False)  # take would copy last to intp first
        order <<= bits
        order |= np.arange(len(node))
        order.sort()
        order &= (1 << bits) - 1
    empty = int(walk.top >= 1)
    node = np.concatenate([np.full(empty, -1, node.dtype), node[order]])
    last = np.concatenate([np.full(empty, -1, index_type), last[order]])
    del order  # before the primes' list is built
    return ClassTable((fac + 1).tolist(), walk.chosen, node, last)


def _check_class_budget(count: int) -> None:
    if count > CLASS_BUDGET:
        raise SearchExhaustedError(
            f"{count} classes is past the budget of {CLASS_BUDGET}", bound=CLASS_BUDGET
        )


def _listing(system: _System, top: int) -> tuple[int, ClassTable]:
    """(count, ClassTable) of the even sets R with prod(R) <= top: one walk's spans count them,
    and past CLASS_BUDGET it raises before the pool is merged and listed. If a finite pool (one
    block) has its whole product within top, all its 2**(m-1) even sets are: that size is checked
    before the walk. A pool only partly within top is left to the walk's cap (_odd_nodes)."""
    blocks = _ram_factors(system, top)
    fits = system.finite and math.prod(blocks[0]) <= top
    whole = 2 ** max(len(blocks[0]) - 1, 0) if fits else 0  # 1 when m = 0
    _check_class_budget(whole)
    walk = _walk(blocks, top)
    spans = _spans(blocks, walk, top)
    count = int(top >= 1) + int(spans.sum())  # _even_count, the spans kept for the listing
    if whole and count != whole:
        raise RuntimeError("even-subset count mismatch")
    _check_class_budget(count)
    return count, _sorted_even_sets(_merged(blocks), walk, spans)


def pi_of_V(spec: SpectrumSpec | Sequence[QuadField], volume: float) -> tuple[int, ClassTable]:
    """Number of classes of coarea strictly below `volume` containing the spectrum.

    spec is a SpectrumSpec or, as count_algebras takes them, its fields: over Q a census reads
    its fields alone. Works for both verdicts: with an infinite nonsplit set the prime pool is
    cut off below 1 + 3V/pi, which no admissible ramified prime can reach. Returns the count and
    a ClassTable of the classes by coarea, each built when it is read, off one walk, as in
    count_algebras. Past CLASS_BUDGET it raises SearchExhaustedError: before the walk if all of a
    finite census lies below `volume`, else once the walk holds more odd sets than the budget.
    """
    if not 0 < volume < math.inf:  # exact for an int or a Fraction past the float range too
        raise DomainError(f"volume bound must be finite and positive, got {volume}")
    fields = spec.fields() if isinstance(spec, SpectrumSpec) else spec
    return _listing(_system(fields), _cutoff(volume))


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

    r is the number of prescribed geodesic classes. Requires 0 < W < V, V finite and not 1,
    and the floor a finite float, checked before anything is counted. Counts without
    enumerating: one finiteness verdict, one prime pool up to the V + W cutoff, and one
    walk at that cutoff that counts both exact integer cutoffs, each odd-size set's even
    children counted in bulk.
    """
    if not 0 < window < volume < math.inf or volume == 1:  # exact, as in pi_of_V
        raise DomainError(f"need 0 < W < V < inf and V != 1 (ln V = 0), got V={volume}, W={window}")
    system = _system(spec.fields())
    try:
        log_v = math.log(volume)
    except (OverflowError, ValueError):  # a rational V outside the float range
        log_v = math.log(volume.numerator) - math.log(volume.denominator)
    try:
        bound = window / (2 ** len(spec.classes) * log_v)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):  # the float-range rule of a coarea
        raise DomainError("density floor W/(2**r * ln V) is past the float range")
    lo, top = _cutoff(volume), _cutoff(Fraction(volume) + Fraction(window))
    blocks = _ram_factors(system, top)
    walk = _walk(blocks, top)
    c_lo, c_hi = _even_count(blocks, walk, lo), _even_count(blocks, walk, top)
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
    the family is deterministic. The primes are tested one by one; the
    fourth field's radicand is searched a block of d at a time through
    the census's character evaluator.
    """
    n, search_bound = _check_integer(n, "n"), _check_integer(search_bound, "search_bound")
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if search_bound < 2:
        raise DomainError(f"need search_bound >= 2, got {search_bound}")
    m = n + 2
    primes: list[int] = []
    for p in filter(is_prime, range(1, search_bound + 1, 8)):
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
    # (d|p) = (disc|p) at these odd primes, each a prime discriminant, so the census's
    # characters filter d in ascending blocks. The first is as long as the longest period,
    # primes[-1], so each block's first character gathers from a residue table; later blocks
    # double, up to _SEGMENT. The first d to pass is squarefree: d = s*f**2 passes only if
    # its squarefree part s < d does.
    lo, size = 2, primes[-1]
    while lo <= search_bound:
        ds = np.arange(lo, min(lo + size, search_bound + 1))
        ds = _keep_inert(np.compress(_character(p1, ds) > 0, ds), [{p} for p in rest])
        if len(ds):
            l4 = field_from_d(int(ds[0]))
            break
        lo, size = lo + size, min(2 * size, _SEGMENT)
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
    certificate = min(abs(q) if q % 2 else 2 for q in prime_disc_vector(fld))
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
    The count takes _inert_route's route: on the progressions each pass is
    counted off its sieve mask and no prime array is built; on the plain
    sieve each block is counted through the character filter.
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
    actual = _inert_count(system, x, x + y)
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
