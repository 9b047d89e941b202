"""Census of commensurability classes: finiteness, counting, growth, family."""
from __future__ import annotations

import bisect
import collections
import dataclasses
import gc
import itertools
import math
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from commcensus import arith, census, gf2, quaternion
from commcensus.arith import is_prime, is_square, kronecker
from commcensus.census import (
    InfiniteCensusError,
    SelectivityVerdict,
    construct_family,
    count_algebras,
    nonsplit_is_finite,
    nonsplit_primes,
    pi_of_V,
    selectivity_check,
    short_interval_delta,
    verify_chebotarev_interval,
)
from commcensus.errors import DomainError, SearchExhaustedError
from commcensus.quadratic import (
    QuadField,
    QuadOrder,
    SplitType,
    field_from_d,
    order_from_disc,
    prime_disc_vector,
    splitting,
)
from commcensus.quaternion import AlgebraClass, RamSet
from commcensus.spectra import spectrum_from_inputs

TRIPLE = (field_from_d(3), field_from_d(17), field_from_d(51))


def _verify_witness(fields, verdict):
    """Re-check a finiteness witness from scratch."""
    if verdict.finite:
        idx = verdict.square_witness
        assert idx is not None and len(idx) % 2 == 1
        prod = 1
        for i in idx:
            prod *= fields[i].disc
        assert is_square(prod)
    else:
        signs = verdict.sign_witness
        assert signs is not None and all(v in (-1, 1) for v in signs.values())
        for fld in fields:
            prod = 1
            for q in oracles.prime_disc_split(fld.disc):
                prod *= signs[q]
            assert prod == -1
        # a prime realizing the assignment exists at desk scale
        for p in map(int, oracles.sieve_upto(10**4)):
            if all(oracles.split_at(f.disc, p) == -1 for f in fields):
                return
        raise AssertionError("no realizing prime below 10**4")


def test_finiteness_of_matched_triple():
    verdict = nonsplit_is_finite(TRIPLE)
    assert verdict.finite
    assert verdict.square_witness == (0, 1, 2)
    assert 12 * 17 * 204 == 204**2
    _verify_witness(TRIPLE, verdict)


def test_infinite_verdict_sign_witness():
    fields = (field_from_d(3), field_from_d(17))
    verdict = nonsplit_is_finite(fields)
    assert not verdict.finite
    assert verdict.sign_witness == {-4: -1, -3: 1, 17: -1}
    _verify_witness(fields, verdict)


def test_odd_weight_two_adic_relation_is_finite():
    """chi_8 * chi_12 * chi_24 is trivial: 8 * 12 * 24 = 48**2.

    The three 2-adic prime discriminants are multiplicatively dependent
    (chi_-8 = chi_-4 chi_8), so this triple is finite even though no two
    fields share an odd ramified prime."""
    fields = (field_from_d(2), field_from_d(3), field_from_d(6))
    verdict = nonsplit_is_finite(fields)
    assert verdict.finite
    assert verdict.square_witness == (0, 1, 2)
    _verify_witness(fields, verdict)
    assert count_algebras(fields).count_total & (count_algebras(fields).count_total - 1) == 0


def test_even_weight_relation_stays_infinite():
    # 8 * 12 * 5 * 120 = 240**2, but every vanishing combination has even
    # weight, so inert-in-all primes survive (their characters multiply to +1)
    fields = tuple(field_from_d(d) for d in (2, 3, 5, 30))
    verdict = nonsplit_is_finite(fields)
    assert not verdict.finite
    _verify_witness(fields, verdict)


def test_witness_soundness_random_systems():
    """Any verdict on random field systems must carry a valid witness.

    Random systems land on the infinite side almost surely; the finite
    side is exercised by the synthesized triples below."""
    rng = random.Random(505)
    squarefree = [d for d in range(2, 250) if oracles.squarefree_reduce(d) == d]
    for _ in range(120):
        ds = rng.sample(squarefree, rng.choice((2, 3, 4)))
        fields = tuple(field_from_d(d) for d in ds)
        verdict = nonsplit_is_finite(fields)
        _verify_witness(fields, verdict)


def test_synthesized_square_product_triples_are_finite():
    """d3 = squarefree(d1 d2) forces a square discriminant product."""
    rng = random.Random(506)
    squarefree = [d for d in range(2, 400) if oracles.squarefree_reduce(d) == d]
    built = 0
    while built < 50:
        d1, d2 = rng.sample(squarefree, 2)
        d3 = oracles.squarefree_reduce(d1 * d2)
        if d3 in (d1, d2) or d3 < 2:
            continue
        fields = tuple(field_from_d(d) for d in (d1, d2, d3))
        verdict = nonsplit_is_finite(fields)
        assert verdict.finite
        _verify_witness(fields, verdict)
        report = count_algebras(fields)
        assert report.count_total & (report.count_total - 1) == 0  # power of two
        assert report.count_total == report.eventual_pi
        built += 1


def test_nonsplit_primes_matched_triple_and_scans():
    assert nonsplit_primes(TRIPLE) == (3, 17)
    # independent Euler-criterion scan: nothing else below 10**4
    discs = [f.disc for f in TRIPLE]
    assert oracles.nonsplit_scan(discs, 10**4) == [3, 17]


def test_count_algebras_matched_triple():
    report = count_algebras(TRIPLE)
    assert report.count_total == 2
    assert report.count_division == 1
    assert report.eventual_pi == 2
    rams = [c.ram for c in report.classes]
    assert rams == [RamSet(()), RamSet((3, 17))]
    assert str(report.classes[0].coarea) == "pi/3"
    assert str(report.classes[1].coarea) == "32*pi/3"
    assert not report.classes[0].is_division
    assert report.classes[1].is_division


def test_count_algebras_infinite_system_raises():
    fields = (field_from_d(3), field_from_d(17))
    with pytest.raises(InfiniteCensusError) as info:
        count_algebras(fields)
    assert not info.value.verdict.finite
    _verify_witness(fields, info.value.verdict)


def test_field_system_validation():
    """Every entry that reads a field system refuses no field and a field given twice."""
    entries = (
        nonsplit_is_finite,
        nonsplit_primes,
        count_algebras,
        lambda fields: pi_of_V(fields, 10.0),
        lambda fields: verify_chebotarev_interval(fields, 1000, 100),
    )
    for fields, message in (
        ([], "need at least one field"),
        ([field_from_d(3), field_from_d(12)], "fields must be pairwise distinct"),  # one field
    ):
        for entry in entries:
            with pytest.raises(DomainError, match=message):
                entry(fields)


@pytest.mark.parametrize(
    "call, index",
    [
        (lambda: count_algebras([3]), 0),
        (lambda: nonsplit_primes([3]), 0),
        (lambda: nonsplit_is_finite("ab"), 0),
        (lambda: verify_chebotarev_interval([field_from_d(3), 17], 1000, 10), 1),
        (lambda: pi_of_V([[3]], 1e3), 0),  # unhashable: refused before the duplicate check
    ],
    ids=["count_algebras", "nonsplit_primes", "nonsplit_is_finite", "chebotarev", "pi_of_V"],
)
def test_an_entry_that_is_no_field_is_a_domain_error(call, index):
    with pytest.raises(DomainError, match=f"field {index} is not a QuadField"):
        call()


def test_pi_of_v_matched_example():
    spec = spectrum_from_inputs(radicands=[3, 17, 51])
    assert pi_of_V(spec, 40.0)[0] == 2
    assert pi_of_V(spec, 10.0)[0] == 1
    assert pi_of_V(spec, 1.0)[0] == 0
    count, classes = pi_of_V(spec, 40.0)
    assert [c.ram for c in classes] == [RamSet(()), RamSet((3, 17))]
    with pytest.raises(DomainError):
        pi_of_V(spec, 0.0)
    with pytest.raises(DomainError):
        pi_of_V(spec, math.inf)


def test_pi_of_v_monotone_and_saturates():
    spec = spectrum_from_inputs(radicands=[3, 17, 51])
    prev = 0
    for v in (0.5, 1.0, 2.0, 10.0, 33.0, 34.0, 100.0):
        cur = pi_of_V(spec, v)[0]
        assert cur >= prev
        prev = cur
    # beyond the largest class coarea the count equals the census total
    assert pi_of_V(spec, 34.0)[0] == count_algebras(TRIPLE).eventual_pi


@pytest.mark.parametrize("inputs", [
    {"traces": [4]}, {"traces": [4, 5]}, {"radicands": [3, 17, 51]}, {"radicands": [3, 5, 15, 7]},
])
def test_pi_of_v_reads_fields_as_a_spectrum(inputs):
    """pi_of_V takes the embedding fields as it takes their spectrum: the same count and
    the same classes, below, among and past the coareas."""
    spec = spectrum_from_inputs(**inputs)
    for volume in (1.0, 1.05, 40.0, 1e3, 3e4):
        count, classes = pi_of_V(spec.fields(), volume)
        assert (count, classes) == pi_of_V(spec, volume), volume
        assert count == len(classes), volume


@pytest.mark.parametrize("radicands", [(3, 17, 51), (3, 5, 15, 7)])
def test_finite_census_lists_as_pi_past_every_coarea(radicands):
    """A finite spectrum lists both ways alike: pi_of_V at a V past every coarea (the
    largest is pi/3 * prod(p - 1) over the nonsplit primes) equals count_algebras in
    count and in classes, both at that V and at 10**30."""
    spec = spectrum_from_inputs(radicands=list(radicands))
    report = count_algebras(spec.fields())
    top = math.prod(p - 1 for p in report.nonsplit)
    for volume in (2 * top, 10**30):
        count, classes = pi_of_V(spec, volume)
        assert count == report.count_total == len(classes) == report.eventual_pi, volume
        assert classes == report.classes, volume


def test_pi_of_v_infinite_spec_brute_subsets():
    """Single trace-4 class: even subsets of nonsplit primes below the cut."""
    spec = spectrum_from_inputs(traces=[4])
    # below pi/3 not even the matrix algebra fits; just above it, only it does
    for volume in (1.0, 1.05, 5.0, 20.0, 60.0):
        bound = 3.0 * volume / math.pi
        pool = [
            p
            for p in map(int, oracles.sieve_upto(int(bound) + 1))
            if oracles.split_at(12, p) != 1 and p - 1 < bound
        ]
        want = oracles.even_subset_count([p - 1 for p in pool], bound)
        count, classes = pi_of_V(spec, volume)
        assert count == want, volume
        assert len(classes) == count
        assert all(float(c.coarea) < volume for c in classes)


def test_unchecked_classes_equal_checked_ram_sets():
    """The census builds its classes without RamSet's checks; they must pass them.

    Each class equals, and hashes like, the class of the publicly checked
    RamSet of its primes, every entry is prime by an independent sieve, the
    list ascends by (prod(p - 1), primes), and the coarea numerators are
    exactly the oracle's even-subset products of the nonsplit pool.
    """
    cases = []
    for traces in ((4,), (4, 5)):
        spec = spectrum_from_inputs(traces=traces)
        for volume in (1e3, 3e4, 3e5):
            limit = oracles.coarea_cutoff(volume)
            pool = oracles.nonsplit_scan([f.disc for f in spec.fields()], limit + 1)
            count, classes = pi_of_V(spec, volume)
            assert count == len(classes)
            cases.append((classes, pool, limit))
    fam = construct_family(10)
    pool = list(fam.primes[1:])
    cases.append((count_algebras(fam.fields).classes, pool, math.prod(p - 1 for p in pool)))
    for classes, pool, limit in cases:
        primes = set(oracles.sieve_upto(max(pool)).tolist())
        keys = []
        for c in classes:
            ram = c.ram.finite_primes
            checked = AlgebraClass(RamSet(ram))
            assert c == checked and hash(c) == hash(checked), c
            assert all(type(p) is int and p in primes for p in ram), c
            keys.append((math.prod(p - 1 for p in ram), ram))
        assert keys == sorted(set(keys))
        assert [prod for prod, _ in keys] == oracles.even_subset_products([p - 1 for p in pool], limit)


def test_coarea_cutoff_is_exact_at_the_boundary():
    """The float 41.88790204786391 lies just above 40 pi/3, where {2, 41} has coarea 40 pi/3."""
    spec = spectrum_from_inputs(traces=[4])
    volume = 41.88790204786391
    assert Fraction(volume) == Fraction(5895198126690367, 2**47)
    assert oracles.coarea_cutoff(volume) == 40
    assert pi_of_V(spec, volume)[0] == 14
    assert pi_of_V(spec, math.nextafter(volume, 0))[0] == 13
    assert short_interval_delta(spec, 30.0, 11.88790204786391).count_at_v_plus_w == 14
    # below = 40 pi/3 - 0.9 ulp: below + 0.7 ulp rounds up to volume in float, yet stays below
    below = math.nextafter(volume, 0)
    window = 0.7 * (volume - below)
    assert below + window == volume
    assert short_interval_delta(spec, below, window).count_at_v_plus_w == 13
    # rational V within 1e-100 of 40 pi/3: the enclosure of pi is refined past 64 bits
    lo, hi = oracles.pi_interval(100)
    assert census._cutoff(40 * lo / 3) == 39 and census._cutoff(40 * hi / 3) == 40
    lo, hi = oracles.pi_interval(200)
    for bits in (64, 128, 512):
        enc_lo, enc_hi = census._pi_within(bits)
        assert enc_lo < lo < hi < enc_hi and enc_hi - enc_lo < Fraction(bits, 2 ** (bits - 3))


def test_coarea_cutoff_sweep_against_machin_oracle():
    """V = float(k pi/3) and both float neighbours, for every even-set product k <= 2000."""
    spec = spectrum_from_inputs(traces=[4])  # the field Q(sqrt(3)), disc 12
    limit = 2000
    factors = [p - 1 for p in oracles.nonsplit_scan([12], limit + 1)]
    prods = oracles.even_subset_products(factors, limit)
    pi_mid = sum(oracles.pi_interval()) / 2
    for i, k in enumerate(sorted(set(prods))):
        v = float(k * pi_mid / 3)
        for volume in (math.nextafter(v, 0), v, math.nextafter(v, math.inf)):
            want = bisect.bisect_right(prods, oracles.coarea_cutoff(volume))
            assert pi_of_V(spec, volume)[0] == want, (k, volume)
            if i % 10 == 0:  # V + W summed exactly: lo + (V - lo) is V (Sterbenz)
                lo = 0.75 * volume
                rep = short_interval_delta(spec, lo, volume - lo)
                assert rep.count_at_v_plus_w == want, (k, volume)
                assert rep.count_at_v == bisect.bisect_right(prods, oracles.coarea_cutoff(lo))


def test_short_interval_consistency():
    spec = spectrum_from_inputs(traces=[4])
    rep = short_interval_delta(spec, 10**4, 10**3)
    assert rep.delta == rep.count_at_v_plus_w - rep.count_at_v
    assert rep.count_at_v == pi_of_V(spec, 10**4)[0]
    assert rep.count_at_v_plus_w == pi_of_V(spec, 10**4 + 10**3)[0]
    assert abs(rep.bound - 10**3 / (2 * math.log(10**4))) < 1e-12
    assert rep.delta >= 0


@pytest.mark.parametrize(
    "traces, counts", [((4,), (13_106_231, 14_379_283)), ((4, 5), (3_714_885, 4_069_766))]
)
def test_short_interval_counts_at_1e8(traces, counts):
    """V = 1e8, W = 1e7: full 2**19 pool passes, whose large base primes scatter."""
    rep = short_interval_delta(spectrum_from_inputs(traces=list(traces)), 1e8, 1e7)
    assert (rep.count_at_v, rep.count_at_v_plus_w) == counts


def test_short_interval_finite_triple_matches_pi():
    spec = spectrum_from_inputs(radicands=[3, 17, 51])
    for volume, window in ((0.5, 0.4), (5.0, 4.0), (20.0, 15.0), (33.0, 1.0), (40.0, 30.0)):
        rep = short_interval_delta(spec, volume, window)
        assert rep.count_at_v == pi_of_V(spec, volume)[0]
        assert rep.count_at_v_plus_w == pi_of_V(spec, volume + window)[0]


def test_even_ram_set_counter_against_brute_force(monkeypatch):
    """Bulk-counted walk and sorted listing vs plain subset enumeration.

    The counter and the listing take the factors as an int64 array (an
    infinite system's pool) and as an object array (a finite one's); the
    listing must come in the order of sorted (prod, R) pairs, and as many as
    the counter reads off the same walk. The counter reads every cutoff off
    one walk at the top one, and each off a walk of its own. Cutoffs sit
    on an achievable even-subset product and one either side of it, on the
    square of a factor (isqrt(N) is then that factor) and one either side,
    plus 0 and 1; half the pools contain p = 2, whose factor is 1. The walk
    is handed at most K + 1 factors, K = #{f <= isqrt(N)} at the top cutoff N.
    """
    odd_nodes, heads = census._odd_nodes, []

    def watched(fac, top):
        heads.append(len(fac))
        return odd_nodes(fac, top)

    monkeypatch.setattr(census, "_odd_nodes", watched)
    rng = random.Random(508)
    primes = oracles.trial_primes(2, 200)
    for _ in range(40):
        pool = set(rng.sample(primes, rng.randint(0, 10)))
        if rng.random() < 0.5:
            pool.add(2)
        pool = sorted(pool)
        fac = [p - 1 for p in pool]
        hit = math.prod(rng.sample(fac, 2 * rng.randint(0, len(fac) // 2)))
        square = rng.choice(fac) ** 2 if fac else 4
        cutoffs = sorted(
            {0, 1, hit - 1, hit, hit + 1, square - 1, square, square + 1, rng.randrange(10**6)}
        )
        want = [oracles.even_subset_count(fac, c + 1) for c in cutoffs]
        for dtype in (np.int64, object):
            arr = np.array(fac, dtype=dtype)
            for cuts, counts in [(cutoffs, want), *(([c], [n]) for c, n in zip(cutoffs, want))]:
                heads.clear()
                # the factors in two interleaved blocks, as a progression sieve yields them
                blocks = [arr[0::2], arr[1::2]]
                walk = census._walk(blocks, cuts[-1])
                assert [census._even_count(blocks, walk, c) for c in cuts] == counts, (pool, cuts, dtype)
                k = sum(f <= math.isqrt(cuts[-1]) for f in fac)
                assert len(heads) == 1 and heads[0] <= k + 1, (pool, cuts)
        for c, n in zip(cutoffs, want):
            brute = _brute_even_sets(pool, c)
            assert len(brute) == n
            for dtype in (np.int64, object):
                arr = np.array(fac, dtype=dtype)
                walk = census._walk([arr], c)
                listed = census._sorted_even_sets(arr, walk, census._spans([arr], walk, c))
                rams = [cls.ram.finite_primes for cls in listed]
                assert rams == brute, (pool, c, dtype)
                assert len(listed) == census._even_count([arr], walk, c), (pool, c, dtype)
                assert all(type(p) is int for R in rams for p in R), (pool, c, dtype)


def _expanded_chunks(walk, spans) -> list[tuple[int, ...]]:
    """The walk's chunks expanded in order, each child as its tuple of indices: one child
    a chunk, or at the positions rests every child up to the node's last within spans."""
    rests = set(walk.rests.tolist())
    sets = []
    for c, (node, first) in enumerate(zip(walk.nodes.tolist(), walk.firsts.tolist())):
        end = int(walk.starts[node] + spans[node]) if c in rests else first + 1
        sets += [walk.chosen[node] + (j,) for j in range(first, end)]
    return sets


def test_walk_yields_the_even_sets_in_lexicographic_order():
    """Expanded in order, the walk's chunks give every nonempty even set with prod <= N once,
    in strictly ascending lexicographic order of its tuple of indices, a prefix before its
    extensions: the order in which the listing breaks ties of prod, since it sorts by prod
    alone, stably. Seeded pools of up to 12 primes, with and without p = 2 (factor 1), as
    int64 and as object arrays, at cutoffs on and one either side of a subset product. The
    listing sorted off the chunks is in (prod, R) order, and holds up to 2**11 classes, where
    an unstable sort breaks ties of prod (2 * 12 = 4 * 6: {3, 13} and {5, 7}, say)."""
    rng = random.Random(39)
    primes = oracles.trial_primes(3, 120)
    for trial in range(30):
        pool = [2] * (trial % 2) + sorted(rng.sample(primes, rng.randint(0, 12)))
        fac = [p - 1 for p in pool]
        hit = math.prod(rng.sample(fac, 2 * rng.randint(0, len(fac) // 2)))
        for top in (hit - 1, hit, hit + 1):
            brute = sorted(
                sub
                for k in range(2, len(fac) + 1, 2)
                for sub in itertools.combinations(range(len(fac)), k)
                if math.prod(fac[i] for i in sub) <= top
            )
            for dtype in (np.int64, object):
                arr = np.array(fac, dtype=dtype)
                walk = census._walk([arr], top)
                spans = census._spans([arr], walk, top)
                sets = _expanded_chunks(walk, spans)
                assert all(a < b for a, b in zip(sets, sets[1:])), (pool, top, dtype)
                assert sets == brute, (pool, top, dtype)
                listed = census._sorted_even_sets(arr, walk, spans)
                assert [c.ram.finite_primes for c in listed] == _brute_even_sets(pool, top), (pool, top, dtype)


def test_listing_sorts_unique_int64_keys_or_stably_past_them(monkeypatch):
    """The listing sorts keys prod * 2**bits + i, i the lexicographic position, when every
    key fits below 2**62, walk.top < 2**(62 - bits); past that it sorts prod stably. On one
    pool with ties of prod (1 * 12 = 2 * 6 = 12: {2, 13} and {3, 7}) whose 127 nonempty even
    sets (bits = 7) all lie within both cutoffs, the largest factor puts the top product just
    below 2**55: top = 2**55 - 1 takes the keys, top = 2**55 the stable sort, int64 and
    object factors alike, and both give the brute-force (prod, R) table."""
    small = [2, 3, 5, 7, 11, 13, 17]
    big = (2**55 - 1) // math.prod(p - 1 for p in small) + 1
    pool = small + [big]
    stable = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        stable.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    want = _brute_even_sets(pool, 2**55 - 1)
    assert len(want) == 128 and 2**55 - 92160 < math.prod(p - 1 for p in pool) < 2**55
    for dtype in (np.int64, object):
        tabs = []
        for top, sorts in ((2**55 - 1, []), (2**55, ["stable"])):
            fac = np.array([p - 1 for p in pool], dtype=dtype)
            walk = census._walk([fac], top)
            stable.clear()
            tabs.append(census._sorted_even_sets(fac, walk, census._spans([fac], walk, top)))
            assert stable == sorts, (dtype, top)
            assert [c.ram.finite_primes for c in tabs[-1]] == want, (dtype, top)
        assert np.array_equal(tabs[0]._node, tabs[1]._node), dtype
        assert np.array_equal(tabs[0]._last, tabs[1]._last), dtype


def _check_block_counts(blocks, top: int, cutoffs: list[int], counts: list[int]) -> None:
    """The pool's blocks count as their merge does, and as counts says: one walk at top
    over the blocks equals one over the merge, and at each cutoff pi_pool summed over
    the blocks equals one searchsorted on the merge."""
    fac = census._merged(blocks)
    walk, merged = census._walk(blocks, top), census._walk([fac], top)
    assert walk.chosen == merged.chosen
    assert np.array_equal(walk.starts, merged.starts) and np.array_equal(walk.prods, merged.prods)
    for c, want in zip(cutoffs, counts):
        assert np.array_equal(census._spans(blocks, walk, c), census._spans([fac], merged, c)), c
        assert census._even_count(blocks, walk, c) == want, c


@pytest.mark.parametrize(
    "traces, top, n_blocks",
    [
        ((1000,), 400_000, 2),  # the plain route: one sieved block, then the ramified one
        ((4, 5), 3_200_000, 7),  # one stretch of 84 * 2**19: six residue blocks
        ((4, 5), 44_100_000, 13),  # two stretches: top + 1 > 84 * 2**19 = 44,040,192
        ((4,), 400_000, 3),  # two residue blocks mod 12
    ],
)
def test_block_counts_agree_with_the_merged_pool(traces, top, n_blocks):
    """Counts read off the sieved blocks equal the DFS oracle's, on every sieve route."""
    system = census._system(spectrum_from_inputs(traces=list(traces)).fields())
    blocks = census._ram_factors(system, top)
    assert len(blocks) == n_blocks and all(b.dtype == np.int64 for b in blocks)
    assert all((b[1:] > b[:-1]).all() for b in blocks)  # each block ascends
    prods = oracles.even_subset_products(census._merged(blocks).tolist(), top)
    cutoffs = [0, 1, 2, top // 1000, top // 10, top // 2, top - 1, top]
    _check_block_counts(blocks, top, cutoffs, [bisect.bisect_right(prods, c) for c in cutoffs])


def test_block_counts_of_a_finite_system():
    """A finite system's one block of Python ints counts as the 2**m oracle does."""
    system = census._system(construct_family(6).fields)
    fac = [p - 1 for p in census._finite(system)]
    top = math.prod(fac)
    blocks = census._ram_factors(system, top)
    assert len(blocks) == 1 and blocks[0].dtype == object
    cutoffs = sorted({0, 1, top, *(math.prod(fac[i:i + 2]) + d for i in range(len(fac)) for d in (-1, 0, 1))})
    _check_block_counts(blocks, top, cutoffs, [oracles.even_subset_count(fac, c + 1) for c in cutoffs])


def test_walk_head_takes_the_next_factor_from_another_block():
    """Traces 4, 5 at top = f**2 - 1 for a factor f whose predecessor in the pool lies in
    another residue block mod 84: isqrt(top) = f - 1, so the head must take f, the first
    factor past isqrt(top), from its own block, or the walk loses the sets that hold
    f's predecessor and a larger factor."""
    system = census._system(spectrum_from_inputs(traces=[4, 5]).fields())
    blocks = census._ram_factors(system, 3_200_000)
    block = {f: i for i, b in enumerate(blocks) for f in b.tolist()}
    fac = census._merged(blocks)
    k = int(np.searchsorted(fac, math.isqrt(3_200_000), "right"))
    while block[int(fac[k - 1])] == block[int(fac[k])]:
        k -= 1
    top = int(fac[k]) ** 2 - 1
    blocks = census._ram_factors(system, top)
    assert len(blocks) == 7 and int(np.searchsorted(census._merged(blocks), math.isqrt(top), "right")) == k
    prods = oracles.even_subset_products(census._merged(blocks).tolist(), top)
    cutoffs = [top // 3, top - 1, top]
    _check_block_counts(blocks, top, cutoffs, [bisect.bisect_right(prods, c) for c in cutoffs])


def _brute_even_sets(pool: list[int], top: int) -> list[tuple[int, ...]]:
    """The even subsets R of the ascending pool with prod(p - 1) <= top, by (prod, R)."""
    keyed = sorted(
        (math.prod(p - 1 for p in sub), sub)
        for k in range(0, len(pool) + 1, 2)
        for sub in itertools.combinations(pool, k)
        if math.prod(p - 1 for p in sub) <= top
    )
    return [R for _, R in keyed]


def test_nonsplit_pool_past_table_bound():
    """A discriminant above 2**20 takes the per-prime character path."""
    big = field_from_d(1_000_003)
    assert big.disc > 1 << 20
    for fields in ((big,), (field_from_d(3), big)):
        pool = census._merged(census._nonsplit_pool(census._system(fields), 10**4)).tolist()
        assert pool == oracles.nonsplit_scan([f.disc for f in fields], 10**4)


def _sieve_passes(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the modulus and the cells of every sieve pass from here on, listed or counted."""
    moduli, cells = [], []
    sieve_mask = arith._sieve_mask

    def counting(lo, hi, base, modulus=1, residue=0):
        k_lo, mask = sieve_mask(lo, hi, base, modulus, residue)
        moduli.append(modulus)
        cells.append(len(mask))
        return k_lo, mask

    monkeypatch.setattr(arith, "_sieve_mask", counting)
    return moduli, cells


@pytest.mark.parametrize(
    "traces, routes",
    [
        ((4,), {10**4: 12, 10**6: 12}),
        ((4, 5), {10**4: 84, 10**6: 84, 3_200_000: 84}),
        ((3, 6), {10**4: 40, 10**6: 40}),
        ((4, 5, 7), {10**4: 420, 10**6: 420}),
        ((1000,), {10**4: 1, 10**6: 1}),  # disc 999996: its inert classes outweigh the plain sieve
        ((4, 1000), {10**4: 1, 10**6: 1}),
    ],
)
def test_nonsplit_pool_matches_scan_on_both_routes(monkeypatch, traces, routes):
    """The pool equals a per-prime Euler-criterion scan, progressions or filter.

    routes maps N to the modulus sieved: 1 for the plain sieve and the
    character filter, lcm(discs) for the inert classes plus the ramified primes.
    """
    fields = spectrum_from_inputs(traces=list(traces)).fields()
    scan = oracles.nonsplit_scan([f.disc for f in fields], max(routes))
    moduli, _ = _sieve_passes(monkeypatch)
    for n, modulus in routes.items():
        moduli.clear()
        pool = census._merged(census._nonsplit_pool(census._system(fields), n))
        assert pool.dtype == np.int64
        assert pool.tolist() == [p for p in scan if p <= n], n
        assert set(moduli) == {modulus}, n


def test_nonsplit_pool_of_finite_system(monkeypatch):
    """Q(sqrt 2), Q(sqrt 3), Q(sqrt 6): no class mod 24 is inert in all three.

    A finite system has no inert primes to sieve for, so nothing is sieved,
    and the pool is the ramified primes. That holds as well for Q(sqrt 3),
    Q(sqrt 1000003), Q(sqrt 3000009), whose R = phi(M)/4 classes mod
    M = 12000036 would take the plain sieve.
    """
    fields = tuple(field_from_d(d) for d in (2, 3, 6))
    moduli, _ = _sieve_passes(monkeypatch)
    pool = census._merged(census._nonsplit_pool(census._system(fields), 1_100_000)).tolist()
    assert pool == oracles.nonsplit_scan([8, 12, 24], 1_100_000) == list(nonsplit_primes(fields))
    assert moduli == []
    fields = tuple(field_from_d(d) for d in (3, 1_000_003, 3_000_009))
    pool = census._merged(census._nonsplit_pool(census._system(fields), 1_100_000)).tolist()
    scan = oracles.nonsplit_scan([f.disc for f in fields], 1_100_000)
    assert pool == scan == list(nonsplit_primes(fields)) == [1_000_003]
    assert moduli == []


def test_finite_census_past_int64():
    """A finite system's nonsplit primes are bounded by its discs alone, not by int64.

    p = 18446744073709551653 is a prime past 2**64 with p = 1 mod 4 and p = 3 mod 5:
    p is inert in Q(sqrt 5) and 5 in Q(sqrt p), and both ramify in Q(sqrt 5p).
    Q(sqrt p) alone is infinite: its pool up to 10**30 is past the sieve budget.
    """
    p = 18446744073709551653
    fields = (field_from_d(5), field_from_d(p), field_from_d(5 * p))
    assert nonsplit_primes(fields) == (5, p)
    assert [c.ram for c in count_algebras(fields).classes] == [RamSet(()), RamSet((5, p))]
    assert census._merged(census._nonsplit_pool(census._system(fields), 10**30)).tolist() == [5, p]
    with pytest.raises(SearchExhaustedError):
        census._nonsplit_pool(census._system(fields[1:2]), 10**30)
    # the listing takes one path below 2**64 and past it: the system's own
    # factors, and those with 3, 11, 13 and 17 added
    def listed(fac, top):
        walk = census._walk([fac], top)
        rams = [c.ram.finite_primes for c in census._sorted_even_sets(fac, walk, census._spans([fac], walk, top))]
        assert all(type(p) is int for R in rams for p in R), top
        return rams

    fac = census._merged(census._ram_factors(census._system(fields), p))
    assert fac.dtype == object and listed(fac, 4 * (p - 1)) == [(), (5, p)]
    fac = np.sort(np.concatenate([fac, np.array([2, 10, 12, 16], dtype=object)]))
    for top in (0, 1, 48, 4 * (p - 1), 480 * (p - 1), 2 * 4 * 10 * 12 * 16 * (p - 1)):
        assert listed(fac, top) == _brute_even_sets((fac + 1).tolist(), top), top


def test_character_is_the_product_of_prime_disc_characters():
    """For every fundamental D < 10**4, the product of _character over D's prime
    discriminants is kronecker(D, n). A fixed sample of n is checked on both sides of
    the gather rule: in arrays of 2 entries, fewer than any period m (3, |q| or 8), so
    every factor is evaluated directly, and at the head of an array padded past every
    m, so every factor is gathered from its residues."""
    rng = random.Random(23)
    sample = [0, 1, 2, 3, 8] + rng.sample(range(9, 10**12), 15)
    pad = np.arange(10**4, dtype=np.int64)
    discs = 0
    for d in range(2, 10**4):
        fld = field_from_d(d) if oracles.squarefree_reduce(d) == d else None
        if fld is None or fld.disc >= 10**4:
            continue
        discs += 1
        pds = prime_disc_vector(fld)
        want = [kronecker(fld.disc, n) for n in sample]
        short = np.array(sample, np.int64).reshape(-1, 2)
        direct = [math.prod(census._character(q, ns) for q in pds) for ns in short]
        assert np.concatenate(direct).tolist() == want, fld.disc
        padded = np.concatenate([np.array(sample, np.int64), pad])
        gathered = math.prod(census._character(q, padded) for q in pds)
        assert gathered[: len(sample)].tolist() == want, fld.disc
    assert discs == 3043


def test_character_of_a_large_prime_disc_is_legendre():
    """Euler's criterion stays exact up to |q| < 2**31 (every square below 2**62) and
    kronecker takes over past it: prime discriminants above 2**20, on either side of
    2**31 and above 2**40, checked on primes up to 2**61 - 1."""
    rng = random.Random(31)
    primes = [2, 3, 2**31 - 1, 2147483659, 2**61 - 1]
    while len(primes) < 60:
        n = rng.randrange(3, 2**61, 2)
        if is_prime(n):
            primes.append(n)
    ns = np.array(primes, np.int64)
    for q in (-1048583, -(2**31 - 1), -2147483659, -1099511627791):
        assert is_prime(-q) and q % 4 == 1
        assert census._character(q, ns).tolist() == [oracles.legendre(p, -q) for p in primes], q


def _kronecker_calls(monkeypatch) -> list[tuple[int, int]]:
    """Record the arguments of every kronecker call the census makes from here on."""
    calls = []

    def recording(a, n):
        calls.append((a, n))
        return kronecker(a, n)

    monkeypatch.setattr(census, "kronecker", recording)
    return calls


def test_kronecker_only_for_a_two_adic_character(monkeypatch):
    """Below 2**31 an odd prime discriminant's character is Euler's criterion, so the
    census calls kronecker only for a 2-adic one, over at most its 8 residues.

    Trace 1025 (disc 1,050,621, every prime disc odd) makes no call; traces 1021 and
    1025 both have 26 classes at V = 100. Disc 12's pool (-4 and -3) calls it for -4
    alone, and so does the traces 4,5 pool, which classifies the residues mod 84.
    """
    calls = _kronecker_calls(monkeypatch)
    for trace in (1021, 1025):
        spec = spectrum_from_inputs(traces=[trace])
        (fld,) = spec.fields()
        n = oracles.coarea_cutoff(100)
        pool = oracles.nonsplit_scan([fld.disc], n + 1)
        want = len(oracles.even_subset_products([p - 1 for p in pool], n))
        assert pi_of_V(spec, 100)[0] == want == 26, trace
    assert fld.disc == 1_050_621 and all(q % 2 for q in prime_disc_vector(fld))
    assert calls == []
    system = census._system(spectrum_from_inputs(traces=[4]).fields())
    for pmax in (12, 13):
        calls.clear()
        assert census._merged(census._nonsplit_pool(system, pmax)).tolist() == oracles.nonsplit_scan([12], pmax)
        assert {a for a, _ in calls} == {-4} and len(calls) <= 8, pmax
    moduli, _ = _sieve_passes(monkeypatch)
    calls.clear()
    fields = spectrum_from_inputs(traces=[4, 5]).fields()
    census._nonsplit_pool(census._system(fields), 3_200_000)
    assert set(moduli) == {84}
    assert sorted(n for _, n in calls) == list(range(8)) and {a for a, _ in calls} == {-4}


def test_sieve_budget_is_checked_before_sieving(monkeypatch):
    """A span of exactly SIEVE_BUDGET numbers is sieved; one more raises
    SearchExhaustedError, carrying the budget, before any sieving."""
    assert census.SIEVE_BUDGET >= census._cutoff(1.1e8)  # test_short_interval_counts_at_1e8
    spec = spectrum_from_inputs(traces=[4])
    pair = (field_from_d(3), field_from_d(17))
    monkeypatch.setattr(census, "SIEVE_BUDGET", 1001)
    rep = verify_chebotarev_interval(pair, 10**4, 1000)
    assert rep.actual == _inert_recount([12, 17], 10**4, 11_000)
    top = census._cutoff(1e3)  # the pool is sieved on [2, top + 1]
    monkeypatch.setattr(census, "SIEVE_BUDGET", top)
    pool = oracles.nonsplit_scan([12], top + 1)
    assert pi_of_V(spec, 1e3)[0] == len(oracles.even_subset_products([p - 1 for p in pool], top))

    def no_sieve(*args):
        raise AssertionError("sieved past the budget")

    monkeypatch.setattr(census, "prime_segments", no_sieve)
    monkeypatch.setattr(census, "prime_count", no_sieve)
    monkeypatch.setattr(census, "SIEVE_BUDGET", top - 1)
    for call in (
        lambda: verify_chebotarev_interval(pair, 10**4, top - 1),
        lambda: pi_of_V(spec, 1e3),
        lambda: short_interval_delta(spec, 9e2, 1e2),
    ):
        with pytest.raises(SearchExhaustedError) as info:
            call()
        assert info.value.bound == top - 1
    # a finite system sieves nothing, so no budget applies
    assert pi_of_V(spectrum_from_inputs(radicands=[3, 17, 51]), 1e30)[0] == 2


def test_base_sieve_past_the_budget_is_refused(monkeypatch):
    """SIEVE_BUDGET bounds the base primes up to sqrt(hi) too. With the budget at 1000, a
    window of 1000 numbers with isqrt(hi) = 1000 is counted; one with isqrt(hi) = 1001
    raises SearchExhaustedError, carrying the budget, before the base sieve is built."""
    pair = (field_from_d(3), field_from_d(17))
    monkeypatch.setattr(census, "SIEVE_BUDGET", 1000)
    rep = verify_chebotarev_interval(pair, 1_001_001, 999)  # hi = 1001**2 - 1
    assert rep.actual == _inert_recount([12, 17], 1_001_001, 1_002_000)

    def no_base(hi, modulus):
        raise AssertionError("the base sieve must not be built")

    monkeypatch.setattr(arith, "_sieve_base", no_base)
    with pytest.raises(SearchExhaustedError) as info:
        verify_chebotarev_interval(pair, 1_001_002, 999)  # hi = 1001**2
    assert info.value.bound == 1000


def _rebind(monkeypatch, original, replacement) -> None:
    """Rebind every commcensus module name whose value is original, as the benchmark tracer does."""
    for name, module in list(sys.modules.items()):
        if name == "commcensus" or name.startswith("commcensus."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def _factored(monkeypatch) -> list[int]:
    """Record every arith.factorize argument, under any name a commcensus module holds it."""
    seen = []
    factorize = arith.factorize

    def counting(n, *args, **kwargs):
        seen.append(n)
        return factorize(n, *args, **kwargs)

    _rebind(monkeypatch, factorize, counting)
    return seen


def _gf2_calls(monkeypatch) -> list[str]:
    """Record the name of every gf2 elimination from here on."""
    seen = []
    for name in gf2.__all__:
        fn = getattr(gf2, name)
        monkeypatch.setattr(gf2, name, lambda *a, _n=name, _f=fn: seen.append(_n) or _f(*a))
    return seen


def test_each_census_call_derives_the_fields_once(monkeypatch):
    """One factorization per field disc and one left kernel per public call, also across
    count_algebras and the read of its classes.

    Only the sign witness of an infinite verdict adds a gf2.solve.
    """
    spec4 = spectrum_from_inputs(traces=[4])
    spec45 = spectrum_from_inputs(traces=[4, 5])
    pair = (field_from_d(3), field_from_d(17))
    calls = [
        (spec4.fields(), lambda: pi_of_V(spec4, 1e4), []),
        (spec45.fields(), lambda: short_interval_delta(spec45, 1e5, 1e4), []),
        (pair, lambda: verify_chebotarev_interval(pair, 10**4, 10**3), []),
        (TRIPLE, lambda: count_algebras(TRIPLE), []),
        (TRIPLE, lambda: count_algebras(TRIPLE).classes, []),
        (TRIPLE, lambda: nonsplit_primes(TRIPLE), []),
        (TRIPLE, lambda: nonsplit_is_finite(TRIPLE), []),
        (pair, lambda: nonsplit_is_finite(pair), ["solve"]),
    ]
    factored = _factored(monkeypatch)
    eliminations = _gf2_calls(monkeypatch)
    for fields, call, extra in calls:
        factored.clear()
        eliminations.clear()
        call()
        assert sorted(factored) == sorted(f.disc for f in fields)
        assert eliminations == ["left_kernel", *extra]


def test_pi_of_v_at_a_hard_discriminant(monkeypatch):
    """The disc, squarefree t**2 - 4, has the prime factors 41, 59, 5308141,
    30000000001, 70000000033 and 163546395203: about 0.3 s of rho per factorization.

    The 84 pool primes below N + 1 are checked one by one, and the classes are
    listed by products; even_subset_count would walk 2**84 subsets.
    """
    spec = spectrum_from_inputs(traces=[2100000001060000000035])
    (fld,) = spec.fields()
    n = oracles.coarea_cutoff(1e3)
    pool = oracles.nonsplit_scan([fld.disc], n + 1)
    want = len(oracles.even_subset_products([p - 1 for p in pool], n))
    factored = _factored(monkeypatch)
    count, classes = pi_of_V(spec, 1e3)
    assert count == len(classes) == want == 181
    assert factored == [fld.disc]


def test_census_leaves_no_reference_cycles():
    spec = spectrum_from_inputs(traces=[4])
    gc.collect()
    gc.disable()
    try:
        short_interval_delta(spec, 1e5, 1e4)
        assert gc.collect() == 0
        pi_of_V(spec, 1e5)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_census_restores_the_collector_state(monkeypatch, enabled):
    """Nothing in the census turns the collector on or off: a call leaves it as it
    found it, also when the listing raises. With the collector on, a later
    collection finds nothing left behind."""
    spec = spectrum_from_inputs(traces=[4])
    fields = construct_family(6).fields
    calls = [lambda: pi_of_V(spec, 1e5), lambda: count_algebras(fields).classes]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.isenabled() is enabled
            assert gc.collect() == 0

        def walk_fails(fac, walk, spans):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(census, "_sorted_even_sets", walk_fails)
        for call in calls:
            with pytest.raises(RuntimeError, match="walk failed"):
                call()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_census_with_ram_set_rebound_to_a_wrapper(monkeypatch):
    """The benchmark tracer rebinds every module name of RamSet to a wrapper
    function; the class builder must not reach the class through any of them."""
    spec = spectrum_from_inputs(traces=[4])
    fields = construct_family(6).fields
    want = (pi_of_V(spec, 3e4), count_algebras(fields).classes)
    _rebind(monkeypatch, RamSet, lambda *args, **kwargs: RamSet(*args, **kwargs))
    assert quaternion.RamSet is not RamSet and census.RamSet is not RamSet
    assert (pi_of_V(spec, 3e4), count_algebras(fields).classes) == want


def test_class_budget_is_checked_before_building(monkeypatch):
    """A listing of exactly CLASS_BUDGET classes is built; one more class raises
    SearchExhaustedError, carrying the budget, before the class table is built: from
    pi_of_V, and from the read of a census's classes."""
    spec = spectrum_from_inputs(traces=[4])
    count = pi_of_V(spec, 1e4)[0]
    # trace 4 at V = 1e7 (test_short_interval_scale_pin) still lists
    assert census.CLASS_BUDGET >= 1_403_587
    monkeypatch.setattr(census, "CLASS_BUDGET", count)
    assert pi_of_V(spec, 1e4)[0] == count
    report = count_algebras(TRIPLE)
    assert report.count_total == len(report.classes) == 2

    def build_fails(fac, walk, spans):
        raise AssertionError("built the class table past the budget")

    monkeypatch.setattr(census, "_sorted_even_sets", build_fails)
    for budget, call in (
        (count - 1, lambda: pi_of_V(spec, 1e4)),
        (1, lambda: count_algebras(TRIPLE).classes),
    ):
        monkeypatch.setattr(census, "CLASS_BUDGET", budget)
        with pytest.raises(SearchExhaustedError) as info:
            call()
        assert info.value.bound == budget


def test_a_listing_builds_its_classes_only_when_read(monkeypatch):
    """pi_of_V and count_algebras return a table of index rows and build no class:
    each class is built by quaternion._unchecked_class when it is read, so the
    CLI's first 200 rows build exactly 200 classes, equal to the full listing's."""
    spec = spectrum_from_inputs(traces=[4])
    fields = construct_family(8).fields
    unchecked, built = quaternion._unchecked_class, []

    def counting(primes):
        built.append(primes)
        return unchecked(primes)

    monkeypatch.setattr(census, "_unchecked_class", counting)
    for call in (lambda: pi_of_V(spec, 1e5)[1], lambda: count_algebras(fields).classes):
        built.clear()
        classes = call()
        assert built == [] and len(classes) > 200
        head = list(classes[:200])
        assert len(built) == 200
        assert head == list(classes)[:200] and built[:200] == [c.ram.finite_primes for c in head]


@pytest.mark.parametrize("finite", [True, False])
def test_class_table_is_a_read_only_sequence(finite):
    """A ClassTable reads as the list of its classes: indices either side, IndexError
    past both ends, slices (tables too), == and hash with a table and a list, pickle.
    Both pools: a finite census's object array of Python ints and an infinite one's int64."""
    def table():
        if finite:
            return count_algebras(construct_family(5).fields).classes
        return pi_of_V(spectrum_from_inputs(traces=[4]), 1e3)[1]

    classes = table()
    items = list(classes)
    n = len(items)
    assert isinstance(classes, census.ClassTable) and len(classes) == n > 8
    assert [classes[i] for i in range(-n, n)] == items + items
    assert classes[np.int64(3)] == items[3]
    for i in (n, -n - 1, 10**30):
        with pytest.raises(IndexError):
            classes[i]
    with pytest.raises(TypeError):
        classes[1.0]
    with pytest.raises(TypeError):
        classes[0] = items[0]
    for part in (slice(None), slice(2, -2), slice(None, None, 3), slice(-1, 0, -2), slice(n, None), slice(4, 2)):
        sub = classes[part]
        assert isinstance(sub, census.ClassTable), part
        assert list(sub) == items[part] and len(sub) == len(items[part]), part
        assert sub == items[part] and hash(sub) == hash(tuple(items[part])), part
    assert classes[1:][2:5][::-1] == items[1:][2:5][::-1]
    twin = table()
    assert twin is not classes and twin == classes and hash(twin) == hash(classes)
    assert classes == items and items == classes and classes == tuple(items)
    assert hash(classes) == hash(tuple(items))
    assert classes != items[:-1] and classes != items[::-1] and classes != classes[1:]
    assert classes != 3 and classes[:0] == [] and hash(classes[:0]) == hash(())
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(classes, proto))
        assert type(copy) is census.ClassTable and list(copy) == items, proto
        assert copy == classes and hash(copy) == hash(classes), proto


def test_class_table_reads_each_class_off_its_node_and_last_index():
    """A table stores a class as its odd node of the walk and the index of its even child,
    the empty set as node -1. Every way of reading builds the brute-force classes: negative
    indices, the last class, slices of slices, stepped slices, == and hash with a list.
    A cutoff of 0 lists no class; a cutoff >= 1 with no odd node (no two factors within it,
    or no factor at all) lists the matrix algebra alone."""
    pool = [2, 3, 5, 7, 11, 13, 17, 19]
    fac = np.array([p - 1 for p in pool])
    walk = census._walk([fac], 2000)
    tab = census._sorted_even_sets(fac, walk, census._spans([fac], walk, 2000))
    want = [AlgebraClass(RamSet(R)) for R in _brute_even_sets(pool, 2000)]
    n = len(want)
    assert n > 20 and list(tab) == want and tab == want and hash(tab) == hash(tuple(want))
    assert tab[-1] == want[-1] and tab[0] == want[0] == AlgebraClass(RamSet(()))
    assert [tab[i] for i in range(-n, 0)] == want
    for outer, inner in ((slice(3, -2), slice(1, None, 2)), (slice(None, None, -3), slice(2, 9)), (slice(5, None), slice(None, None, -1))):
        sub = tab[outer][inner]
        assert isinstance(sub, census.ClassTable) and list(sub) == want[outer][inner], (outer, inner)
        assert sub == want[outer][inner] and hash(sub) == hash(tuple(want[outer][inner])), (outer, inner)
        assert sub[-1] == want[outer][inner][-1], (outer, inner)
    for pool, top, rams in (([2, 3, 5, 7], 0, []), ([3, 5], 1, [()]), ([5, 7], 23, [()]), ([], 5, [()])):
        fac = np.array([p - 1 for p in pool], dtype=np.int64)
        walk = census._walk([fac], top)
        assert walk.chosen == [], (pool, top)
        tab = census._sorted_even_sets(fac, walk, census._spans([fac], walk, top))
        assert len(tab) == len(rams) and [c.ram.finite_primes for c in tab] == rams, (pool, top)
        assert tab == [AlgebraClass(RamSet(R)) for R in rams] and tab[-1:] == tab, (pool, top)


def test_class_budget_is_checked_before_listing_the_pool(monkeypatch):
    """Past CLASS_BUDGET, pi_of_V raises having merged and listed only the walk's
    head of the pool, never the whole pool: counting reads its blocks as they are."""
    spec = spectrum_from_inputs(traces=[4])
    count = pi_of_V(spec, 1e4)[0]
    ram_factors, merged = census._ram_factors, census._merged
    sizes, merges, listed = [], [], []

    class Watched(np.ndarray):
        def tolist(self):
            listed.append(len(self))
            return super().tolist()

    def watched(system, top):
        blocks = ram_factors(system, top)
        sizes.append(sum(map(len, blocks)))
        return blocks

    def watched_merge(blocks):
        merges.append(sum(map(len, blocks)))
        return merged(blocks).view(Watched)

    monkeypatch.setattr(census, "_ram_factors", watched)
    monkeypatch.setattr(census, "_merged", watched_merge)
    monkeypatch.setattr(census, "CLASS_BUDGET", count - 1)
    with pytest.raises(SearchExhaustedError):
        pi_of_V(spec, 1e4)
    assert sizes[0] > 100 and listed and max(listed + merges) < sizes[0], (sizes, merges, listed)
    monkeypatch.setattr(census, "CLASS_BUDGET", count)
    merges.clear()
    listed.clear()
    assert pi_of_V(spec, 1e4)[0] == count
    # within the budget the listing merges and lists it
    assert sizes[-1] in merges and sizes[-1] in listed


def test_short_interval_scale_pin():
    """Trace 4 at V = 1e7, W = 1e6; counts confirmed by full enumeration."""
    spec = spectrum_from_inputs(traces=[4])
    t0 = time.perf_counter()
    rep = short_interval_delta(spec, 1e7, 1e6)
    elapsed = time.perf_counter() - t0
    assert (rep.count_at_v, rep.count_at_v_plus_w) == (1_403_587, 1_539_252)
    assert elapsed < 2.0, elapsed


def test_short_interval_scale_pin_at_3e8():
    """Trace 4 at V = 3e8, W = 3e7: a pool of 8.5 M primes, counted without
    listing it; the walk reads only the factors up to sqrt(N).

    Nor is the pool merged: its blocks hold 65 MiB, and the call's traced peak
    is 71 MiB; a merged copy would add 65 MiB more (130 MiB, measured with one).
    The bound of 100 MiB leaves about 29 MiB either way.
    """
    spec = spectrum_from_inputs(traces=[4])
    t0 = time.perf_counter()
    rep = short_interval_delta(spec, 3e8, 3e7)
    elapsed = time.perf_counter() - t0
    assert (rep.count_at_v, rep.count_at_v_plus_w) == (38_167_240, 41_880_360)
    assert elapsed < 2.0, elapsed
    tracemalloc.start()
    try:
        assert short_interval_delta(spec, 3e8, 3e7) == rep
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, peak


def test_listing_orders_equal_coareas_by_ram_set():
    """Trace 4 at V = 3e5: 22,966 of the 47,793 classes share their coarea with
    another, so the listing is sorted by (coarea, primes), not by coarea alone."""
    classes = pi_of_V(spectrum_from_inputs(traces=[4]), 3e5)[1]
    keys = [(c.coarea.coef, c.ram.finite_primes) for c in classes]
    assert keys == sorted(keys)
    assert len({ram for _, ram in keys}) == len(classes) == 47_793
    coefs = collections.Counter(coef for coef, _ in keys)
    assert sum(n for n in coefs.values() if n > 1) == 22_966


def test_listing_scale_pin():
    """Trace 4 at V = 3e6: 438,235 classes listed by ascending (prod(p - 1), primes)."""
    spec = spectrum_from_inputs(traces=[4])
    t0 = time.perf_counter()
    count, classes = pi_of_V(spec, 3e6)
    elapsed = time.perf_counter() - t0
    assert count == len(classes) == 438_235
    keys = [(math.prod(p - 1 for p in c.ram.finite_primes), c.ram.finite_primes) for c in classes]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert elapsed < 2.0, elapsed


def test_listing_scale_pin_at_1e7():
    """Trace 4 at V = 1e7: 1,403,587 classes, listed in under 1 s (0.13-0.14 s on a 2-core
    x86 machine). The first 200 classes and a seeded sample of adjacent pairs ascend by
    (prod(p - 1), primes). The call's traced peak is 41 MiB, most of it the sort's per-class
    index and key arrays; a lexsort over padded index rows, as listings were once sorted,
    peaked at 97 MiB. The bound of 60 MiB leaves 19 MiB above the peak."""
    spec = spectrum_from_inputs(traces=[4])
    t0 = time.perf_counter()
    count, classes = pi_of_V(spec, 1e7)
    elapsed = time.perf_counter() - t0
    assert count == len(classes) == 1_403_587

    def key(cls):
        return math.prod(p - 1 for p in cls.ram.finite_primes), cls.ram.finite_primes

    head = [key(c) for c in classes[:200]]
    assert all(a < b for a, b in zip(head, head[1:]))
    for i in random.Random(1403587).sample(range(count - 1), 2000):
        assert key(classes[i]) < key(classes[i + 1]), i
    assert elapsed < 1.0, elapsed
    tracemalloc.start()
    try:
        assert pi_of_V(spec, 1e7)[0] == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20, peak


def test_short_interval_monotone_in_window():
    spec = spectrum_from_inputs(traces=[4])
    d1 = short_interval_delta(spec, 5000.0, 500.0).delta
    d2 = short_interval_delta(spec, 5000.0, 1500.0).delta
    assert d2 >= d1


def test_short_interval_validation():
    spec = spectrum_from_inputs(traces=[4])
    with pytest.raises(DomainError):
        short_interval_delta(spec, 100.0, 100.0)  # window must stay below V
    with pytest.raises(DomainError):
        short_interval_delta(spec, 100.0, 0.0)
    with pytest.raises(DomainError):
        short_interval_delta(spec, 0.0, 10.0)
    with pytest.raises(DomainError):
        short_interval_delta(spec, math.inf, 1.0)
    with pytest.raises(DomainError):
        short_interval_delta(spec, 1.0, 0.5)  # ln V = 0: no density floor
    assert short_interval_delta(spec, 0.9, 0.5).bound < 0  # V < 1 stays valid


def test_volumes_past_the_float_range():
    """Finite and positive is decided exactly: an int or a Fraction past the float
    range is a finite volume and reaches the sieve budget, as 1e300 does, and a
    finite system counts its whole census there; inf and nan stay DomainErrors."""
    spec = spectrum_from_inputs(traces=[4])
    for call in (
        lambda: pi_of_V(spec, 10**400),
        lambda: pi_of_V(spec, Fraction(10**400, 3)),
        lambda: pi_of_V(spec, 1e300),
        lambda: short_interval_delta(spec, 10**400, 10),
        lambda: short_interval_delta(spec, 1e300, 10),
    ):
        with pytest.raises(SearchExhaustedError) as info:
            call()
        assert info.value.bound == census.SIEVE_BUDGET
    for volume in (math.inf, math.nan):
        with pytest.raises(DomainError):
            pi_of_V(spec, volume)
        with pytest.raises(DomainError):
            short_interval_delta(spec, volume, 10)
    finite = spectrum_from_inputs(radicands=[3, 17, 51])
    assert pi_of_V(finite, 10**400)[0] == pi_of_V(finite, Fraction(10**400, 3))[0] == 2
    assert short_interval_delta(finite, 10**400, 10).delta == 0


def test_density_floor_past_the_float_range():
    """W/(2**r * ln V) takes ln V from math.log, and for a Fraction V past the float
    range from its numerator and denominator. A floor past the float range is a
    DomainError, raised before the census is counted: before the sieve budget on
    an infinite system."""
    finite = spectrum_from_inputs(radicands=[3, 17, 51])
    rep = short_interval_delta(finite, Fraction(10**400, 3), 10)
    assert rep.delta == 0
    assert rep.bound == 10 / (2**3 * (math.log(10**400) - math.log(3))) > 0
    assert short_interval_delta(finite, 10**400, 10).bound == 10 / (2**3 * math.log(10**400))
    tiny = short_interval_delta(finite, Fraction(1, 10**400), Fraction(1, 10**401))
    assert tiny.delta == 0 and tiny.bound == 0.0  # W underflows, ln V does not
    spec = spectrum_from_inputs(traces=[4])
    assert short_interval_delta(spec, 5000.0, 500.0).bound == 500.0 / (2 * math.log(5000.0))
    for system in (finite, spec):
        with pytest.raises(DomainError, match="float range"):
            short_interval_delta(system, 10**400, 10**399)


def test_each_census_call_walks_once(monkeypatch):
    """pi_of_V counts and lists off one walk, short_interval_delta counts both
    cutoffs off one, count_algebras walks none, and the read of its classes lists off
    one. Past CLASS_BUDGET, pi_of_V raises after its one walk and that read before any."""
    spec, fields = spectrum_from_inputs(traces=[4]), construct_family(6).fields
    odd_nodes, walks = census._odd_nodes, []

    def watched(fac, top):
        walks.append(top)
        return odd_nodes(fac, top)

    monkeypatch.setattr(census, "_odd_nodes", watched)
    calls = {
        "pi_of_V": lambda: pi_of_V(spec, 1e5),
        "pi_of_V, finite": lambda: pi_of_V(spectrum_from_inputs(radicands=[3, 17, 51]), 40),
        "short_interval_delta": lambda: short_interval_delta(spec, 1e5, 1e4),
        "count_algebras(...).classes": lambda: count_algebras(fields).classes,
    }
    for name, call in calls.items():
        walks.clear()
        call()
        assert len(walks) == 1, name
    walks.clear()
    assert count_algebras(fields).count_total == 2**6 and walks == []
    monkeypatch.setattr(census, "CLASS_BUDGET", 2**6 - 1)
    for name, want in (("pi_of_V", 1), ("count_algebras(...).classes", 0)):
        walks.clear()
        with pytest.raises(SearchExhaustedError):
            calls[name]()
        assert len(walks) == want, name


def test_class_budget_stops_the_walk(monkeypatch):
    """Each odd set the walk holds has an even child within the cutoff, so past CLASS_BUDGET
    odd sets the walk raises SearchExhaustedError, before any span is counted: from pi_of_V
    and short_interval_delta alike, on a finite census at a cutoff past most coareas. pi_of_V
    runs at V = 705,727, whose cutoff 673,919 is one below the product of the pool's factors,
    so one class is left out and the walk, not the size check, decides."""
    spec = spectrum_from_inputs(traces=[112, 156, 397])
    assert count_algebras(spec.fields()).nonsplit == (2, 3, 5, 7, 11, 19, 79)
    odd_nodes, held = census._odd_nodes, []

    def watched(fac, top):
        nodes = odd_nodes(fac, top)
        held.append(len(nodes[2]))
        return nodes

    def no_spans(*args):
        raise AssertionError("counted spans")

    monkeypatch.setattr(census, "_odd_nodes", watched)
    assert pi_of_V(spec, 705727)[0] == 63 and held == [31]  # 2**6 - 1 classes, 31 odd sets
    held.clear()
    assert short_interval_delta(spec, 1e30, 1e29).count_at_v == 64 and held == [32]
    monkeypatch.setattr(census, "_spans", no_spans)
    calls = (
        (lambda: pi_of_V(spec, 705727), 31),
        (lambda: pi_of_V(spec.fields(), 705727), 31),
        (lambda: short_interval_delta(spec, 1e30, 1e29), 32),
    )
    for call, odd_sets in calls:
        monkeypatch.setattr(census, "CLASS_BUDGET", odd_sets)  # the walk ends; the spans come next
        with pytest.raises(AssertionError, match="counted spans"):
            call()
        monkeypatch.setattr(census, "CLASS_BUDGET", odd_sets - 1)
        with pytest.raises(SearchExhaustedError) as info:
            call()
        assert info.value.bound == odd_sets - 1


def test_a_census_within_the_cutoff_is_sized_before_the_walk(monkeypatch):
    """Traces 112, 156, 397 have the pool factors 1, 2, 4, 6, 10, 18, 78, whose product is
    673,920. At V = 705,728 the cutoff is 673,920, so all 2**6 classes lie within it and
    pi_of_V refuses a budget of 63 on that size, with no walk; at V = 705,727 the cutoff is
    673,919, and 63 classes are listed."""
    spec = spectrum_from_inputs(traces=[112, 156, 397])
    assert census._cutoff(705728) == 673920 and census._cutoff(705727) == 673919
    monkeypatch.setattr(census, "CLASS_BUDGET", 63)
    assert len(pi_of_V(spec, 705727)[1]) == 63

    def no_walk(fac, top):
        raise AssertionError("walked a census its size refuses")

    monkeypatch.setattr(census, "_odd_nodes", no_walk)
    with pytest.raises(SearchExhaustedError) as info:
        pi_of_V(spec, 705728)
    assert info.value.bound == 63


def test_a_census_counts_its_classes_without_a_walk(monkeypatch):
    """The three fields construct_family starts from for 22 primes = 1 mod 8 (the CLI's
    budget-edge count) leave 22 primes nonsplit: 2**21 classes, counted with no walk. With a
    budget one below that, reading the classes raises, carrying the budget, before any walk."""
    fields = [field_from_d(d) for d in (
        17,
        5477515634891640089472354623302834444220760056144560553,
        322206802052449417027785566076637320248280003302621209,
    )]

    def no_walk(fac, top):
        raise AssertionError("walked a census it only counts")

    monkeypatch.setattr(census, "_odd_nodes", no_walk)
    report = count_algebras(fields)
    assert len(report.nonsplit) == 22 and report.count_total == 2**21
    monkeypatch.setattr(census, "CLASS_BUDGET", 2**21 - 1)
    with pytest.raises(SearchExhaustedError) as info:
        report.classes
    assert info.value.bound == 2**21 - 1


def test_construct_family_scans_its_primes_as_it_reads_them():
    """The generating primes are tested one by one, smallest first: no sieve base of the
    primes up to sqrt(search_bound) is built, so a bound of 4 * 10**18 costs what 10**6
    does, and a bound past the sieve's 2**62 is accepted."""
    want = construct_family(3)
    for bound in (4 * 10**18, 2**64):
        tracemalloc.start()
        try:
            fam = construct_family(3, search_bound=bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (fam.primes, fam.d4) == (want.primes, want.d4) == ((17, 41, 73, 97, 113), 179)
        assert peak < 2**20, (bound, peak)


def test_construct_family_small_n():
    fam0 = construct_family(0)
    assert fam0.primes == (17, 41)
    assert fam0.d4 == 13
    assert fam0.census.eventual_pi == 1
    assert fam0.census.nonsplit == (41,)

    fam1 = construct_family(1)
    assert fam1.primes == (17, 41, 73)
    assert fam1.census.eventual_pi == 2
    assert fam1.census.nonsplit == (41, 73)

    # construction recipe: p1 = 17 splits in L4, later primes stay inert
    for fam in (fam0, fam1):
        l4 = field_from_d(fam.d4)
        assert splitting(l4, 17) is SplitType.SPLIT
        for p in fam.primes[1:]:
            assert splitting(l4, p) is SplitType.INERT
            assert p % 8 == 1 and kronecker(17, p) == -1


def test_construct_family_smallest_fourth_field():
    """d4 is the smallest squarefree d with p1 split and every later prime inert."""
    for n in range(9):
        fam = construct_family(n)
        p1, rest = fam.primes[0], fam.primes[1:]
        for d in itertools.count(2):
            disc = d if d % 4 == 1 else 4 * d
            if (
                oracles.split_at(disc, p1) == 1
                and all(oracles.split_at(disc, p) == -1 for p in rest)
                and oracles.squarefree_reduce(d) == d
            ):
                break
        assert fam.d4 == d, n
        assert fam.fields[3] == field_from_d(d)


def test_construct_family_fourth_field_past_the_first_blocks():
    """d4 for n = 9..15 at the default bound and for n = 16 at 2 * 10**6, where the search
    runs through many doubling blocks; each is squarefree, split at p1, inert at the rest."""
    want = {9: 4229, 10: 4229, 11: 4229, 12: 4229, 13: 4229, 14: 493_093, 15: 718_513}
    cases = [(n, census.FAMILY_SEARCH_BOUND, d4) for n, d4 in want.items()]
    for n, bound, d4 in [*cases, (16, 2 * 10**6, 1_733_797)]:
        fam = construct_family(n, bound)
        assert fam.d4 == d4, n
        disc = d4 if d4 % 4 == 1 else 4 * d4
        assert oracles.squarefree_reduce(d4) == d4
        assert oracles.split_at(disc, fam.primes[0]) == 1, n
        assert all(oracles.split_at(disc, p) == -1 for p in fam.primes[1:]), n


def test_construct_family_brute_prime_scan():
    """No prime below 10**4 outside {p2..pm} survives all four fields."""
    fam = construct_family(1)
    discs = [f.disc for f in fam.fields]
    assert oracles.nonsplit_scan(discs, 10**4) == list(fam.census.nonsplit)


def test_construct_family_rejections():
    with pytest.raises(DomainError):
        construct_family(-1)
    for bound in (1, 0, -5):
        with pytest.raises(DomainError, match="search_bound"):
            construct_family(3, search_bound=bound)
    with pytest.raises(SearchExhaustedError) as info:
        construct_family(3, search_bound=50)
    assert info.value.bound == 50


def test_selectivity_never_possible():
    verdict = selectivity_check(RamSet((3, 17)), order_from_disc(17))
    assert not verdict.selective_possible
    assert verdict.condition1 and not verdict.condition2
    assert verdict.certificate_prime == 17
    # the three constant conditions are class attributes, not stored fields
    assert [f.name for f in dataclasses.fields(SelectivityVerdict)] == [
        "condition3",
        "certificate_prime",
        "conductor_primes",
    ]

    # conductor 2 on disc 68: 2 splits in Q(sqrt 17), condition (3) holds
    v68 = selectivity_check(RamSet((3, 17)), order_from_disc(68))
    assert not v68.selective_possible
    assert v68.condition3
    assert v68.conductor_primes == ((2, SplitType.SPLIT),)

    # conductor 3 on disc 45: 3 is inert in Q(sqrt 5), condition (3) fails
    v45 = selectivity_check(RamSet((2, 5)), order_from_disc(45))
    assert not v45.condition3
    assert v45.conductor_primes == ((3, SplitType.INERT),)


def test_selectivity_random_pairs_certified():
    rng = random.Random(507)
    primes = oracles.trial_primes(2, 100)
    squarefree = [d for d in range(2, 200) if oracles.squarefree_reduce(d) == d]
    for _ in range(30):
        ram = RamSet(tuple(rng.sample(primes, rng.choice((2, 4)))))
        fld = field_from_d(rng.choice(squarefree))
        order = order_from_disc(fld.disc * rng.choice((1, 4, 9)))
        verdict = selectivity_check(ram, order)
        assert not verdict.selective_possible
        cert = verdict.certificate_prime
        assert fld.disc % cert == 0
        assert splitting(fld, cert) is SplitType.RAMIFIED


@pytest.mark.parametrize(
    "d, reason",
    [(1, "need an integer d > 1"), (12, "d is not squarefree"), (-3, "need an integer d > 1")],
)
def test_selectivity_rejects_a_malformed_field(d, reason):
    """The certificate is read through prime_disc_vector, which checks the field."""
    message = rf"^QuadField\(d={d}\) is not a real quadratic field: {reason}$"
    with pytest.raises(DomainError, match=message):
        selectivity_check(RamSet((2, 5)), QuadOrder(QuadField(d), 1))


def test_selectivity_rejects_definite():
    with pytest.raises(DomainError):
        selectivity_check(RamSet((2,), at_infinity=True), order_from_disc(5))


def test_chebotarev_matches_independent_recount():
    fields = (field_from_d(3), field_from_d(17))
    rep = verify_chebotarev_interval(fields, 10**4, 10**3)
    manual = sum(
        1
        for p in map(int, oracles.sieve_upto(10**4 + 10**3))
        if p >= 10**4 and all(oracles.split_at(f.disc, p) == -1 for f in fields)
    )
    assert rep.actual == manual
    assert abs(rep.predicted - 10**3 / (4 * math.log(10**4))) < 1e-12
    assert rep.density == 0.25
    assert rep.ratio == rep.actual / rep.predicted


def test_chebotarev_single_field_metadata():
    rep = verify_chebotarev_interval((field_from_d(3),), 10**4, 10**3)
    assert rep.density == 0.5


def test_chebotarev_recount_across_segments():
    """[10**6, 2*10**6] spans several prime_segments blocks."""
    fields = (field_from_d(3), field_from_d(17))
    rep = verify_chebotarev_interval(fields, 10**6, 10**6)
    manual = sum(
        1
        for p in map(int, oracles.sieve_upto(2 * 10**6))
        if p >= 10**6 and all(oracles.split_at(f.disc, p) == -1 for f in fields)
    )
    assert rep.actual == manual


def _inert_recount(discs, lo, hi) -> int:
    primes = oracles.sieve_upto(hi)
    return sum(
        1
        for p in map(int, primes[primes >= lo])
        if all(oracles.split_at(d, p) == -1 for d in discs)
    )


def test_chebotarev_recount_on_both_routes(monkeypatch):
    """(3,) sieves the 2 classes of inert primes mod 12; (3, 1000003) filters.

    Q(sqrt 1000003) has discriminant 4000012, so its inert classes mod 12000036,
    each a pass that walks the base, cost more than the plain sieve's cells and are
    never listed; its character -1000003 is longer than a block, so Euler's criterion
    runs on the primes themselves, and its ramified prime lies inside the range.
    """
    moduli, _ = _sieve_passes(monkeypatch)
    rep = verify_chebotarev_interval((field_from_d(3),), 1_500_000, 1_500_000)
    assert rep.actual == _inert_recount([12], 1_500_000, 3_000_000)
    assert moduli == [12, 12]
    moduli.clear()
    fields = (field_from_d(3), field_from_d(1_000_003))
    rep = verify_chebotarev_interval(fields, 10**6, 10**5)
    assert rep.actual == _inert_recount([12, 4_000_012], 10**6, 10**6 + 10**5)
    assert moduli == [1]


def test_chebotarev_sieve_passes_at_benchmark_inputs(monkeypatch):
    """(3, 17) on [1e9, 1.03e9]: 16 inert classes mod 204, one pass each.

    The plain sieve takes ceil(3e7 / 2**19) = 58 passes over every number.
    Each pass is counted off its mask: none is turned into primes.
    """
    moduli, _ = _sieve_passes(monkeypatch)

    def no_listing(*args):
        raise AssertionError("a counted pass was listed")

    monkeypatch.setattr(arith, "sieve_segment", no_listing)
    rep = verify_chebotarev_interval((field_from_d(3), field_from_d(17)), 10**9, 3 * 10**7)
    assert rep.actual == 361_774
    assert moduli == [204] * 16


@pytest.mark.parametrize(
    "fields, lo, hi, modulus, passes, cells",
    [
        # pi_census's pool, trace 4 at V = 3e5: 2 passes of 23,873 cells, not 286,478
        (spectrum_from_inputs(traces=[4]).fields(), 2, 286_479, 12, 2, 47_746),
        # traces 4, 5, 7 at V = 3.3e6: 12 passes of 7,503 cells, not 3,151,267
        (spectrum_from_inputs(traces=[4, 5, 7]).fields(), 2, 3_151_268, 420, 12, 90_036),
        # 96 passes of about 140 cells, each walking a base of 1,414, not two 2**19-cell passes
        (tuple(map(field_from_d, (3, 17, 5, 7))), 10**6, 2 * 10**6, 7140, 96, 13_446),
        (tuple(map(field_from_d, (3, 17, 5, 7, 11, 13))), 10**6, 2 * 10**6, 1, 2, 10**6 + 1),
        (tuple(map(field_from_d, (3, 1_000_003))), 10**6, 2 * 10**6, 1, 2, 10**6 + 1),
    ],
    ids=["pi_census_pool", "traces_4_5_7", "radicands_3_17_5_7", "radicands_to_13", "radicands_3_1000003"],
)
def test_router_charges_cells_and_base_walks(monkeypatch, fields, lo, hi, modulus, passes, cells):
    """_inert_route takes the plain sieve only when its cells plus one base walk per 2**19
    numbers are fewer than the progressions' cells plus one base walk per pass. The cells
    sieved and the count agree with the oracles: a pool from 2 with nonsplit_scan, a window
    with a per-prime recount."""
    discs = [f.disc for f in fields]
    moduli, sieved = _sieve_passes(monkeypatch)
    if lo == 2:
        pool = census._merged(census._nonsplit_pool(census._system(fields), hi)).tolist()
        assert pool == oracles.nonsplit_scan(discs, hi)
    else:
        assert verify_chebotarev_interval(fields, lo, hi - lo).actual == _inert_recount(discs, lo, hi)
    assert moduli == [modulus] * passes and sum(sieved) == cells, sum(sieved)


def test_chebotarev_rejections():
    with pytest.raises(DomainError):
        verify_chebotarev_interval((field_from_d(3),), 999, 100)
    with pytest.raises(DomainError):
        verify_chebotarev_interval((field_from_d(3),), 10**4, 0)
    with pytest.raises(DomainError):
        verify_chebotarev_interval((field_from_d(3),), 10**4, 10**5)
    # even-weight character relation: infinite but not density 1/2**s
    with pytest.raises(DomainError, match="dependent"):
        verify_chebotarev_interval(
            tuple(field_from_d(d) for d in (2, 3, 5, 30)), 10**4, 10**3
        )
    # finite systems have no positive inert density at all
    with pytest.raises(DomainError, match="finite"):
        verify_chebotarev_interval(TRIPLE, 10**4, 10**3)
    with pytest.raises(DomainError, match="finite"):
        verify_chebotarev_interval(
            (field_from_d(2), field_from_d(3), field_from_d(6)), 10**4, 10**3
        )


_FIELDS_3_17 = (field_from_d(3), field_from_d(17))


@pytest.mark.parametrize(
    "f, good, good_float, bad",
    [
        (construct_family, (2, 10**4), (2, 1e4), [(1.5,), (2, 1e4 + 0.5)]),
        (
            lambda x, y: verify_chebotarev_interval(_FIELDS_3_17, x, y),
            (10**6, 10**5), (1e6, 1e5), [(1e6 + 0.5, 10**5), (10**6, math.nan)],
        ),
        (
            lambda n: quaternion.coarea_general(n, Fraction(1, 30), []),
            (2,), (2.0,), [(2.5,), (math.inf,)],
        ),
    ],
    ids=["construct_family", "verify_chebotarev_interval", "coarea_general"],
)
def test_integer_inputs_are_read_as_integers(f, good, good_float, bad):
    """An integer-valued float works as the integer; any other value is a DomainError."""
    assert f(*good_float) == f(*good)
    for args in bad:
        with pytest.raises(DomainError, match="is not an integer"):
            f(*args)
