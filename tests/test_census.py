"""Census of commensurability classes: finiteness, counting, growth, family."""
from __future__ import annotations

import bisect
import dataclasses
import gc
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from commcensus import arith, census, gf2, quaternion
from commcensus.arith import is_square, kronecker
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
    SplitType,
    field_from_d,
    order_from_disc,
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
    with pytest.raises(DomainError):
        nonsplit_is_finite(())
    with pytest.raises(DomainError):
        nonsplit_is_finite((field_from_d(3), field_from_d(12)))  # same field twice


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


def test_even_ram_set_counter_against_brute_force():
    """Bulk-counted traversal and enumeration vs plain subset enumeration.

    Cutoffs sit on an achievable even-subset product and one either side of
    it, plus 0 and 1; half the pools contain p = 2, whose factor is 1.
    """
    rng = random.Random(508)
    primes = oracles.trial_primes(2, 200)
    for _ in range(40):
        pool = set(rng.sample(primes, rng.randint(0, 10)))
        if rng.random() < 0.5:
            pool.add(2)
        pool = sorted(pool)
        fac = [p - 1 for p in pool]
        hit = math.prod(rng.sample(fac, 2 * rng.randint(0, len(fac) // 2)))
        cutoffs = sorted({0, 1, hit - 1, hit, hit + 1, rng.randrange(10**6)})
        want = [oracles.even_subset_count(fac, c + 1) for c in cutoffs]
        assert census._count_even_ram_sets(fac, cutoffs) == want, (pool, cutoffs)
        for c, n in zip(cutoffs, want):
            brute = sorted(
                (math.prod(p - 1 for p in sub), sub)
                for k in range(0, len(pool) + 1, 2)
                for sub in itertools.combinations(pool, k)
                if math.prod(p - 1 for p in sub) <= c
            )
            assert len(brute) == n
            assert sorted(census._even_ram_sets(fac, c)) == brute, (pool, c)


def test_nonsplit_pool_past_table_bound():
    """A discriminant above 2**20 takes the per-prime character path."""
    big = field_from_d(1_000_003)
    assert big.disc > 1 << 20
    for fields in ((big,), (field_from_d(3), big)):
        pool = census._nonsplit_pool(census._system(fields), 10**4).tolist()
        assert pool == oracles.nonsplit_scan([f.disc for f in fields], 10**4)


def _sieve_moduli(monkeypatch) -> list[int]:
    """Record the modulus of every arith.sieve_segment pass from here on."""
    moduli = []
    sieve_segment = arith.sieve_segment

    def counting(lo, hi, base, modulus=1, residue=0):
        moduli.append(modulus)
        return sieve_segment(lo, hi, base, modulus, residue)

    monkeypatch.setattr(arith, "sieve_segment", counting)
    return moduli


@pytest.mark.parametrize(
    "traces, routes",
    [
        ((4,), {10**4: 1, 10**6: 12}),
        ((4, 5), {10**4: 1, 10**6: 1, 3_200_000: 84}),
        ((3, 6), {10**4: 1, 10**6: 1}),
        ((4, 5, 7), {10**4: 1, 10**6: 1}),
    ],
)
def test_nonsplit_pool_matches_scan_on_both_routes(monkeypatch, traces, routes):
    """The pool equals a per-prime Euler-criterion scan, progressions or filter.

    routes maps N to the modulus sieved: 1 for the plain sieve and the
    character filter, lcm(discs) for the inert classes plus the ramified primes.
    """
    fields = spectrum_from_inputs(traces=list(traces)).fields()
    scan = oracles.nonsplit_scan([f.disc for f in fields], max(routes))
    moduli = _sieve_moduli(monkeypatch)
    for n, modulus in routes.items():
        moduli.clear()
        pool = census._nonsplit_pool(census._system(fields), n)
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
    moduli = _sieve_moduli(monkeypatch)
    pool = census._nonsplit_pool(census._system(fields), 1_100_000).tolist()
    assert pool == oracles.nonsplit_scan([8, 12, 24], 1_100_000) == list(nonsplit_primes(fields))
    assert moduli == []
    fields = tuple(field_from_d(d) for d in (3, 1_000_003, 3_000_009))
    pool = census._nonsplit_pool(census._system(fields), 1_100_000).tolist()
    scan = oracles.nonsplit_scan([f.disc for f in fields], 1_100_000)
    assert pool == scan == list(nonsplit_primes(fields)) == [1_000_003]
    assert moduli == []


def _tables_built(monkeypatch) -> list[int]:
    """Record the disc of every character_table the census builds from here on."""
    built = []
    character_table = census.character_table
    def recording(disc):
        built.append(disc)
        return character_table(disc)

    monkeypatch.setattr(census, "character_table", recording)
    return built


def test_character_table_only_where_it_pays(monkeypatch):
    """A disc-long table costs one kronecker call per residue. The plain sieve's filter
    builds it only for a disc no larger than the span it classifies; below that it
    calls kronecker per prime. The progression route classifies the M residues and
    keeps its tables.

    Trace 1021 (disc 1,042,437 <= 2**20) at V = 100 builds no table, as trace 1025
    (disc 1,050,621 > 2**20) never does; both have 26 classes.
    """
    built = _tables_built(monkeypatch)
    for trace in (1021, 1025):
        spec = spectrum_from_inputs(traces=[trace])
        (fld,) = spec.fields()
        n = oracles.coarea_cutoff(100)
        pool = oracles.nonsplit_scan([fld.disc], n + 1)
        want = len(oracles.even_subset_products([p - 1 for p in pool], n))
        assert pi_of_V(spec, 100)[0] == want == 26, trace
    assert built == []
    # disc 12 on the plain route: a span of 11 numbers takes kronecker, 12 the table
    system = census._system(spectrum_from_inputs(traces=[4]).fields())
    for pmax, tables in ((12, []), (13, [12])):
        built.clear()
        assert census._nonsplit_pool(system, pmax).tolist() == oracles.nonsplit_scan([12], pmax)
        assert built == tables, pmax
    moduli = _sieve_moduli(monkeypatch)
    built.clear()
    fields = spectrum_from_inputs(traces=[4, 5]).fields()
    census._nonsplit_pool(census._system(fields), 3_200_000)
    assert set(moduli) == {84} and sorted(built) == [12, 21]


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
    """One factorization per field disc and one left kernel per public call.

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
    """The class build pauses the collector and leaves it as it found it, also when
    the build raises. With the collector on, a later collection finds nothing the
    pause deferred."""
    spec = spectrum_from_inputs(traces=[4])
    fields = construct_family(6).fields
    calls = [lambda: pi_of_V(spec, 1e5), lambda: count_algebras(fields)]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.isenabled() is enabled
            assert gc.collect() == 0

        def walk_fails(fac, top):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(census, "_even_ram_sets", walk_fails)
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
    SearchExhaustedError, carrying the budget, before any class is built."""
    spec = spectrum_from_inputs(traces=[4])
    count = pi_of_V(spec, 1e4)[0]
    # trace 4 at V = 1e7 (test_short_interval_scale_pin) still lists
    assert census.CLASS_BUDGET >= 1_403_587
    monkeypatch.setattr(census, "CLASS_BUDGET", count)
    assert pi_of_V(spec, 1e4)[0] == count
    assert count_algebras(TRIPLE).count_total == 2

    def build_fails(rams):
        raise AssertionError("built classes past the budget")

    monkeypatch.setattr(census, "_trusted_classes", build_fails)
    for budget, call in ((count - 1, lambda: pi_of_V(spec, 1e4)), (1, lambda: count_algebras(TRIPLE))):
        monkeypatch.setattr(census, "CLASS_BUDGET", budget)
        with pytest.raises(SearchExhaustedError) as info:
            call()
        assert info.value.bound == budget


def test_short_interval_scale_pin():
    """Trace 4 at V = 1e7, W = 1e6; counts confirmed by full enumeration."""
    spec = spectrum_from_inputs(traces=[4])
    t0 = time.perf_counter()
    rep = short_interval_delta(spec, 1e7, 1e6)
    elapsed = time.perf_counter() - t0
    assert (rep.count_at_v, rep.count_at_v_plus_w) == (1_403_587, 1_539_252)
    assert elapsed < 2.0, elapsed


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

    Q(sqrt 1000003) has discriminant 4000012 > 2**20, so its classes mod
    12000036 are never listed, and its ramified prime lies inside the range.
    """
    moduli = _sieve_moduli(monkeypatch)
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
    """
    moduli = _sieve_moduli(monkeypatch)
    rep = verify_chebotarev_interval((field_from_d(3), field_from_d(17)), 10**9, 3 * 10**7)
    assert rep.actual == 361_774
    assert moduli == [204] * 16


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
            lambda n, d: quaternion.coarea_general(n, d, 1.2, []),
            (2, 5), (2.0, 5.0), [(2.5, 5), (2, 5.5)],
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
