"""Real quadratic fields, orders, splitting, and norm-one units."""
from __future__ import annotations

import dataclasses
import random
import re

import pytest

import oracles
from commcensus.arith import is_square, kronecker, norm_one_fundamental
from commcensus.census import count_algebras, nonsplit_is_finite, verify_chebotarev_interval
from commcensus.errors import DomainError
from commcensus.quadratic import (
    QuadField,
    QuadOrder,
    SplitType,
    field_from_d,
    norm_one_unit,
    order_from_disc,
    prime_disc_vector,
    splitting,
)


def test_field_from_d_reduction_and_disc():
    # n -> (d, disc); 12 = 3 * 2**2 and 45 = 5 * 3**2 reduce
    cases = {3: (3, 12), 5: (5, 5), 12: (3, 12), 45: (5, 5), 51: (51, 204), 2: (2, 8)}
    for n, want in cases.items():
        f = field_from_d(n)
        assert (f.d, f.disc) == want, n


def test_field_is_its_radicand():
    """d is the one stored value: equality, hash and order read it alone."""
    assert [fd.name for fd in dataclasses.fields(QuadField)] == ["d"]
    assert QuadField(3) == field_from_d(12)
    assert hash(QuadField(3)) == hash(field_from_d(12))
    fields = [field_from_d(17), QuadField(3), field_from_d(5), field_from_d(2)]
    assert sorted(fields) == [QuadField(2), QuadField(3), QuadField(5), QuadField(17)]


@pytest.mark.parametrize("d", [12, 1, -3, 2.5])
def test_census_rejects_a_field_that_is_not_one(d):
    """QuadField(d) with d not a squarefree integer > 1 is refused, naming it, by each entry."""
    bad = QuadField(d)
    pair = [bad, field_from_d(17)]
    entries = (
        lambda: prime_disc_vector(bad),
        lambda: nonsplit_is_finite(pair),
        lambda: count_algebras(pair),
        lambda: verify_chebotarev_interval(pair, 10**6, 10**5),
    )
    for entry in entries:
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            entry()


def test_field_from_d_rejects():
    for bad in (0, 1, 4, 9, 100, -5, -3):
        with pytest.raises(DomainError):
            field_from_d(bad)


def test_splitting_trichotomy_and_oracle():
    """Exactly one SplitType each, ramified iff p | disc, matching Euler."""
    primes = oracles.trial_primes(2, 50)
    for d in range(2, 101):
        if not is_square(d) and oracles.squarefree_reduce(d) == d:
            fld = field_from_d(d)
            for p in primes:
                s = splitting(fld, p)
                assert s in (SplitType.SPLIT, SplitType.INERT, SplitType.RAMIFIED)
                assert (s is SplitType.RAMIFIED) == (fld.disc % p == 0)
                want = oracles.split_at(fld.disc, p)
                got = {SplitType.SPLIT: 1, SplitType.INERT: -1, SplitType.RAMIFIED: 0}[s]
                assert got == want, (d, p)


def test_prime_disc_vector_product_is_disc():
    """Product over the vector reassembles the discriminant, d <= 10**4."""
    for d in range(2, 10**4 + 1):
        if is_square(d) or oracles.squarefree_reduce(d) != d:
            continue
        fld = field_from_d(d)
        vec = prime_disc_vector(fld)
        prod = 1
        for q in vec:
            prod *= q
        assert prod == fld.disc, d
        assert set(vec) == set(oracles.prime_disc_split(fld.disc))


def test_prime_disc_vector_examples():
    assert prime_disc_vector(field_from_d(3)) == frozenset({-3, -4})
    assert prime_disc_vector(field_from_d(17)) == frozenset({17})
    assert prime_disc_vector(field_from_d(51)) == frozenset({-3, 17, -4})
    assert prime_disc_vector(field_from_d(2)) == frozenset({8})
    assert prime_disc_vector(field_from_d(6)) == frozenset({-3, -8})


def test_character_identity_on_triples():
    """(d1 d2 d3 | p) = product of the three single-disc characters."""
    rng = random.Random(777)
    squarefree = [d for d in range(2, 400) if oracles.squarefree_reduce(d) == d]
    primes = oracles.trial_primes(3, 1000)
    done = 0
    while done < 10**3:
        fields = [field_from_d(rng.choice(squarefree)) for _ in range(3)]
        p = rng.choice(primes)
        if any(f.disc % p == 0 for f in fields):
            continue
        lhs = kronecker(fields[0].disc * fields[1].disc * fields[2].disc, p)
        rhs = 1
        for f in fields:
            rhs *= kronecker(f.disc, p)
        assert lhs == rhs
        done += 1


def test_order_from_disc_examples():
    assert order_from_disc(5) == QuadOrder(field=QuadField(5), conductor=1)
    assert order_from_disc(12) == QuadOrder(field=QuadField(3), conductor=1)
    assert order_from_disc(32) == QuadOrder(field=QuadField(2), conductor=2)
    assert order_from_disc(45) == QuadOrder(field=QuadField(5), conductor=3)
    assert order_from_disc(204) == QuadOrder(field=QuadField(51), conductor=1)
    discs = [order_from_disc(D).field.disc for D in (5, 12, 32, 45, 204)]
    assert discs == [5, 12, 8, 5, 204]
    for D in (5, 12, 32, 45, 204, 13, 341):
        assert order_from_disc(D).order_disc == D


def test_order_from_disc_rejects():
    for bad in (0, -4, 7, 10, 16, 25):
        with pytest.raises(DomainError):
            order_from_disc(bad)


def test_norm_one_unit_examples():
    for D, trace in ((5, 3), (8, 6), (12, 4), (13, 11), (17, 66),
                     (21, 5), (29, 27), (32, 6), (45, 7), (204, 100)):
        assert norm_one_unit(order_from_disc(D)) == trace, D


def test_norm_one_unit_scan_oracle():
    """Compare with the direct X**2 - D Y**2 = 4 scan wherever it lands."""
    compared = 0
    for D in range(5, 1001):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        want = oracles.norm_one_scan(D, limit=10**5)
        if want is None:
            continue  # fundamental solution out of scan reach
        assert norm_one_unit(order_from_disc(D)) == want, D
        compared += 1
    assert compared > 300  # 349 of the ~465 candidate discs land in scan range


def test_norm_one_unit_minimal_past_scan_range():
    """Seeded D in [10**3, 10**6], each valid residue mod 8, against the descent oracle."""
    rng = random.Random(2002)
    per_residue = {0: 0, 1: 0, 4: 0, 5: 0}
    odd_solutions = 0
    while min(per_residue.values()) < 50:
        D = rng.randrange(10**3, 10**6)
        if D % 8 not in per_residue or is_square(D) or per_residue[D % 8] >= 50:
            continue
        X, Y = norm_one_fundamental(D)
        assert norm_one_unit(order_from_disc(D)) == X
        assert oracles.norm_one_is_fundamental(D, X, Y), D
        per_residue[D % 8] += 1
        odd_solutions += X % 2
    assert odd_solutions >= 10  # D = 5 mod 8 with an odd fundamental solution: 32 here
    # squares and cubes of a fundamental unit are rejected by the oracle
    for D in (13, 21, 1_000_005):
        X, Y = norm_one_fundamental(D)
        assert not oracles.norm_one_is_fundamental(D, X * X - 2, X * Y)
        assert not oracles.norm_one_is_fundamental(D, X**3 - 3 * X, Y * (X * X - 1))


def test_norm_one_unit_satisfies_equation():
    for D in range(5, 2001):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        t = norm_one_unit(order_from_disc(D))
        assert t >= 3
        y2, rem = divmod(t * t - 4, D)
        assert rem == 0 and is_square(y2), D


def test_trace_power_recurrence_membership():
    """t is a power of the fundamental trace: X_{n+1} = t' X_n - X_{n-1}."""
    for t in range(3, 201):
        base = norm_one_unit(order_from_disc(t * t - 4))
        a, b = 2, base
        while b < t:
            a, b = b, base * b - a
        assert b == t, t
