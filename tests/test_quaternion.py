"""Quaternion algebras over Q: Hilbert symbols, ramification, coarea."""
from __future__ import annotations

import copy
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import commcensus
import oracles
from commcensus import quaternion
from commcensus.errors import DomainError
from commcensus.quadratic import SplitType, field_from_d, splitting
from commcensus.quaternion import (
    INFINITE_PLACE,
    AlgebraClass,
    PiMultiple,
    RamSet,
    admits_embedding,
    algebra_class,
    coarea_general,
    coarea_rational,
    from_hilbert,
    hilbert_local,
    zeta_k2_real_quadratic,
    zeta_k_minus1,
)


def test_pi_multiple_rendering():
    third = PiMultiple(Fraction(1, 3))
    assert str(third) == "pi/3"
    assert abs(float(third) - math.pi / 3) < 1e-15
    assert str(PiMultiple(Fraction(32, 3))) == "32*pi/3"
    assert str(PiMultiple(Fraction(2))) == "2*pi"


def test_slotted_records_round_trip():
    """Pickle, copy and deepcopy give equal, equally hashed records of the same type.

    Covers a class from the census's batch builder too, which fills the slots
    without running __init__. The records are frozen and have no __dict__.
    """
    records = [
        RamSet((3, 17)),
        RamSet((2,), at_infinity=True),
        AlgebraClass(RamSet((5, 13))),
        quaternion._trusted_classes([(3, 17)])[0],
        PiMultiple(Fraction(32, 3)),
    ]
    for rec in records:
        twins = [pickle.loads(pickle.dumps(rec, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*twins, copy.copy(rec), copy.deepcopy(rec)]:
            assert type(twin) is type(rec)
            assert twin == rec and hash(twin) == hash(rec), twin
        assert not hasattr(rec, "__dict__")
        for field in dataclasses.fields(rec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, field.name, getattr(rec, field.name))


def test_ramset_normalization_and_parity():
    assert RamSet((17, 3)).finite_primes == (3, 17)
    assert RamSet((3, 3, 17, 17)).finite_primes == (3, 17)
    assert RamSet((2,), at_infinity=True).is_division
    assert not RamSet(()).is_division
    with pytest.raises(DomainError):
        RamSet((3,))  # odd cardinality
    with pytest.raises(DomainError):
        RamSet((3, 17), at_infinity=True)
    with pytest.raises(DomainError):
        RamSet((4, 2))  # 4 is not prime


def test_ramset_rejects_non_integer_primes():
    assert RamSet((17.0, 3.0)) == RamSet((3, 17))
    assert type(RamSet((17.0, 3.0)).finite_primes[0]) is int
    for entries in ((2.5, 3.9), (math.nan, 3), (math.inf, 3)):
        with pytest.raises(DomainError, match="is not prime"):
            RamSet(entries)


def test_hilbert_local_frozen_examples():
    assert hilbert_local(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_local(-1, -1, 2) == -1
    assert hilbert_local(3, 17, 5) == 1


def test_hilbert_local_oracle_inner_grid():
    """Every place relevant to |a|, |b| <= 12; the wide grid runs in
    the acceptance suite."""
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0:
                continue
            for place in oracles.relevant_places(a, b):
                want = 1 if oracles.local_solvable(a, b, place) else -1
                assert hilbert_local(a, b, place) == want, (a, b, place)


def test_hilbert_local_product_formula():
    """The symbols over all places multiply to +1."""
    rng = random.Random(314)
    for _ in range(500):
        a = rng.randint(-300, 300)
        b = rng.randint(-300, 300)
        if a == 0 or b == 0:
            continue
        prod = 1
        for place in oracles.relevant_places(a, b):
            prod *= hilbert_local(a, b, place)
        assert prod == 1, (a, b)


def test_hilbert_local_trivial_off_support():
    rng = random.Random(315)
    off = [p for p in oracles.trial_primes(3, 200)]
    for _ in range(200):
        a = rng.randint(1, 100)
        b = rng.randint(1, 100)
        p = rng.choice(off)
        if (a * b) % p == 0:
            continue
        assert hilbert_local(a, b, p) == 1


def test_hilbert_local_rejects():
    with pytest.raises(DomainError):
        hilbert_local(0, 5, 3)
    with pytest.raises(DomainError):
        hilbert_local(5, 0, 3)
    with pytest.raises(DomainError):
        hilbert_local(1, 1, 4)
    with pytest.raises(DomainError):
        hilbert_local(1, 1, -3)


def test_hilbert_local_rejects_non_integers():
    assert hilbert_local(3.0, 5.0, 2.0) == hilbert_local(3, 5, 2)
    with pytest.raises(DomainError, match="not a prime"):
        hilbert_local(3, 5, 2.9)
    for a, b in ((3.5, 5), (3, 5.5), (math.nan, 5)):
        with pytest.raises(DomainError, match="nonzero integers"):
            hilbert_local(a, b, 3)


def test_from_hilbert_rejects_non_integers():
    assert from_hilbert(3.0, 17.0) == from_hilbert(3, 17)
    for a, b in ((3.5, 5), (3, 5.5), (math.inf, 5)):
        with pytest.raises(DomainError, match="nonzero integers"):
            from_hilbert(a, b)


def test_from_hilbert_proves_each_prime_once(monkeypatch):
    """factorize's primes are not proved again: only RamSet proves the ramified ones."""
    calls = []
    is_prime = quaternion.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    expected = RamSet((3, 17))
    monkeypatch.setattr(quaternion, "is_prime", counting)
    assert from_hilbert(3, 17) == expected
    assert calls == [3, 17]


def test_from_hilbert_frozen_examples():
    assert from_hilbert(-1, -1) == RamSet((2,), at_infinity=True)
    assert from_hilbert(-1, -3) == RamSet((3,), at_infinity=True)
    for n in (1, -1, 7, -30, 360):
        assert from_hilbert(1, n) == RamSet(())
    assert from_hilbert(3, 17) == RamSet((3, 17))


def test_from_hilbert_search_for_target_class():
    """Search (a, b) in [-50, 50]^2 for Ram = {3, 17} and verify locally."""
    target = RamSet((3, 17))
    hit = None
    for a in range(-50, 51):
        if hit:
            break
        for b in range(-50, 51):
            if a and b and from_hilbert(a, b) == target:
                hit = (a, b)
                break
    assert hit is not None
    a, b = hit
    assert not oracles.local_solvable(a, b, 3)
    assert not oracles.local_solvable(a, b, 17)
    assert oracles.local_solvable(a, b, 2)
    assert oracles.local_solvable(a, b, math.inf)


def test_from_hilbert_even_cardinality_grid():
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a == 0 or b == 0:
                continue
            ram = from_hilbert(a, b)
            size = len(ram.finite_primes) + (1 if ram.at_infinity else 0)
            assert size % 2 == 0, (a, b)


def test_is_isomorphic():
    # isomorphism classes are ramification sets: RamSet equality, after sort/dedup
    assert RamSet((17, 3)) == RamSet((3, 17))
    assert RamSet((3, 17)) != RamSet((2, 3))
    assert from_hilbert(-1, -1) != from_hilbert(-1, -3)


def test_admits_embedding_frozen_examples():
    assert admits_embedding(RamSet((3, 17)), field_from_d(3))
    assert admits_embedding(RamSet(()), field_from_d(17))
    assert not admits_embedding(RamSet((2,), at_infinity=True), field_from_d(5))


def test_admits_embedding_duality():
    """False exactly when the real place or a split ramified prime obstructs."""
    rng = random.Random(316)
    small = (2, 3, 5, 7, 11, 13)
    squarefree = [d for d in range(2, 200) if oracles.squarefree_reduce(d) == d]
    for _ in range(400):
        primes = tuple(sorted(rng.sample(small, rng.choice((0, 2, 4)))))
        at_inf = len(primes) % 2 == 1
        ram = RamSet(primes, at_infinity=at_inf)
        fld = field_from_d(rng.choice(squarefree))
        want = not at_inf and all(
            splitting(fld, p) is not SplitType.SPLIT for p in primes
        )
        assert admits_embedding(ram, fld) == want


def test_coarea_rational_exact_examples():
    empty = coarea_rational(RamSet(()))
    assert empty.coef == Fraction(1, 3)
    assert abs(float(empty) - math.pi / 3) < 1e-12 * math.pi
    assert coarea_rational(RamSet((2, 3))).coef == Fraction(2, 3)
    big = coarea_rational(RamSet((3, 17)))
    assert big.coef == Fraction(32, 3)
    assert abs(float(big) - 32 * math.pi / 3) < 1e-12 * float(big)
    with pytest.raises(DomainError):
        coarea_rational(RamSet((2,), at_infinity=True))


def test_coarea_rational_monotone_under_new_primes():
    rng = random.Random(317)
    primes = oracles.trial_primes(3, 100)
    for _ in range(200):
        base = tuple(rng.sample(primes, 2))
        extra = tuple(rng.sample([p for p in primes if p not in base], 2))
        small = coarea_rational(RamSet(base)).coef
        grown = coarea_rational(RamSet(base + extra)).coef
        assert grown > small


def test_algebra_class_flags():
    cls = algebra_class(RamSet((3, 17)))
    assert cls.is_division and cls.coarea.coef == Fraction(32, 3)
    assert not algebra_class(RamSet(())).is_division
    # definite classes carry no coarea: no Fuchsian group to measure
    definite = algebra_class(RamSet((2,), at_infinity=True))
    assert definite.is_division and definite.coarea is None
    # the ramification set is the only stored value; the rest derives from it
    assert [f.name for f in dataclasses.fields(AlgebraClass)] == ["ram"]
    assert cls == AlgebraClass(RamSet((17, 3)))
    assert cls != algebra_class(RamSet((2, 3)))


def test_coarea_general_reproduces_rational():
    """Plugging k = Q into the full formula lands on the fast path."""
    rng = random.Random(318)
    zeta_q2 = math.pi**2 / 6
    assert abs(coarea_general(1, 1, zeta_q2, []) - math.pi / 3) < 1e-12 * math.pi
    pool = oracles.trial_primes(2, 120)
    for _ in range(50):
        primes = sorted(rng.sample(pool, rng.choice((0, 2, 4))))
        want = float(coarea_rational(RamSet(tuple(primes))))
        got = coarea_general(1, 1, zeta_q2, primes)
        assert abs(got - want) <= 1e-12 * want


def test_coarea_general_real_quadratic_value():
    # over the field of golden-ratio integers with no finite ramification
    # the formula collapses to pi/15 (zeta closed form 2 pi^4 / (75 sqrt 5))
    got = coarea_general(2, 5, zeta_k2_real_quadratic(5), [])
    assert abs(got - math.pi / 15) < 1e-9
    # prime-power norms are accepted, composite norms are not
    coarea_general(2, 5, zeta_k2_real_quadratic(5), [4, 5, 9])
    with pytest.raises(DomainError):
        coarea_general(2, 5, zeta_k2_real_quadratic(5), [6])


def test_coarea_general_validation():
    with pytest.raises(DomainError):
        coarea_general(0, 1, 2.0, [])
    with pytest.raises(DomainError):
        coarea_general(1, 0, 2.0, [])
    with pytest.raises(DomainError):
        coarea_general(1, 1, 0.99, [])


def test_coarea_general_rejects_non_integer_norms():
    assert coarea_general(1, 1, 1.6449, [4.0, 9]) == coarea_general(1, 1, 1.6449, [4, 9])
    for bad in (4.7, math.nan):
        with pytest.raises(DomainError, match="is not a prime power"):
            coarea_general(1, 1, 1.6449, [bad])


def test_coarea_general_rejects_non_finite_values():
    with pytest.raises(DomainError, match="finite"):
        coarea_general(3, 5, math.inf, [])
    for degree, zeta2 in ((1, 1e308), (400, 2.0)):
        with pytest.raises(DomainError, match="overflow"):
            coarea_general(degree, 5, zeta2, [])
    with pytest.raises(DomainError, match="overflow"):
        coarea_general(1, 10**400, 2.0, [])


def test_zeta_k2_against_closed_forms():
    assert abs(zeta_k2_real_quadratic(5) - 2 * math.pi**4 / (75 * math.sqrt(5))) < 1e-10
    assert abs(zeta_k2_real_quadratic(8) - math.sqrt(2) * math.pi**4 / 96) < 1e-10


def test_zeta_k2_independent_summation_routes():
    """Natural-order series and Euler product agree with the library."""
    lib5 = zeta_k2_real_quadratic(5)
    assert abs(lib5 - 1.1616711956) < 5e-11  # oracle-confirmed digits
    assert abs(lib5 - oracles.zeta_k2_direct(5, terms=10**6)) < 1e-9
    lib8 = zeta_k2_real_quadratic(8)
    direct = oracles.zeta_k2_direct(8, terms=10**6)
    euler = oracles.zeta_k2_euler(8, plimit=10**7)
    assert abs(lib8 - euler) < 1e-8
    assert abs(direct - euler) < 1e-8
    assert abs(lib8 - direct) < 1e-9


def test_zeta_k2_rejects_bad_discs():
    for bad in (1, 20, 45, 32, -4, 0, 13**2):
        with pytest.raises(DomainError):
            zeta_k2_real_quadratic(bad)


def test_zeta_k_minus1_closed_forms():
    assert zeta_k_minus1(5) == Fraction(1, 30)
    assert zeta_k_minus1(8) == Fraction(1, 12)
    assert zeta_k_minus1(12) == Fraction(1, 6)


def test_zeta_k_minus1_reads_disc_before_budget():
    """A value that is not an integer is a DomainError, never the exit-3 budget error."""
    for bad in (math.inf, "7"):
        with pytest.raises(DomainError):
            zeta_k_minus1(bad)


def test_zeta_k_minus1_matches_bernoulli_oracle():
    """The divisor sum equals B_{2,chi}/24 exactly for every fundamental D < 2000."""
    discs = []
    for D in range(5, 2000):
        try:
            oracles.prime_disc_split(D)
        except ValueError:
            continue
        if D % 4 in (0, 1):
            discs.append(D)
    assert len(discs) == 607
    for D in discs:
        assert zeta_k_minus1(D) == oracles.zeta_k_minus1_bernoulli(D), D


def test_import_loads_no_scipy():
    code = "import sys, commcensus; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(commcensus.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
