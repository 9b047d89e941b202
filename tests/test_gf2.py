"""Bitset linear algebra over GF(2)."""
from __future__ import annotations

import random

import oracles
from commcensus import gf2


def test_rank_known_matrices():
    assert gf2.rank([]) == 0
    assert gf2.rank([0b101, 0b011, 0b110]) == 2  # third row = xor of the others
    assert gf2.rank([0b1, 0b10, 0b100]) == 3
    assert gf2.rank([0b111, 0b111]) == 1


def test_left_kernel_combinations_vanish():
    rng = random.Random(41)
    for _ in range(100):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        kernel = gf2.left_kernel(rows)
        assert len(kernel) == nrows - gf2.rank(rows)
        for combo in kernel:
            assert combo != 0
            acc = 0
            for i in range(nrows):
                if combo >> i & 1:
                    acc ^= rows[i]
            assert acc == 0


def test_solve_recovers_consistent_systems():
    """Ax = b with b built from a known x must come back solvable."""
    rng = random.Random(42)
    for _ in range(200):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        x = rng.getrandbits(ncols)
        rhs = [(row & x).bit_count() % 2 for row in rows]
        got = gf2.solve(rows, rhs)
        assert got is not None
        for row, b in zip(rows, rhs):
            assert (row & got).bit_count() % 2 == b


def test_solve_detects_inconsistency():
    # x1 = 0 and x1 = 1 cannot hold at once
    assert gf2.solve([0b1, 0b1], [0, 1]) is None
    assert gf2.solve([0b11, 0b11], [1, 0]) is None
    assert gf2.solve([], []) == 0


def test_solve_matches_gauss_jordan_oracle():
    """The same x, or None, as full Gauss-Jordan: the free coordinates decide the sign witness."""
    rng = random.Random(43)
    solvable = 0
    for _ in range(20_000):
        nrows = rng.randint(0, 10)
        ncols = rng.randint(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        rhs = [rng.getrandbits(1) for _ in range(nrows)]
        want = oracles.gf2_solve_gauss_jordan(rows, rhs)
        assert gf2.solve(rows, rhs) == want, (rows, rhs)
        solvable += want is not None
    assert 5_000 < solvable < 15_000  # both outcomes well represented
