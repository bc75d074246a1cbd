"""Packed-bit kernels against set-arithmetic oracles."""

import numpy as np
import pytest

from cochad.bitmask import (
    forbidden_position,
    ingredient_counts,
    join_classes,
    mask_of,
    mask_tables,
    pair_ci,
    positions_of,
    rotate,
    split_classes,
)


def _posset(mask, t):
    return {p for p in range(t) if (mask >> p) & 1}


def _shift(posset, m, t):
    return {(p + m) % t for p in posset}


def test_mask_round_trip():
    for t in (3, 7, 13):
        rng = np.random.default_rng(t)
        for _ in range(50):
            mask = int(rng.integers(0, 1 << t))
            assert mask_of(positions_of(mask, t)) == mask


def test_rotate_matches_shift():
    rng = np.random.default_rng(5)
    for t in (3, 5, 11):
        for _ in range(50):
            mask = int(rng.integers(0, 1 << t))
            m = int(rng.integers(0, t))
            assert _posset(rotate(mask, m, t), t) == _shift(_posset(mask, t), m, t)


def test_forbidden_positions():
    for t in (3, 5, 13):
        assert forbidden_position(1, t) == 0
        assert forbidden_position(2, t) is None
        assert forbidden_position(3, t) == t - 1
        assert forbidden_position(0, t) == t - 1


def test_split_join_classes():
    rng = np.random.default_rng(9)
    for t in (3, 5, 9):
        for _ in range(50):
            n = int(rng.integers(0, 4 * t + 1))
            idx = sorted(int(x) for x in rng.choice(np.arange(1, 4 * t + 1), n, replace=False))
            masks = split_classes(t, idx)
            assert set(masks) == {1, 2, 3, 0}
            assert join_classes(t, masks) == tuple(idx)
    with pytest.raises(ValueError):
        split_classes(3, [13])
    with pytest.raises(ValueError):
        split_classes(3, [0])


def test_tables_validation():
    for t in (2, 4, 1):
        with pytest.raises(ValueError):
            mask_tables.__wrapped__(t)


def test_runs_against_set_oracle():
    # runs[m][x] counts positions of x whose shift by m leaves x
    for t in (5, 9):
        tables = mask_tables(t)
        rng = np.random.default_rng(t)
        for _ in range(100):
            mask = int(rng.integers(0, 1 << t))
            s = _posset(mask, t)
            for m in range(1, tables.half + 1):
                want = len(s - _shift(s, -m, t))
                assert int(tables.runs[m][mask]) == want


def test_ingredient_counts_shape_and_values():
    t = 7
    tables = mask_tables(t)
    counts = ingredient_counts(tables, mask_of([0, 1, 3]))
    assert counts.shape == (tables.half,)
    s = {0, 1, 3}
    for m in range(1, tables.half + 1):
        assert int(counts[m - 1]) == len(s - _shift(s, -m, t))


def test_pair_ci_against_set_oracle():
    # pair_ci(a, b, m) reduces to |b & (a - m)| - |b & (a + m)|
    for t in (5, 9, 13):
        tables = mask_tables(t)
        rng = np.random.default_rng(2 * t)
        for _ in range(100):
            a = int(rng.integers(0, 1 << t))
            b = int(rng.integers(0, 1 << t))
            sa, sb = _posset(a, t), _posset(b, t)
            for m in range(1, tables.half + 1):
                want = len(sb & _shift(sa, -m, t)) - len(sb & _shift(sa, m, t))
                assert int(pair_ci(tables, a, b, m)) == want


def test_pair_ci_vectorized_matches_scalar():
    t = 7
    tables = mask_tables(t)
    rng = np.random.default_rng(4)
    a = rng.integers(0, 1 << t, size=64)
    b = rng.integers(0, 1 << t, size=64)
    for m in range(1, tables.half + 1):
        vec = pair_ci(tables, a, b, m)
        for i in range(64):
            assert int(vec[i]) == int(pair_ci(tables, int(a[i]), int(b[i]), m))

