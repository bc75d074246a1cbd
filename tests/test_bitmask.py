"""Packed-bit kernels against set-arithmetic oracles and the direct test."""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochad.bitmask import (
    _TABLE_LIMIT_T,
    CLASS_ORDER,
    _row_check,
    forbidden_position,
    ingredient_counts,
    join_classes,
    mask_tables,
    pair_ci,
    rotate,
    row_test_batch,
)
from cochad.cocyclic import (
    CoboundarySubset,
    assemble_cocyclic,
    canonicalize,
    is_hadamard_direct,
    prohibited_indices,
)
from cochad.group import GroupContext
from cochad.paths import is_hadamard_paths
from cochad.search import brute_force, run_search
from oracles import joined_indices, mask_of, pair_terms_vanish, split_classes


def _posset(mask, t):
    return {p for p in range(t) if (mask >> p) & 1}


def _shift(posset, m, t):
    return {(p + m) % t for p in posset}


def test_mask_round_trip():
    for t in (3, 7, 13):
        rng = np.random.default_rng(t)
        for _ in range(50):
            mask = int(rng.integers(0, 1 << t))
            assert mask_of(_posset(mask, t)) == mask


def test_rotate_against_set_oracle():
    rng = np.random.default_rng(17)
    for t in (3, 7, 13):
        masks = rng.integers(0, 1 << t, size=40)
        shifts = np.arange(t + 1)
        rows = rotate(t, masks[:, None], shifts).tolist()
        for mask, row in zip(masks.tolist(), rows):
            assert row == [mask_of(_shift(_posset(mask, t), s, t)) for s in shifts.tolist()]


def test_forbidden_positions():
    for t in (3, 5, 13):
        assert forbidden_position(1, t) == 0
        assert forbidden_position(2, t) is None
        assert forbidden_position(3, t) == t - 1
        assert forbidden_position(0, t) == t - 1


def test_split_join_classes():
    rng = np.random.default_rng(9)
    for t in (3, 5, 9):
        subsets, rows = [], []
        for _ in range(50):
            n = int(rng.integers(0, 4 * t + 1))
            idx = sorted(int(x) for x in rng.choice(np.arange(1, 4 * t + 1), n, replace=False))
            masks = split_classes(t, idx)
            assert set(masks) == {1, 2, 3, 0}
            row = [masks[cls] for cls in CLASS_ORDER]
            assert joined_indices(t, row) == tuple(idx)
            subsets.append(idx)
            rows.append(row)
        member = join_classes(t, rows)
        assert member.dtype == bool and member.shape == (50, 4 * t)
        for idx, got in zip(subsets, member):
            assert (np.flatnonzero(got) + 1).tolist() == idx
        # Leading axes are kept, and one row gives one membership vector.
        stacked = join_classes(t, np.array(rows).reshape(5, 10, 4))
        assert np.array_equal(stacked.reshape(50, 4 * t), member)
        assert np.array_equal(join_classes(t, rows[0]), member[0])
    assert join_classes(3, np.empty((0, 4), dtype=np.int64)).shape == (0, 12)
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


def test_row_table_dtypes_hold_the_row_sums():
    # pc, runs and pair_ci are int8.  Each entry is at most t in size and
    # the row test and the join keys add two of them, so the dtypes must
    # hold 2t at the table cap: raising the cap past them fails here.
    tables = mask_tables(5)
    terms = pair_ci(tables, np.arange(8), np.arange(8)[::-1], 1)
    for dtype in (tables.pc.dtype, tables.runs.dtype, terms.dtype):
        assert np.iinfo(dtype).max >= 2 * _TABLE_LIMIT_T
    assert np.iinfo(terms.dtype).min <= -2 * _TABLE_LIMIT_T


@pytest.mark.parametrize("t", [13, 15])
def test_pair_ci_equals_an_int64_recomputation(t):
    # numpy wraps integer overflow silently, so no warning would show a
    # pair term that outgrew its dtype.
    tables = mask_tables(t)
    a, b = np.random.default_rng(t).integers(0, 1 << t, size=(2, 4096))
    for m in range(1, tables.half + 1):
        wide = np.bitwise_count(a & rotate(t, b, m)).astype(np.int64)
        wide -= np.bitwise_count(b & rotate(t, a, m))
        assert np.array_equal(pair_ci(tables, a, b, m), wide)


# Class masks (1, 2, 3, 0) of t = 7 near misses.  Each balances every
# row 4m+1 and the rows of one of the residues 2 and 3.  On the rows of
# the other, one coupled pair of PAIR_ORDER (in order: (1, 2), (1, 3),
# (3, 0), (0, 2)) is nonzero while its partner is zero, and the rows
# 4m+4 fail too; with the opposite sign on (2, 3) in the rows 4m+4,
# that one pair alone would reject them.  No canonical subset for
# t <= 7 fails one coupled pair alone (a scan of all 2^25 at t = 7), so
# test_each_row_check_matches_its_row holds each condition to its row.
_NEAR_MISSES_T7 = ((2, 46, 44, 44), (2, 46, 44, 46), (6, 6, 34, 43), (6, 34, 6, 45))


def _row_test_cases():
    """Canonical subsets keyed by t: the t = 5 solutions, every one-index
    flip of them, all of t = 3, the t = 7 near misses, and seeded random
    draws for t = 5..13."""
    cases = {t: set() for t in range(3, 15, 2)}
    for masks in _NEAR_MISSES_T7:
        cases[7].add(frozenset(joined_indices(7, masks)))
    pool5 = sorted(set(range(1, 21)) - prohibited_indices(GroupContext(5)))
    for subset in brute_force(5).solutions:
        cases[5].add(subset.indices)
        cases[5].update(subset.indices ^ {i} for i in pool5)
    pool3 = sorted(set(range(1, 13)) - prohibited_indices(GroupContext(3)))
    cases[3].update(
        frozenset(i for k, i in enumerate(pool3) if (bits >> k) & 1)
        for bits in range(1 << len(pool3))
    )
    rng = np.random.default_rng(41)
    for t in range(5, 15, 2):
        pool = np.array(sorted(set(range(1, 4 * t + 1)) - prohibited_indices(GroupContext(t))))
        for _ in range(150):
            picked = pool[rng.random(len(pool)) < rng.random()]
            cases[t].add(frozenset(int(i) for i in picked))
    return {t: sorted(sorted(s) for s in subsets) for t, subsets in cases.items()}


def test_row_test_batch_matches_direct():
    # The kernel's verdict is the Hadamard property of the assembled matrix,
    # called on arrays and one subset at a time.
    hadamard = 0
    for t, subsets in _row_test_cases().items():
        ctx = GroupContext(t)
        tables = mask_tables(t)
        masks = [split_classes(t, idx) for idx in subsets]
        cols = [np.array([m[cls] for m in masks], dtype=np.int64) for cls in (1, 2, 3, 0)]
        want = [is_hadamard_direct(assemble_cocyclic(CoboundarySubset(ctx, idx))) for idx in subsets]
        got = row_test_batch(tables, *cols)
        assert got.dtype == bool and got.shape == (len(subsets),)
        assert got.tolist() == want
        for k, m in enumerate(masks):
            scalar = row_test_batch(tables, m[1], m[2], m[3], m[0])
            assert type(scalar) is bool and scalar == want[k]
        hadamard += sum(want)
    assert hadamard == 24 + 120


def test_each_row_check_matches_its_row():
    # Each condition of row_test_batch is one row of the assembled
    # matrix: residue r at shift m holds exactly when row 4m + r (1-based;
    # 4m + 4 for r = 0) sums to zero.  Whole verdicts cannot tell a
    # wrong sign in one condition from the right one on these cases, so
    # each condition is held to its row, and each meets both verdicts.
    verdicts = {r: set() for r in (1, 2, 3, 0)}
    for t, subsets in _row_test_cases().items():
        if t > 11:
            continue
        ctx = GroupContext(t)
        tables = mask_tables(t)
        masks = [split_classes(t, idx) for idx in subsets]
        u = {cls: np.array([m[cls] for m in masks], dtype=np.int64) for cls in CLASS_ORDER}
        sums = np.stack(
            [assemble_cocyclic(CoboundarySubset(ctx, idx)).sum(axis=1) for idx in subsets]
        )
        for m, r in product(range(1, tables.half + 1), (1, 2, 3, 0)):
            want = sums[:, 4 * m + (r or 4) - 1] == 0
            assert np.array_equal(_row_check(tables, m, r, u), want), (t, m, r)
            verdicts[r].update(want.tolist())
    assert all(seen == {False, True} for seen in verdicts.values())


# Operand shapes in CLASS_ORDER (s1, s2, s3, s0): brute force's outer
# product, scalars mixed with arrays of unequal ndim, size-1 axes, a
# zero-length axis and all scalars.
_BROADCAST_SHAPES = (
    ((), (3, 1, 1), (4, 1), (5,)),
    ((2, 1, 3), (), (1, 3), ()),
    ((1,), (4, 1), (1, 1), (4, 6)),
    ((6,), (6,), (6,), (6,)),
    ((0, 1), (), (1, 5), (5,)),
    ((), (), (), ()),
)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_row_test_batch_broadcasts(t):
    # Broadcast operands give the verdicts of their materialized rows, at
    # the broadcast shape.  Each operand is random masks with its last
    # and first entries taken from two brute-force solutions, so the
    # first row of every non-empty case passes, and the last row too
    # when no operand has a single entry.
    tables = mask_tables(t)
    solutions = [split_classes(t, s.indices) for s in brute_force(t).solutions]
    rng = np.random.default_rng(t)
    verdicts = set()
    for shapes in _BROADCAST_SHAPES:
        first, last = (solutions[i] for i in rng.choice(len(solutions), 2))
        ops = []
        for cls, shape in zip(CLASS_ORDER, shapes):
            op = rng.integers(0, 1 << t, size=shape)
            if op.size:
                op.flat[-1] = last[cls]
                op.flat[0] = first[cls]
            ops.append(op if shape else int(op))
        shape = np.broadcast_shapes(*shapes)
        got = row_test_batch(tables, *ops)
        flat = row_test_batch(tables, *(np.broadcast_to(op, shape).ravel() for op in ops))
        if not shape:
            assert type(got) is bool and flat.shape == (1,)
            assert got is bool(flat[0]) is True
            continue
        assert got.dtype == bool and got.shape == shape
        assert np.array_equal(got.ravel(), flat)
        if got.size:
            assert got.flat[0]
            assert got.flat[-1] or min(np.size(op) for op in ops) == 1
        verdicts.update(got.ravel().tolist())
    assert verdicts == {True, False}


def test_row_test_batch_is_rotation_invariant():
    # Rotating all four class masks by one s rotates every term of every
    # row check, so the verdict stands; the search's join tests a key
    # match once per relative shift on this.  The t = 5 solutions and
    # the t = 7 near misses make both verdicts occur.
    rng = np.random.default_rng(43)
    cases = {t: rng.integers(0, 1 << t, size=(200, 4)) for t in range(3, 15, 2)}
    solutions = [split_classes(5, subset.indices) for subset in brute_force(5).solutions]
    cases[5] = np.vstack([cases[5], [[m[cls] for cls in CLASS_ORDER] for m in solutions]])
    cases[7] = np.vstack([cases[7], _NEAR_MISSES_T7])
    verdicts = set()
    for t, rows in cases.items():
        tables = mask_tables(t)
        want = row_test_batch(tables, *rows.T)
        verdicts.update(want.tolist())
        for s in range(1, t):
            assert np.array_equal(row_test_batch(tables, *rotate(t, rows, s).T), want)
    assert verdicts == {True, False}


def test_row_test_batch_pass_set_t5():
    # Over all 2^20 quadruples of class masks at t = 5, canonical or
    # not, the pass set is 8 times the 120 canonical solutions.  It is
    # closed under the maps that preserve the cocyclic Hadamard
    # character, and each coupled-pair term vanishes on its own.
    t = 5
    tables = mask_tables(t)
    full = (1 << t) - 1
    quads = np.arange(1 << 4 * t, dtype=np.int64)
    ok = row_test_batch(tables, *((quads >> t * j) & full for j in range(4)))
    rows = np.stack([(quads[ok] >> t * j) & full for j in range(4)], axis=1)
    assert len(rows) == 960

    def packed(rows):
        return np.sort((rows[:, 0] << 3 * t) | (rows[:, 1] << 2 * t) | (rows[:, 2] << t) | rows[:, 3])

    want = packed(rows)
    images = []
    # Columns are in CLASS_ORDER: (1 2), (3 0) and (1 3) swap columns.
    for a, b in ((0, 1), (2, 3), (0, 2)):
        perm = [0, 1, 2, 3]
        perm[a], perm[b] = b, a
        images.append(rows[:, perm])
    for j in range(4):
        images.append(rows ^ np.eye(4, dtype=np.int64)[j] * full)
    # p -> u p; u = 4 is the reflection p -> -p.
    for u in (2, 3, 4):
        table = np.array([mask_of(u * p % t for p in _posset(x, t)) for x in range(1 << t)])
        images.append(table[rows])
    for image in images:
        assert np.array_equal(packed(image), want)
    assert pair_terms_vanish(t, rows).all()


def test_cross_conditions_are_termwise_balance_t5():
    # Termwise balance (bitmask docstring): over all 2^20 quadruples of
    # class masks at t = 5, the residue-2, -3 and -0 conditions hold at
    # every m exactly when all six pair terms vanish on their own.
    t = 5
    tables = mask_tables(t)
    quads = np.arange(1 << 4 * t, dtype=np.int64)
    u = {cls: (quads >> t * j) & ((1 << t) - 1) for j, cls in enumerate(CLASS_ORDER)}
    ok = np.ones(len(quads), dtype=bool)
    for m, residue in product(range(1, tables.half + 1), (2, 3, 0)):
        ok &= _row_check(tables, m, residue, u)
    rows = np.stack([u[cls] for cls in CLASS_ORDER], axis=1)
    assert np.array_equal(ok, pair_terms_vanish(t, rows))
    assert np.count_nonzero(ok) == 20416


@lru_cache(maxsize=None)
def _solution_indices(t):
    return tuple(rec.subset.sorted_indices() for rec in run_search(t).solutions())


def _canonical_images(t, rows, perm):
    """Packed 4t-bit keys of canonicalize(g S) for the subsets S of (n, 4)
    mask rows, g moving cycle position p to perm[p] in every class."""
    moved = (((rows[..., None] >> np.arange(t)) & 1) << perm).sum(axis=-1)
    # canonicalize's relation kernels as whole-class XORs in CLASS_ORDER
    # columns: index 1 (class 1 at position 0) toggles classes 1 and 2,
    # index 4t - 1 or 4t (class 3 or 0 at t - 1) its class and class 2.
    for col, pos in ((0, 0), (2, t - 1), (3, t - 1)):
        moved[:, [col, 1]] ^= ((moved[:, [col]] >> pos) & 1) * ((1 << t) - 1)
    return (moved << t * np.arange(4)).sum(axis=1)


@pytest.mark.parametrize("t, orbits", [(3, 8), (5, 12), (7, 40), (9, 104), (11, 48)])
def test_affine_maps_permute_the_solutions(t, orbits):
    # Every p -> u p + c with gcd(u, t) = 1 sends the canonical solutions
    # onto themselves once canonicalized (bitmask docstring), so the
    # least key of a solution's images names its orbit.  The mask route
    # is held to canonicalize itself on one solution per map.  Swapping
    # positions 0 and 1 is affine at t = 3 (p -> 2p + 1) only; from t = 5
    # it sends some solution outside the set.
    ctx = GroupContext(t)
    solutions = _solution_indices(t)
    rows = np.array([[split_classes(t, s)[cls] for cls in CLASS_ORDER] for s in solutions])
    keys = _canonical_images(t, rows, np.arange(t))
    least = keys
    for u, c in product(range(1, t), range(t)):
        if math.gcd(u, t) > 1:
            continue
        perm = (u * np.arange(t) + c) % t
        images = _canonical_images(t, rows, perm)
        assert np.array_equal(np.sort(images), np.sort(keys))
        moved = {4 * perm.tolist()[(i - 1) // 4] + (i - 1) % 4 + 1 for i in solutions[0]}
        canon = split_classes(t, canonicalize(CoboundarySubset(ctx, moved))[0].indices)
        assert images[0] == sum(canon[cls] << t * j for j, cls in enumerate(CLASS_ORDER))
        least = np.minimum(least, images)
    assert len(np.unique(least)) == orbits
    swap = np.arange(t)
    swap[[0, 1]] = 1, 0
    assert np.isin(_canonical_images(t, rows, swap), keys).all() == (t == 3)


@st.composite
def _canonical_subsets(draw):
    """A canonical subset for odd t <= 15: for t <= 7 often a search
    solution with at most one index flipped, otherwise any pick."""
    t = draw(st.sampled_from(range(3, 17, 2)), label="t")
    ctx = GroupContext(t)
    pool = sorted(set(range(1, 4 * t + 1)) - prohibited_indices(ctx))
    if t <= 7 and draw(st.booleans(), label="near a solution"):
        picked = set(draw(st.sampled_from(_solution_indices(t)), label="solution"))
        flip = draw(st.none() | st.sampled_from(pool), label="flipped index")
        picked ^= set() if flip is None else {flip}
    else:
        bits = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        picked = {i for i, bit in zip(pool, bits) if bit}
    return CoboundarySubset(ctx, frozenset(picked))


def test_row_test_batch_matches_paths():
    # The kernel against the readable chain oracle, with true verdicts among
    # the draws.
    verdicts = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(subset=_canonical_subsets())
    def check(subset):
        t = subset.ctx.t
        masks = split_classes(t, subset.indices)
        got = row_test_batch(mask_tables(t), *(masks[cls] for cls in CLASS_ORDER))
        assert got == is_hadamard_paths(subset)
        verdicts.append(got)

    check()
    assert any(verdicts) and not all(verdicts)
