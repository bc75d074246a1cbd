"""Budget distributions, triangular arithmetic, and size bounds."""

import pytest

from cochad.distributions import (
    Distribution,
    coboundary_bounds,
    entry_class_size,
    enumerate_distributions,
    is_triangular,
)

# Expected distributions (descending budget entries, enumeration order).
# Every entry must equal k(t - k)/2 for some k and each row must sum to
# t(t - 1)/2, which pins all values below: e.g. for t = 25 the entry 73
# is impossible (no k gives 73) and the forced value in the third row is
# 72, matching a deficit of 6 against the cap 78.
TABLE_DISTRIBUTIONS = {
    3: [(1, 1, 1, 0)],
    5: [(3, 3, 2, 2)],
    7: [(6, 6, 6, 3), (6, 5, 5, 5)],
    9: [(10, 10, 9, 7), (9, 9, 9, 9)],
    11: [(15, 14, 14, 12)],
    13: [(21, 21, 21, 15), (21, 21, 18, 18), (20, 20, 20, 18)],
    15: [(28, 28, 27, 22), (28, 27, 25, 25)],
    17: [(36, 35, 35, 30), (35, 35, 33, 33)],
    19: [(45, 45, 42, 39), (45, 42, 42, 42), (44, 44, 44, 39)],
    21: [(55, 55, 55, 45), (55, 54, 52, 49), (54, 52, 52, 52)],
    23: [(66, 66, 65, 56), (65, 65, 63, 60)],
    25: [(78, 78, 72, 72), (78, 77, 77, 68), (78, 75, 75, 72), (75, 75, 75, 75)],
}


def test_is_triangular():
    triangulars = {0: 0, 1: 1, 3: 2, 6: 3, 10: 4, 15: 5, 21: 6, 28: 7}
    for x in range(-5, 30):
        flag, m = is_triangular(x)
        if x in triangulars:
            assert flag and m == triangulars[x]
        else:
            assert not flag and m is None


def test_entry_class_size():
    assert entry_class_size(3, 1) == 1
    assert entry_class_size(3, 0) == 0
    assert entry_class_size(13, 21) == 6
    assert entry_class_size(13, 15) == 3
    for t in (3, 5, 7, 9, 11, 13):
        for k in range((t + 1) // 2):
            assert entry_class_size(t, k * (t - k) // 2) == k
    with pytest.raises(ValueError):
        entry_class_size(5, 4)


def test_enumerate_distributions_table():
    for t, rows in TABLE_DISTRIBUTIONS.items():
        got = [d.entries for d in enumerate_distributions(t)]
        assert got == rows, t


def test_distribution_invariants():
    for t in range(3, 27, 2):
        cap = (t * t - 1) // 8
        seen = set()
        for dist in enumerate_distributions(t):
            assert dist.t == t
            assert dist.entries == tuple(sorted(dist.entries, reverse=True))
            assert dist.deficits == tuple(sorted(dist.deficits))
            assert sum(dist.deficits) == (t - 1) // 2
            assert sum(dist.entries) == t * (t - 1) // 2
            for entry, deficit in zip(dist.entries, dist.deficits):
                assert entry + deficit == cap
                assert is_triangular(deficit)[0]
                k = entry_class_size(t, entry)
                assert entry == k * (t - k) // 2
            assert dist.entries not in seen
            seen.add(dist.entries)
        # enumeration is ordered by the deficit tuples
        deficits = [d.deficits for d in enumerate_distributions(t)]
        assert deficits == sorted(deficits)


def test_distribution_class_sizes():
    dist = enumerate_distributions(13)[0]
    assert dist.entries == (21, 21, 21, 15)
    assert dist.class_sizes() == (6, 6, 6, 3)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(3, (0, 1, 1, 1), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        Distribution(3, (1, 1, 1, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        Distribution(3, (1, 1, 1, 0), (0, 0, 1, 0))


def test_enumerate_domain_errors():
    for t in (1, 2, 4, -3):
        with pytest.raises(ValueError):
            enumerate_distributions(t)


def test_budget_symmetry_and_triangular_caps():
    # class budgets are symmetric in k <-> t-k, peak at the triangular cap,
    # and miss it by a triangular number
    for t in range(3, 27, 2):
        cap = (t * t - 1) // 8
        assert is_triangular(cap)[0]
        for k in range(t + 1):
            budget = k * (t - k) // 2
            assert budget == (t - k) * k // 2
            assert is_triangular(cap - budget)[0]
        assert max(k * (t - k) // 2 for k in range(t + 1)) == cap


def test_budget_rows_small_t():
    rows = {
        3: [1, 1],
        5: [2, 3, 3, 2],
        7: [3, 5, 6, 6, 5, 3],
        9: [4, 7, 9, 10, 10, 9, 7, 4],
        11: [5, 9, 12, 14, 15, 15, 14, 12, 9, 5],
    }
    for t, row in rows.items():
        assert [k * (t - k) // 2 for k in range(t - 1, 0, -1)] == row


def test_coboundary_bounds_examples():
    assert coboundary_bounds(13)[0] == (3, 10)
    assert coboundary_bounds(9)[1] == (12, 24)


def test_coboundary_bounds_windows():
    for t in (3, 5, 9, 13, 25):
        (k_lo, k_hi), (n_lo, n_hi) = coboundary_bounds(t)
        # at t = 3 the window is [0, 3]: an empty class spends the whole
        # deficit budget exactly, so k = 0 is not excluded there
        assert 0 <= k_lo <= k_hi <= t
        assert k_lo + k_hi == t
        assert n_lo + n_hi == 4 * t
        for residue in (0, 1, 2, 3):
            _, (r_lo, r_hi) = coboundary_bounds(t, residue)
            assert n_lo <= r_lo <= r_hi <= n_hi
    with pytest.raises(ValueError):
        coboundary_bounds(4)
    with pytest.raises(ValueError):
        coboundary_bounds(5, 4)


def test_bounds_hold_on_actual_solutions():
    from cochad.search import brute_force

    for t in (3, 5):
        (k_lo, k_hi), (n_lo, n_hi) = coboundary_bounds(t)
        for subset in brute_force(t).solutions:
            size = len(subset.indices)
            assert n_lo <= size <= n_hi
            k3 = len(subset.residue_class(3))
            assert k_lo <= k3 <= k_hi
            _, (r_lo, r_hi) = coboundary_bounds(t, size % 4)
            assert r_lo <= size <= r_hi
