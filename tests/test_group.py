"""Element ordering and arithmetic of Z_t x Z_2 x Z_2."""

import re

import numpy as np
import pytest

from cochad.distributions import enumerate_distributions
from cochad.group import (
    GroupContext,
    GroupElement,
    element_index,
    identity,
    index_element,
    inverse,
    multiply,
)
from cochad.search import run_search


def test_context_validation():
    for t in (3, 5, 25):
        assert GroupContext(t).order == 4 * t
    for t in (1, 2, 4, 0, -3):
        with pytest.raises(ValueError):
            GroupContext(t)


def test_context_rejects_non_integers():
    # A float t passes the odd test, so it would give float orders and
    # budgets and a numpy TypeError deep in the search.
    assert GroupContext(np.int64(5)).order == 20
    for t in (5.0, np.float64(9.0), 7.5, "5"):
        for make in (GroupContext, enumerate_distributions, run_search):
            message = f"^t must be an integer, got {re.escape(repr(t))}$"
            with pytest.raises(ValueError, match=message):
                make(t)
    with pytest.raises(ValueError, match="^t must be odd and >= 3, got 4$"):
        GroupContext(4)


def test_index_spot_values():
    assert index_element(GroupContext(3), 7) == GroupElement(1, 0, 1)
    assert index_element(GroupContext(5), 20) == GroupElement(4, 1, 1)
    assert element_index(GroupContext(3), GroupElement(2, 1, 0)) == 10
    # first block of four walks the bit pairs in fixed order
    ctx = GroupContext(3)
    assert [index_element(ctx, i) for i in (1, 2, 3, 4)] == [
        GroupElement(0, 0, 0),
        GroupElement(0, 1, 0),
        GroupElement(0, 0, 1),
        GroupElement(0, 1, 1),
    ]


def test_index_round_trip():
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        for i in range(1, 4 * t + 1):
            g = index_element(ctx, i)
            assert element_index(ctx, g) == i
            a, b, c = g
            assert 0 <= a < t and b in (0, 1) and c in (0, 1)


def test_index_range_errors():
    ctx = GroupContext(3)
    for i in (0, -1, 13):
        with pytest.raises(ValueError):
            index_element(ctx, i)
    for g in (GroupElement(3, 0, 0), GroupElement(-1, 0, 0), GroupElement(0, 2, 0)):
        with pytest.raises(ValueError):
            element_index(ctx, g)


def test_group_axioms_exhaustive_small():
    ctx = GroupContext(3)
    elems = [index_element(ctx, i) for i in range(1, 13)]
    e = identity(ctx)
    for g in elems:
        assert multiply(ctx, g, e) == g
        assert multiply(ctx, e, g) == g
        assert multiply(ctx, g, inverse(ctx, g)) == e
        assert multiply(ctx, inverse(ctx, g), g) == e
    for g in elems:
        for h in elems:
            for k in elems:
                assert multiply(ctx, multiply(ctx, g, h), k) == multiply(
                    ctx, g, multiply(ctx, h, k)
                )


def test_group_axioms_sampled():
    rng = np.random.default_rng(11)
    for t in (5, 9, 13):
        ctx = GroupContext(t)
        e = identity(ctx)
        for _ in range(200):
            i, j, k = (int(x) for x in rng.integers(1, 4 * t + 1, size=3))
            g, h, w = (index_element(ctx, x) for x in (i, j, k))
            assert multiply(ctx, multiply(ctx, g, h), w) == multiply(
                ctx, g, multiply(ctx, h, w)
            )
            assert multiply(ctx, g, inverse(ctx, g)) == e


def test_commutative():
    ctx = GroupContext(5)
    rng = np.random.default_rng(3)
    for _ in range(100):
        i, j = (int(x) for x in rng.integers(1, 21, size=2))
        g, h = index_element(ctx, i), index_element(ctx, j)
        assert multiply(ctx, g, h) == multiply(ctx, h, g)


def test_inverse_index_symmetry():
    # the index of the inverse of element n, for rows 5..2t+2, mirrors the
    # block order: same offset within the block, block reflected
    for t in (3, 5, 7, 9, 11):
        ctx = GroupContext(t)
        for n in range(5, 2 * t + 3):
            want = 4 * t + 4 - 4 * ((n + 3) // 4) + 1 + ((n - 1) % 4)
            got = element_index(ctx, inverse(ctx, index_element(ctx, n)))
            assert got == want
