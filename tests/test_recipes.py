"""Head-profile catalogs, recipe enumeration, and subset expansion."""

from math import comb

import numpy as np
import pytest

from cochad.bitmask import CLASS_ORDER, forbidden_position
from cochad.cocyclic import CoboundarySubset
from cochad.distributions import enumerate_distributions
from cochad.group import GroupContext
from cochad.paths import check_residue_one_rows, is_hadamard_paths, row_adjacency
from cochad.recipes import (
    Ingredient,
    class_masks,
    enumerate_recipes,
    expand_recipe,
    ingredient_of,
    recipe_of,
)


def test_ingredient_identity_ignores_size():
    a = Ingredient((1, 2), 2)
    b = Ingredient((1, 2), 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a.total == 3


def test_ingredient_of_frozen_small():
    # t = 5, two positions: the only profiles are (1, 2) and (2, 1)
    assert ingredient_of(5, [0, 1]).counts == (1, 2)
    assert ingredient_of(5, [0, 2]).counts == (2, 1)
    assert ingredient_of(5, [0, 1]).k == 2
    assert ingredient_of(5, []).counts == (0, 0)
    assert ingredient_of(3, [0, 1, 2]).counts == (0,)
    with pytest.raises(ValueError):
        ingredient_of(5, [5])
    with pytest.raises(ValueError):
        ingredient_of(5, [-1])


def test_ingredient_rotation_and_complement_invariance():
    rng = np.random.default_rng(20260819)
    for t in (5, 7, 9, 11):
        for _ in range(40):
            k = int(rng.integers(0, t + 1))
            pos = set(map(int, rng.choice(t, size=k, replace=False)))
            base = ingredient_of(t, pos)
            shift = int(rng.integers(1, t))
            rotated = {(p + shift) % t for p in pos}
            complement = set(range(t)) - pos
            assert ingredient_of(t, rotated).counts == base.counts
            assert ingredient_of(t, complement).counts == base.counts


def test_profile_counts_chains_at_residue_one_rows():
    # Independent route: the m-th profile entry of a class mask is the
    # number of chains the row 4m + 1 adjacency splits the subset into.
    # Class 2 keeps clear of the prohibited indices at any position.
    rng = np.random.default_rng(7)
    for t in (3, 5, 7, 9):
        ctx = GroupContext(t)
        for _ in range(30):
            k = int(rng.integers(1, t + 1))
            pos = sorted(map(int, rng.choice(t, size=k, replace=False)))
            subset = CoboundarySubset(ctx, frozenset(4 * p + 2 for p in pos))
            counts = ingredient_of(t, pos).counts
            for m in range(1, (t - 1) // 2 + 1):
                adj = row_adjacency(subset, 4 * m + 1)
                assert len(adj.chains) == counts[m - 1]


def _class_mask_groups(side):
    return np.split(side.flat, side.starts[1:])


def test_enumerate_ingredients_small_catalog():
    side = class_masks(5, 2, 2)
    assert side.ingredients == (Ingredient((1, 2), 2), Ingredient((2, 1), 2))
    for ing, masks in zip(side.ingredients, _class_mask_groups(side)):
        assert ing.k == 2 and ing.total == 3
        # five rotations of one size-2 mask and their complements
        assert sorted(bin(m).count("1") for m in masks.tolist()) == [2] * 5 + [3] * 5


def test_enumerate_ingredients_representative_size():
    # sizes k and t - k give one catalog, recorded at the smaller size
    for cls in CLASS_ORDER:
        low, high = class_masks(5, 2, cls), class_masks(5, 3, cls)
        assert high.ingredients == low.ingredients
        assert all(ing.k == 2 for ing in high.ingredients)
        for name in ("codes", "sizes", "starts", "flat"):
            assert np.array_equal(getattr(high, name), getattr(low, name)), name
    for k in (6, -1):
        with pytest.raises(ValueError):
            class_masks(5, k, 2)


def test_enumerate_ingredients_mask_conservation():
    # class 2 has no forbidden position, so it keeps every mask of both sizes
    for t, k in ((5, 2), (7, 3), (9, 4), (11, 3)):
        side = class_masks(t, k, 2)
        assert len(set(side.flat.tolist())) == len(side.flat) == 2 * comb(t, k)
        assert side.sizes.sum() == len(side.flat)
        assert side.starts.tolist() == (np.cumsum(side.sizes) - side.sizes).tolist()


def test_enumerate_ingredients_frozen_counts():
    # catalog sizes behind the t = 13 distributions, the same in every class
    for k, count in ((6, 74), (5, 57), (4, 34), (3, 14)):
        for cls in CLASS_ORDER:
            assert len(class_masks(13, k, cls).ingredients) == count


def test_class_masks_sizes_and_avoidance():
    for t in (5, 7, 9):
        for cls in CLASS_ORDER:
            for k in range(t + 1):
                _check_class_masks(t, k, cls)
    with pytest.raises(ValueError):
        class_masks(5, 6, 2)


def _check_class_masks(t, k, cls):
    side = class_masks(t, k, cls)
    avoid = forbidden_position(cls, t)
    sizes = {k, t - k}
    # every admissible mask, grouped by its profile from ingredient_of
    expected: dict[Ingredient, set[int]] = {}
    for mask in range(1 << t):
        if bin(mask).count("1") in sizes and (avoid is None or not (mask >> avoid) & 1):
            ing = ingredient_of(t, [p for p in range(t) if (mask >> p) & 1])
            expected.setdefault(ing, set()).add(mask)
    assert list(side.ingredients) == sorted(expected)
    assert all(ing.k == min(k, t - k) for ing in side.ingredients)
    groups = _class_mask_groups(side)
    assert [len(masks) for masks in groups] == side.sizes.tolist()
    for ing, code, masks in zip(side.ingredients, side.codes.tolist(), groups):
        assert code == sum(c * (t + 1) ** e for e, c in enumerate(reversed(ing.counts)))
        assert set(masks.tolist()) == expected[ing]
    assert len(side.flat) == sum(len(masks) for masks in expected.values())


def test_class_masks_sorted():
    side = class_masks(7, 3, 1)
    for masks in _class_mask_groups(side):
        assert masks.tolist() == sorted(set(masks.tolist()))
    with pytest.raises(ValueError):
        side.flat[0] = 0  # the cached arrays are shared, so read-only


def test_enumerate_recipes_frozen_counts():
    by_t = {3: [4], 5: [12], 7: [28, 60], 9: [756, 60], 11: [5580]}
    for t, expected in by_t.items():
        got = [len(enumerate_recipes(d)) for d in enumerate_distributions(t)]
        assert got == expected, t


def test_recipe_row_sums():
    for t in (3, 5, 7):
        for dist in enumerate_distributions(t):
            for recipe in enumerate_recipes(dist):
                assert recipe.t == t
                assert sorted(recipe.entries(), reverse=True) == list(dist.entries)
                for m in range((t - 1) // 2):
                    assert sum(ing.counts[m] for ing in recipe.ingredients) == t


def test_recipe_of_known_solution():
    ctx = GroupContext(3)
    recipe = recipe_of(CoboundarySubset(ctx, frozenset({2, 3, 4})))
    assert recipe.t == 3
    assert recipe.entries() == (0, 1, 1, 1)
    assert [ing.counts for ing in recipe.ingredients] == [(0,), (1,), (1,), (1,)]


def test_recipe_of_round_trips_through_expansion():
    ctx = GroupContext(5)
    (dist,) = enumerate_distributions(5)
    for recipe in enumerate_recipes(dist)[:3]:
        for subset in expand_recipe(recipe, ctx):
            assert recipe_of(subset) == recipe


def test_expand_recipe_requires_matching_context():
    (dist,) = enumerate_distributions(3)
    recipe = enumerate_recipes(dist)[0]
    with pytest.raises(ValueError):
        next(expand_recipe(recipe, GroupContext(5)))


def test_expand_recipe_reaches_every_solution():
    from cochad.search import brute_force

    ctx = GroupContext(3)
    (dist,) = enumerate_distributions(3)
    candidates = []
    for recipe in enumerate_recipes(dist):
        candidates.extend(expand_recipe(recipe, ctx))
    assert len(candidates) == 216
    assert len(set(candidates)) == 216
    solutions = set()
    for subset in candidates:
        assert subset.is_canonical
        assert check_residue_one_rows(subset)
        if is_hadamard_paths(subset):
            solutions.add(subset.sorted_indices())
    expected = {s.sorted_indices() for s in brute_force(3).solutions}
    assert solutions == expected
    assert len(solutions) == 24
