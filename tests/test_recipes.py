"""Head-profile catalogs, recipe enumeration, and subset expansion."""

from itertools import combinations
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
    distribution_ingredient_counts,
    enumerate_ingredients,
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


def test_enumerate_ingredients_small_catalog():
    catalog = enumerate_ingredients(5, 2)
    assert catalog.t == 5 and catalog.k == 2 and catalog.entry == 3
    assert catalog.ingredient_count == 2
    profiles = [ing.counts for ing in catalog.ingredients()]
    assert sorted(profiles) == [(1, 2), (2, 1)]
    for ing in catalog.ingredients():
        assert len(dict(catalog.groups)[ing]) == 5
        assert ing.total == catalog.entry


def test_enumerate_ingredients_representative_size():
    # size k and t - k share one catalog at the representative size
    assert enumerate_ingredients(5, 3).k == 2
    assert enumerate_ingredients(5, 3).groups == enumerate_ingredients(5, 2).groups
    with pytest.raises(ValueError):
        enumerate_ingredients(5, 6)
    with pytest.raises(ValueError):
        enumerate_ingredients(5, -1)


def test_enumerate_ingredients_mask_conservation():
    for t, k in ((5, 2), (7, 3), (9, 4), (11, 3)):
        catalog = enumerate_ingredients(t, k)
        total = sum(len(masks) for _, masks in catalog.groups)
        assert total == comb(t, min(k, t - k))
        seen = set()
        for _, masks in catalog.groups:
            assert masks == tuple(sorted(masks))
            seen.update(masks)
        assert len(seen) == total


def test_enumerate_ingredients_frozen_counts():
    # catalog sizes behind the t = 13 distributions
    assert enumerate_ingredients(13, 6).ingredient_count == 74
    assert enumerate_ingredients(13, 5).ingredient_count == 57
    assert enumerate_ingredients(13, 4).ingredient_count == 34
    assert enumerate_ingredients(13, 3).ingredient_count == 14


def _class_mask_groups(side):
    return np.split(side.flat, side.starts[1:])


def test_class_masks_sizes_and_avoidance():
    t = 5
    for cls in CLASS_ORDER:
        for k in range(t + 1):
            side = class_masks(t, k, cls)
            avoid = forbidden_position(cls, t)
            sizes = {k, t - k}
            assert list(side.ingredients) == list(enumerate_ingredients(t, k).ingredients())
            groups = _class_mask_groups(side)
            assert [len(masks) for masks in groups] == side.sizes.tolist()
            seen = set()
            for ing, code, masks in zip(side.ingredients, side.codes.tolist(), groups):
                assert code == sum(c * (t + 1) ** e for e, c in enumerate(reversed(ing.counts)))
                for mask in masks.tolist():
                    assert bin(mask).count("1") in sizes
                    if avoid is not None:
                        assert not (mask >> avoid) & 1
                    assert ingredient_of(t, [p for p in range(t) if (mask >> p) & 1]) == ing
                    seen.add(mask)
            # every admissible mask is present exactly once
            expected = {
                mask
                for mask in range(1 << t)
                if bin(mask).count("1") in sizes
                and (avoid is None or not (mask >> avoid) & 1)
            }
            assert seen == expected
            assert len(side.flat) == len(expected)
    with pytest.raises(ValueError):
        class_masks(5, 6, 2)


def test_class_masks_sorted():
    side = class_masks(7, 3, 1)
    for masks in _class_mask_groups(side):
        assert masks.tolist() == sorted(set(masks.tolist()))
    with pytest.raises(ValueError):
        side.flat[0] = 0  # the cached arrays are shared, so read-only


def test_distribution_ingredient_counts():
    by_t = {
        3: [(1, 1, 1, 1)],
        5: [(2, 2, 1, 1)],
        7: [(4, 4, 4, 1), (4, 3, 3, 3)],
        9: [(10, 10, 7, 4), (7, 7, 7, 7)],
        11: [(26, 20, 20, 10)],
    }
    for t, expected in by_t.items():
        got = [distribution_ingredient_counts(d) for d in enumerate_distributions(t)]
        assert got == expected, t


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
