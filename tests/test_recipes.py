"""Head-profile catalogs against the reference model in oracles.py."""

from math import comb, gcd

import numpy as np
import pytest

import cochad.recipes
from cochad.bitmask import CLASS_ORDER, forbidden_position, rotate
from cochad.cocyclic import CoboundarySubset
from cochad.distributions import enumerate_distributions
from cochad.group import GroupContext
from cochad.paths import check_residue_one_rows, is_hadamard_paths, row_adjacency
from cochad.recipes import class_masks, necklace_masks, necklace_orbits
from oracles import (
    Ingredient,
    class_domain,
    enumerate_recipes,
    expand_recipe,
    ingredient_of,
    profile_ingredients,
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
    side = class_masks(5, 2)
    ingredients = profile_ingredients(5, side)
    assert ingredients == [Ingredient((1, 2), 2), Ingredient((2, 1), 2)]
    groups = zip(ingredients, _class_mask_groups(side), _class_mask_groups(class_domain(5, 2, 2)))
    for ing, masks, domain in groups:
        assert ing.k == 2 and ing.total == 3
        # five rotations of one size-2 mask; their complements are the
        # domain's size-3 masks of the profile
        assert [bin(m).count("1") for m in masks.tolist()] == [2] * 5
        assert sorted(bin(m).count("1") for m in domain.tolist()) == [2] * 5 + [3] * 5
        assert {31 ^ m for m in masks.tolist()} == set(domain.tolist()) - set(masks.tolist())


def test_enumerate_ingredients_representative_size():
    # sizes k and t - k give one catalog, recorded at the smaller size;
    # class 2 has no forbidden position, so its domain is the catalog's
    # masks and their complements, in the same groups
    side, domain = class_masks(5, 2), class_domain(5, 2, 2)
    assert np.array_equal(domain.codes, side.codes)
    assert np.array_equal(domain.sizes, 2 * side.sizes)
    assert np.array_equal(domain.flat[np.bitwise_count(domain.flat) == 2], side.flat)
    for cls in CLASS_ORDER:
        low, high = class_domain(5, 2, cls), class_domain(5, 3, cls)
        assert profile_ingredients(5, high) == profile_ingredients(5, low)
        assert all(ing.k == 2 for ing in profile_ingredients(5, high))
        for name in ("codes", "sizes", "starts", "flat", "periods"):
            assert np.array_equal(getattr(high, name), getattr(low, name)), name
    for k in (6, -1):
        with pytest.raises(ValueError):
            class_masks(5, k)


def test_enumerate_ingredients_mask_conservation():
    # the catalog knows no class, so it keeps every mask of its size,
    # and the domain of class 2, which has no forbidden position, every
    # mask of both sizes
    for t, k in ((5, 2), (7, 3), (9, 4), (11, 3)):
        sides = ((class_masks(t, k), comb(t, k)), (class_domain(t, k, 2), 2 * comb(t, k)))
        for side, count in sides:
            assert len(set(side.flat.tolist())) == len(side.flat) == count
            assert side.sizes.sum() == len(side.flat)
            assert side.starts.tolist() == (np.cumsum(side.sizes) - side.sizes).tolist()


def test_enumerate_ingredients_frozen_counts():
    # catalog sizes behind the t = 13 distributions, the same in every class
    for k, count in ((6, 74), (5, 57), (4, 34), (3, 14)):
        for cls in CLASS_ORDER:
            side = class_domain(13, k, cls)
            assert len(side.codes) == len(set(profile_ingredients(13, side))) == count


def test_class_masks_sizes_and_avoidance():
    for t in (5, 7, 9):
        for cls in CLASS_ORDER:
            for k in range(t + 1):
                _check_class_masks(t, k, cls)
    with pytest.raises(ValueError):
        class_masks(5, 6)


def _check_class_masks(t, k, cls):
    # The one-size catalog with the class's forbidden position applied,
    # and the oracle's two-size domain, each against every admissible
    # mask of its sizes.
    avoid = forbidden_position(cls, t)
    catalog = class_masks(t, k)
    if avoid is not None:
        catalog = catalog.select((catalog.flat >> avoid) & 1 == 0)
    _check_side(t, k, avoid, catalog, {min(k, t - k)})
    _check_side(t, k, avoid, class_domain(t, k, cls), {k, t - k})


def _check_side(t, k, avoid, side, sizes):
    # every admissible mask, grouped by its profile from ingredient_of
    expected: dict[Ingredient, set[int]] = {}
    for mask in range(1 << t):
        if bin(mask).count("1") in sizes and (avoid is None or not (mask >> avoid) & 1):
            ing = ingredient_of(t, [p for p in range(t) if (mask >> p) & 1])
            expected.setdefault(ing, set()).add(mask)
    ingredients = profile_ingredients(t, side)
    assert ingredients == sorted(expected)
    assert all(ing.k == min(k, t - k) for ing in ingredients)
    groups = _class_mask_groups(side)
    assert [len(masks) for masks in groups] == side.sizes.tolist()
    for ing, code, masks in zip(ingredients, side.codes.tolist(), groups):
        assert code == sum(c * (t + 1) ** e for e, c in enumerate(reversed(ing.counts)))
        assert set(masks.tolist()) == expected[ing]
    assert len(side.flat) == sum(len(masks) for masks in expected.values())


@pytest.mark.parametrize("t", range(3, 15, 2))
def test_class_masks_hold_one_size(t):
    # A catalog holds the masks of min(k, t - k) positions alone, the
    # same for k and t - k, with the profiles of the oracle's two-size
    # domain; complementing a group gives that domain's masks of the
    # other size and the group's profile.
    full = (1 << t) - 1
    for k in range(t + 1):
        side, other, domain = class_masks(t, k), class_masks(t, t - k), class_domain(t, k, 2)
        small = min(k, t - k)
        assert (np.bitwise_count(side.flat) == small).all()
        for name in ("codes", "sizes", "starts", "flat", "periods"):
            assert np.array_equal(getattr(side, name), getattr(other, name)), name
        assert np.array_equal(side.codes, domain.codes)
        for masks, both in zip(_class_mask_groups(side), _class_mask_groups(domain)):
            sizes = np.bitwise_count(both)
            assert set(masks.tolist()) == set(both[sizes == small].tolist())
            assert {full ^ m for m in masks.tolist()} == set(both[sizes == t - small].tolist())


def test_class_masks_sorted():
    for side in (class_domain(7, 3, 1), necklace_masks(7, 3)):
        for masks in _class_mask_groups(side):
            assert masks.tolist() == sorted(set(masks.tolist()))
    for side in (class_masks(7, 3), necklace_masks(7, 3)):
        for name in ("codes", "sizes", "starts", "flat", "periods"):
            with pytest.raises(ValueError):
                getattr(side, name)[0] = 0  # the cached arrays are shared, so read-only


def test_class_masks_checks_arguments_before_building_tables(monkeypatch):
    # The tables take ~60 MB at t = 19, so a bad t or k fails first.
    def no_tables(t):
        raise AssertionError("mask tables built")

    monkeypatch.setattr(cochad.recipes, "mask_tables", no_tables)
    with pytest.raises(ValueError, match="t must be odd and >= 3, got 4"):
        class_masks(4, 99)
    with pytest.raises(ValueError, match=r"k must be in \[0, 19\], got 99"):
        class_masks(19, 99)
    with pytest.raises(ValueError, match=r"k must be in \[0, 19\], got -1"):
        class_masks(19, -1)


def test_necklace_masks_are_least_rotations():
    for t in range(3, 12, 2):
        for k in range(t // 2 + 1):
            side, reps = class_masks(t, k), necklace_masks(t, k)
            assert reps.codes is side.codes
            for x, period in zip(side.flat.tolist(), side.periods.tolist()):
                assert period == len({rotate(t, x, s) for s in range(t)})
            rep_periods = np.split(reps.periods, reps.starts[1:])
            groups = zip(_class_mask_groups(side), _class_mask_groups(reps), rep_periods)
            for masks, group_reps, periods in groups:
                # every mask of a group is rot_s(n) for exactly one of its
                # representatives n and one s below n's period
                rotated = [
                    rotate(t, n, s)
                    for n, period in zip(group_reps.tolist(), periods.tolist())
                    for s in range(period)
                ]
                assert sorted(rotated) == masks.tolist()
                for n in group_reps.tolist():
                    assert n == min(rotate(t, n, s) for s in range(t))
    # t = 9 has necklaces of period 3 besides the constant ones
    assert set(necklace_masks(9, 3).periods.tolist()) == {3, 9}


@pytest.mark.parametrize("t", range(3, 15, 2))
def test_necklace_orbits_keep_one_necklace_per_orbit(t):
    # mu_u: p -> u p, gcd(u, t) = 1, maps necklaces onto necklaces.  The
    # cut keeps one necklace of each orbit, grouped and coded as the
    # necklaces, and weighs it by its orbit's size, so the weights sum
    # to the number of necklaces.
    units = [u for u in range(1, t) if gcd(u, t) == 1]

    def least(x):
        return min(rotate(t, x, s) for s in range(t))

    def image(x, u):
        return least(sum(1 << (u * p % t) for p in range(t) if (x >> p) & 1))

    cut_some = False
    for k in range(t // 2 + 1):
        reps = necklace_masks(t, k)
        cut, sizes = necklace_orbits(t, k)
        orbit = {n: frozenset(image(n, u) for u in units) for n in reps.flat.tolist()}
        kept = cut.flat.tolist()
        assert len({orbit[n] for n in kept}) == len(kept)
        assert {orbit[n] for n in kept} == set(orbit.values())
        assert sizes.tolist() == [len(orbit[n]) for n in kept]
        assert sizes.sum() == len(reps.flat)
        assert np.array_equal(cut.periods, reps.periods[np.isin(reps.flat, kept)])
        # Every group keeps a necklace, under the code of its group in reps.
        assert (cut.sizes > 0).all()
        group_of = dict(zip(reps.flat.tolist(), np.repeat(reps.codes, reps.sizes).tolist()))
        assert [group_of[n] for n in kept] == np.repeat(cut.codes, cut.sizes).tolist()
        cut_some |= len(kept) < len(reps.flat)
    assert cut_some == (t > 3)


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
