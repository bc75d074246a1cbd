"""Ingredients and recipes: class masks grouped by head profile.

The rows congruent to 1 see a class mask only through its head counts:
counts[m - 1] is the number of mask positions whose shift by m lands
outside the mask, for m = 1 .. (t - 1) / 2.  Masks sharing the profile
are interchangeable on those rows, so candidates group into ingredients
(one profile, many masks) and a recipe picks one ingredient per class
such that every row collects exactly t heads.  Rotation and
complementation preserve profiles, so the size-k catalog serves size
t - k as well.  Recipes prune hard: the surviving candidate space is a
tiny slice of the raw subset lattice, and the remaining row conditions
are checked per candidate afterwards.

class_masks lays one class's admissible masks out as the flat arrays
the search joins on: the masks grouped by profile, each profile's
base-(t + 1) code, and the group sizes and offsets.  expand_recipe
reads the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator

import numpy as np

from .bitmask import forbidden_position, ingredient_counts, join_classes, mask_of, mask_tables
from .cocyclic import CoboundarySubset
from .distributions import Distribution, entry_class_size
from .group import GroupContext


@dataclass(frozen=True, order=True)
class Ingredient:
    """Head profile of a class mask: counts[m - 1] heads on row 4m + 1.

    Identity is the profile alone; k records the representative size
    that produced it and stays out of comparisons, because the sizes k
    and t - k realize exactly the same profiles.
    """

    counts: tuple[int, ...]
    k: int = field(compare=False)

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class IngredientCatalog:
    """Size-k masks of one class budget, grouped by head profile.

    Masks are stored for the representative size k = min(k, t - k); the
    bitwise complements realize the same profiles at size t - k.
    """

    t: int
    k: int
    entry: int
    groups: tuple[tuple[Ingredient, tuple[int, ...]], ...]

    @property
    def ingredient_count(self) -> int:
        return len(self.groups)

    def ingredients(self) -> tuple[Ingredient, ...]:
        return tuple(ing for ing, _ in self.groups)


def ingredient_of(t: int, positions: Iterable[int]) -> Ingredient:
    """Head profile of the mask holding the given positions in 0..t-1."""
    tables = mask_tables(t)
    pos = set(positions)
    bad = sorted(p for p in pos if not 0 <= p < t)
    if bad:
        raise ValueError(f"positions {bad} outside [0, {t})")
    counts = tuple(int(c) for c in ingredient_counts(tables, mask_of(pos)))
    return Ingredient(counts, min(len(pos), t - len(pos)))


@lru_cache(maxsize=None)
def enumerate_ingredients(t: int, k: int) -> IngredientCatalog:
    """Catalog of all size-min(k, t-k) masks, grouped by profile."""
    tables = mask_tables(t)
    if not 0 <= k <= t:
        raise ValueError(f"k must be in [0, {t}], got {k}")
    krep = min(k, t - k)
    groups: dict[Ingredient, list[int]] = {}
    for combo in combinations(range(t), krep):
        mask = mask_of(combo)
        counts = tuple(int(c) for c in ingredient_counts(tables, mask))
        groups.setdefault(Ingredient(counts, krep), []).append(mask)
    ordered = tuple(sorted((ing, tuple(sorted(ms))) for ing, ms in groups.items()))
    return IngredientCatalog(t, krep, krep * (t - krep) // 2, ordered)


@dataclass(frozen=True, eq=False)
class ClassMasks:
    """Masks a canonical subset may use in one class, as flat arrays.

    The masks of profile i are flat[starts[i] : starts[i] + sizes[i]],
    sorted; codes[i] packs ingredients[i].counts as base-(t + 1) digits,
    most significant first.
    """

    ingredients: tuple[Ingredient, ...]
    codes: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    flat: np.ndarray

    def __post_init__(self) -> None:
        # class_masks hands one cached instance to every caller.
        for arr in (self.codes, self.sizes, self.starts, self.flat):
            arr.flags.writeable = False


@lru_cache(maxsize=None)
def class_masks(t: int, k: int, cls: int) -> ClassMasks:
    """Masks a canonical subset may use in one class, grouped by profile.

    Every profile of the size-k catalog is realized by its masks and by
    their complements (sizes k and t - k, which share the class budget);
    masks covering the class's forbidden position are dropped.  Groups
    keep the catalog's profile order.
    """
    full = mask_tables(t).full
    forb = forbidden_position(cls, t)
    groups = enumerate_ingredients(t, k).groups
    per_profile = []
    for _, base in groups:
        masks = base + tuple(m ^ full for m in base)
        if forb is not None:
            masks = tuple(m for m in masks if not (m >> forb) & 1)
        per_profile.append(sorted(masks))
    digits = np.array([ing.counts for ing, _ in groups], dtype=np.int64)
    sizes = np.array([len(masks) for masks in per_profile], dtype=np.int64)
    return ClassMasks(
        ingredients=tuple(ing for ing, _ in groups),
        codes=digits @ (t + 1) ** np.arange(digits.shape[1] - 1, -1, -1),
        sizes=sizes,
        starts=np.cumsum(sizes) - sizes,
        flat=np.array([m for masks in per_profile for m in masks], dtype=np.int64),
    )


@dataclass(frozen=True, order=True)
class Recipe:
    """One head profile per class, in class order (1, 2, 3, 0), jointly
    giving every row congruent to 1 exactly t heads."""

    t: int
    ingredients: tuple[Ingredient, Ingredient, Ingredient, Ingredient]

    def entries(self) -> tuple[int, int, int, int]:
        return tuple(ing.total for ing in self.ingredients)


def enumerate_recipes(distribution: Distribution) -> tuple[Recipe, ...]:
    """All recipes consistent with the distribution, sorted.

    Runs over every distinct assignment of the budget entries to the
    classes and joins profile pairs on their per-row sums: classes 1
    and 2 from the left, classes 3 and 0 against the complement to t.
    """
    t = distribution.t
    catalogs = {
        entry: enumerate_ingredients(t, entry_class_size(t, entry))
        for entry in set(distribution.entries)
    }
    out = []
    for assignment in sorted(set(permutations(distribution.entries)), reverse=True):
        ing1, ing2, ing3, ing0 = (catalogs[e].ingredients() for e in assignment)
        left: dict[tuple[int, ...], list[tuple[Ingredient, Ingredient]]] = {}
        for a in ing1:
            for b in ing2:
                key = tuple(x + y for x, y in zip(a.counts, b.counts))
                left.setdefault(key, []).append((a, b))
        for c in ing3:
            for d in ing0:
                need = tuple(t - x - y for x, y in zip(c.counts, d.counts))
                for a, b in left.get(need, ()):
                    out.append(Recipe(t, (a, b, c, d)))
    out.sort()
    return tuple(out)


def distribution_ingredient_counts(distribution: Distribution) -> tuple[int, int, int, int]:
    """Distinct profiles available per budget entry, in entry order."""
    return tuple(
        enumerate_ingredients(distribution.t, k).ingredient_count
        for k in distribution.class_sizes()
    )


def recipe_of(subset: CoboundarySubset) -> Recipe:
    """Head profiles of the subset's four classes, in class order."""
    t = subset.ctx.t
    ings = tuple(
        ingredient_of(t, [(i - 1) // 4 for i in subset.residue_class(cls)])
        for cls in (1, 2, 3, 0)
    )
    return Recipe(t, ings)


def expand_recipe(recipe: Recipe, ctx: GroupContext) -> Iterator[CoboundarySubset]:
    """All canonical subsets whose classes realize the recipe's profiles.

    Each profile is tried at both sizes k and t - k, skipping masks that
    cover a prohibited index position (see class_masks); results stream
    in lexicographic mask order and satisfy the rows congruent to 1 by
    construction.
    """
    t = ctx.t
    if recipe.t != t:
        raise ValueError(f"recipe is for t={recipe.t}, context has t={t}")
    per_class = []
    for cls, ing in zip((1, 2, 3, 0), recipe.ingredients):
        side = class_masks(t, ing.k, cls)
        i = side.ingredients.index(ing)
        per_class.append(side.flat[side.starts[i] : side.starts[i] + side.sizes[i]].tolist())
    for combo in product(*per_class):
        chosen = dict(zip((1, 2, 3, 0), combo))
        yield CoboundarySubset(ctx, frozenset(join_classes(t, chosen)))
