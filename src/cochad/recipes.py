"""Ingredients and recipes: class masks grouped by head profile.

The rows congruent to 1 see a class mask only through its head counts:
counts[m - 1] is the number of mask positions whose shift by m lands
outside the mask, for m = 1 .. (t - 1) / 2.  Masks sharing the profile
are interchangeable on those rows, so candidates group into ingredients
(one profile, many masks) and a recipe picks one ingredient per class
such that every row collects exactly t heads.  Rotation and
complementation preserve profiles, so sizes k and t - k realize the same
ingredients.  Recipes prune hard: the surviving candidate space is a
tiny slice of the raw subset lattice, and the remaining row conditions
are checked per candidate afterwards.

class_masks is the one catalog of ingredients.  It reads the profiles of
one class's admissible masks off the mask tables in a single array pass
and lays them out as the flat arrays the search joins on: the masks
grouped by profile, each profile's base-(t + 1) code, and the group
sizes and offsets.  enumerate_recipes, expand_recipe and the
ingredients command read the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .bitmask import (
    CLASS_ORDER,
    forbidden_position,
    ingredient_counts,
    join_classes,
    mask_of,
    mask_tables,
)
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


def ingredient_of(t: int, positions: Iterable[int]) -> Ingredient:
    """Head profile of the mask holding the given positions in 0..t-1."""
    tables = mask_tables(t)
    pos = set(positions)
    bad = sorted(p for p in pos if not 0 <= p < t)
    if bad:
        raise ValueError(f"positions {bad} outside [0, {t})")
    counts = tuple(int(c) for c in ingredient_counts(tables, mask_of(pos)))
    return Ingredient(counts, min(len(pos), t - len(pos)))


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

    The class holds k or t - k positions (both give one budget, and
    complements share profiles); masks covering the class's forbidden
    position are dropped.  Profiles ascend, and so do their codes,
    since every digit is below t + 1; the masks of each profile ascend.
    """
    tables = mask_tables(t)
    if not 0 <= k <= t:
        raise ValueError(f"k must be in [0, {t}], got {k}")
    masks = np.flatnonzero((tables.pc == k) | (tables.pc == t - k))
    forb = forbidden_position(cls, t)
    if forb is not None:
        masks = masks[(masks >> forb) & 1 == 0]
    digits = ingredient_counts(tables, masks).astype(np.int64)
    codes = (t + 1) ** np.arange(tables.half - 1, -1, -1) @ digits
    order = np.lexsort((masks, codes))
    codes, starts, sizes = np.unique(codes[order], return_index=True, return_counts=True)
    krep = min(k, t - k)
    heads = digits[:, order[starts]].T.tolist()
    return ClassMasks(
        ingredients=tuple(Ingredient(tuple(counts), krep) for counts in heads),
        codes=codes,
        sizes=sizes,
        starts=starts,
        flat=masks[order],
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
    out = []
    for assignment in distribution.assignments():
        ing1, ing2, ing3, ing0 = (
            class_masks(t, entry_class_size(t, entry), cls).ingredients
            for entry, cls in zip(assignment, CLASS_ORDER)
        )
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
    for cls, ing in zip(CLASS_ORDER, recipe.ingredients):
        side = class_masks(t, ing.k, cls)
        i = side.ingredients.index(ing)
        per_class.append(side.flat[side.starts[i] : side.starts[i] + side.sizes[i]].tolist())
    for row in product(*per_class):
        yield CoboundarySubset(ctx, frozenset(join_classes(t, row)))
