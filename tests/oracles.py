"""Reference model of ingredients and recipes, one object at a time.

The search works on the flat arrays of recipes.class_masks and matches
profiles as integer codes; this module states the same notions as
objects, so tests can hold the arrays and the join's recipe columns to
them.  An ingredient is the head profile of a class mask: counts[m - 1]
is the number of mask positions whose shift by m lands outside the
mask, for m = 1 .. (t - 1) / 2, i.e. the chains the mask contributes to
the row 4m + 1.  A recipe picks one ingredient per class such that
every row congruent to 1 collects exactly t heads.  Rotation and
complementation preserve profiles, so sizes k and t - k realize the
same ingredients.  The module also keeps the class domains, which the
search never builds: the masks of both sizes a canonical subset may
use in each class (class_domain), the termwise form of the coupled-pair
conditions (pair_terms_vanish), and the join key digit by digit
(coupling_key).  parse_matrix_lines reads matrix text one line at a
time, the reference for cocyclic.parse_matrix, and coboundary_blocks
places a coboundary table's tiles, the second route to
cocyclic.build_coboundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from cochad.bitmask import (
    CLASS_ORDER,
    PAIR_ORDER,
    forbidden_position,
    ingredient_counts,
    mask_tables,
    pair_ci,
    rotate,
)
from cochad.cocyclic import CoboundarySubset, MatrixFormatError, SignMatrix
from cochad.distributions import Distribution, entry_class_size
from cochad.group import GroupContext
from cochad.recipes import ClassMasks


@lru_cache(maxsize=None)
def _both_sizes(t: int, k: int) -> ClassMasks:
    """Every mask of k or t - k positions, grouped by profile.

    Laid out as recipes.class_masks lays out one size, but read off the
    mask tables on its own: profiles ascend, so do their codes, and the
    masks of each profile ascend.
    """
    tables = mask_tables(t)
    masks = [x for x in range(1 << t) if bin(x).count("1") in (k, t - k)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for mask, counts in zip(masks, ingredient_counts(tables, masks).T.tolist()):
        groups.setdefault(tuple(counts), []).append(mask)
    profiles = sorted(groups)
    sizes = np.array([len(groups[p]) for p in profiles])
    flat = [mask for p in profiles for mask in groups[p]]
    return ClassMasks(
        codes=np.array([sum(c * (t + 1) ** e for e, c in enumerate(reversed(p))) for p in profiles]),
        sizes=sizes,
        starts=np.cumsum(sizes) - sizes,
        flat=np.array(flat, dtype=np.int64),
        periods=np.array([len({rotate(t, x, s) for s in range(t)}) for x in flat]),
    )


def class_domain(t: int, k: int, cls: int) -> ClassMasks:
    """Masks of k or t - k positions a canonical subset may use in a class.

    Every mask of both sizes minus those that cover the class's
    forbidden position, grouped by profile; every profile keeps some
    rotation.  recipes.class_masks keeps the size min(k, t - k) alone,
    whose complements are the other size.
    """
    side = _both_sizes(t, k)
    forb = forbidden_position(cls, t)
    if forb is None:
        return side
    return side.select((side.flat >> forb) & 1 == 0)


def positions_of(t: int, mask: int) -> list[int]:
    """Cycle positions 0..t-1 set in the mask; inverse of mask_of."""
    return [p for p in range(t) if (mask >> p) & 1]


def mask_of(positions) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def pair_terms_vanish(t: int, rows) -> np.ndarray:
    """Whether every PAIR_ORDER term of each mask row is zero at every m.

    rows holds four class masks per row in CLASS_ORDER.  row_test_batch
    asks only that each residue's two terms cancel; this asks that each
    term vanish on its own.
    """
    tables = mask_tables(t)
    masks = dict(zip(CLASS_ORDER, np.asarray(rows, dtype=np.int64).T))
    ok = np.ones(len(rows), dtype=bool)
    for m in range(1, tables.half + 1):
        for a, b in (pair for pairs in PAIR_ORDER.values() for pair in pairs):
            ok &= pair_ci(tables, masks[a], masks[b], m) == 0
    return ok


def coupling_key(tables, group, u, v, sign: int):
    """The join key of rows (u, v), packed one digit at a time.

    The group, then sign * pair_ci(u, v, m) + t for m = 1 .. (t-1)/2, as
    base-(2t + 1) digits, most significant first: the A side keys sign
    +1 and the B side -1, so equal keys mean every residue-2 row
    balances.  The reference for search._side_keys.
    """
    t = tables.t
    key = np.asarray(group, dtype=np.int64)
    for m in range(1, tables.half + 1):
        key = key * (2 * t + 1) + (sign * pair_ci(tables, u, v, m) + t)
    return key


def joined_indices(t: int, row) -> tuple[int, ...]:
    """Sorted indices of four class masks given in CLASS_ORDER, one row at
    a time; the reference for bitmask.join_classes.

    Column j of the row holds the class of index 4p + j + 1.  Inverse of
    split_classes once its masks are read in CLASS_ORDER.
    """
    return tuple(
        4 * p + j + 1 for p in range(t) for j, mask in enumerate(row) if (mask >> p) & 1
    )


def split_classes(t: int, indices) -> dict[int, int]:
    """Pack a set of 1-based indices into four class masks keyed by residue."""
    masks = {1: 0, 2: 0, 3: 0, 0: 0}
    for i in indices:
        if not 1 <= i <= 4 * t:
            raise ValueError(f"index {i} outside [1, {4 * t}]")
        masks[i % 4] |= 1 << ((i - 1) // 4)
    return masks


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


def profile_ingredients(t: int, side: ClassMasks) -> list[Ingredient]:
    """The ingredient of each profile group of side, from its first mask."""
    return [ingredient_of(t, positions_of(t, mask)) for mask in side.flat[side.starts].tolist()]


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
            profile_ingredients(t, class_domain(t, entry_class_size(t, entry), cls))
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
    cover a prohibited index position (see class_domain); results stream
    in lexicographic mask order and satisfy the rows congruent to 1 by
    construction.
    """
    t = ctx.t
    if recipe.t != t:
        raise ValueError(f"recipe is for t={recipe.t}, context has t={t}")
    per_class = []
    for cls, ing in zip(CLASS_ORDER, recipe.ingredients):
        side = class_domain(t, ing.k, cls)
        i = profile_ingredients(t, side).index(ing)
        per_class.append(side.flat[side.starts[i] : side.starts[i] + side.sizes[i]].tolist())
    for row in product(*per_class):
        yield CoboundarySubset(ctx, frozenset(joined_indices(t, row)))


def coboundary_blocks(ctx: GroupContext, i: int) -> SignMatrix:
    """Point form of index i's coboundary table via tile placement.

    The 4x4 class tile has -1 where the column offset is the row offset
    XOR the offset of the residue class representative; it runs down a
    back diagonal of 4x4 blocks starting at block column ceil(i/4), then
    row i and column i are negated.
    """
    t = ctx.t
    blk = np.ones((4, 4), dtype=np.int8)
    for o in range(4):
        blk[o, o ^ ((i - 1) % 4)] = -1
    out = np.ones((4 * t, 4 * t), dtype=np.int8)
    bc0 = (i + 3) // 4
    for br in range(t):
        bc = (bc0 - 1 - br) % t
        out[4 * br : 4 * br + 4, 4 * bc : 4 * bc + 4] = blk
    out[i - 1, :] *= -1
    out[:, i - 1] *= -1
    return out


def parse_matrix_lines(text: str) -> tuple[int, np.ndarray]:
    """cocyclic.parse_matrix one row at a time: each row line is checked
    for stray characters, then for its length, then decoded.  The
    reference for the parser's one-pass grid check and its messages."""
    lines = text.removesuffix("\n").split("\n")
    if not text:
        raise MatrixFormatError("line 1: empty input, expected 't=<value>'")
    head = lines[0]
    if not head.startswith("t="):
        raise MatrixFormatError(f"line 1: expected 't=<value>', got {head!r}")
    try:
        t = int(head[2:])
    except ValueError:
        raise MatrixFormatError(f"line 1: {head[2:]!r} is not an integer") from None
    if head != f"t={t}":
        raise MatrixFormatError(f"line 1: expected 't={t}', got {head!r}")
    if t < 3 or t % 2 == 0:
        raise MatrixFormatError(f"line 1: t must be odd and >= 3, got {t}")
    n = 4 * t
    body = lines[1:]
    if len(body) < n:
        raise MatrixFormatError(f"line {len(lines) + 1}: expected {n} matrix rows, found {len(body)}")
    extra = [k for k, stray in enumerate(body[n:]) if stray.strip(" \t")]
    if extra:
        raise MatrixFormatError(f"line {n + 2 + extra[0]}: trailing content after {n} matrix rows")
    out = np.empty((n, n), dtype=np.int8)
    for k, line in enumerate(body[:n]):
        stray = set(line) - {"+", "-"}
        if stray:
            raise MatrixFormatError(f"line {k + 2}: invalid characters {sorted(stray)!r}")
        if len(line) != n:
            raise MatrixFormatError(f"line {k + 2}: expected {n} characters, found {len(line)}")
        out[k] = np.frombuffer(line.encode(), dtype=np.uint8) == ord("+")
    out = (2 * out.astype(np.int8) - 1).astype(np.int8)
    return t, out
