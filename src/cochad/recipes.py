"""The class-mask catalog: each class size's masks grouped by head profile.

The rows congruent to 1 see a class mask only through its head counts:
counts[m - 1] is the number of mask positions whose shift by m lands
outside the mask, for m = 1 .. (t - 1) / 2.  Masks sharing this profile
are interchangeable on those rows.  Rotation and complementation
preserve profiles, so sizes k and t - k give the same profiles, and a
class size is recorded as the smaller of the two, min(k, t - k): the
complements of a catalog's masks are the other size's masks, profile
by profile.  Every group is a union of necklaces (rotation orbits).

class_masks reads the profiles of all masks of one class size off the
mask tables in a single array pass and lays them out as the flat arrays
the search joins on: the masks grouped by profile, each profile's
base-(t + 1) code, the group sizes and offsets, and each mask's
rotation period.  The catalog is closed under rotation and knows no
class: the search applies each class's forbidden position itself.
necklace_masks is the same catalog cut down to one mask per necklace,
its least rotation, and necklace_orbits cuts that to one necklace per
multiplier orbit.  The ingredients command prints the groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitmask import ingredient_counts, mask_tables, multiply, multipliers, rotate
from .group import validate_t


@dataclass(frozen=True, eq=False)
class ClassMasks:
    """Masks of one class size, as flat arrays grouped by profile.

    The masks of profile i are flat[starts[i] : starts[i] + sizes[i]],
    sorted; codes[i] packs their head counts as base-(t + 1) digits,
    most significant first.  periods[j] is the number of distinct
    rotations of flat[j].
    """

    codes: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    flat: np.ndarray
    periods: np.ndarray

    def __post_init__(self) -> None:
        # The catalogs are cached and handed to every caller.
        for arr in (self.codes, self.sizes, self.starts, self.flat, self.periods):
            arr.flags.writeable = False

    def select(self, keep: np.ndarray) -> ClassMasks:
        """The masks where keep is true, grouped and coded as here.

        A group that keeps no mask is dropped with its code; when every
        group keeps one, the codes array is this one's.
        """
        group = np.repeat(np.arange(len(self.codes)), self.sizes)[keep]
        sizes = np.bincount(group, minlength=len(self.codes))
        held = sizes > 0
        codes = self.codes if held.all() else self.codes[held]
        sizes = sizes[held]
        return ClassMasks(
            codes=codes,
            sizes=sizes,
            starts=np.cumsum(sizes) - sizes,
            flat=self.flat[keep],
            periods=self.periods[keep],
        )


@lru_cache(maxsize=None)
def class_masks(t: int, k: int) -> ClassMasks:
    """Every mask of min(k, t - k) positions, grouped by profile.

    Sizes k and t - k give one budget and one catalog: a complement
    shares its mask's profile and period.  Profiles ascend, and so do
    their codes, since every digit is below t + 1; the masks of each
    profile ascend.
    """
    # Both checks come before the tables, which are large at t >= 19.
    validate_t(t)
    if not 0 <= k <= t:
        raise ValueError(f"k must be in [0, {t}], got {k}")
    tables = mask_tables(t)
    masks = np.flatnonzero(tables.pc == min(k, t - k))
    digits = ingredient_counts(tables, masks).astype(np.int64)
    codes = (t + 1) ** np.arange(tables.half - 1, -1, -1) @ digits
    order = np.lexsort((masks, codes))
    masks = masks[order]
    # The first s >= 1 with rot_s(x) == x; s = t always qualifies.
    shifts = np.arange(1, t + 1)
    periods = np.argmax(rotate(t, masks[:, None], shifts) == masks[:, None], axis=1) + 1
    codes, starts, sizes = np.unique(codes[order], return_index=True, return_counts=True)
    return ClassMasks(codes=codes, sizes=sizes, starts=starts, flat=masks, periods=periods)


@lru_cache(maxsize=None)
def necklace_masks(t: int, k: int) -> ClassMasks:
    """The least rotation of each necklace in class_masks(t, k).

    Grouped and coded as class_masks(t, k), with the same codes: a
    group is a union of necklaces, so none is left empty.  The
    rotations rot_s(x), 0 <= s < periods[j], of x = flat[j] are
    distinct and give every mask of its necklace once.
    """
    side = class_masks(t, k)
    least = rotate(t, side.flat[:, None], np.arange(t)).min(axis=1)
    return side.select(side.flat == least)


@lru_cache(maxsize=None)
def necklace_orbits(t: int, k: int) -> tuple[ClassMasks, np.ndarray]:
    """One necklace of necklace_masks(t, k) per multiplier orbit, and the
    number of necklaces each one stands for.

    The multipliers mu_u, gcd(u, t) = 1, map rotations to rotations
    (mu_u rot_m = rot_{um} mu_u), so they permute the necklaces; an orbit
    keeps its least representative, and its size is phi(t) over the
    number of u with mu_u fixing that necklace.  mu_u permutes head-count
    digits, so an orbit can leave a profile group: the groups no kept
    necklace falls in are dropped.
    """
    side = necklace_masks(t, k)
    units = multipliers(t)
    images = multiply(t, side.flat[:, None], units)
    least = rotate(t, images[..., None], np.arange(t)).min(axis=-1)
    keep = least.min(axis=1) == side.flat
    fixed = np.count_nonzero(least[keep] == side.flat[keep, None], axis=1)
    sizes = len(units) // fixed
    sizes.flags.writeable = False
    return side.select(keep), sizes
