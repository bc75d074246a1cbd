"""The class-mask catalog: each class's masks grouped by head profile.

The rows congruent to 1 see a class mask only through its head counts:
counts[m - 1] is the number of mask positions whose shift by m lands
outside the mask, for m = 1 .. (t - 1) / 2.  Masks sharing this profile
are interchangeable on those rows.  Rotation and complementation
preserve profiles, so sizes k and t - k give the same groups.

class_masks reads the profiles of one class's admissible masks off the
mask tables in a single array pass and lays them out as the flat arrays
the search joins on: the masks grouped by profile, each profile's
base-(t + 1) code, and the group sizes and offsets.  The ingredients
command prints the same groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitmask import forbidden_position, ingredient_counts, mask_tables


@dataclass(frozen=True, eq=False)
class ClassMasks:
    """Masks a canonical subset may use in one class, as flat arrays.

    The masks of profile i are flat[starts[i] : starts[i] + sizes[i]],
    sorted; codes[i] packs their head counts as base-(t + 1) digits,
    most significant first.
    """

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
    return ClassMasks(codes=codes, sizes=sizes, starts=starts, flat=masks[order])
