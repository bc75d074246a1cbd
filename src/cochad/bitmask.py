"""Packed-bit kernels for row tests over coboundary subsets.

A coboundary subset splits by index residue mod 4 into four classes, and
each class is a subset of a t-cycle: index 4p + r sits at cycle position
p.  Each class subset is packed into an integer bitmask (bit p set means
position p selected), so every per-row quantity of the path machinery
becomes a table lookup:

  * within a class, the number of maximal chains under the step p -> p+m
    is popcount(S & ~rot_m(S)), the number of chain endings;
  * across a coupled class pair (a, b) the chain count is
    popcount(a & ~rot_m(b)) + popcount(b & ~rot_m(a)) and the overlap
    count against the fixed sign table is popcount(b ^ rot_{-m}(a)).

The zero-sum condition for a row of the assembled matrix is then a small
integer identity per rotation shift m.  row_test_batch is the one
executable statement of those identities: the search runs its joined
candidates through it and brute force runs every canonical subset
through it.  The readable reference implementation lives in the paths
module, and tests hold both to the direct orthogonality test.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .group import validate_t

# Class labels in column order within each block of four: residues mod 4.
CLASS_ORDER = (1, 2, 3, 0)

# MaskTables holds (t + 1) / 2 rows of 2^t entries in rot, irot (int64)
# and runs (int16), plus xs and pc: ~0.44 GB at t = 21, ~1.9 GB at
# t = 23 and ~8.2 GB at t = 25.
_TABLE_LIMIT_T = 21


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds what this implementation supports."""


def forbidden_position(cls: int, t: int) -> int | None:
    """Cycle position canonical subsets must avoid in a class, or None.

    Position p of class r is index 4p + r, with r = 0 read as 4p + 4, so
    class 1 position 0 is index 1 and classes 3 and 0 position t-1 are
    indices 4t-1 and 4t.  Class 2 has no forbidden position.
    """
    if cls == 1:
        return 0
    if cls in (3, 0):
        return t - 1
    return None


class MaskTables:
    """Per-t lookup tables over all 2^t masks.

    pc[x]       popcount of x
    rot[m][x]   x rotated left by m within t bits, 1 <= m <= (t-1)/2
    irot[m][x]  x rotated right by m
    runs[m][x]  popcount(x & ~rot[m][x]), chain endings at shift m
    """

    def __init__(self, t: int) -> None:
        validate_t(t)
        if t > _TABLE_LIMIT_T:
            raise ResourceLimitError(f"mask tables are capped at t={_TABLE_LIMIT_T}, got t={t}")
        self.t = t
        self.half = (t - 1) // 2
        size = 1 << t
        self.full = size - 1
        xs = np.arange(size, dtype=np.int64)
        self.pc = np.bitwise_count(xs).astype(np.int16)
        self.rot = np.zeros((self.half + 1, size), dtype=np.int64)
        self.irot = np.zeros((self.half + 1, size), dtype=np.int64)
        self.runs = np.zeros((self.half + 1, size), dtype=np.int16)
        for m in range(1, self.half + 1):
            self.rot[m] = ((xs << m) | (xs >> (t - m))) & self.full
            self.irot[m] = ((xs >> m) | (xs << (t - m))) & self.full
            self.runs[m] = self.pc[xs & ~self.rot[m] & self.full]


@lru_cache(maxsize=None)
def mask_tables(t: int) -> MaskTables:
    return MaskTables(t)


def mask_of(positions) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def positions_of(mask: int, t: int) -> tuple[int, ...]:
    return tuple(p for p in range(t) if (mask >> p) & 1)


def split_classes(t: int, indices) -> dict[int, int]:
    """Pack a set of 1-based indices into four class masks keyed by residue."""
    masks = {1: 0, 2: 0, 3: 0, 0: 0}
    for i in indices:
        if not 1 <= i <= 4 * t:
            raise ValueError(f"index {i} outside [1, {4 * t}]")
        masks[i % 4] |= 1 << ((i - 1) // 4)
    return masks


def join_classes(t: int, row) -> tuple[int, ...]:
    """Sorted indices of four class masks given in CLASS_ORDER.

    Inverse of split_classes once its masks are read in CLASS_ORDER.
    """
    out = []
    for cls, mask in zip(CLASS_ORDER, row):
        base = cls if cls != 0 else 4
        for p in positions_of(mask, t):
            out.append(4 * p + base)
    return tuple(sorted(out))


def ingredient_counts(tables: MaskTables, mask) -> np.ndarray:
    """Chain counts of one class mask at every shift m = 1..(t-1)/2.

    Entry m-1 is the number of maximal chains the mask contributes at the
    row 4m+1; a full cycle contributes zero everywhere.
    """
    mask = np.asarray(mask, dtype=np.int64)
    return np.stack([tables.runs[m][mask] for m in range(1, tables.half + 1)])


def pair_ci(tables: MaskTables, a, b, m: int):
    """Chains minus overlaps for the coupled class pair (a, b) at shift m.

    The overlap term counts shared negative columns against the fixed sign
    table; its orientation (second argument) is fixed by the row residue,
    so callers must pass arguments in the documented pair order.  With
    chains |a - rot_m(b)| + |b - rot_m(a)| and overlaps |b ^ rot_{-m}(a)|,
    the sizes of a and b cancel and the difference is
    |b & rot_{-m}(a)| - |b & rot_m(a)|, which is what is computed.
    """
    return (tables.pc[b & tables.irot[m][a]] - tables.pc[b & tables.rot[m][a]]).astype(np.int32)


# Coupled pair order (first, second) per row residue.  At rows 4m+2 the
# classes chain as (1,2) and (3,0); at 4m+3 as (1,3) and (0,2); at 4m+4
# as (1,0) and (3,2).  The second element of each pair carries the
# overlap orientation.
PAIR_ORDER = {
    2: ((1, 2), (3, 0)),
    3: ((1, 3), (0, 2)),
    0: ((1, 0), (3, 2)),
}


def row_test_batch(tables: MaskTables, s1, s2, s3, s0):
    """Vectorized zero-row-sum test over rows 5..2t+2 for class masks.

    Accepts scalars or broadcastable arrays and returns a boolean scalar
    or array.  True means every tested row of the assembled matrix sums
    to zero, i.e. the subset is a Hadamard solution: at every shift m
    the coupled pairs of PAIR_ORDER balance and the four head counts
    total t.

    Each check runs only on the survivors of the checks before it, and
    the test stops once none survive.  Per shift the residue-3 and
    residue-0 pairs go first, then the residue-2 pair, then the residue-1
    head total; the order is for cost only and does not change the
    result.
    """
    t = tables.t
    cols = np.broadcast_arrays(*(np.asarray(s, dtype=np.int64) for s in (s1, s2, s3, s0)))
    shape = cols[0].shape
    masks = dict(zip(CLASS_ORDER, (c.ravel() for c in cols)))
    alive = np.arange(cols[0].size)
    for m, residue in product(range(1, tables.half + 1), (3, 0, 2, 1)):
        if not alive.size:
            break
        if residue == 1:
            keep = sum(tables.runs[m][masks[cls]] for cls in CLASS_ORDER) == t
        else:
            keep = sum(pair_ci(tables, masks[a], masks[b], m) for a, b in PAIR_ORDER[residue]) == 0
        alive = alive[keep]
        masks = {cls: v[keep] for cls, v in masks.items()}
    ok = np.zeros(cols[0].size, dtype=bool)
    ok[alive] = True
    return ok.reshape(shape) if shape else bool(ok[0])
