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
    count against the fixed sign table is popcount(b ^ rot_{-m}(a));
    the sizes cancel in their difference, which pair_ci reads off the
    left rotations alone.

The zero-sum condition for a row of the assembled matrix is then a small
integer identity per rotation shift m: the head counts total t at the
rows 4m+1, and at the rows 4m+2, 4m+3 and 4m+4 the two pair terms of
PAIR_ORDER cancel.

Termwise balance: the three cross conditions hold at every m exactly
when all six pair terms vanish at every m.  Let z_a be the Fourier
coefficient of class a's 0/1 position vector at a nontrivial character
w of Z_t, z_a = sum over positions p of a of w^p, and let
W_ab = Im(z_a conj z_b).  pair_ci(a, b, m) = c(m) - c(-m), with c the
cross-correlation c(m) = |a & rot_m(b)|, is odd in m, and its transform
sum_m pair_ci(a, b, m) w^m is z_a conj z_b minus its conjugate, 2i W_ab.
A cross condition asks two odd terms to cancel at m = 1 .. (t-1)/2,
hence at every m, so its transform vanishes at every nontrivial
character:

    W12 + W30 = 0,   W13 + W02 = 0,   W10 + W23 = 0.

The 2 x 2 minors of the real 2 x 4 matrix with columns (Re z_a, Im z_a)
are -W_ab, and they satisfy the Plücker relation
W12 W30 - W13 W20 + W10 W23 = 0.  Substituting the three conditions
(W20 = -W02 = W13) gives -(W12² + W13² + W10²) = 0, so all three
vanish, and with them W30, W02 and W23.  An odd term's transform also
vanishes at the trivial character, so a term whose W vanishes at every
nontrivial one is zero.  So every solution has pair_ci(a, b, m) = 0
for all six coupled pairs and every m; the converse is plain.  In
matrix terms the four class circulants are pairwise amicable.  The
search's join relies on this: only a pair of classes (1, 2) with all
its terms zero can belong to a solution.

Affine maps: for u prime to t, mu_u: p -> u p permutes the cycle
positions and mu_u rot_m = rot_{um} mu_u.  So applied to all four
classes it sends the chain count of each class and each pair term at
shift m to the same count or term at shift um of the images, and um
runs over the nonzero shifts as m does.  A head count is even in m,
as every chain has one start and one end, and a pair term is odd, so
each row condition at m of S is the one at +-um of mu_u S, and S
passes exactly when mu_u S does; a rotation rot_c keeps every term.
cocyclic.canonicalize keeps the Hadamard property and picks the one
canonical member of S's coset under its three relation kernels, each
a union of whole classes.  A position map fixes every whole class, so
it maps cosets onto cosets: S -> canonicalize(g S) permutes the
canonical solutions for every affine g: p -> u p + c.  The tests check
this closure and count its orbits for t <= 11.

row_test_batch is the one executable statement of those identities:
the search runs its joined candidates through it and brute force runs
every canonical subset through it.  Its leading checks run on the
operands' broadcast shape, each pair term at the shape of its own two
operands, so outer-product operands (as brute force passes) cost one
compare per row there; only the survivors' masks are then gathered,
and the remaining checks run on them alone.  join_classes turns rows of four class masks back into
the subsets' index membership.  The readable reference implementation
lives in the paths module, and tests hold both to the direct
orthogonality test.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .group import validate_t

# Class labels in column order within each block of four: residues mod 4.
CLASS_ORDER = (1, 2, 3, 0)

# MaskTables holds (t + 1) / 2 rows of 2^t entries in rot (int64) and
# runs (int8), plus pc (int8), and xs while they are built: ~0.23 GB at
# t = 21, ~0.98 GB at t = 23 and ~4.2 GB at t = 25.  Every entry of pc
# and runs, and every pair_ci, is at most t in size, and no sum formed of
# them exceeds 2t, so int8 holds them through t = 63.
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

    pc[x]       popcount of x (int8, as runs)
    rot[m][x]   x rotated left by m within t bits, 1 <= m <= (t-1)/2
    runs[m][x]  popcount(x & ~rot[m][x]), chain endings at shift m
    coupling    the t x t float64 matrix W with
                sum_m (2t+1)^(half-m) pair_ci(a, b, m) = bits(a) W bits(b)^T

    Right rotations are not stored: rotation keeps popcount, so
    |b & rot_{-m}(a)| = |a & rot_m(b)|.  On the 0/1 position vectors,
    pair_ci(a, b, m) = a^T (S_m - S_m^T) b with S_m[i, j] = 1 when
    i = j + m (mod t), so W = sum_m (2t+1)^(half-m) (S_m - S_m^T): entry
    (i, j) is +(2t+1)^(half-m) when i - j = m and -(2t+1)^(half-m) when
    j - i = m (mod t), for 1 <= m <= half; t is odd, so exactly one of the
    two holds off the diagonal.  Every entry is an integer of size at most
    (2t+1)^(half-1).
    """

    def __init__(self, t: int) -> None:
        validate_t(t)
        if t > _TABLE_LIMIT_T:
            raise ResourceLimitError(f"mask tables are capped at t={_TABLE_LIMIT_T}, got t={t}")
        self.t = t
        self.half = (t - 1) // 2
        size = 1 << t
        xs = np.arange(size, dtype=np.int64)
        self.pc = np.bitwise_count(xs).astype(np.int8)
        self.rot = np.zeros((self.half + 1, size), dtype=np.int64)
        self.runs = np.zeros((self.half + 1, size), dtype=np.int8)
        for m in range(1, self.half + 1):
            self.rot[m] = rotate(t, xs, m)
            self.runs[m] = self.pc[xs & ~self.rot[m]]
        pos = np.arange(t)
        diff = (pos[:, None] - pos[None, :]) % t
        weight = np.zeros(t, dtype=np.int64)
        weight[1 : self.half + 1] = (2 * t + 1) ** np.arange(self.half - 1, -1, -1)
        self.coupling = (weight[diff] - weight[(t - diff) % t]).astype(np.float64)


@lru_cache(maxsize=None)
def mask_tables(t: int) -> MaskTables:
    return MaskTables(t)


def rotate(t: int, masks, s):
    """masks rotated left by s positions within t bits, 0 <= s <= t.

    Broadcasts masks against s; position p moves to (p + s) mod t.
    """
    return ((masks << s) | (masks >> (t - s))) & ((1 << t) - 1)


def join_classes(t: int, rows) -> np.ndarray:
    """Membership of the subsets given by rows of four class masks.

    rows has shape (..., 4), masks in CLASS_ORDER; the result has shape
    (..., 4t) and column 4p + j is True when index 4p + j + 1 is in the
    subset, that is when bit p of column j of the row is set.  Inverse
    of the index-to-mask packing in tests/oracles.py once its masks are
    read in CLASS_ORDER.
    """
    rows = np.asarray(rows, dtype=np.int64)
    bits = (rows[..., None, :] >> np.arange(t)[:, None]) & 1
    return bits.astype(bool).reshape(*rows.shape[:-1], 4 * t)


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
    |b & rot_{-m}(a)| - |b & rot_m(a)| = |a & rot_m(b)| - |b & rot_m(a)|,
    which is what is computed, in the tables' int8: its size is at most t.
    """
    return tables.pc[a & tables.rot[m][b]] - tables.pc[b & tables.rot[m][a]]


# Coupled pair order (first, second) per row residue.  At rows 4m+2 the
# classes chain as (1,2) and (3,0); at 4m+3 as (1,3) and (0,2); at 4m+4
# as (1,0) and (2,3).  The second element of each pair carries the
# overlap orientation, and a row sums to zero exactly when its two pair
# terms cancel: row 4m+4 when pair_ci(u1, u0, m) + pair_ci(u2, u3, m) = 0.
PAIR_ORDER = {
    2: ((1, 2), (3, 0)),
    3: ((1, 3), (0, 2)),
    0: ((1, 0), (2, 3)),
}


def _row_check(tables: MaskTables, m: int, residue: int, u) -> np.ndarray:
    """One row condition of row_test_batch: residue's rows at shift m.

    u maps each class to its masks.  Each side of the compare is computed
    at the broadcast shape of its own operands; only the compare runs at
    the shape of all four.
    """
    if residue == 1:
        runs = tables.runs[m]
        return runs[u[1]] + runs[u[2]] == tables.t - runs[u[3]] - runs[u[0]]
    (a, b), (c, d) = PAIR_ORDER[residue]
    return pair_ci(tables, u[a], u[b], m) == -pair_ci(tables, u[c], u[d], m)


def row_test_batch(tables: MaskTables, s1, s2, s3, s0):
    """Vectorized zero-row-sum test over rows 5..2t+2 for class masks.

    Accepts scalars or broadcastable arrays and returns the ascending
    flat indices, into their broadcast shape (one entry for scalars), of
    the rows that pass.  A row passes when every tested row of the
    assembled matrix sums to zero, i.e. the subset is a Hadamard
    solution: at every shift m the coupled pairs of PAIR_ORDER balance
    and the four head counts total t.

    Per shift the residue-3 and residue-0 pairs go first, then the
    residue-2 pair, then the residue-1 head total; the order is for cost
    only and does not change the result.  The leading checks run on the
    operands as given, each pair term at the broadcast shape of its own
    two operands, and only the compare at the shape of all four, so an
    outer product of masks (as brute_force passes) is never built.  Once
    no more rows survive than the largest pair term has entries, the
    survivors' masks are gathered, each later check runs only on the
    survivors of the checks before it, and the test stops once none
    survive.  Operands with one entry per row, as the search passes,
    are gathered after the first check.  Survivors travel as flat
    indices into the broadcast shape, never as per-axis index arrays,
    and are returned as they are, so no verdict grid is built: an N-D
    np.nonzero takes ~0.7 ms on a 2^18-entry grid, flatnonzero ~0.04 ms.
    """
    ops = dict(zip(CLASS_ORDER, (np.asarray(s, dtype=np.int64) for s in (s1, s2, s3, s0))))
    rows = np.broadcast_shapes(*(u.shape for u in ops.values())) or (1,)
    # A check on the operands as given costs at least its largest pair
    # term, one on gathered survivors about as much as the survivors.
    term = max(
        math.prod(np.broadcast_shapes(ops[a].shape, ops[b].shape))
        for pairs in PAIR_ORDER.values()
        for a, b in pairs
    )
    checks = product(range(1, tables.half + 1), (3, 0, 2, 1))
    keep = np.ones(rows, dtype=bool)
    for m, residue in checks:
        keep &= _row_check(tables, m, residue, ops)
        if np.count_nonzero(keep) <= term:
            break
    alive = np.flatnonzero(keep)
    at = np.unravel_index(alive, rows)
    # Row j holds the survivors' masks of class CLASS_ORDER[j].
    masks = np.stack([np.broadcast_to(ops[c], rows)[at] for c in CLASS_ORDER])
    for m, residue in checks:
        if not alive.size:
            break
        keep = np.flatnonzero(_row_check(tables, m, residue, dict(zip(CLASS_ORDER, masks))))
        alive = alive[keep]
        masks = masks[:, keep]
    return alive
