"""Pruned exhaustive search, the raw baseline, and matrix file IO.

run_search walks the admissible budget distributions and, within each,
every distinct assignment of budgets to classes.  The rows congruent
to 1 see a class mask only through its head profile, so each
assignment is joined in two steps, on the flat arrays that
recipes.class_masks keeps per class size: masks grouped by profile,
and each profile's integer code.  First the profiles: the code sums of
class pairs (1, 2) are matched against t minus those of (3, 0); each
match is one recipe, found without touching a single mask.  Then the
masks: only the rows of matched profile pairs are keyed, in batches of
whole profile groups (see _CHUNK_ROWS), and the two sides meet on one
key per row, the matched profile group plus the coupling score per
shift that balances the rows congruent to 2.

The coupling scores pack into one bilinear form.  pair_ci(x, y, m) is
x^T (S_m - S_m^T) y on the 0/1 position vectors, S_m the shift by m,
and the key's digits pair_ci + t, m = 1 .. (t-1)/2, weigh
(2t+1)^((t-1)/2 - m) each, so the key is the group times
(2t+1)^((t-1)/2) plus x^T W y plus a constant, W =
bitmask.MaskTables.coupling (the B side uses -W).  Each side keeps the
rows of x^T W for its class-1 or class-3 catalog, and a batch's keys
come from one float64 product per matched profile pair, laid out at the
pair's row offset.  Every partial sum is an integer below 2^53 through
t = 19 (at most 2.1e14), so the products are exact; the group part is
added in int64.  A row stays implicit as a key position until its key
matches, and only then is decoded to its masks.

The mask rows are keyed on rotation-orbit representatives only.  A
class of size k takes masks of k or t - k positions, and a catalog
holds those of min(k, t - k) (recipes.class_masks): the others are
their complements.  An A row (u1, u2) of the class domains D1 x D2 is
stood for by (c, n): n is one mask of u2's necklace, the least rotation
of a necklace of class 2's catalog (recipes.necklace_masks) or the
complement of one, and c a mask of class 1's catalog or the complement
of one, a set closed under rotation; a B row (u3, u0) of D3 x D0
likewise by c from class 3's catalog and n from u0's necklace.  Nine
facts make this exact:

  * Invariance.  Rotating both masks of a pair by the same s rotates
    every term of pair_ci(u, v, m), a popcount of an intersection of
    rotations, by s, and a popcount does not see rotation; head
    profiles are rotation-invariant too.  So a pair's profile group and
    coupling key, and hence every key match, hold for all its rotations
    at once.
  * Bijection.  Each (u1, u2) is rot_-r(c, n) for exactly one
    (c, n, r) with 0 <= r < period(n): n and r are fixed by u2, as
    its necklace has one representative and the rotations of n below
    its period are distinct, and then c = rot_r(u1) is in class 1's
    masks, which are closed under rotation.
  * Relative shift.  The row test sees the four masks only through
    such popcounts and the head profiles, so rotating all four together
    keeps its verdict: (rot_-r A, rot_-r' B) passes exactly when
    (A, rot_d B) does, d = r - r'.
  * Mirror.  The map (u1, u2, u3, u0) -> (u1, ~u2, u0, u3), class 2
    complemented and classes 3 and 0 swapped (_mirror), keeps every
    head profile (complements share profiles, and the B code is a sum),
    negates both terms of the residue-2 sum (pair_ci(u1, ~u2, m) =
    -pair_ci(u1, u2, m)), keeps every forbidden position (class 2 has
    none, classes 3 and 0 share t - 1) and commutes with rotation.  So
    it maps the key matches of assignment (e1, e2, e3, e0) one to one
    onto those of (e1, e2, e0, e3), with the same periods (u1 is kept,
    ~u2 has u2's period) and the same canonical forms.  The mirror's
    residue-3 and residue-0 sums are the match's residue-0 and residue-3
    sums (bitmask.PAIR_ORDER), so a mirror passes exactly when its match
    does, and the mirror's hits are the images of the match's.
  * Termwise balance.  A solution has every pair term zero at every m
    (bitmask docstring), pair_ci(u1, u2, m) among them, and joint
    rotation keeps that.  So only a key match whose coupling digits
    are all t can pass the row test: its key modulo (2t+1)^((t-1)/2)
    is ((2t+1)^((t-1)/2) - 1) / 2, the coupling key zero.
  * Complements.  1^T S_m = 1^T and S_m 1 = 1, so 1^T W = W 1 = 0:
    complementing one argument of pair_ci negates it (~x the complement
    in t bits).  A complement keeps the head profile and the period, so
    the complements of a catalog's group are the other class size's
    masks of that profile, and a pair with a zero coupling key stays
    zero under every complement pattern of its four masks.  A pattern
    negates some pair terms and keeps every head profile, so by termwise
    balance it keeps the row test's verdict.
  * Canonical form.  cocyclic.canonicalize's three relations toggle
    classes 1 and 2, 3 and 2, or 0 and 2 (_canonical); they generate the
    eight even complement patterns.  A pattern's class-1, -3 and -0 bits
    settle whether an image avoids the forbidden positions, so the even
    and the odd images of a row each hold one row of D1 x D2 x D3 x D0,
    its canonical form.
  * Reflection.  mu_-1 keeps profiles and periods (bitmask's affine
    maps) and negates every pair term; followed by the rotation that
    takes its class-0 image back to the necklace's least rotation, it
    permutes a B group's rows.  So each B group's (score, period)
    multiset is symmetric.
  * Multipliers.  mu_u: p -> u p, gcd(u, t) = 1, moves each head count
    and pair term at shift m to the one at +-um (bitmask's affine maps):
    one signed permutation of the profile and coupling digits, the same
    on both sides, so it keeps key equality.  It keeps periods, maps
    every catalog onto itself and the necklaces of a size onto
    themselves, commutes with complements, and S -> canonicalize(mu_u S)
    permutes the canonical solutions.  Followed by the rotation that
    takes mu_u n to its necklace's least rotation, it maps the rows of
    one side with necklace n one to one onto those with necklace mu_u n.
    So the other side's rows matching the rows of n weigh, key for key,
    as much as those matching the rows of mu_u n.

So every pair of domain rows with equal keys is, once, the canonical
form of a complement image of a rotation pair (rot_-r A, rot_-r' B),
r < p(n2) and r' < p(n0), of a (catalog mask, necklace representative)
pair on either side.  The join keys only the four catalogs, the side
that keys more rows cut to one necklace per multiplier orbit
(recipes.necklace_orbits), and probes the A keys into the B keys once.
An even number of complements keeps both scores, so a match's eight
even images have equal keys; by the canonical form fact they hold one
candidate per (r, r'), p(n2) p(n0) in all.  An odd number negates one
side's score, so the odd images with equal keys are those of the pairs
with opposite scores, p(n2) p(n0) candidates each again, and by the
reflection fact those pairs weigh as much as the key matches in every
batch, a run of whole groups.  So a key match of the full catalogs
stands for 2 p(n2) p(n0) candidates checked, and by the ninth fact a
key match of the cut ones counts that many times the size of its cut
necklace's orbit.  By the fifth fact only the images with a zero
coupling key can pass, and a zero key is its own negation: a
zero-coupling match stands for one candidate of each parity per
(r, r'), and by the sixth fact all its images share its verdict, so the
match is tested as it is.  By the third fact it goes through
bitmask.row_test_batch only once per relative shift d that stands for a
candidate, that is when some r < p(n2) has r - d below p(n0) modulo t:
one call per assignment, after all its batches, on the tuples
(A, rot_d B).  Over those r, a passing tuple gives rot_-r (A, rot_d B)
= (rot_-r A, rot_{d-r} B) and its class-2 complement.  By the ninth
fact the canonical forms of their images under every multiplier are the
hits: each canonical solution has its cut class's mask in the orbit of
a kept necklace or of its complement.  The images repeat, and each
distinct row is kept once.  By the fourth fact, only the assignments
whose class sizes have k3 >= k0 are joined, one at a time; the mirror
of one with k3 > k0 is never keyed, sorted, probed or row-tested: the
search adds the images of its partner's hits and the partner's totals
once more.  row_test_batch is the one statement of all the row
conditions: it settles the rows congruent to 3 and 0 and re-checks
those congruent to 1 and 2 on the few survivors.  The join counts the
report's recipe column, every matched (A profile pair, B profile pair)
of the full catalogs.  Its hits stay (n, 4) mask rows until the call
that searches a distribution counts their solution recipes, the
distinct 4-tuples of class profiles, turns them into sorted subsets and
their index membership rows, and certifies every one by the direct
orthogonality test, in stacks of _CERTIFY_BATCH matrices (one gram
product per matrix), so each --jobs worker returns only what it has
certified itself.

brute_force takes no shortcuts: it runs all 2^(4t-3) canonical subsets
that avoid each class's forbidden position through the same row test,
as a ground truth for the search's pruning at small t.  Each call gets
one class-1 mask and a slab of class-2 masks against all class-3 and
class-0 masks, as operands that broadcast to their outer product, so
the row test settles most rows before it builds any; the passing mask
rows become subsets the same way.  Matrices travel as plain text (see
format_matrix) so results can be exported, reloaded and re-verified:
the export assembles and formats a stack of solutions at a time, and
verify_matrix_file parses one file and tests its matrix.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bitmask import (
    CLASS_ORDER,
    ResourceLimitError,
    forbidden_position,
    ingredient_counts,
    join_classes,
    mask_tables,
    multipliers,
    multiply,
    rotate,
    row_test_batch,
)
from .cocyclic import (
    CoboundarySubset,
    MatrixFormatError,
    assemble_members,
    format_matrix,
    is_hadamard_direct,
    parse_matrix,
)
from .distributions import Distribution, class_budget, entry_class_size, enumerate_distributions
from .group import GroupContext, validate_t
from .recipes import ClassMasks, class_masks, necklace_masks, necklace_orbits

# A join key is a batch-local group id times (2t+1)^((t-1)/2) plus the
# coupling digits, so groups x (2t+1)^((t-1)/2) must stay below 2^63.
# Every matched group has A rows, also after the cut to multiplier
# orbits, which matches the profiles again, so a batch holds at most
# _CHUNK_ROWS groups and the key fits through t = 19.  The cap stays at
# 15 (~0.7 s serial): a t = 17 run (13056 solutions) has no second route
# to confirm its count yet.
_JOIN_LIMIT_T = 15

# A join batch is a run of whole profile groups holding at most this
# many keyed A rows, of the class-1 catalog and the class-2 necklace
# representatives (one per multiplier orbit when A is the cut side); a
# group larger than that is a batch of its own (none is at t <= 15,
# where the largest holds 1920).  The cap bounds no B rows: a batch
# keys all B rows of its groups.  When A is the cut side, the full B
# side keys no more rows in all than the full A side would; per batch
# the B rows peak at 26,663 at t = 13 and 93,510 at t = 15.  A batch
# keys, sorts and probes its rows and keeps its zero-coupling matches;
# it makes no row test of its own.  Measured on 2 cores, 2^13, 2^14 and
# 2^15 in turn, three runs each: run_search(13) takes 0.209-0.216,
# 0.201-0.205 and 0.200-0.202 s at peak RSS 60.6-60.8, 60.5-60.6 and
# 60.5-60.6 MB, and run_search(15) 0.678-0.688, 0.661-0.683 and
# 0.665-0.745 s at 65.4-66.1, 65.2-65.3 and 65.3-65.4 MB.  From 2^14
# on no size is faster or lower beyond the spread.
_CHUNK_ROWS = 1 << 14

# Solutions are certified in stacks of this many matrices.  Measured on
# the 8424 solutions of run_search(13), 2 cores, one BLAS thread,
# assembly and gram test together, medians of nine interleaved rounds:
# 72-77, 77, 82-85 and 170-179 ms at 32, 64, 128 and 256, while
# run_search(13)'s max RSS grows with the stack: 50.9, 51.5-52.3, 54.8
# and 58.8 MB.  So 32 would hold the peak ~1 MB lower at the same
# speed; export_solutions formats stacks of the same size.
_CERTIFY_BATCH = 64

# Raw scan cap: 2^25 canonical subsets (t = 7) is the supported ceiling.
_BRUTE_LIMIT_BITS = 25

# Each row_test_batch call of brute_force tests one class-1 mask against
# a slab of class-2 masks and all of D3 x D0, about this many rows: 64
# class-2 masks and 128 calls at t = 7.  Measured on 2 cores, numpy 2.4:
# brute_force(7) in one process, medians of 8 rounds in each of three
# passes, takes 152-209, 127-162, 114-133 and 113-162 ms at 2^17, 2^18,
# 2^19 and 2^20 rows, at 36.6, 36.3-36.5, 36.9 and 36.9 MB max RSS.
# Four perfbench brute_t7 runs each read 0.093-0.102 s at 37.8-38.0 MB
# peak RSS for 2^18 and 0.120-0.130 s at 38.6-38.7 MB for 2^19, so no
# larger slab is reliably faster, and each costs RSS.
_BRUTE_SLAB_ROWS = 1 << 18

@dataclass(frozen=True, slots=True)
class SolutionRecord:
    """One certified Hadamard subset."""

    subset: CoboundarySubset


@dataclass(frozen=True)
class DistributionReport:
    """Search outcome for one budget distribution."""

    distribution: Distribution
    ingredient_counts: tuple[int, int, int, int]
    recipe_count: int
    solution_recipe_count: int
    solutions: tuple[SolutionRecord, ...]

    @property
    def hadamard_count(self) -> int:
        return len(self.solutions)

    def summary_line(self) -> str:
        """The distribution's line in CLI output and in report.txt."""
        return "distribution {}: ingredients {}, recipes {}, solution recipes {}, hadamard {}".format(
            self.distribution.entries,
            self.ingredient_counts,
            self.recipe_count,
            self.solution_recipe_count,
            self.hadamard_count,
        )


@dataclass(frozen=True)
class SearchReport:
    """Full search outcome; solutions are certified and deterministic."""

    t: int
    reports: tuple[DistributionReport, ...]
    candidates_checked: int

    @property
    def hadamard_count(self) -> int:
        return sum(r.hadamard_count for r in self.reports)

    def solutions(self) -> tuple[SolutionRecord, ...]:
        return tuple(rec for report in self.reports for rec in report.solutions)


@dataclass(frozen=True)
class BruteForceReport:
    """Outcome of the raw scan over all canonical subsets."""

    t: int
    space: int
    solutions: tuple[CoboundarySubset, ...]

    @property
    def hadamard_count(self) -> int:
        return len(self.solutions)

    def counts_by_distribution(self) -> dict[tuple[int, int, int, int], int]:
        """Solution counts keyed by descending budget entries."""
        out: dict[tuple[int, int, int, int], int] = {}
        for subset in self.solutions:
            sizes = (len(subset.residue_class(cls)) for cls in CLASS_ORDER)
            entries = tuple(sorted((class_budget(self.t, k) for k in sizes), reverse=True))
            out[entries] = out.get(entries, 0) + 1
        return out


def _position_bits(t: int, masks) -> np.ndarray:
    """The (n, t) float64 0/1 position vectors of masks."""
    return ((masks[:, None] >> np.arange(t)) & 1).astype(np.float64)


class _JoinSide(NamedTuple):
    """The matched profile pairs of one join side, ordered by group.

    Pair p joins profile px[p] of catalog x and py[p] of necklaces y; its
    rows are keyed x-major from edges[p], and group g holds the pairs
    heads[g] .. heads[g + 1] - 1.  xw and yb are the position vectors
    of x.flat times the side's coupling matrix and those of y.flat, and
    yn[j] is the number of necklaces y.flat[j] stands for.
    """

    x: ClassMasks
    y: ClassMasks
    xw: np.ndarray
    yb: np.ndarray
    yn: np.ndarray
    px: np.ndarray
    py: np.ndarray
    heads: np.ndarray
    edges: np.ndarray


def _join_side(t: int, x: ClassMasks, xw, y: ClassMasks, yn, codes, sums) -> _JoinSide:
    """The side of the profile pairs of x and y whose code is in sums.

    xw is the side's _JoinSide.xw; codes holds one code per pair
    (x-major); a pair's group is the position of its code in sums.
    """
    group = np.searchsorted(sums, codes)
    # Codes are never negative, so the appended -1 matches no code.
    matched = np.flatnonzero(np.append(sums, -1)[group] == codes)
    order = matched[np.argsort(group[matched], kind="stable")]
    px, py = np.divmod(order, len(y.sizes))
    edges = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(x.sizes[px] * y.sizes[py], out=edges[1:])
    heads = np.searchsorted(group[order], np.arange(len(sums) + 1))
    return _JoinSide(x, y, xw, _position_bits(t, y.flat), yn, px, py, heads, edges)


def _join_sides(t: int, tables, c1, aw, c3, bw, n2, w2, n0, w0) -> tuple[_JoinSide, _JoinSide]:
    """The A side (c1, n2) and the B side (c3, n0) on the profile code
    sums both sides hold; aw and bw are the catalogs' position vectors
    times W and -W, and w2 and w0 count the necklaces each of n2 and n0
    stands for."""
    # Codes compare digit by digit: runs[m][x] <= min(|x|, t - |x|) <= half,
    # so a pair's digit sums stay below the base t + 1 and t minus a
    # pair's digits stays positive; no carry or borrow can occur.
    top = (t + 1) ** tables.half - 1
    acodes = (c1.codes[:, None] + n2.codes[None, :]).ravel()
    bcodes = (top - c3.codes[:, None] - n0.codes[None, :]).ravel()
    both = np.sort(np.concatenate([_distinct(acodes), _distinct(bcodes)]))
    sums = both[1:][both[1:] == both[:-1]]
    a = _join_side(t, c1, aw, n2, w2, acodes, sums)
    return a, _join_side(t, c3, bw, n0, w0, bcodes, sums)


def _cuts_a(a: _JoinSide, b: _JoinSide) -> bool:
    """Whether the join cuts the A side's necklaces to multiplier orbits
    rather than the B side's: the side that keys more rows is cut, A on
    a tie."""
    return a.edges[-1] >= b.edges[-1]


def _side_keys(t: int, side: _JoinSide, g: int, h: int):
    """Sorted join keys of all rows of the side's groups g .. h - 1.

    A row (u, v) of a pair in group g + j gets the key j (2t+1)^half plus
    the digits sign * pair_ci(u, v, m) + t, m = 1 .. half, in base 2t + 1:
    side.xw holds the position vectors of x.flat times sign * W
    (MaskTables.coupling), so the digits sum to xw[u] . yb[v] +
    ((2t+1)^half - 1) / 2.  Each matched profile pair p is keyed by one
    float64 product of its x rows of xw against its y masks, laid out
    x-major from the key position edges[p] - edges[heads[g]].  The
    product is exact: every partial sum is an integer of size at most
    2t sum_m (2t+1)^(half-m), 2.1e14 at t = 19, below 2^53.  The group
    offset passes 2^53 by t = 17, so it is added in int64.  Returns the
    sorted keys, their key positions and a function that maps key
    positions back to the x mask, y mask, y period and y necklace count
    (side.yn) of a row.
    """
    base = (2 * t + 1) ** ((t - 1) // 2)
    x, y = side.x, side.y
    first, stop = side.heads[g], side.heads[h]
    at = side.edges[first:stop] - side.edges[first]
    coupling = np.empty(side.edges[stop] - side.edges[first])
    xs, nx = x.starts[side.px[first:stop]], x.sizes[side.px[first:stop]]
    ys, ny = y.starts[side.py[first:stop]], y.sizes[side.py[first:stop]]
    for k, i, n, j, m in zip(at.tolist(), xs.tolist(), nx.tolist(), ys.tolist(), ny.tolist()):
        np.dot(side.xw[i : i + n], side.yb[j : j + m].T, out=coupling[k : k + n * m].reshape(n, m))
    keys = coupling.astype(np.int64)
    del coupling
    group = np.repeat(np.arange(h - g), np.diff(side.heads[g : h + 1]))
    keys += np.repeat(group * base + base // 2, nx * ny)
    order = np.argsort(keys)

    def rows_at(pos):
        q = np.searchsorted(at, pos, side="right") - 1
        i, j = np.divmod(pos - at[q], ny[q])
        iy = ys[q] + j
        return x.flat[xs[q] + i], y.flat[iy], y.periods[iy], side.yn[iy]

    return keys[order], order, rows_at


def _distinct(values) -> np.ndarray:
    """The sorted distinct values of a 1-d array.

    A plain np.unique imports numpy.ma (~10 ms and ~1 MB of max RSS with
    numpy 2.4); a sort and a neighbour compare do not.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _distinct_rows(rows) -> np.ndarray:
    """The distinct rows of a 2-d array, in lexicographic order (as
    _distinct, without numpy.ma)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _matches(akey, bkey):
    """Every pair (i, j) with akey[i] == bkey[j], of two sorted key arrays.

    One left probe per A key and an equality test find the A keys that
    match, and only those are probed on the right for their run of B
    keys; bkey must not be empty.  Sorted probes walk bkey in order,
    which is several times faster than probing it at random.
    """
    first = np.searchsorted(bkey, akey)
    hit = np.flatnonzero(bkey.take(first, mode="clip") == akey)
    first = first[hit]
    reps = np.searchsorted(bkey, akey[hit], side="right") - first
    i = np.repeat(hit, reps)
    return i, np.repeat(first - np.cumsum(reps) + reps, reps) + np.arange(len(i))


def _join_assignment(t: int, k1: int, k2: int, k3: int, k0: int):
    """Mask 4-tuples satisfying all row conditions for one assignment,
    with its totals.

    k1, k2, k3 and k0 are the class sizes the assignment gives classes
    1, 2, 3 and 0; the join reads the catalogs of classes 1 and 3 and
    the necklace representatives of classes 2 and 0 (see the module
    docstring).  Returns (masks (n, 4), recipe count, candidates
    checked).  Profiles are matched first: an A profile pair (classes 1,
    2) meets a B pair (classes 3, 0) when its code sum equals t in every
    digit minus the B pair's codes, and each such meeting is one recipe.
    Then the side with more rows in matched pairs, A on a tie (_cuts_a),
    keeps one necklace per multiplier orbit, and the profiles are
    matched again.  Only matched pairs are keyed, in batches of whole
    groups holding at most _CHUNK_ROWS A rows (a larger group is a batch
    of its own), and joined on (group, coupling scores); the keys come
    from one float64 product per matched profile pair (see _side_keys),
    and a row is built from its key position only when its key matches.
    Each batch probes the A keys into the B keys once, counts 2 p(n2)
    p(n0) candidates per match times the orbit size of its cut necklace
    and keeps the zero-coupling matches (the module docstring's counting
    paragraph).  After the last batch each kept match goes through one
    row_test_batch call as (A, rot_d B), for each d that stands for a
    candidate.  A passing tuple gives two rows per r below p(n2) with
    r - d below p(n0), its rotation by -r and that rotation's class-2
    complement, and the hits are the distinct canonical forms of their
    images under every multiplier.
    """
    tables = mask_tables(t)
    c1, c3 = class_masks(t, k1), class_masks(t, k3)
    n2, n0 = necklace_masks(t, k2), necklace_masks(t, k0)
    w2, w0 = np.ones(len(n2.flat), dtype=np.int64), np.ones(len(n0.flat), dtype=np.int64)
    # The cut changes only the necklaces, so both builds share the
    # catalogs' coupling rows.
    aw = _position_bits(t, c1.flat) @ tables.coupling
    bw = _position_bits(t, c3.flat) @ -tables.coupling
    a, b = _join_sides(t, tables, c1, aw, c3, bw, n2, w2, n0, w0)
    recipe_count = int(np.diff(a.heads) @ np.diff(b.heads))
    if _cuts_a(a, b):
        n2, w2 = necklace_orbits(t, k2)
    else:
        n0, w0 = necklace_orbits(t, k0)
    a, b = _join_sides(t, tables, c1, aw, c3, bw, n2, w2, n0, w0)
    arow = a.edges[a.heads]
    base = (2 * t + 1) ** tables.half
    # (rows, p2, p0) of each batch's zero-coupling matches.
    kept = [(np.empty((0, 4), dtype=np.int64), *[np.empty(0, dtype=np.int64)] * 2)]
    checked = g = 0
    while g < len(a.heads) - 1:
        h = max(g + 1, int(np.searchsorted(arow, arow[g] + _CHUNK_ROWS, side="right")) - 1)
        bkey, border, brows = _side_keys(t, b, g, h)
        akey, aorder, arows = _side_keys(t, a, g, h)
        i, j = _matches(akey, bkey)
        # A solution has every pair term zero (termwise balance, see
        # bitmask), so only a match whose coupling digits are all t can
        # pass the row test.
        zero = akey[i] % base == base // 2
        ia, ib = aorder[i], border[j]
        # Freeing the batch's keys before its matched rows are built holds
        # run_search(13)'s peak RSS ~0.5 MB lower.
        del akey, bkey, aorder, border, i, j
        u1, u2, p2, o2 = arows(ia)
        u3, u0, p0, o0 = brows(ib)
        # A match counts p2 p0 candidates per necklace its cut side stands
        # for (the Multipliers fact), and the matches of the negated A
        # keys, which this probe skips, weigh as much (the Canonical form
        # and Reflection facts).
        checked += 2 * int((p2 * o2) @ (p0 * o0))
        kept.append((np.stack([u1, u2, u3, u0], axis=1)[zero], p2[zero], p0[zero]))
        g = h
    rows, p2, p0 = (np.concatenate(part) for part in zip(*kept))
    shifts = np.arange(t)
    # Bit r of live[i, d] is set when r < p2 and r - d < p0 (mod t): the
    # pair (rot_-r A, rot_{d-r} B) is rot_-r of the tested (A, rot_d B)
    # and passes exactly when it does.  Residues 1 and 2 hold by the
    # join; the kernel re-checks them on its survivors.
    live = ((1 << p2) - 1)[:, None] & rotate(t, ((1 << p0) - 1)[:, None], shifts)
    i, d = np.divmod(np.flatnonzero(live), t)
    tested = rotate(t, rows[i], d[:, None] * np.array([0, 0, 1, 1]))
    passed = row_test_batch(tables, *tested.T)
    # Per set bit r of a passing live[i, d], rot_-r (A, rot_d B) and its
    # class-2 complement, one of each parity, under every multiplier.
    i, d, tested = i[passed], d[passed], tested[passed]
    k, r = np.divmod(np.flatnonzero((live[i, d, None] >> shifts) & 1), t)
    hits = rotate(t, tested[k], (t - r[:, None]) % t)
    hits = np.concatenate([hits, hits ^ np.array([0, (1 << t) - 1, 0, 0])])
    hits = multiply(t, hits[:, None], multipliers(t)[:, None])
    return _distinct_rows(_canonical(t, hits.reshape(-1, 4))), recipe_count, checked


def _canonical(t: int, rows):
    """The canonical forms of (n, 4) mask rows (u1, u2, u3, u0): class 1
    at its forbidden position toggles classes 1 and 2, and class 3 or 0
    at its own toggles that class and class 2 (cocyclic.canonicalize).
    No toggle moves another class's forbidden bit, so all three read the
    row as it is."""
    f1, f3, f0 = ((rows[:, j] >> forbidden_position(c, t)) & 1 for j, c in ((0, 1), (2, 3), (3, 0)))
    return rows ^ np.stack([f1, f1 ^ f3 ^ f0, f3, f0], axis=1) * ((1 << t) - 1)


def _mirror(t: int, rows):
    """The mirrors (u1, ~u2, u0, u3) of (n, 4) mask rows (u1, u2, u3, u0):
    class 2 complemented, classes 3 and 0 swapped (see the module
    docstring)."""
    return rows[:, [0, 1, 3, 2]] ^ np.array([0, (1 << t) - 1, 0, 0])


def _subsets_of_rows(t: int, rows) -> tuple[list[CoboundarySubset], np.ndarray]:
    """The subsets of (n, 4) mask rows in CLASS_ORDER, by sorted_indices.

    Returns the subsets and their (n, 4t) membership rows (see
    bitmask.join_classes) in that order.  Raises AssertionError when two
    rows give the same subset.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    member = join_classes(t, rows)
    row, col = np.divmod(np.flatnonzero(member), 4 * t)
    sizes = np.bincount(row, minlength=len(rows))
    starts = np.cumsum(sizes) - sizes
    # Each subset's sorted indices, left-aligned and padded with 0 (one
    # column at least, as np.lexsort needs a key): a prefix then sorts
    # first, as tuples do, and equal subsets become neighbours, so no
    # np.unique(axis=0) is needed (it imports numpy.ma, ~10 ms and ~1 MB
    # of max RSS with numpy 2.4).  Member bits in index order would sort
    # (2, 4) before (2, 3, 5).
    padded = np.zeros((len(rows), max(1, int(sizes.max(initial=0)))), dtype=np.uint8)
    padded[row, np.arange(len(row)) - starts[row]] = col + 1
    order = np.lexsort(padded.T[::-1])
    padded = padded[order]
    if (padded[1:] == padded[:-1]).all(axis=1).any():
        raise AssertionError("mask rows produced overlapping subsets")
    cols = padded[padded > 0].tolist()
    ends = np.cumsum(sizes[order]).tolist()
    ctx = GroupContext(t)
    subsets = [CoboundarySubset(ctx, cols[a:b]) for a, b in zip([0, *ends], ends)]
    return subsets, member[order]


def _search_distribution(t: int, distribution: Distribution) -> tuple[DistributionReport, int]:
    """The certified report of one distribution and the candidates checked.

    Every solution is certified with the direct orthogonality test here,
    in stacks of _CERTIFY_BATCH matrices, so a --jobs worker returns
    only what it has certified itself.
    """
    sizes = {entry: entry_class_size(t, entry) for entry in distribution.entries}
    # An assignment with k3 < k0 is the mirror of (k1, k2, k0, k3), onto
    # whose hits, recipes and candidates it maps one to one (see the
    # module docstring), so it is never joined: its hits are the _mirror
    # images of its partner's.
    rows, recipe_count, checked = [], 0, 0
    for k1, k2, k3, k0 in (tuple(sizes[e] for e in a) for a in distribution.assignments()):
        if k3 < k0:
            continue
        found, recipes, candidates = _join_assignment(t, k1, k2, k3, k0)
        sides = 1 if k3 == k0 else 2
        rows.append(found)
        if sides == 2:
            rows.append(_mirror(t, found))
        recipe_count += sides * recipes
        checked += sides * candidates
    rows = np.concatenate(rows)
    # A hit's recipe is the 4-tuple of its class profiles; assignments
    # differ in some class budget, so no recipe repeats across them.
    solution_recipes = {p.tobytes() for p in ingredient_counts(mask_tables(t), rows).transpose(1, 0, 2)}
    # Subsets are built and sorted in one call once the joins are done,
    # ~0.06 s for the 8424 of t = 13.  Built per assignment between the
    # joins, then merged, they peaked alike (51.8-51.9 against 51.7-51.9
    # MB max RSS, three runs each).
    subsets, member = _subsets_of_rows(t, rows)
    for lo in range(0, len(subsets), _CERTIFY_BATCH):
        ok = is_hadamard_direct(assemble_members(t, member[lo : lo + _CERTIFY_BATCH]))
        if not np.all(ok):
            raise AssertionError(
                f"candidate failed certification: {subsets[lo + int(np.argmin(ok))]}"
            )
    report = DistributionReport(
        distribution=distribution,
        ingredient_counts=tuple(len(class_masks(t, sizes[e]).codes) for e in distribution.entries),
        recipe_count=recipe_count,
        solution_recipe_count=len(solution_recipes),
        solutions=tuple(SolutionRecord(subset) for subset in subsets),
    )
    return report, checked


def run_search(
    t: int, *, distribution: int | None = None, jobs: int = 1
) -> SearchReport:
    """Search all canonical subsets for t, pruned by budgets and profiles.

    distribution restricts the run to one distribution by its position
    in enumerate_distributions(t); jobs > 1 spreads distributions over
    worker processes, at most one per distribution and per CPU.  Both
    must be integers, as t must: numpy integers pass, floats do not.
    Every reported solution is certified with the direct orthogonality
    test.
    """
    validate_t(t)
    if t > _JOIN_LIMIT_T:
        raise ResourceLimitError(f"search is capped at t={_JOIN_LIMIT_T}, got t={t}")
    if not isinstance(jobs, Integral):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    everything = enumerate_distributions(t)
    if distribution is None:
        selected = everything
    else:
        if not isinstance(distribution, Integral):
            raise ValueError(f"distribution index must be an integer, got {distribution!r}")
        if not 0 <= distribution < len(everything):
            raise ValueError(
                f"distribution index {distribution} outside [0, {len(everything)})"
            )
        selected = (everything[distribution],)

    # A fork pool starts all its workers at once, so size it by the work.
    workers = min(jobs, len(selected), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_search_distribution, t), selected))
    else:
        outcomes = [_search_distribution(t, dist) for dist in selected]
    reports = tuple(report for report, _ in outcomes)
    return SearchReport(t, reports, sum(checked for _, checked in outcomes))


def brute_force(t: int) -> BruteForceReport:
    """Scan every canonical subset with the packed-bit row test.

    The space has 2^(4t-3) subsets (three indices are never used); the
    scan is capped at 2^25, i.e. t = 7.  Each row_test_batch call gets
    one class-1 mask, a slab of class-2 masks and the class-3 and
    class-0 domains as operands that broadcast to their outer product
    (see _BRUTE_SLAB_ROWS), which the row test never builds.  Each call
    returns its survivors as flat indices into that product, and
    np.unravel_index reads off their masks.
    """
    validate_t(t)
    bits = 4 * t - 3
    if bits > _BRUTE_LIMIT_BITS:
        raise ResourceLimitError(
            f"raw scan needs 2^{bits} subsets; the cap is 2^{_BRUTE_LIMIT_BITS} (t = 7)"
        )
    tables = mask_tables(t)
    xs = np.arange(1 << t, dtype=np.int64)
    d1, d2, d3, d0 = (
        xs if (forb := forbidden_position(cls, t)) is None else xs[(xs >> forb) & 1 == 0]
        for cls in CLASS_ORDER
    )
    run = max(1, _BRUTE_SLAB_ROWS // (len(d3) * len(d0)))
    found = []
    for m1 in d1.tolist():
        for lo in range(0, len(d2), run):
            slab2 = d2[lo : lo + run]
            hits = row_test_batch(tables, m1, slab2[:, None, None], d3[:, None], d0)
            i2, i3, i0 = np.unravel_index(hits, (len(slab2), len(d3), len(d0)))
            found.append(np.stack([np.full_like(i2, m1), slab2[i2], d3[i3], d0[i0]], axis=1))
    return BruteForceReport(t, 1 << bits, tuple(_subsets_of_rows(t, np.concatenate(found))[0]))


def verify_matrix_file(path) -> tuple[int, bool]:
    """Parse a matrix text file and run the direct orthogonality test.

    Returns (t, verdict).  A false verdict is a result, not an error;
    malformed input raises MatrixFormatError with the offending line.
    The bytes are decoded as UTF-8 with no newline translation, so a
    "\r" reaches parse_matrix as the invalid character it is, and a
    byte that is not UTF-8 fails on its line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MatrixFormatError(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    t, matrix = parse_matrix(text)
    return t, is_hadamard_direct(matrix)


def _write_atomic(target: Path, text: str) -> None:
    """Write text as UTF-8 bytes, with no newline translation, to a temp
    file beside target, then rename it over target.

    A failed write leaves target as it was and removes the temp file.
    """
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export_solutions(report: SearchReport, directory) -> list[Path]:
    """Write one matrix file per solution plus a run summary.

    Solutions are taken _CERTIFY_BATCH at a time, in report order: their
    index membership rows become one stack of matrices (assemble_members)
    and one format_matrix call gives their texts.  File names carry t
    and a digest of the matrix text, so re-exporting the same report
    overwrites byte-identical files.  The summary holds
    the per-distribution table and totals, nothing time-dependent.
    Every file is written atomically, so a failed export never leaves a
    partly written file behind.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"t={report.t}", f"candidates checked: {report.candidates_checked}"]
    lines.extend(dist_report.summary_line() for dist_report in report.reports)
    lines.append(f"total hadamard: {report.hadamard_count}")
    t, solutions = report.t, report.solutions()
    written = []
    for lo in range(0, len(solutions), _CERTIFY_BATCH):
        batch = [record.subset.indices for record in solutions[lo : lo + _CERTIFY_BATCH]]
        row = np.repeat(np.arange(len(batch)), [len(indices) for indices in batch])
        col = np.fromiter(chain.from_iterable(batch), dtype=np.int64, count=len(row)) - 1
        member = np.zeros((len(batch), 4 * t), dtype=bool)
        member[row, col] = True
        for text in format_matrix(t, assemble_members(t, member)):
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            target = out_dir / f"t{t:02d}-{digest}.txt"
            _write_atomic(target, text)
            written.append(target)
    lines.append(f"matrices written: {len(written)}")
    _write_atomic(out_dir / "report.txt", "\n".join(lines) + "\n")
    return written
