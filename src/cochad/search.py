"""Pruned exhaustive search, the raw baseline, and matrix file IO.

run_search walks the admissible budget distributions and, within each,
every distinct assignment of budgets to classes.  The rows congruent
to 1 see a class mask only through its head profile, so each
assignment is joined in two steps, on the flat arrays that
recipes.class_masks keeps per class size: masks grouped by profile,
and each profile's integer code.  First the profiles: the code sums of
class pairs (1, 2) are matched against t minus those of (3, 0); each
match is one recipe, found without touching a single mask.  Then the
masks: only matched profile pairs are expanded, in batches of whole
profile groups (see _CHUNK_ROWS), and the two sides meet on one key
per row, the matched profile group plus the coupling score per shift
that balances the rows congruent to 2.

The mask rows are keyed on rotation-orbit representatives only.  An A
row (u1, u2) of the class domains D1 x D2 is stood for by (c, n): n is
the least rotation of u2's necklace (recipes.necklace_masks), and c a
mask of class 1's rotation-closed catalog; a B row (u3, u0) of D3 x D0
likewise by c from class 3's catalog and n from class 0's
representatives.  Three facts make this exact:

  * Invariance.  Rotating both masks of a pair by the same s rotates
    every term of pair_ci(u, v, m), a popcount of an intersection of
    rotations, by s, and a popcount does not see rotation; head
    profiles are rotation-invariant too.  So a pair's profile group and
    coupling key, and hence every key match, hold for all its rotations
    at once.
  * Bijection.  Each (u1, u2) is rot_s(c, n) for exactly one
    (c, n, s) with 0 <= s < period(n): n and s are fixed by u2, because
    the rotations of n below its period are distinct, and then
    c = rot_-s(u1) is in the catalog, which is closed under rotation.
    The row is in D1 x D2 exactly when rot_s(c) avoids class 1's
    forbidden position (class 2 has none); a B row is in D3 x D0 when
    both masks avoid position t - 1.
  * Relative shift.  The row test sees the four masks only through
    such popcounts and the head profiles, so rotating all four together
    keeps its verdict: (rot_s A, rot_s' B) passes exactly when
    (A, rot_{s'-s} B) does.

So a key match of an A representative and a B representative stands
for every (valid s) x (valid s') pair of rotated rows, and these
4-tuples, over all matches, are exactly the pairs of domain rows with
equal keys: each once.  They are counted as the candidates checked,
but by the third fact each match goes through bitmask.row_test_batch
only once per relative shift d = 0 .. t - 1, and a passing d gives the
hits (rot_s A, rot_{s+d} B) over the s valid on both sides.
row_test_batch is the one statement of all the row conditions: it
settles the rows congruent to 3 and 0 and re-checks those congruent to
1 and 2 on the few survivors.  The join also counts the report's
recipe columns: every matched (A profile pair, B profile pair), and the
distinct ones among its hits; a rotation keeps the profiles, so a hit's
recipe is its representatives'.  Its hits stay (n, 4) mask rows until
the call that searches a distribution turns them into sorted subsets
and certifies each by the direct orthogonality test, so each --jobs
worker returns only what it has certified itself.

brute_force takes no shortcuts: it runs all 2^(4t-3) canonical subsets
that avoid each class's forbidden position through the same row test,
one (class 1, class 2) slab at a time, as a ground truth for the
search's pruning at small t; its mask rows become subsets the same
way.  Matrices travel as plain text (see format_matrix) so results can
be exported, reloaded and re-verified.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .bitmask import (
    CLASS_ORDER,
    ResourceLimitError,
    forbidden_position,
    join_classes,
    mask_tables,
    pair_ci,
    rotate,
    row_test_batch,
)
from .cocyclic import (
    CoboundarySubset,
    assemble_cocyclic,
    format_matrix,
    is_hadamard_direct,
    parse_matrix,
)
from .distributions import Distribution, class_budget, entry_class_size, enumerate_distributions
from .group import GroupContext, validate_t
from .recipes import ClassMasks, class_masks, necklace_masks

# A join key is a batch-local group id times (2t+1)^((t-1)/2) plus the
# coupling digits, so groups x (2t+1)^((t-1)/2) must stay below 2^63.
# Every matched group has A rows, so a batch holds at most _CHUNK_ROWS
# groups and the key fits through t = 19.  The cap stays at 15, the
# largest t run to completion (~20 s serial); t = 17 has not been run.
_JOIN_LIMIT_T = 15

# A join batch is a run of whole profile groups holding at most this
# many A-side representative rows; a group larger than that is a batch
# of its own (none is at t <= 15, where the largest holds 10320).  Each
# batch makes one row_test_batch call of t rows per key match: the
# largest holds 106496 rows at t = 13 and 26880 at t = 15.  Measured on
# run_search(13), 2 cores: 2^13 to 2^17 run within noise of each other
# (1.9-2.3 s), while peak RSS grows with the size: 59.3, 59.3, 64.1,
# 70.2 and 79.5 MB.
_CHUNK_ROWS = 1 << 14

# Raw scan cap: 2^25 canonical subsets (t = 7) is the supported ceiling.
_BRUTE_LIMIT_BITS = 25


@dataclass(frozen=True)
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


def _matched_pairs(x: ClassMasks, y: ClassMasks, codes, sums):
    """Profile pairs of two classes whose code is in sums, ordered by group.

    codes holds one code per pair (x-major); a pair's group is the
    position of its code in sums.  Returns the x and y profile indices,
    the group of each pair and the exclusive prefix sum of the pair row
    counts (one entry more than pairs).
    """
    matched = np.nonzero(np.isin(codes, sums))[0]
    group = np.searchsorted(sums, codes[matched])
    order = np.argsort(group, kind="stable")
    px, py = np.divmod(matched[order], len(y.sizes))
    edges = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(x.sizes[px] * y.sizes[py], out=edges[1:])
    return px, py, group[order], edges


def _pair_rows(x: ClassMasks, y: ClassMasks, px, py, edges, first: int, stop: int):
    """All rows of the products masks(px[p]) x masks(py[p]), first <= p < stop.

    Returns the two mask columns, the period of each y mask and the
    pair index of each row.
    """
    pair = np.repeat(np.arange(first, stop), np.diff(edges[first : stop + 1]))
    local = np.arange(edges[first], edges[stop], dtype=np.int64) - edges[pair]
    i, j = np.divmod(local, y.sizes[py[pair]])
    iy = y.starts[py[pair]] + j
    return x.flat[x.starts[px[pair]] + i], y.flat[iy], y.periods[iy], pair


def _coupling_key(tables, group, u, v, sign: int):
    """Pack the group and the per-shift coupling scores into one int64 key.

    The A side keys pair_ci(u, v, m) + t and the B side t - pair_ci(u, v, m),
    so equal keys mean every residue-2 row balances.
    """
    t = tables.t
    key = group.astype(np.int64)
    for m in range(1, tables.half + 1):
        key = key * (2 * t + 1) + (sign * pair_ci(tables, u, v, m) + t)
    return key


def _valid_shifts(t: int, xcls: int, ycls: int, x, y, periods):
    """Which rotations of the rows (x, y) are rows of two class domains.

    Each y[i] is the least rotation of its necklace, of period
    periods[i], so rotating (x[i], y[i]) by s = 0 .. periods[i] - 1
    gives distinct rows.  Entry [i, s] of the (n, t) result is true when
    s is below the period and neither rotated mask covers its class's
    forbidden position.
    """
    shifts = np.arange(t)
    ok = shifts < periods[:, None]
    for masks, cls in ((x, xcls), (y, ycls)):
        forb = forbidden_position(cls, t)
        if forb is not None:
            # rot_s(mask) covers forb exactly when mask covers forb - s.
            ok &= (masks[:, None] >> ((forb - shifts) % t)) & 1 == 0
    return ok


def _join_assignment(t: int, c1: ClassMasks, n2: ClassMasks, c3: ClassMasks, n0: ClassMasks):
    """Mask 4-tuples satisfying all row conditions for one assignment.

    c1 and c3 are the catalogs of classes 1 and 3, n2 and n0 the
    necklace representatives of classes 2 and 0 (see the module
    docstring).  Returns (masks (n, 4), recipe count, solution recipe
    count, candidates checked).  Profiles are matched first: an A
    profile pair (classes 1, 2) meets a B pair (classes 3, 0) when its
    code sum equals t in every digit minus the B pair's codes, and each
    such meeting is one recipe; the solution recipes are the distinct
    meetings among the hits.  Only matched pairs are expanded to
    representative rows, in batches of whole groups holding at most
    _CHUNK_ROWS A rows (a larger group is a batch of its own), and
    joined on (group, coupling scores).  Each matched (A row, B row)
    stands for its valid rotations on either side, the candidates it
    counts.  One row_test_batch call per batch tests every match
    against each rotation d of its B row, and each passing (match, d)
    gives the hits rotated by s and s + d over the s valid on both
    sides.
    """
    tables = mask_tables(t)
    half = tables.half
    # Codes compare digit by digit: runs[m][x] <= min(|x|, t - |x|) <= half,
    # so a pair's digit sums stay below the base t + 1 and t minus a
    # pair's digits stays positive; no carry or borrow can occur.
    full = (t + 1) ** half - 1
    acodes = (c1.codes[:, None] + n2.codes[None, :]).ravel()
    bcodes = (full - c3.codes[:, None] - n0.codes[None, :]).ravel()
    sums = np.intersect1d(acodes, bcodes)
    a1p, a2p, agroup, aedges = _matched_pairs(c1, n2, acodes, sums)
    b3p, b0p, bgroup, bedges = _matched_pairs(c3, n0, bcodes, sums)
    recipe_count = int(
        np.dot(np.bincount(agroup, minlength=len(sums)), np.bincount(bgroup, minlength=len(sums)))
    )
    # First pair of each group on either side, and the A row offsets.
    bounds = np.arange(len(sums) + 1)
    apos = np.searchsorted(agroup, bounds)
    bpos = np.searchsorted(bgroup, bounds)
    arow = aedges[apos]

    shifts = np.arange(t)
    hits = []
    hit_recipes = []
    checked = 0
    g = 0
    while g < len(sums):
        h = max(g + 1, int(np.searchsorted(arow, arow[g] + _CHUNK_ROWS, side="right")) - 1)
        u3, u0, p0, bpair = _pair_rows(c3, n0, b3p, b0p, bedges, bpos[g], bpos[h])
        bkey = _coupling_key(tables, bgroup[bpair] - g, u3, u0, -1)
        order = np.argsort(bkey)
        bkey, u3, u0, p0, bpair = bkey[order], u3[order], u0[order], p0[order], bpair[order]
        u1, u2, p2, apair = _pair_rows(c1, n2, a1p, a2p, aedges, apos[g], apos[h])
        akey = _coupling_key(tables, agroup[apair] - g, u1, u2, 1)
        # Sorted probes walk bkey in order, which is several times
        # faster than probing it at random.
        aorder = np.argsort(akey)
        akey = akey[aorder]
        first = np.searchsorted(bkey, akey, side="left")
        cnt = np.searchsorted(bkey, akey, side="right") - first
        nz = np.nonzero(cnt)[0]
        reps = cnt[nz]
        # Key match i joins the A row ia[i] to the B row ib[i].
        ia = np.repeat(aorder[nz], reps)
        ib = np.repeat(first[nz] - np.cumsum(reps) + reps, reps) + np.arange(len(ia))
        va = _valid_shifts(t, 1, 2, u1[ia], u2[ia], p2[ia])
        vb = _valid_shifts(t, 3, 0, u3[ib], u0[ib], p0[ib])
        checked += int(np.count_nonzero(va, axis=1) @ np.count_nonzero(vb, axis=1))
        # (rot_s A, rot_s+d B) passes exactly when (A, rot_d B) does, so
        # each match is tested once per relative shift d.  Residues 1 and
        # 2 hold by the join; the kernel re-checks them only on what
        # survives its residue-3 and residue-0 checks.
        rb3, rb0 = rotate(t, u3[ib, None], shifts), rotate(t, u0[ib, None], shifts)
        i, d = np.nonzero(row_test_batch(tables, u1[ia, None], u2[ia, None], rb3, rb0))
        # A passing (i, d) is a hit for every s valid on both sides.
        j, s = np.nonzero(va[i] & vb[i[:, None], (shifts + d[:, None]) % t])
        qa, qb, sb = ia[i[j]], ib[i[j]], (s + d[j]) % t
        rows = np.stack([u1[qa], u2[qa], u3[qb], u0[qb]], axis=1)
        hits.append(rotate(t, rows, np.stack([s, s, sb, sb], axis=1)))
        hit_recipes.append(apair[qa] * len(b3p) + bpair[qb])
        g = h
    if not hits:
        return np.empty((0, 4), dtype=np.int64), recipe_count, 0, checked
    return np.concatenate(hits), recipe_count, len(np.unique(np.concatenate(hit_recipes))), checked


def _subsets_of_rows(t: int, rows) -> list[CoboundarySubset]:
    """The subsets of mask rows given in CLASS_ORDER, by sorted_indices.

    Raises AssertionError when two rows give the same subset.
    """
    ctx = GroupContext(t)
    subsets = [CoboundarySubset(ctx, frozenset(join_classes(t, row))) for row in rows]
    if len(set(subsets)) != len(subsets):
        raise AssertionError("mask rows produced overlapping subsets")
    return sorted(subsets, key=CoboundarySubset.sorted_indices)


def _search_distribution(t: int, distribution: Distribution) -> tuple[DistributionReport, int]:
    """The certified report of one distribution and the candidates checked.

    Every solution is certified with the direct orthogonality test here,
    so a --jobs worker returns only what it has certified itself.
    """
    sizes = {entry: entry_class_size(t, entry) for entry in distribution.entries}
    rows = []
    recipe_count = solution_recipe_count = checked = 0
    for e1, e2, e3, e0 in distribution.assignments():
        masks, n_recipes, n_solution_recipes, n_checked = _join_assignment(
            t,
            class_masks(t, sizes[e1]),
            necklace_masks(t, sizes[e2]),
            class_masks(t, sizes[e3]),
            necklace_masks(t, sizes[e0]),
        )
        rows.append(masks)
        recipe_count += n_recipes
        # Assignments differ in some class budget, so no recipe repeats
        # across them.
        solution_recipe_count += n_solution_recipes
        checked += n_checked
    # Subsets are built once the joins are done: built between joins,
    # they raised the t = 13 peak RSS by ~3 MB.
    subsets = _subsets_of_rows(t, np.concatenate(rows).tolist())
    for subset in subsets:
        if not is_hadamard_direct(assemble_cocyclic(subset)):
            raise AssertionError(f"candidate failed certification: {subset}")
    report = DistributionReport(
        distribution=distribution,
        ingredient_counts=tuple(len(class_masks(t, sizes[e]).codes) for e in distribution.entries),
        recipe_count=recipe_count,
        solution_recipe_count=solution_recipe_count,
        solutions=tuple(SolutionRecord(subset) for subset in subsets),
    )
    return report, checked


def run_search(
    t: int, *, distribution: int | None = None, jobs: int = 1
) -> SearchReport:
    """Search all canonical subsets for t, pruned by budgets and profiles.

    distribution restricts the run to one distribution by its position
    in enumerate_distributions(t); jobs > 1 spreads distributions over
    worker processes, at most one per distribution and per CPU.  Every
    reported solution is certified with the direct orthogonality test.
    """
    validate_t(t)
    if t > _JOIN_LIMIT_T:
        raise ResourceLimitError(f"search is capped at t={_JOIN_LIMIT_T}, got t={t}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    everything = enumerate_distributions(t)
    if distribution is None:
        selected = everything
    else:
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
    scan is capped at 2^25, i.e. t = 7.
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
    grid3 = np.repeat(d3, len(d0))
    grid0 = np.tile(d0, len(d3))
    found: list[tuple[int, int, int, int]] = []
    for m1 in d1.tolist():
        for m2 in d2.tolist():
            ok = row_test_batch(tables, m1, m2, grid3, grid0)
            for m3, m0 in zip(grid3[ok].tolist(), grid0[ok].tolist()):
                found.append((m1, m2, m3, m0))
    return BruteForceReport(t, 1 << bits, tuple(_subsets_of_rows(t, found)))


def verify_matrix_file(path) -> tuple[int, bool]:
    """Parse a matrix text file and run the direct orthogonality test.

    Returns (t, verdict).  A false verdict is a result, not an error;
    malformed input raises MatrixFormatError with the offending line.
    """
    text = Path(path).read_text()
    t, matrix = parse_matrix(text)
    return t, is_hadamard_direct(matrix)


def _write_atomic(target: Path, text: str) -> None:
    """Write text to a temp file beside target, then rename it over target.

    A failed write leaves target as it was and removes the temp file.
    """
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export_solutions(report: SearchReport, directory) -> list[Path]:
    """Write one matrix file per solution plus a run summary.

    File names carry t and a digest of the matrix text, so re-exporting
    the same report overwrites byte-identical files.  The summary holds
    the per-distribution table and totals, nothing time-dependent.
    Every file is written atomically, so a failed export never leaves a
    partly written file behind.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"t={report.t}", f"candidates checked: {report.candidates_checked}"]
    lines.extend(dist_report.summary_line() for dist_report in report.reports)
    lines.append(f"total hadamard: {report.hadamard_count}")
    written = []
    for record in report.solutions():
        text = format_matrix(report.t, assemble_cocyclic(record.subset))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        target = out_dir / f"t{report.t:02d}-{digest}.txt"
        _write_atomic(target, text)
        written.append(target)
    lines.append(f"matrices written: {len(written)}")
    _write_atomic(out_dir / "report.txt", "\n".join(lines) + "\n")
    return written
