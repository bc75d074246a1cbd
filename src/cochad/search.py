"""Pruned exhaustive search, the raw baseline, and matrix file IO.

run_search walks the admissible budget distributions and, within each,
every distinct assignment of budgets to classes.  The rows congruent
to 1 see a class mask only through its head profile, so each
assignment is joined in two steps, on the flat arrays that
recipes.class_masks keeps per class: masks grouped by profile, and
each profile's integer code.  First the profiles: the code sums of
class pairs (1, 2) are matched against t minus those of (3, 0); each
match is one recipe, found without touching a single mask.  Then the
masks: only matched profile pairs are expanded, in batches of at most
_CHUNK_ROWS rows, and the two sides meet on one key per row, the
matched profile group plus the coupling score per shift that balances
the rows congruent to 2.  Joined candidates then go through
bitmask.row_test_batch, the one statement of all the row conditions:
it settles the rows congruent to 3 and 0 and re-checks those congruent
to 1 and 2 on the few survivors.  The call that searches a
distribution also certifies every survivor by the direct orthogonality
test and returns the finished report, so each --jobs worker certifies
its own solutions.  The recipe columns of the report come out of the
same join.

brute_force takes no shortcuts: it runs all 2^(4t-3) canonical subsets
that avoid each class's forbidden position through the same row test,
one (class 1, class 2) slab at a time, as a ground truth for the
search's pruning at small t.  Matrices travel as
plain text (see format_matrix) so results can be exported, reloaded
and re-verified.
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
    row_test_batch,
)
from .cocyclic import (
    CoboundarySubset,
    assemble_cocyclic,
    format_matrix,
    is_hadamard_direct,
    parse_matrix,
)
from .distributions import Distribution, entry_class_size, enumerate_distributions
from .group import GroupContext, validate_t
from .recipes import ClassMasks, Recipe, class_masks

# A join key is a batch-local group id times (2t+1)^((t-1)/2) plus the
# coupling digits, so groups x (2t+1)^((t-1)/2) must stay below 2^63.
# Every matched group has A rows, so a batch holds at most _CHUNK_ROWS
# groups and the key fits through t = 19; the cap stays at 15 because
# no larger t has been run to completion.
_JOIN_LIMIT_T = 15

# Upper bound on A-side pair rows materialized at once.  Measured on
# run_search(13), 2 cores: 2^14 to 2^16 join equally fast, 2^17 and up
# are slower and 2^13 slower again; peak RSS grows with the batch.
_CHUNK_ROWS = 1 << 15

# Raw scan cap: 2^25 canonical subsets (t = 7) is the supported ceiling.
_BRUTE_LIMIT_BITS = 25


@dataclass(frozen=True)
class SolutionRecord:
    """One Hadamard subset together with the recipe its classes realize."""

    subset: CoboundarySubset
    recipe: Recipe


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
        out: list[SolutionRecord] = []
        for report in self.reports:
            out.extend(report.solutions)
        return tuple(out)


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
            sizes = (len(subset.residue_class(cls)) for cls in (1, 2, 3, 0))
            entries = tuple(sorted((k * (self.t - k) // 2 for k in sizes), reverse=True))
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


def _pair_rows(x: ClassMasks, y: ClassMasks, px, py, edges, lo: int, hi: int):
    """Rows lo..hi-1 of the concatenated products masks(px[p]) x masks(py[p]).

    Returns the two mask columns and the pair index of each row.
    """
    first = int(np.searchsorted(edges, lo, side="right")) - 1
    stop = int(np.searchsorted(edges, hi, side="left"))
    counts = np.minimum(edges[first + 1 : stop + 1], hi) - np.maximum(edges[first:stop], lo)
    pair = np.repeat(np.arange(first, stop), counts)
    local = np.arange(lo, hi, dtype=np.int64) - edges[pair]
    i, j = np.divmod(local, y.sizes[py[pair]])
    u = x.flat[x.starts[px[pair]] + i]
    v = y.flat[y.starts[py[pair]] + j]
    return u, v, pair


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


def _join_assignment(t: int, c1: ClassMasks, c2: ClassMasks, c3: ClassMasks, c0: ClassMasks):
    """Mask 4-tuples satisfying all row conditions for one assignment.

    Returns (masks (n, 4), profile indices (n, 4) into each class's
    ingredients, recipe count, candidates checked).  Profiles are matched
    first: an A profile pair (classes 1, 2) meets a B pair (classes 3,
    0) when its code sum equals t in every digit minus the B pair's
    codes, and each such meeting is one recipe.  Only matched pairs are
    expanded to mask rows, in batches of whole groups holding at most
    _CHUNK_ROWS A rows (a larger group streams its A rows in slices of
    that size against its B rows), joined on (group, coupling scores)
    and filtered by row_test_batch.
    """
    tables = mask_tables(t)
    half = tables.half
    # Codes compare digit by digit: runs[m][x] <= min(|x|, t - |x|) <= half,
    # so a pair's digit sums stay below the base t + 1 and t minus a
    # pair's digits stays positive; no carry or borrow can occur.
    full = (t + 1) ** half - 1
    acodes = (c1.codes[:, None] + c2.codes[None, :]).ravel()
    bcodes = (full - c3.codes[:, None] - c0.codes[None, :]).ravel()
    sums = np.intersect1d(acodes, bcodes)
    a1p, a2p, agroup, aedges = _matched_pairs(c1, c2, acodes, sums)
    b3p, b0p, bgroup, bedges = _matched_pairs(c3, c0, bcodes, sums)
    recipe_count = int(
        np.dot(np.bincount(agroup, minlength=len(sums)), np.bincount(bgroup, minlength=len(sums)))
    )
    # Row offsets of each group's rows on either side.
    bounds = np.arange(len(sums) + 1)
    arow = aedges[np.searchsorted(agroup, bounds)]
    brow = bedges[np.searchsorted(bgroup, bounds)]

    hits = []
    profiles = []
    checked = 0
    g = 0
    while g < len(sums):
        h = max(g + 1, int(np.searchsorted(arow, arow[g] + _CHUNK_ROWS, side="right")) - 1)
        u3, u0, bpair = _pair_rows(c3, c0, b3p, b0p, bedges, brow[g], brow[h])
        bkey = _coupling_key(tables, bgroup[bpair] - g, u3, u0, -1)
        order = np.argsort(bkey)
        bkey, u3, u0, bpair = bkey[order], u3[order], u0[order], bpair[order]
        for lo in range(arow[g], arow[h], _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, arow[h])
            u1, u2, apair = _pair_rows(c1, c2, a1p, a2p, aedges, lo, hi)
            akey = _coupling_key(tables, agroup[apair] - g, u1, u2, 1)
            # Sorted probes walk bkey in order, which is several times
            # faster than probing it at random.
            aorder = np.argsort(akey)
            akey = akey[aorder]
            first = np.searchsorted(bkey, akey, side="left")
            cnt = np.searchsorted(bkey, akey, side="right") - first
            nz = np.nonzero(cnt)[0]
            reps = cnt[nz]
            total = int(reps.sum())
            checked += total
            offs = np.cumsum(reps) - reps
            idx = np.repeat(first[nz] - offs, reps) + np.arange(total)
            qa = aorder[np.repeat(nz, reps)]
            # Residues 1 and 2 hold by the join; the kernel re-checks them
            # only on what survives its residue-3 and residue-0 checks.
            keep = row_test_batch(tables, u1[qa], u2[qa], u3[idx], u0[idx])
            qa, idx = qa[keep], idx[keep]
            pa, pb = apair[qa], bpair[idx]
            hits.append(np.stack([u1[qa], u2[qa], u3[idx], u0[idx]], axis=1))
            profiles.append(np.stack([a1p[pa], a2p[pa], b3p[pb], b0p[pb]], axis=1))
        g = h
    if hits:
        return np.concatenate(hits), np.concatenate(profiles), recipe_count, checked
    empty = np.empty((0, 4), dtype=np.int64)
    return empty, empty, recipe_count, checked


def _search_distribution(t: int, distribution: Distribution) -> tuple[DistributionReport, int]:
    """The certified report of one distribution and the candidates checked.

    Every solution is certified with the direct orthogonality test here,
    so a --jobs worker returns only what it has certified itself.
    """
    sides = {
        (entry, cls): class_masks(t, entry_class_size(t, entry), cls)
        for entry in set(distribution.entries)
        for cls in CLASS_ORDER
    }
    found: list[tuple[list[int], Recipe]] = []
    recipe_count = 0
    checked = 0
    for assignment in distribution.assignments():
        classes = [sides[entry, cls] for entry, cls in zip(assignment, CLASS_ORDER)]
        masks, profiles, n_recipes, n_checked = _join_assignment(t, *classes)
        recipe_count += n_recipes
        checked += n_checked
        for row, idx in zip(masks.tolist(), profiles.tolist()):
            ings = tuple(side.ingredients[i] for side, i in zip(classes, idx))
            found.append((row, Recipe(t, ings)))
    # Subsets are built once the joins are done: built between joins,
    # they raised the t = 13 peak RSS by ~3 MB.
    ctx = GroupContext(t)
    records: list[SolutionRecord] = []
    for row, recipe in found:
        subset = CoboundarySubset(ctx, frozenset(join_classes(t, row)))
        if not is_hadamard_direct(assemble_cocyclic(subset)):
            raise AssertionError(f"candidate failed certification: {subset}")
        records.append(SolutionRecord(subset, recipe))
    if len({rec.subset for rec in records}) != len(records):
        raise AssertionError("assignments produced overlapping candidates")
    records.sort(key=lambda rec: rec.subset.sorted_indices())
    report = DistributionReport(
        distribution=distribution,
        ingredient_counts=tuple(len(sides[e, 2].ingredients) for e in distribution.entries),
        recipe_count=recipe_count,
        solution_recipe_count=len({rec.recipe for rec in records}),
        solutions=tuple(records),
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
    ctx = GroupContext(t)
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
    subsets = [CoboundarySubset(ctx, frozenset(join_classes(t, row))) for row in found]
    subsets.sort(key=CoboundarySubset.sorted_indices)
    return BruteForceReport(t, 1 << bits, tuple(subsets))


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
