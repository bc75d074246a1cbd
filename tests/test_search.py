"""Pruned search, brute-force scan, certification, and export."""

import hashlib
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import cochad.search
from cochad.bitmask import CLASS_ORDER, MaskTables, forbidden_position, rotate
from cochad.cocyclic import CoboundarySubset, assemble_cocyclic, format_matrix, is_hadamard_direct
from cochad.distributions import entry_class_size, enumerate_distributions
from cochad.group import GroupContext
from cochad.recipes import ClassMasks, class_masks, necklace_masks
from cochad.search import (
    ResourceLimitError,
    _subsets_of_rows,
    brute_force,
    export_solutions,
    run_search,
    verify_matrix_file,
)
from oracles import (
    class_domain,
    coupling_key,
    enumerate_recipes,
    joined_indices,
    recipe_of,
    split_classes,
)

# distribution rows frozen as
# (entries, ingredient counts, recipes, solution recipes, hadamard)
SEARCH_TABLE = {
    3: [((1, 1, 1, 0), (1, 1, 1, 1), 4, 4, 24)],
    5: [((3, 3, 2, 2), (2, 2, 1, 1), 12, 12, 120)],
    7: [
        ((6, 6, 6, 3), (4, 4, 4, 1), 28, 24, 336),
        ((6, 5, 5, 5), (4, 3, 3, 3), 60, 36, 504),
    ],
    9: [
        ((10, 10, 9, 7), (10, 10, 7, 4), 756, 108, 1944),
        ((9, 9, 9, 9), (7, 7, 7, 7), 60, 24, 1296),
    ],
}


def test_brute_force_t3():
    report = brute_force(3)
    assert report.space == 512
    assert report.hadamard_count == 24
    indices = [s.sorted_indices() for s in report.solutions]
    assert indices == sorted(indices)
    assert indices[0] == (2, 3, 4)
    for known in ((2, 3, 4), (5, 6, 7), (5, 6, 8), (5, 7, 8)):
        assert known in indices
    assert report.counts_by_distribution() == {(1, 1, 1, 0): 24}


def test_brute_force_t5():
    report = brute_force(5)
    assert report.space == 2**17
    assert report.hadamard_count == 120
    assert report.counts_by_distribution() == {(3, 3, 2, 2): 120}


@pytest.mark.parametrize("t, calls", [(3, 4), (5, 16)])
def test_brute_force_calls_cover_the_space(monkeypatch, t, calls):
    # The row-test calls of the raw scan, packed as (u1, u2, u3, u0)
    # tuples, cover every canonical tuple exactly once: class 1 avoids
    # position 0, classes 3 and 0 avoid position t - 1.  Each call passes
    # broadcast operands, none of them the size of its rows, in one call
    # per class-1 mask.
    real = cochad.search.row_test_batch
    seen = []

    def recording(tables, *cols):
        cols = [np.asarray(c, dtype=np.int64) for c in cols]
        size = np.broadcast_shapes(*(c.shape for c in cols))
        assert max(c.size for c in cols) < np.prod(size)
        seen.append(np.broadcast_arrays(*cols))
        return real(tables, *cols)

    monkeypatch.setattr(cochad.search, "row_test_batch", recording)
    report = brute_force(t)
    assert len(seen) == calls
    assert sum(cols[0].size for cols in seen) == report.space
    packed = np.concatenate(
        [((u1 << 3 * t) | (u2 << 2 * t) | (u3 << t) | u0).ravel() for u1, u2, u3, u0 in seen]
    )
    quads = np.arange(1 << 4 * t, dtype=np.int64)
    canonical = quads[
        (((quads >> 3 * t) & 1) == 0)
        & (((quads >> (2 * t - 1)) & 1) == 0)
        & (((quads >> (t - 1)) & 1) == 0)
    ]
    assert len(canonical) == report.space
    assert np.array_equal(np.sort(packed), canonical)


def test_brute_force_limits():
    with pytest.raises(ResourceLimitError):
        brute_force(9)
    with pytest.raises(ValueError):
        brute_force(4)
    with pytest.raises(ValueError):
        brute_force(1)


def test_search_matches_table():
    for t, rows in SEARCH_TABLE.items():
        report = run_search(t)
        assert len(report.reports) == len(rows)
        for dist_report, row in zip(report.reports, rows):
            entries, ingredients, recipes, solution_recipes, hadamard = row
            assert dist_report.distribution.entries == entries
            assert dist_report.ingredient_counts == ingredients
            assert dist_report.recipe_count == recipes
            assert dist_report.solution_recipe_count == solution_recipes
            assert dist_report.hadamard_count == hadamard


def test_search_matches_brute_force():
    for t, candidates in ((3, 72), (5, 1400)):
        report = run_search(t)
        brute = brute_force(t)
        assert report.candidates_checked == candidates
        searched = {rec.subset.sorted_indices() for rec in report.solutions()}
        scanned = {s.sorted_indices() for s in brute.solutions}
        assert searched == scanned


def test_search_records_consistent():
    report = run_search(5)
    for record in report.solutions():
        assert is_hadamard_direct(assemble_cocyclic(record.subset))


def test_search_recipes_match_reference():
    # The join counts recipes at profile level; enumerate_recipes builds
    # them one by one.  Every solution's recipe must be one of them, and
    # the join counts exactly the distinct ones.
    for t in (5, 7, 9):
        report = run_search(t)
        for dist, dist_report in zip(enumerate_distributions(t), report.reports):
            reference = set(enumerate_recipes(dist))
            assert dist_report.recipe_count == len(reference)
            solution_recipes = {recipe_of(rec.subset) for rec in dist_report.solutions}
            assert solution_recipes <= reference
            assert len(solution_recipes) == dist_report.solution_recipe_count


def test_search_solutions_ascend():
    for t in (5, 7, 9):
        for dist_report in run_search(t).reports:
            indices = [rec.subset.sorted_indices() for rec in dist_report.solutions]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)


def test_candidates_checked_frozen():
    # Every candidate the join's key matches stand for; 72, 1400 and 130248
    # (t = 3, 5, 9) are pinned beside brute force and the batch test.
    for t, candidates in ((7, 11368), (11, 619520)):
        assert run_search(t).candidates_checked == candidates


@pytest.mark.parametrize("t", [3, 5, 7, 9, 11])
def test_rotations_of_representatives_are_the_class_domains(t):
    # The join keys (c, n) with n a necklace representative; a match
    # stands for the rotations rot_-r whose bit r its side's valid set
    # holds.  Over every pair of class sizes (k and t - k share a
    # catalog), those rotations must give each row of the two class
    # domains exactly once.
    sizes = range(t // 2 + 1)
    for (xcls, ycls), kx, ky in product(((1, 2), (3, 0)), sizes, sizes):
        c, n = class_masks(t, kx).flat, necklace_masks(t, ky)
        x = np.repeat(c, len(n.flat))
        y = np.tile(n.flat, len(c))
        # Class 2 has no forbidden position; classes 3 and 0 share t - 1.
        guarded = x if ycls == 2 else x | y
        forb = forbidden_position(xcls, t)
        valid = cochad.search._valid_shifts(t, forb, guarded, np.tile(n.periods, len(c)))
        assert (valid >> t == 0).all()
        i, r = np.nonzero((valid[:, None] >> np.arange(t)) & 1)
        u, v = rotate(t, x[i], (t - r) % t), rotate(t, y[i], (t - r) % t)
        dx = np.sort(class_domain(t, kx, xcls).flat)
        dy = np.sort(class_domain(t, ky, ycls).flat)
        # want ascends strictly, so equal sorted arrays also rule out repeats
        want = ((dx[:, None] << t) | dy[None, :]).ravel()
        assert np.array_equal(np.sort((u << t) | v), want)
    if t == 9:
        assert any(((p > 1) & (p < t)).any() for p in (necklace_masks(t, k).periods for k in sizes))


def test_join_batches_do_not_change_results(monkeypatch):
    # A batch is a run of whole groups with at most _CHUNK_ROWS A rows,
    # or one larger group; at 97 most t = 9 groups are batches of their
    # own.  A batch's row test takes each key match once per relative
    # shift that stands for a candidate, for the assignment and for its
    # mirror, which is never keyed.
    default = run_search(9)
    events = []
    batches = []  # (groups, keyed rows) of each side of each batch
    real_keys, real_test = cochad.search._side_keys, cochad.search.row_test_batch
    size_of = {id(cat(9, k)): k for cat in (class_masks, necklace_masks) for k in range(5)}

    def side_keys(t, side, g, h):
        events.append((size_of[id(side.x)], size_of[id(side.y)]))
        keys, order, rows_at = real_keys(t, side, g, h)
        batches.append((h - g, len(keys)))
        return keys, order, rows_at

    def row_test_batch(tables, *cols):
        events.append(np.broadcast(*cols).size)
        return real_test(tables, *cols)

    monkeypatch.setattr(cochad.search, "_CHUNK_ROWS", 97)
    monkeypatch.setattr(cochad.search, "_side_keys", side_keys)
    monkeypatch.setattr(cochad.search, "row_test_batch", row_test_batch)
    tiny = run_search(9)
    assert tiny.candidates_checked == default.candidates_checked == 130248
    assert tiny == default
    # Each batch keys its B rows (classes 3, 0), then its A rows (1, 2),
    # then makes one row test.
    sizes = events[2::3]
    assert len(sizes) > 1 and all(isinstance(n, int) for n in sizes)
    keyed = {a + b for b, a in zip(events[0::3], events[1::3])}
    # Only the assignments with k3 >= k0 are keyed; the rest are their
    # mirrors.  Sizes 4, 3 and 2 carry the entries 10, 9 and 7.
    joined = set()
    for dist in enumerate_distributions(9):
        for assignment in dist.assignments():
            k1, k2, k3, k0 = (entry_class_size(9, e) for e in assignment)
            if k3 >= k0:
                joined.add((k1, k2, k3, k0))
    assert keyed == joined and len(joined) == 8
    abatches = batches[1::2]
    assert all(groups == 1 or rows <= 97 for groups, rows in abatches)
    assert sum(groups == 1 and rows > 97 for groups, rows in abatches) > len(abatches) // 2
    assert sum(sizes) == 83282


def _seeded_catalog(rng, t: int, groups: int) -> ClassMasks:
    """groups profiles of 1 to 5 random masks each, with each mask's
    period read as 3 * mask + 1, an arbitrary label."""
    sizes = rng.integers(1, 6, size=groups)
    flat = rng.integers(0, 1 << t, size=int(sizes.sum()), dtype=np.int64)
    return ClassMasks(
        codes=np.arange(groups),
        sizes=sizes,
        starts=np.cumsum(sizes) - sizes,
        flat=flat,
        periods=3 * flat + 1,
    )


@pytest.mark.parametrize("t", range(3, 21, 2))
def test_side_keys_match_digit_keys(t):
    # The keys of one float64 product per matched profile pair must equal
    # the keys packed digit by digit, for every odd t the int64 key can
    # hold.  Batch-local group ids run up to _CHUNK_ROWS - 1, the most a
    # batch can hold, so the int64 group part is covered at t = 17 and
    # 19, beyond the search's cap.  Uncached tables: t = 19 needs ~60 MB.
    tables = MaskTables(t)
    rng = np.random.default_rng(t)
    x, y = _seeded_catalog(rng, t, 40), _seeded_catalog(rng, t, 30)
    # Groups g .. h - 1 form the batch, with pairs before and after it;
    # seeded group ids leave some groups empty.
    npairs, g, h = 300, 3, 3 + cochad.search._CHUNK_ROWS
    px, py = rng.integers(0, 40, size=npairs), rng.integers(0, 30, size=npairs)
    group = np.sort(rng.integers(g, h, size=npairs))
    group[:7], group[-10:-8], group[-8:] = [0, 0, 1, 1, 1, 2, 2], h - 1, h + 1
    heads = np.searchsorted(group, np.arange(h + 3))
    first, stop = heads[g], heads[h]
    edges = np.zeros(npairs + 1, dtype=np.int64)
    np.cumsum(x.sizes[px] * y.sizes[py], out=edges[1:])
    yb = cochad.search._position_bits(t, y.flat)
    for sign in (1, -1):
        xw = cochad.search._position_bits(t, x.flat) @ (sign * tables.coupling)
        side = cochad.search._JoinSide(x, y, xw, yb, px, py, heads, edges)
        keys, order, rows_at = cochad.search._side_keys(t, side, g, h)
        assert (np.diff(keys) >= 0).all()
        u, v, per, pair = rows_at(order)
        assert np.array_equal(keys, coupling_key(tables, group[pair] - g, u, v, sign))
        assert np.array_equal(per, 3 * v + 1)
        # Pair p's keys sit at edges[p] - edges[first] onward.
        assert np.array_equal(np.sort(order), np.arange(len(keys)))
        u, v, _, pair = rows_at(np.arange(len(keys)))
        spans = np.diff(edges[first : stop + 1])
        assert np.array_equal(pair, np.repeat(np.arange(first, stop), spans))
        # Every row of every pair, each once.
        want = sorted(
            (p, xm, ym)
            for p in range(first, stop)
            for xm in x.flat[x.starts[px[p]] : x.starts[px[p]] + x.sizes[px[p]]].tolist()
            for ym in y.flat[y.starts[py[p]] : y.starts[py[p]] + y.sizes[py[p]]].tolist()
        )
        assert sorted(zip(pair.tolist(), u.tolist(), v.tolist())) == want


def _tested_orbits(monkeypatch, t, side, join):
    """The joint-rotation orbits of the rows that join hands
    row_test_batch for its side-th assignment, each once as its least
    packed row, and join's result."""
    real = cochad.search.row_test_batch
    tested = []

    def recording(tables, *cols):
        tested.append(np.stack([c[side] for c in np.broadcast_arrays(*cols)], axis=-1))
        return real(tables, *cols)

    with monkeypatch.context() as patch:
        patch.setattr(cochad.search, "row_test_batch", recording)
        result = join()
    rows = np.concatenate(tested)
    turned = rotate(t, rows[:, None, :], np.arange(t)[:, None])
    packed = (turned << (t * np.arange(3, -1, -1))).sum(axis=-1)
    return np.unique(packed.min(axis=1)), result


def _split_sides(t, k3, result):
    """The hits of a mirror pair's join, split into those of the
    assignment with class-3 size k3 and those of its mirror, and each
    part's count of distinct recipes by recipe_of."""
    hits = result[0]
    own = np.isin(np.bitwise_count(hits[:, 2]), (k3, t - k3))
    parts = hits[own], hits[~own]
    recipes = [len({recipe_of(s) for s in _subsets_of_rows(t, part)[0]}) for part in parts]
    return parts, recipes


@pytest.mark.parametrize(
    "t, mirrors, hit_rows", [(3, 1, 6), (5, 2, 40), (7, 2, 210), (9, 5, 810), (11, 5, 1100)]
)
def test_mirror_assignments_agree(monkeypatch, t, mirrors, hit_rows):
    # (u1, u2, u3, u0) -> (u1, ~u2, u0, u3) keeps every head profile,
    # negates both coupling terms and keeps every forbidden position, so
    # it maps the join of (e1, e2, e3, e0) one to one onto that of
    # (e1, e2, e0, e3): the first's hits go exactly onto the second's,
    # with the same counts.  The join of the first also returns the
    # second's hits without keying it, in one result for the pair; its
    # class-3 sizes tell the two apart, since k3 != k0 are both at most
    # t / 2.  They must equal a direct join of the second on its own
    # catalogs.  The rows each route row-tests for the second may be
    # different representatives, but of the same joint-rotation orbits.
    # The hits alone cannot tell a wrong map: every solution found so
    # far also passes with class 2 left as it is (ROADMAP item 5).
    # mirrors counts the pairs, hit_rows the hits of their first
    # assignments.
    found = rows = 0
    for dist in enumerate_distributions(t):
        for assignment in dist.assignments():
            k1, k2, k3, k0 = (entry_class_size(t, e) for e in assignment)
            if k3 <= k0:
                continue
            found += 1
            join = cochad.search._join_assignment
            mapped, result = _tested_orbits(monkeypatch, t, 1, lambda: join(t, k1, k2, k3, k0))
            tested, partner = _tested_orbits(monkeypatch, t, 0, lambda: join(t, k1, k2, k0, k3))
            assert np.array_equal(mapped, tested)
            (own, mirror), (own_recipes, mirror_recipes) = _split_sides(t, k3, result)
            (direct, _), (direct_recipes, _) = _split_sides(t, k0, partner)
            # Recipe, solution recipe and candidate counts of the pair,
            # and each side's solution recipes.
            assert result[1:] == partner[1:]
            assert own_recipes == mirror_recipes == direct_recipes
            assert result[2] == own_recipes + mirror_recipes
            flipped = own[:, [0, 1, 3, 2]] ^ [0, (1 << t) - 1, 0, 0]
            assert sorted(map(tuple, flipped.tolist())) == sorted(map(tuple, direct.tolist()))
            assert sorted(map(tuple, mirror.tolist())) == sorted(map(tuple, direct.tolist()))
            rows += len(own)
    assert (found, rows) == (mirrors, hit_rows)


def test_subsets_of_rows():
    # brute_force(7) hands over its 840 passing rows in mask order (class
    # 1, then 2, 3 and 0), the order sorted() gives the search's rows.
    rows = sorted(
        tuple(split_classes(7, rec.subset.indices)[cls] for cls in CLASS_ORDER)
        for rec in run_search(7).solutions()
    )
    ctx = GroupContext(7)
    want = sorted(
        (CoboundarySubset(ctx, frozenset(joined_indices(7, row))) for row in rows),
        key=CoboundarySubset.sorted_indices,
    )
    subsets, member = _subsets_of_rows(7, np.array(rows))
    assert len(subsets) == 840 and subsets == want
    assert member.dtype == bool and member.shape == (840, 28)
    assert [tuple((np.flatnonzero(m) + 1).tolist()) for m in member] == [
        s.sorted_indices() for s in subsets
    ]
    subsets, member = _subsets_of_rows(7, np.empty((0, 4), dtype=np.int64))
    assert subsets == [] and member.shape == (0, 28)
    with pytest.raises(AssertionError, match="mask rows produced overlapping subsets"):
        _subsets_of_rows(7, np.array(rows + rows[5:6]))


def test_certification_runs_in_stacks(monkeypatch):
    # Each distribution's solutions are certified _CERTIFY_BATCH at a
    # time, in their reported order, and a failing verdict names its own
    # subset.
    default = run_search(9)
    real = cochad.search.is_hadamard_direct
    stacks = []

    def recording(matrices):
        stacks.append(matrices.shape)
        return real(matrices)

    monkeypatch.setattr(cochad.search, "_CERTIFY_BATCH", 100)
    monkeypatch.setattr(cochad.search, "is_hadamard_direct", recording)
    assert run_search(9) == default
    assert [n for n, _, _ in stacks] == [100] * 19 + [44] + [100] * 12 + [96]
    assert {shape[1:] for shape in stacks} == {(36, 36)}

    seen = []

    def one_fails(matrices):
        ok = real(matrices)
        lo = sum(seen)
        seen.append(len(matrices))
        if lo <= 250 < lo + len(matrices):
            ok[250 - lo] = False
        return ok

    monkeypatch.setattr(cochad.search, "is_hadamard_direct", one_fails)
    failing = default.reports[0].solutions[250].subset
    with pytest.raises(AssertionError, match=re.escape(f"certification: {failing}")):
        run_search(9)


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, forks nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_worker_pool_capped_by_work_and_cpus(monkeypatch):
    monkeypatch.setattr(cochad.search, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    serial = run_search(7)

    monkeypatch.setattr(cochad.search.os, "cpu_count", lambda: 64)
    assert run_search(7, jobs=1000) == serial  # two distributions
    monkeypatch.setattr(cochad.search.os, "cpu_count", lambda: 1)
    assert run_search(7, jobs=8) == serial  # one CPU: no pool
    monkeypatch.setattr(cochad.search.os, "cpu_count", lambda: None)
    assert run_search(7, jobs=8) == serial  # unknown CPU count: no pool
    assert _RecordingExecutor.sizes == [2]


def test_search_single_distribution():
    full = run_search(7)
    for idx in (0, 1):
        partial = run_search(7, distribution=idx)
        assert len(partial.reports) == 1
        assert partial.reports[0] == full.reports[idx]


def test_search_parallel_matches_serial():
    serial = run_search(7)
    parallel = run_search(7, jobs=2)
    assert parallel == serial


def test_search_argument_errors():
    with pytest.raises(ValueError):
        run_search(4)
    with pytest.raises(ResourceLimitError):
        run_search(17)
    with pytest.raises(ValueError):
        run_search(3, distribution=1)
    with pytest.raises(ValueError, match=re.escape("jobs must be >= 1, got 0")):
        run_search(3, jobs=0)


@pytest.mark.parametrize(
    "kwargs", [{"jobs": 1.5}, {"jobs": 2.0}, {"distribution": 0.0}, {"distribution": "0"}]
)
def test_search_rejects_non_integral_arguments(kwargs):
    # Checked before any work, so a float never reaches the worker pool
    # (t = 9 has two distributions) or a tuple index.
    (name, value), = kwargs.items()
    label = "jobs" if name == "jobs" else "distribution index"
    with pytest.raises(ValueError, match=re.escape(f"{label} must be an integer, got {value!r}")):
        run_search(9, **kwargs)


def test_search_accepts_numpy_integers():
    assert run_search(5, distribution=np.int64(0), jobs=np.int32(1)) == run_search(5)


def test_export_and_verify(tmp_path):
    report = run_search(3)
    out_dir = tmp_path / "matrices"
    written = export_solutions(report, out_dir)
    assert len(written) == 24
    for path in written:
        t, ok = verify_matrix_file(path)
        assert t == 3 and ok

    summary = (out_dir / "report.txt").read_text().splitlines()
    assert summary[0] == "t=3"
    assert summary[1] == "candidates checked: 72"
    assert "total hadamard: 24" in summary
    assert "matrices written: 24" in summary

    before = {path: path.read_bytes() for path in written}
    again = export_solutions(report, out_dir)
    assert set(again) == set(written)
    assert {path: path.read_bytes() for path in written} == before


@pytest.mark.parametrize("t, digest", [(5, "f94974659d4089cf"), (7, "e1fac8823ad3fbd2")])
def test_export_matches_per_solution_format(tmp_path, t, digest):
    # The export assembles and formats solutions a stack at a time; its
    # files are those of one matrix at a time, in solution order.  The
    # digest over the sorted (name, bytes) pairs, report.txt included,
    # was read from the one-matrix-at-a-time export.
    report = run_search(t)
    written = export_solutions(report, tmp_path)
    texts = [format_matrix(t, assemble_cocyclic(rec.subset)) for rec in report.solutions()]
    names = [f"t{t:02d}-{hashlib.sha256(text.encode()).hexdigest()[:16]}.txt" for text in texts]
    assert [path.name for path in written] == names
    assert [path.read_bytes() for path in written] == [text.encode() for text in texts]
    files = sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    assert [name for name, _ in files] == sorted([*names, "report.txt"])
    h = hashlib.sha256()
    for name, data in files:
        h.update(name.encode() + b"\0" + data)
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("failing_write", [5, 25])  # a matrix file; report.txt
def test_failed_export_keeps_earlier_files(tmp_path, monkeypatch, failing_write):
    report = run_search(3)
    export_solutions(report, tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert len(before) == 25
    real_write_bytes = Path.write_bytes
    writes = []

    def write_bytes(self, data):
        writes.append(self)
        if len(writes) == failing_write:
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    with pytest.raises(OSError, match="disk full"):
        export_solutions(report, tmp_path)
    monkeypatch.undo()
    # Same names (so no temp file is left) and the same bytes.
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    export_solutions(report, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_verify_rejects_perturbed(tmp_path):
    report = run_search(3)
    written = export_solutions(report, tmp_path)
    victim = written[0]
    text = victim.read_text()
    body = text.index("\n") + 1
    flipped = "-" if text[body] == "+" else "+"
    victim.write_text(text[:body] + flipped + text[body + 1 :])
    t, ok = verify_matrix_file(victim)
    assert t == 3 and not ok


def test_verify_missing_file(tmp_path):
    with pytest.raises(OSError):
        verify_matrix_file(tmp_path / "absent.txt")
