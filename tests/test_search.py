"""Pruned search, brute-force scan, certification, and export."""

from itertools import product
from pathlib import Path

import numpy as np
import pytest

import cochad.search
from cochad.bitmask import rotate
from cochad.cocyclic import assemble_cocyclic, is_hadamard_direct
from cochad.distributions import enumerate_distributions
from cochad.recipes import class_masks, necklace_masks
from cochad.search import (
    ResourceLimitError,
    brute_force,
    export_solutions,
    run_search,
    verify_matrix_file,
)
from oracles import class_domain, enumerate_recipes, recipe_of

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
    # stands for the rotations its validity grid marks.  Over every pair
    # of class sizes (k and t - k share a catalog), those rotations must
    # give each row of the two class domains exactly once.
    sizes = range(t // 2 + 1)
    for (xcls, ycls), kx, ky in product(((1, 2), (3, 0)), sizes, sizes):
        c, n = class_masks(t, kx).flat, necklace_masks(t, ky)
        x = np.repeat(c, len(n.flat))
        y = np.tile(n.flat, len(c))
        grid = cochad.search._valid_shifts(t, xcls, ycls, x, y, np.tile(n.periods, len(c)))
        assert grid.shape == (len(x), t)
        i, s = np.nonzero(grid)
        u, v = rotate(t, x[i], s), rotate(t, y[i], s)
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
    # shift, t rows per match.
    default = run_search(9)
    events = []
    batches = []  # (groups, A rows) of each batch
    real_key, real_test = cochad.search._coupling_key, cochad.search.row_test_batch

    def coupling_key(tables, group, u, v, sign):
        events.append("key")
        if sign == 1:
            batches.append((len(np.unique(group)), len(u)))
        return real_key(tables, group, u, v, sign)

    def row_test_batch(tables, *cols):
        events.append(np.broadcast(*cols).size)
        return real_test(tables, *cols)

    monkeypatch.setattr(cochad.search, "_CHUNK_ROWS", 97)
    monkeypatch.setattr(cochad.search, "_coupling_key", coupling_key)
    monkeypatch.setattr(cochad.search, "row_test_batch", row_test_batch)
    tiny = run_search(9)
    assert tiny.candidates_checked == default.candidates_checked == 130248
    assert tiny == default
    # Each batch keys its B rows, then its A rows, then makes one row test.
    sizes = events[2::3]
    assert len(sizes) > 1 and events[0::3] == events[1::3] == ["key"] * len(sizes)
    assert all(groups == 1 or rows <= 97 for groups, rows in batches)
    assert sum(groups == 1 and rows > 97 for groups, rows in batches) > len(batches) // 2
    assert all(size % 9 == 0 for size in sizes)
    assert sum(sizes) == 9 * 14016


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
    with pytest.raises(ValueError):
        run_search(3, jobs=0)


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


@pytest.mark.parametrize("failing_write", [5, 25])  # a matrix file; report.txt
def test_failed_export_keeps_earlier_files(tmp_path, monkeypatch, failing_write):
    report = run_search(3)
    export_solutions(report, tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert len(before) == 25
    real_write_text = Path.write_text
    writes = []

    def write_text(self, data, *args, **kwargs):
        writes.append(self)
        if len(writes) == failing_write:
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")
        return real_write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
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
