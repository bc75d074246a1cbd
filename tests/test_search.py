"""Pruned search, brute-force scan, certification, and export."""

from pathlib import Path

import pytest

import cochad.search
from cochad.cocyclic import assemble_cocyclic, is_hadamard_direct
from cochad.distributions import enumerate_distributions
from cochad.search import (
    ResourceLimitError,
    brute_force,
    export_solutions,
    run_search,
    verify_matrix_file,
)
from oracles import enumerate_recipes, recipe_of

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


def test_join_batches_do_not_change_results(monkeypatch):
    # A batch size far below the t = 9 group sizes makes every group a
    # batch of its own.
    default = run_search(9)
    monkeypatch.setattr(cochad.search, "_CHUNK_ROWS", 97)
    tiny = run_search(9)
    assert tiny.candidates_checked == default.candidates_checked == 130248
    assert tiny == default


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
