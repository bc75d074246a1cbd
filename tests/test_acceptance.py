"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS line once every check inside it has
held; run with -s (or read the verbose test list) to see the roster.
"""

import hashlib
import time
from itertools import combinations

import numpy as np
import pytest

from cochad.bitmask import CLASS_ORDER
from cochad.cocyclic import (
    CoboundarySubset,
    assemble_cocyclic,
    build_coboundary,
    canonicalize,
    is_hadamard_direct,
    prohibited_indices,
)
from cochad.cocyclic import _coboundary_blocks, _coboundary_point
from cochad.distributions import entry_class_size, enumerate_distributions, is_triangular
from cochad.group import GroupContext, element_index, index_element, multiply
from cochad.paths import path_partner, row_sum_via_paths
from cochad.search import brute_force, export_solutions, run_search, verify_matrix_file
from oracles import pair_terms_vanish, split_classes

# The admissible budget distributions for every odd t up to 25, in
# enumeration order.  The t = 25 entry 72 in the third row is forced:
# no class size k yields a budget of 73, and the four budgets must sum
# to t(t - 1)/2 = 300.
DISTRIBUTION_TABLE = {
    3: [(1, 1, 1, 0)],
    5: [(3, 3, 2, 2)],
    7: [(6, 6, 6, 3), (6, 5, 5, 5)],
    9: [(10, 10, 9, 7), (9, 9, 9, 9)],
    11: [(15, 14, 14, 12)],
    13: [(21, 21, 21, 15), (21, 21, 18, 18), (20, 20, 20, 18)],
    15: [(28, 28, 27, 22), (28, 27, 25, 25)],
    17: [(36, 35, 35, 30), (35, 35, 33, 33)],
    19: [(45, 45, 42, 39), (45, 42, 42, 42), (44, 44, 44, 39)],
    21: [(55, 55, 55, 45), (55, 54, 52, 49), (54, 52, 52, 52)],
    23: [(66, 66, 65, 56), (65, 65, 63, 60)],
    25: [(78, 78, 72, 72), (78, 77, 77, 68), (78, 75, 75, 72), (75, 75, 75, 75)],
}

# Per-distribution search outcomes:
# (entries, ingredient counts, recipes, solution recipes, hadamard).
# Every hadamard count is the size of the certified solution list; the
# search re-verifies each matrix with the direct orthogonality test
# before reporting it, so these are enumerated values, not estimates.
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
    11: [((15, 14, 14, 12), (26, 20, 20, 10), 5580, 120, 2640)],
}

SEARCH_TABLE_SLOW = {
    13: [
        ((21, 21, 21, 15), (74, 74, 74, 14), 19320, 144, 3744),
        ((21, 21, 18, 18), (74, 74, 34, 34), 29208, 72, 1872),
        ((20, 20, 20, 18), (57, 57, 57, 34), 21612, 108, 2808),
    ],
}

BUDGET_TABLE = {
    3: [1, 1],
    5: [2, 3, 3, 2],
    7: [3, 5, 6, 6, 5, 3],
    9: [4, 7, 9, 10, 10, 9, 7, 4],
    11: [5, 9, 12, 14, 15, 15, 14, 12, 9, 5],
}


def _random_canonical_subset(ctx, rng):
    allowed = [i for i in range(2, 4 * ctx.t + 1) if i not in prohibited_indices(ctx)]
    picks = rng.integers(0, 2, size=len(allowed)).astype(bool)
    return CoboundarySubset(ctx, frozenset(i for i, keep in zip(allowed, picks) if keep))


def _check_search_table(table):
    """Checks every row of table and returns the reports by t."""
    reports = {}
    for t, rows in table.items():
        report = reports[t] = run_search(t)
        got = [
            (
                r.distribution.entries,
                r.ingredient_counts,
                r.recipe_count,
                r.solution_recipe_count,
                r.hadamard_count,
            )
            for r in report.reports
        ]
        assert got == rows, t
    return reports


def test_criterion_1_distribution_table():
    start = time.perf_counter()
    for t, rows in DISTRIBUTION_TABLE.items():
        dists = enumerate_distributions(t)
        assert [d.entries for d in dists] == rows, t
        for dist in dists:
            assert sum(dist.entries) == t * (t - 1) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print("ACCEPTANCE 1 distribution table: PASS")


def test_criterion_2_budget_table_and_symmetry():
    start = time.perf_counter()
    for t, row in BUDGET_TABLE.items():
        assert [k * (t - k) // 2 for k in range(t - 1, 0, -1)] == row
    for t in range(3, 27, 2):
        cap = (t * t - 1) // 8
        assert is_triangular(cap)[0]
        for k in range(t + 1):
            budget = k * (t - k) // 2
            assert budget == (t - k) * k // 2
            assert is_triangular(cap - budget)[0]
            assert entry_class_size(t, budget) == min(k, t - k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print("ACCEPTANCE 2 budget table and symmetry: PASS")


def test_criterion_3_brute_force_counts():
    start = time.perf_counter()
    expected = {3: (2**9, 24), 5: (2**17, 120), 7: (2**25, 840)}
    for t, (space, count) in expected.items():
        report = brute_force(t)
        assert report.space == space
        assert report.hadamard_count == count
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, elapsed
    print("ACCEPTANCE 3 brute force counts: PASS")


def test_criterion_4_search_equals_brute_force():
    for t in (3, 5, 7):
        searched = {rec.subset.sorted_indices() for rec in run_search(t).solutions()}
        scanned = {s.sorted_indices() for s in brute_force(t).solutions}
        assert searched == scanned, t
    print("ACCEPTANCE 4 search equals brute force: PASS")


def test_criterion_5_search_table():
    _check_search_table(SEARCH_TABLE)
    print("ACCEPTANCE 5 search table: PASS")


@pytest.mark.slow
def test_criterion_5_search_table_t13():
    reports = _check_search_table(SEARCH_TABLE_SLOW)
    assert reports[13].candidates_checked == 3743688
    # Each coupled-pair term vanishes on its own in every solution, not
    # only each residue's sum of two.
    rows = [
        [split_classes(13, rec.subset.indices)[cls] for cls in CLASS_ORDER]
        for rec in reports[13].solutions()
    ]
    assert len(rows) == 8424 and pair_terms_vanish(13, rows).all()
    print("ACCEPTANCE 5 search table t=13: PASS")


@pytest.mark.slow
def test_criterion_5_search_t15():
    # ~7 s on 2 cores.  The digest is the first 16 hex digits of the
    # sha256 over the repr of each solution's sorted indices, in order.
    report = run_search(15)
    assert [r.summary_line() for r in report.reports] == [
        "distribution (28, 28, 27, 22): ingredients (222, 222, 160, 56), recipes 597816,"
        " solution recipes 240, hadamard 7200",
        "distribution (28, 27, 25, 25): ingredients (222, 160, 106, 106), recipes 523656,"
        " solution recipes 48, hadamard 1440",
    ]
    assert report.candidates_checked == 16243200
    assert report.hadamard_count == 8640
    digest = hashlib.sha256()
    for rec in report.solutions():
        digest.update(repr(rec.subset.sorted_indices()).encode())
    assert digest.hexdigest()[:16] == "ebf7960b44c07998"
    print("ACCEPTANCE 5 search t=15: PASS")


def test_criterion_6_path_row_sums():
    rng = np.random.default_rng(61)
    mismatches = 0
    for t in (3, 5, 7, 9):
        ctx = GroupContext(t)
        for _ in range(1000):
            subset = _random_canonical_subset(ctx, rng)
            direct = assemble_cocyclic(subset)[4 : 2 * t + 2].sum(axis=1)
            for n, expected in zip(range(5, 2 * t + 3), direct):
                if row_sum_via_paths(subset, n) != expected:
                    mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 6 path row sums: PASS")


def test_criterion_7_algebraic_identities():
    # dual construction routes agree entry for entry
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        for i in range(1, 4 * t + 1):
            blocks = _coboundary_blocks(ctx, i)
            point = _coboundary_point(ctx, i)
            assert np.array_equal(blocks, point)

    # each prohibited index reduces to its canonical image exactly
    for t in range(3, 15, 2):
        ctx = GroupContext(t)
        for p in sorted(prohibited_indices(ctx)):
            canon, sign = canonicalize(CoboundarySubset(ctx, frozenset({p})))
            assert canon.is_canonical
            prod = np.ones((4 * t, 4 * t), dtype=np.int8)
            for i in canon.sorted_indices():
                prod *= build_coboundary(ctx, i, point_form=True)
            target = sign * build_coboundary(ctx, p, point_form=True)
            assert np.array_equal(prod, target)

    # assembled point-form matrices satisfy the cocycle identity
    rng = np.random.default_rng(71)
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        subset = _random_canonical_subset(ctx, rng)
        mat = assemble_cocyclic(subset, point_form=True)
        order = 4 * t
        triples = rng.integers(1, order + 1, size=(10_000, 3))
        for ia, ib, ic in triples:
            a, b, c = (index_element(ctx, int(x)) for x in (ia, ib, ic))
            ab = element_index(ctx, multiply(ctx, a, b))
            bc = element_index(ctx, multiply(ctx, b, c))
            left = mat[ia - 1, ib - 1] * mat[ab - 1, ic - 1]
            right = mat[ia - 1, bc - 1] * mat[ib - 1, ic - 1]
            assert left == right

    # every working-form coboundary: row 1 clean, two negatives elsewhere
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        for i in range(1, 4 * t + 1):
            counts = (build_coboundary(ctx, i) < 0).sum(axis=1)
            assert counts[0] == 0
            assert (counts[1:] == 2).all()

    # distinct same-class indices pair up at exactly one relevant row
    for t in range(3, 15, 2):
        ctx = GroupContext(t)
        rows = range(5, 2 * t + 3, 4)
        for cls in (1, 2, 3, 0):
            base = cls if cls else 4
            indices = [4 * p + base for p in range(t)]
            for i, j in combinations(indices, 2):
                hits = sum(
                    1
                    for n in rows
                    if path_partner(ctx, n, i) == j or path_partner(ctx, n, j) == i
                )
                assert hits == 1, (t, cls, i, j)

    print("ACCEPTANCE 7 algebraic identities: PASS")


def test_criterion_8_export_and_verify(tmp_path):
    report = run_search(3)
    written = export_solutions(report, tmp_path)
    assert len(written) == report.hadamard_count == 24
    for path in written:
        t, ok = verify_matrix_file(path)
        assert t == 3 and ok

    rng = np.random.default_rng(81)
    for path in written[:3]:
        text = path.read_text()
        header_end = text.index("\n") + 1
        body = list(text[header_end:])
        signs = [k for k, ch in enumerate(body) if ch in "+-"]
        pick = signs[int(rng.integers(0, len(signs)))]
        body[pick] = "-" if body[pick] == "+" else "+"
        path.write_text(text[:header_end] + "".join(body))
        t, ok = verify_matrix_file(path)
        assert t == 3 and not ok

    print("ACCEPTANCE 8 export and verify: PASS")
