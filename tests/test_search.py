"""Pruned search, brute-force scan, certification, and export."""

import hashlib
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import cochad.search
from cochad.bitmask import (
    CLASS_ORDER,
    PAIR_ORDER,
    MaskTables,
    mask_tables,
    pair_ci,
    rotate,
    row_test_batch,
)
from cochad.cocyclic import (
    CoboundarySubset,
    assemble_cocyclic,
    canonicalize,
    format_matrix,
    is_hadamard_direct,
    prohibited_indices,
)
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
    # The join keys (c, n) from a one-size catalog and the necklace
    # representatives of one, and a match stands for the canonical forms
    # of its complement images rotated by -r, r below n's period.  On the
    # A side the relation of class 1 at 0 toggles classes 1 and 2 at
    # once, so (c, n) and (c, ~n) stand for its two cosets; on the B side
    # the relations of classes 3 and 0 toggle each on its own, so (c, n)
    # stands for all four images.  Over every pair of class sizes (k and
    # t - k share a catalog), the canonical forms must give each row of
    # the oracle's two-size class domains exactly once.
    full = (1 << t) - 1
    sizes = range(t // 2 + 1)
    for (xcls, ycls), kx, ky in product(((1, 2), (3, 0)), sizes, sizes):
        c, n = class_masks(t, kx).flat, necklace_masks(t, ky)
        ny, periods = n.flat, n.periods
        if xcls == 1:
            ny, periods = np.append(ny, ny ^ full), np.tile(periods, 2)
        x, y = np.repeat(c, len(ny)), np.tile(ny, len(c))
        i, r = np.nonzero(np.arange(t) < np.tile(periods, len(c))[:, None])
        cols = [0, 1] if xcls == 1 else [2, 3]
        rows = np.zeros((len(i), 4), dtype=np.int64)
        rows[:, cols] = rotate(t, np.stack([x[i], y[i]], axis=1), (t - r[:, None]) % t)
        u, v = cochad.search._canonical(t, rows)[:, cols].T
        dx = np.sort(class_domain(t, kx, xcls).flat)
        dy = np.sort(class_domain(t, ky, ycls).flat)
        # want ascends strictly, so equal sorted arrays also rule out repeats
        want = ((dx[:, None] << t) | dy[None, :]).ravel()
        assert np.array_equal(np.sort((u << t) | v), want)
    if t == 9:
        reps = (necklace_masks(t, k) for k in sizes)
        assert any(((rep.periods > 1) & (rep.periods < t)).any() for rep in reps)


@pytest.mark.parametrize("t", range(3, 17, 2))
def test_canonical_matches_canonicalize(t):
    # _canonical is canonicalize's three relations on mask rows: seeded
    # subsets, canonical or not, must give the same canonical subset.
    ctx = GroupContext(t)
    rng = np.random.default_rng(t)
    picks = rng.random((300, 4 * t)) < rng.random((300, 1))
    subsets = [frozenset((np.flatnonzero(row) + 1).tolist()) for row in picks]
    rows = np.array([[split_classes(t, s)[cls] for cls in CLASS_ORDER] for s in subsets])
    canonical = [not subset & prohibited_indices(ctx) for subset in subsets]
    assert any(canonical) and not all(canonical)
    want = []
    for subset in subsets:
        canon = split_classes(t, canonicalize(CoboundarySubset(ctx, subset))[0].indices)
        want.append([canon[cls] for cls in CLASS_ORDER])
    assert np.array_equal(cochad.search._canonical(t, rows), np.array(want))


@pytest.mark.parametrize("t", [3, 5, 7, 9, 11])
def test_key_matches_count_by_periods(t):
    # The join counts 2 p(n2) p(n0) candidates per key match of its one
    # probe.  Its even images hold one candidate per pair of rotations
    # below the periods (test_rotations_of_representatives_are_the_class_domains).
    # Reflection: mu_-1 keeps profiles and periods and negates every pair
    # term, so a B side's (profile pair, coupling score, period) triples
    # are symmetric in the score, and the matches of the negated A keys,
    # which stand for the odd images, weigh as much as those of the A keys.
    tables = mask_tables(t)
    base = (2 * t + 1) ** tables.half
    sizes = range(t // 2 + 1)
    scored = False
    for kx, ky in product(sizes, sizes):
        cat, reps = class_masks(t, kx), necklace_masks(t, ky)
        x, y = np.repeat(cat.flat, len(reps.flat)), np.tile(reps.flat, len(cat.flat))
        periods = np.tile(reps.periods, len(cat.flat))
        xcode = np.repeat(np.repeat(cat.codes, cat.sizes), len(reps.flat))
        ycode = np.tile(np.repeat(reps.codes, reps.sizes), len(cat.flat))
        score = coupling_key(tables, 0, x, y, -1) - base // 2
        scored |= bool(score.any())
        triples = np.stack([xcode, ycode, score, periods], axis=1)
        reflected = triples * np.array([1, 1, -1, 1])
        assert sorted(map(tuple, triples.tolist())) == sorted(map(tuple, reflected.tolist()))
    assert scored


def test_join_batches_do_not_change_results(monkeypatch):
    # A batch is a run of whole groups with at most _CHUNK_ROWS A rows,
    # or one larger group; at 24 most t = 9 groups are batches of their
    # own.  Every batch keys the four one-size catalogs, probes its A keys
    # into its B keys once, counts the candidates of its key matches by
    # their necklace periods, and keeps the matches whose coupling key is
    # zero; each joined assignment then makes one row test of those
    # matches as they are, once per relative shift that stands for a
    # candidate, whatever the batches.  Its mirror is never keyed or
    # row-tested.
    events = []
    batches = []  # (groups, keyed rows) of each side of each batch
    probes = []  # the A key count of each _matches call
    real_keys, real_test = cochad.search._side_keys, cochad.search.row_test_batch
    real_matches = cochad.search._matches

    def size_of(catalog):
        """The class size of a catalog, min(k, t - k): its popcount."""
        return int(np.bitwise_count(catalog.flat).min())

    def side_keys(t, side, g, h):
        # Each keyed catalog holds one popcount, below t / 2.
        for catalog in side.x, side.y:
            assert len(set(np.bitwise_count(catalog.flat).tolist())) == 1
        events.append((size_of(side.x), size_of(side.y)))
        keys, order, rows_at = real_keys(t, side, g, h)
        batches.append((h - g, len(keys)))
        return keys, order, rows_at

    def row_test_batch(tables, *cols):
        events.append(np.broadcast(*cols).size)
        return real_test(tables, *cols)

    def matches(akey, bkey):
        probes.append(len(akey))
        return real_matches(akey, bkey)

    def joins():
        """The (assignment, batches, row-test rows) of each join, from
        events: each batch keys its B rows (classes 3, 0), then its A rows
        (1, 2), and the join ends with its one row test."""
        out, keyed = [], []
        for event in events:
            if not isinstance(event, int):
                keyed.append(event)
                continue
            b_sides, a_sides = set(keyed[0::2]), set(keyed[1::2])
            assert len(keyed) % 2 == 0 and len(a_sides) == len(b_sides) == 1
            out.append((a_sides.pop() + b_sides.pop(), len(keyed) // 2, event))
            keyed = []
        assert not keyed
        events.clear()
        return out

    monkeypatch.setattr(cochad.search, "_side_keys", side_keys)
    monkeypatch.setattr(cochad.search, "row_test_batch", row_test_batch)
    monkeypatch.setattr(cochad.search, "_matches", matches)
    default = run_search(9)
    default_joins = joins()
    # A quarter of the 37008 rows that keying both masks of every
    # complement pair of each side would take.
    assert sum(rows for _, rows in batches) == 9252
    # One probe per batch, with all of the batch's A keys.
    assert probes == [rows for _, rows in batches[1::2]]
    monkeypatch.setattr(cochad.search, "_CHUNK_ROWS", 24)
    batches.clear()
    probes.clear()
    tiny = run_search(9)
    tiny_joins = joins()
    assert sum(rows for _, rows in batches) == 9252
    assert probes == [rows for _, rows in batches[1::2]]
    assert tiny.candidates_checked == default.candidates_checked == 130248
    assert tiny == default
    # Only the assignments with k3 >= k0 are keyed; the rest are their
    # mirrors.  Sizes 4, 3 and 2 carry the entries 10, 9 and 7.
    joined = set()
    for dist in enumerate_distributions(9):
        for assignment in dist.assignments():
            k1, k2, k3, k0 = (entry_class_size(9, e) for e in assignment)
            if k3 >= k0:
                joined.add((k1, k2, k3, k0))
    assert len(joined) == 8
    for runs in (default_joins, tiny_joins):
        assert len(runs) == len(joined)
        assert {assignment for assignment, _, _ in runs} == joined
        assert sum(rows for _, _, rows in runs) == 1863
    assert sum(n for _, n, _ in tiny_joins) > sum(n for _, n, _ in default_joins)
    abatches = batches[1::2]
    assert all(groups == 1 or rows <= 24 for groups, rows in abatches)
    assert sum(groups == 1 and rows > 24 for groups, rows in abatches) > len(abatches) // 2


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
        # Pair p's keys sit at edges[p] - edges[first] onward.
        spans = np.diff(edges[first : stop + 1])
        pair = np.repeat(np.arange(first, stop), spans)
        u, v, per = rows_at(order)
        assert np.array_equal(keys, coupling_key(tables, group[pair[order]] - g, u, v, sign))
        assert np.array_equal(per, 3 * v + 1)
        assert np.array_equal(np.sort(order), np.arange(len(keys)))
        u, v, _ = rows_at(np.arange(len(keys)))
        # Every row of every pair, each once.
        want = sorted(
            (p, xm, ym)
            for p in range(first, stop)
            for xm in x.flat[x.starts[px[p]] : x.starts[px[p]] + x.sizes[px[p]]].tolist()
            for ym in y.flat[y.starts[py[p]] : y.starts[py[p]] + y.sizes[py[p]]].tolist()
        )
        assert sorted(zip(pair.tolist(), u.tolist(), v.tolist())) == want


@pytest.mark.parametrize("t", range(3, 15, 2))
def test_complement_negates_coupling_key(t):
    # 1^T S_m = S_m 1 = 1, so the rows and the columns of W sum to 0, and
    # complementing one mask of a row negates pair_ci while complementing
    # both keeps it: the join keys (~c, n) and (c, ~n) at
    # 2 (j base + base // 2) minus the key of (c, n), in the same group j,
    # and (~c, ~n) at the key of (c, n).  So an even number of complements
    # among a match's four masks keeps the match, an odd number negates
    # one side's score, and the join keys only the four one-size
    # catalogs.  Their complements must then be the
    # other size in the same groups (test_class_masks_hold_one_size), and
    # the complement of a catalog mask or necklace representative must
    # have its period, so that it stands for its necklace.
    tables = mask_tables(t)
    assert not tables.coupling.sum(axis=0).any()
    assert not tables.coupling.sum(axis=1).any()
    base, full = (2 * t + 1) ** tables.half, (1 << t) - 1
    rng = np.random.default_rng(t)
    c, n = rng.integers(0, 1 << t, size=(2, 500))
    j = rng.integers(0, 1000, size=500)
    for sign in (1, -1):
        key = coupling_key(tables, j, c, n, sign)
        negated = 2 * (j * base + base // 2) - key
        assert np.array_equal(coupling_key(tables, j, c ^ full, n, sign), negated)
        assert np.array_equal(coupling_key(tables, j, c, n ^ full, sign), negated)
        assert np.array_equal(coupling_key(tables, j, c ^ full, n ^ full, sign), key)
    # Over all sixteen complement patterns of a seeded (A row, B row)
    # pair, an even pattern keeps both coupling scores and an odd one
    # negates exactly one side's.  So rows whose scores are both zero stay
    # zero under every pattern: each zero-coupling match stands for all
    # sixteen of its images.
    patterns = np.array(list(np.ndindex(2, 2, 2, 2)))
    rows = rng.integers(0, 1 << t, size=(500, 1, 4))
    images = rows ^ patterns * full
    za, za_image = (coupling_key(tables, 0, u[..., 0], u[..., 1], 1) - base // 2 for u in (rows, images))
    zb, zb_image = (coupling_key(tables, 0, u[..., 2], u[..., 3], -1) - base // 2 for u in (rows, images))
    sa, sb = (-1) ** patterns[:, :2].sum(axis=1), (-1) ** patterns[:, 2:].sum(axis=1)
    assert np.array_equal(za_image, za * sa) and np.array_equal(zb_image, zb * sb)
    odd = patterns.sum(axis=1) % 2 == 1
    assert ((sa * sb == -1) == odd).all() and odd.sum() == 8
    # Seeded zero-coupling rows: x with x^T W y = 0 for a seeded y.
    y = rng.integers(0, 1 << t, size=60)
    xs = np.arange(1 << t)
    u1, u2 = (m.ravel() for m in np.meshgrid(xs, y, indexing="ij"))
    zero = coupling_key(tables, 0, u1, u2, 1) == base // 2
    assert zero.any() and not zero.all()
    u1, u2 = u1[zero][:200], u2[zero][:200]
    zrows = np.stack([u1, u2, u1[::-1], u2[::-1]], axis=1)[:, None]
    assert (coupling_key(tables, 0, zrows[..., 2], zrows[..., 3], -1) == base // 2).all()
    zimages = zrows ^ patterns * full
    assert (coupling_key(tables, 0, zimages[..., 0], zimages[..., 1], 1) == base // 2).all()
    assert (coupling_key(tables, 0, zimages[..., 2], zimages[..., 3], -1) == base // 2).all()
    shifts = np.arange(1, t + 1)
    for k in range(t // 2 + 1):
        for side in class_masks(t, k), necklace_masks(t, k):
            assert (np.bitwise_count(side.flat) == k).all()
            # The least s >= 1 with rot_s(~x) == ~x.
            complements = side.flat[:, None] ^ full
            periods = np.argmax(rotate(t, complements, shifts) == complements, axis=1) + 1
            assert np.array_equal(periods, side.periods)


def test_search_leaves_numpy_ma_unimported():
    # A plain np.unique or np.intersect1d imports numpy.ma (~10 ms and
    # ~1 MB of max RSS with numpy 2.4); the join sorts instead, so a
    # search in a fresh interpreter never imports it.
    src = str(Path(cochad.search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from cochad.search import run_search; run_search(5); print('numpy.ma' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize(
    "t, mirrors, hit_rows", [(3, 1, 6), (5, 2, 40), (7, 2, 210), (9, 5, 810), (11, 5, 1100)]
)
def test_mirror_assignments_agree(t, mirrors, hit_rows):
    # (u1, u2, u3, u0) -> (u1, ~u2, u0, u3) keeps every head profile,
    # negates both coupling terms and keeps every forbidden position, so
    # it maps the join of (e1, e2, e3, e0) one to one onto that of
    # (e1, e2, e0, e3): the first's hits go exactly onto the second's,
    # with the same counts.  The search joins only the first and takes
    # the _mirror images of its hits and its counts for the second, so
    # the two joins on their own catalogs must agree.  The hits alone
    # cannot tell a wrong map: the t = 5 pass set is closed under
    # swapping classes 3 and 0 alone, so test_mirror_map holds the map
    # to the row sums.  mirrors counts the pairs, hit_rows the hits of
    # their first assignments.
    join = cochad.search._join_assignment
    found = rows = 0
    for dist in enumerate_distributions(t):
        for assignment in dist.assignments():
            k1, k2, k3, k0 = (entry_class_size(t, e) for e in assignment)
            if k3 <= k0:
                continue
            found += 1
            own, partner = join(t, k1, k2, k3, k0), join(t, k1, k2, k0, k3)
            # Recipe and candidate counts, and the solution recipes.
            assert own[1:] == partner[1:]
            assert len({recipe_of(s) for s in _subsets_of_rows(t, own[0])[0]}) == len(
                {recipe_of(s) for s in _subsets_of_rows(t, partner[0])[0]}
            )
            mirrored = cochad.search._mirror(t, own[0])
            assert sorted(map(tuple, mirrored.tolist())) == sorted(map(tuple, partner[0].tolist()))
            rows += len(own[0])
    assert (found, rows) == (mirrors, hit_rows)


@pytest.mark.parametrize("t", [5, 7, 9, 11])
def test_mirror_map(t):
    # The join maps each passing match to its mirror instead of testing
    # it, so _mirror must negate the residue-2 sum, swap the residue-3
    # and residue-0 sums and keep the head totals at every m; then the
    # verdicts agree.  Seeded random tuples, nearly all of them no
    # solution, make the sums nonzero; a map that leaves class 2 as it
    # is breaks the residue-2 identity on some of them.  The search's
    # solutions make the verdicts meet both values.
    tables = mask_tables(t)
    rng = np.random.default_rng(t)
    solutions = [split_classes(t, rec.subset.indices) for rec in run_search(t).solutions()]
    rows = np.vstack(
        [
            rng.integers(0, 1 << t, size=(400, 4)),
            [[masks[cls] for cls in CLASS_ORDER] for masks in solutions],
        ]
    )
    match, mirror, swapped = (
        dict(zip(CLASS_ORDER, r.T))
        for r in (rows, cochad.search._mirror(t, rows), rows[:, [0, 1, 3, 2]])
    )

    def pair_sum(u, m, residue):
        (a, b), (c, d) = PAIR_ORDER[residue]
        return pair_ci(tables, u[a], u[b], m) + pair_ci(tables, u[c], u[d], m)

    def heads(u, m):
        return sum(tables.runs[m][u[cls]] for cls in CLASS_ORDER)

    swap_breaks = False
    for m in range(1, tables.half + 1):
        assert np.array_equal(pair_sum(mirror, m, 2), -pair_sum(match, m, 2))
        assert np.array_equal(pair_sum(mirror, m, 3), pair_sum(match, m, 0))
        assert np.array_equal(pair_sum(mirror, m, 0), pair_sum(match, m, 3))
        assert np.array_equal(heads(mirror, m), heads(match, m))
        swap_breaks |= not np.array_equal(pair_sum(swapped, m, 2), -pair_sum(match, m, 2))
    assert swap_breaks
    passing = row_test_batch(tables, *(match[cls] for cls in CLASS_ORDER))
    assert np.array_equal(row_test_batch(tables, *(mirror[cls] for cls in CLASS_ORDER)), passing)
    assert len(passing) == len(solutions) > 0


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
