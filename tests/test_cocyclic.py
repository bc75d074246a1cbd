"""Representative tables, coboundaries, assembly, canonical forms, IO."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochad.cocyclic import (
    CoboundarySubset,
    MatrixFormatError,
    _coboundary_point,
    assemble_cocyclic,
    assemble_members,
    build_back_negacyclic,
    build_coboundary,
    build_representative,
    canonicalize,
    format_matrix,
    is_hadamard_direct,
    parse_matrix,
)
from cochad.group import GroupContext, element_index, index_element, inverse, multiply
from cochad.search import run_search
from oracles import coboundary_blocks, parse_matrix_lines


def _random_subset(ctx, rng):
    pool = np.arange(1, ctx.order + 1)
    n = int(rng.integers(0, len(pool) + 1))
    picked = rng.choice(pool, size=n, replace=False)
    return CoboundarySubset(ctx, frozenset(int(x) for x in picked))


def test_back_negacyclic():
    assert build_back_negacyclic(1).tolist() == [[1]]
    assert build_back_negacyclic(2).tolist() == [[1, 1], [1, -1]]
    assert build_back_negacyclic(3).tolist() == [
        [1, 1, 1],
        [1, 1, -1],
        [1, -1, -1],
    ]
    with pytest.raises(ValueError):
        build_back_negacyclic(0)
    with pytest.raises(ValueError):
        build_back_negacyclic(-2)


def test_representative_tables_closed_forms():
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        rep = build_representative(ctx)
        n = ctx.order
        coords = [index_element(ctx, i) for i in range(1, n + 1)]
        for r in range(n):
            for s in range(n):
                _, br, cr = coords[r]
                _, bs, cs = coords[s]
                assert rep.bb[r, s] == (-1) ** (br * bs)
                assert rep.cc[r, s] == (-1) ** (cr * cs)
                assert rep.cb[r, s] == (-1) ** (cr * bs)
                assert rep.product[r, s] == rep.bb[r, s] * rep.cc[r, s] * rep.cb[r, s]


def test_representative_row_negative_counts():
    # rows congruent to 1 carry no negatives; all other rows carry 2t
    for t in (3, 5, 9):
        rep = build_representative(GroupContext(t))
        counts = (rep.product < 0).sum(axis=1)
        for n in range(1, 4 * t + 1):
            assert counts[n - 1] == (0 if n % 4 == 1 else 2 * t)


def test_coboundary_routes_agree():
    # build_coboundary uses the point route alone; the blocks route is
    # its cross-check, over the t that acceptance 7 builds tables for.
    for t in range(3, 15, 2):
        ctx = GroupContext(t)
        for i in range(1, 4 * t + 1):
            blocks = coboundary_blocks(ctx, i)
            assert np.array_equal(blocks, _coboundary_point(ctx, i))
            assert np.array_equal(blocks, build_coboundary(ctx, i, point_form=True))


def test_coboundary_rows():
    for t in (3, 5):
        ctx = GroupContext(t)
        for i in range(1, 4 * t + 1):
            table = build_coboundary(ctx, i)
            assert np.all(table[0] == 1)
            gi = index_element(ctx, i)
            for r in range(2, 4 * t + 1):
                cols = np.nonzero(table[r - 1] < 0)[0] + 1
                partner = element_index(
                    ctx, multiply(ctx, inverse(ctx, index_element(ctx, r)), gi)
                )
                assert set(cols.tolist()) == {i, partner}
            # the point layer differs from the working layer in row i alone
            point = build_coboundary(ctx, i, point_form=True)
            flip = np.ones(4 * t, dtype=np.int8)
            flip[i - 1] = -1
            assert np.array_equal(point, table * flip[:, None])


def test_coboundary_spot_example():
    table = build_coboundary(GroupContext(3), 2)
    cols = np.nonzero(table[4] < 0)[0] + 1
    assert cols.tolist() == [2, 10]


def test_coboundary_point_negative_count():
    # point layer: row 1 all ones, row i nearly all negative, two elsewhere
    ctx = GroupContext(3)
    for i in range(2, 13):
        point = build_coboundary(ctx, i, point_form=True)
        assert np.all(point[0] == 1)
        want = [0 if r == 1 else (4 * 3 - 2 if r == i else 2) for r in range(1, 13)]
        assert (point < 0).sum(axis=1).tolist() == want


def test_coboundary_range_error():
    ctx = GroupContext(3)
    for i in (0, 13, -1):
        with pytest.raises(ValueError):
            build_coboundary(ctx, i)


def test_subset_validation():
    ctx = GroupContext(3)
    s = CoboundarySubset(ctx, frozenset({2, 5}))
    assert s.is_canonical
    assert s.sorted_indices() == (2, 5)
    assert s.residue_class(1) == frozenset({5})
    assert s.residue_class(2) == frozenset({2})
    assert not CoboundarySubset(ctx, frozenset({1, 2})).is_canonical
    with pytest.raises(ValueError):
        CoboundarySubset(ctx, frozenset({0}))
    with pytest.raises(ValueError):
        CoboundarySubset(ctx, frozenset({13}))
    with pytest.raises(ValueError, match=re.escape("indices [-1, 0, 13] outside [1, 12]")):
        CoboundarySubset(ctx, frozenset({13, 5, 0, -1, 12}))
    assert CoboundarySubset(ctx, frozenset()).sorted_indices() == ()


def test_assemble_matches_iterative_product():
    rng = np.random.default_rng(17)
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        rep = build_representative(ctx).product
        for _ in range(25):
            subset = _random_subset(ctx, rng)
            for point in (False, True):
                direct = rep.copy().astype(np.int32)
                for i in subset.indices:
                    direct *= build_coboundary(ctx, i, point_form=point)
                assembled = assemble_cocyclic(subset, point_form=point)
                assert np.array_equal(assembled, direct)


def test_assemble_empty_is_representative():
    ctx = GroupContext(5)
    empty = CoboundarySubset(ctx, frozenset())
    rep = build_representative(ctx).product
    assert np.array_equal(assemble_cocyclic(empty), rep)
    assert np.array_equal(assemble_cocyclic(empty, point_form=True), rep)


def _membership(subsets):
    member = np.zeros((len(subsets), subsets[0].ctx.order), dtype=bool)
    for row, subset in zip(member, subsets):
        row[[i - 1 for i in subset.indices]] = True
    return member


def test_assemble_members_stacks_assemble_cocyclic():
    # One formula assembles a single subset and a stack of them.
    rng = np.random.default_rng(29)
    for t in (3, 5, 9):
        ctx = GroupContext(t)
        subsets = [CoboundarySubset(ctx, frozenset())]
        subsets += [_random_subset(ctx, rng) for _ in range(23)]
        member = _membership(subsets)
        for point in (False, True):
            stack = assemble_members(t, member, point_form=point)
            assert stack.dtype == np.int8 and stack.shape == (24, 4 * t, 4 * t)
            for subset, matrix in zip(subsets, stack):
                assert np.array_equal(matrix, assemble_cocyclic(subset, point_form=point))
            grid = assemble_members(t, member.reshape(4, 6, 4 * t), point_form=point)
            assert np.array_equal(grid.reshape(stack.shape), stack)
    with pytest.raises(ValueError):
        assemble_members(3, np.zeros((2, 11), dtype=bool))


def test_canonicalize_examples():
    ctx = GroupContext(3)
    canon, sign = canonicalize(CoboundarySubset(ctx, frozenset({1})))
    assert canon.sorted_indices() == (2, 5, 6, 9, 10)
    assert sign == -1
    canon, sign = canonicalize(CoboundarySubset(ctx, frozenset({12})))
    assert canon.sorted_indices() == (2, 4, 6, 8, 10)
    assert sign == 1


def test_canonicalize_properties():
    rng = np.random.default_rng(23)
    for t in (3, 5, 7):
        ctx = GroupContext(t)
        for _ in range(40):
            subset = _random_subset(ctx, rng)
            canon, sign = canonicalize(subset)
            assert canon.is_canonical
            assert sign in (-1, 1)
            again, sign2 = canonicalize(canon)
            assert again == canon and sign2 == 1
            # exact identity in the point layer
            a = assemble_cocyclic(subset, point_form=True)
            b = assemble_cocyclic(canon, point_form=True)
            assert np.array_equal(b, sign * a)


def test_hadamard_direct():
    assert is_hadamard_direct(np.array([[1]]))
    assert is_hadamard_direct(build_back_negacyclic(2))
    assert not is_hadamard_direct(build_representative(GroupContext(3)).product)
    with pytest.raises(ValueError):
        is_hadamard_direct(np.ones((3, 4), dtype=np.int8))
    with pytest.raises(ValueError):
        is_hadamard_direct(np.zeros((4, 4), dtype=np.int8))


def test_hadamard_direct_on_stacks():
    # A stack gets one verdict per matrix, the 2-D call's verdict.
    rng = np.random.default_rng(31)
    ctx = GroupContext(3)
    known = [CoboundarySubset(ctx, frozenset(idx)) for idx in ({2, 3, 4}, {5, 6, 7})]
    subsets = known + [_random_subset(ctx, rng) for _ in range(30)]
    stack = assemble_members(3, _membership(subsets))
    verdicts = is_hadamard_direct(stack)
    assert verdicts.dtype == bool and verdicts.shape == (32,)
    assert verdicts.tolist() == [is_hadamard_direct(matrix) for matrix in stack]
    assert verdicts[:2].all() and not verdicts.all()
    assert type(is_hadamard_direct(stack[0])) is bool
    assert is_hadamard_direct(stack.reshape(4, 8, 12, 12)).shape == (4, 8)
    assert is_hadamard_direct(np.ones((0, 12, 12), dtype=np.int8)).shape == (0,)
    with pytest.raises(ValueError):
        is_hadamard_direct(np.ones((2, 3, 4), dtype=np.int8))
    with pytest.raises(ValueError):
        is_hadamard_direct(np.ones(4, dtype=np.int8))
    zero = stack.copy()
    zero[17, 5, 9] = 0
    with pytest.raises(ValueError):
        is_hadamard_direct(zero)


def test_single_flip_in_a_stack_is_found_at_its_position():
    # Row negations and row permutations keep H H^T = 4t I, so each
    # matrix of the stack is certified; one flipped entry fails only its
    # own matrix.
    idx = {2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 18, 21, 22, 23, 25, 31, 35, 37, 41, 42, 43, 46, 49}
    matrix = assemble_cocyclic(CoboundarySubset(GroupContext(13), frozenset(idx)))
    rng = np.random.default_rng(37)
    stack = np.stack(
        [(matrix * rng.choice([-1, 1], size=(52, 1)))[rng.permutation(52)] for _ in range(9)]
    ).astype(np.int8)
    assert is_hadamard_direct(stack).all()
    for k, r, s in ((0, 0, 0), (4, 17, 40), (8, 51, 51)):
        flipped = stack.copy()
        flipped[k, r, s] *= -1
        assert np.flatnonzero(~is_hadamard_direct(flipped)).tolist() == [k]


def test_known_solutions_t3():
    ctx = GroupContext(3)
    for idx in ({2, 3, 4}, {5, 6, 7}, {5, 6, 8}, {5, 7, 8}):
        matrix = assemble_cocyclic(CoboundarySubset(ctx, frozenset(idx)))
        assert is_hadamard_direct(matrix)


def test_single_flip_breaks_certified_t13():
    # The first solution of run_search(13, distribution=0).
    idx = {2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 18, 21, 22, 23, 25, 31, 35, 37, 41, 42, 43, 46, 49}
    matrix = assemble_cocyclic(CoboundarySubset(GroupContext(13), frozenset(idx)))
    assert is_hadamard_direct(matrix)
    for r, s in np.ndindex(matrix.shape):
        flipped = matrix.copy()
        flipped[r, s] *= -1
        assert not is_hadamard_direct(flipped), (r, s)


def test_format_parse_round_trip():
    ctx = GroupContext(3)
    matrix = assemble_cocyclic(CoboundarySubset(ctx, frozenset({2, 3, 4})))
    text = format_matrix(3, matrix)
    lines = text.splitlines()
    assert lines[0] == "t=3"
    assert len(lines) == 13 and all(len(line) == 12 for line in lines[1:])
    t, back = parse_matrix(text)
    assert t == 3
    assert np.array_equal(back, matrix)


# Derandomized and small, so the properties add well under a second and
# every run tries the same examples.
_matrix_examples = settings(derandomize=True, database=None, deadline=None, max_examples=25)
_odd_t = st.sampled_from(range(3, 17, 2))
_seeds = st.integers(0, 2**32 - 1)


def _sign_matrix(t, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(4 * t, 4 * t))


@_matrix_examples
@given(t=_odd_t, seed=_seeds)
def test_format_parse_round_trip_property(t, seed):
    matrix = _sign_matrix(t, seed)
    back_t, back = parse_matrix(format_matrix(t, matrix))
    assert back_t == t
    assert back.dtype == np.int8
    assert np.array_equal(back, matrix)


@pytest.mark.parametrize("corruption", ["symbol", "drop", "add", "missing row"])
@_matrix_examples
@given(t=_odd_t, seed=_seeds, data=st.data())
def test_single_corruption_names_its_line(corruption, t, seed, data):
    lines = format_matrix(t, _sign_matrix(t, seed)).splitlines()
    n = 4 * t
    k = data.draw(st.integers(1, n), label="row line index")
    col = data.draw(st.integers(0, n - 1), label="column")
    row = lines[k]
    if corruption == "symbol":
        lines[k] = row[:col] + data.draw(st.sampled_from("x0* ")) + row[col + 1 :]
        want = f"line {k + 1}: invalid characters"
    elif corruption == "drop":
        lines[k] = row[:col] + row[col + 1 :]
        want = f"line {k + 1}: expected {n} characters, found {n - 1}"
    elif corruption == "add":
        lines[k] = row[:col] + data.draw(st.sampled_from("+-")) + row[col:]
        want = f"line {k + 1}: expected {n} characters, found {n + 1}"
    else:
        del lines[k]
        # the rows close up, so the file ends one row early
        want = f"line {n + 1}: expected {n} matrix rows, found {n - 1}"
    with pytest.raises(MatrixFormatError, match="^" + want):
        parse_matrix("\n".join(lines) + "\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("")
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("q=3\n")
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("t=x\n")
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("t=4\n")
    good_rows = "\n".join(["+" * 12] * 12)
    # Only the header is wrong: format_matrix writes exactly "t=3".
    for head in ("t=+3", "t= 3", "t=3 ", "t=0_3", "t=03", "t=\u0663"):
        with pytest.raises(MatrixFormatError, match="^line 1: "):
            parse_matrix(head + "\n" + good_rows + "\n")
    with pytest.raises(MatrixFormatError, match="line 3"):
        parse_matrix("t=3\n" + "+" * 12 + "\n")
    with pytest.raises(MatrixFormatError, match="line 5"):
        parse_matrix("t=3\n" + "\n".join(["+" * 12] * 3 + ["+" * 11] + ["+" * 12] * 8))
    with pytest.raises(MatrixFormatError, match="line 7"):
        parse_matrix(
            "t=3\n" + "\n".join(["+" * 12] * 5 + ["+" * 11 + "x"] + ["+" * 12] * 6)
        )
    with pytest.raises(MatrixFormatError, match="line 14"):
        parse_matrix("t=3\n" + good_rows + "\nstray\n")
    # Lines end at "\n" only; other line breaks are invalid characters.
    rows = ["+" * 12] * 12
    for brk in ("\r", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        bad = rows[:1] + ["+" * 5 + brk + "+" * 7] + rows[2:]
        with pytest.raises(MatrixFormatError, match="^line 3: invalid characters"):
            parse_matrix("t=3\n" + "\n".join(bad) + "\n")
        with pytest.raises(MatrixFormatError, match="^line 1: "):
            parse_matrix("t=3" + brk + brk.join(rows))
        with pytest.raises(MatrixFormatError, match="^line 14: trailing content"):
            parse_matrix("t=3\n" + good_rows + "\n" + brk + "\n")
    with pytest.raises(MatrixFormatError, match="^line 1: "):
        parse_matrix("t=3\v" + "\x85".join(rows))
    with pytest.raises(MatrixFormatError, match="^line 1: expected 't=3'"):
        parse_matrix("t=3\r\n" + "\r\n".join(rows) + "\r\n")
    # trailing blank lines are tolerated
    t, matrix = parse_matrix("t=3\n" + good_rows + "\n\n")
    assert t == 3 and matrix.shape == (12, 12)


def _parse_outcome(parse, text):
    """(t, dtype, shape, bytes) of a parsed matrix, or the MatrixFormatError text."""
    try:
        t, matrix = parse(text)
    except MatrixFormatError as exc:
        return str(exc)
    return t, matrix.dtype, matrix.shape, matrix.tobytes()


# Single characters an edit puts in a matrix file: the signs, a letter,
# blanks, line breaks and two that are not ASCII (one a lone surrogate).
_EDIT_CHARS = "+-x \t\r\n\x0b\x85\u00e9\ud800"


def _edits(text):
    """Every single-character substitution, deletion and insertion."""
    for k in range(len(text)):
        for c in _EDIT_CHARS:
            yield text[:k] + c + text[k + 1 :]
        yield text[:k] + text[k + 1 :]
    for k in range(len(text) + 1):
        for c in _EDIT_CHARS:
            yield text[:k] + c + text[k:]


@pytest.mark.parametrize("t, sample", [(3, None), (5, 1500)])
def test_parse_matrix_matches_line_oracle(t, sample):
    # The one-pass grid check accepts exactly the files the line-by-line
    # reference accepts, with the same matrix, and rejects the others
    # with the same message: every single edit of a t = 3 file, and a
    # seeded sample of those of a t = 5 file.
    subset = run_search(t).solutions()[0].subset
    text = format_matrix(t, assemble_cocyclic(subset))
    edits = list(_edits(text))
    if sample is not None:
        rng = np.random.default_rng(t)
        edits = [edits[i] for i in sorted(rng.choice(len(edits), sample, replace=False))]
    outcomes = set()
    for edited in [text, *edits]:
        want = _parse_outcome(parse_matrix_lines, edited)
        assert _parse_outcome(parse_matrix, edited) == want, repr(edited)
        outcomes.add(type(want))
    assert outcomes == {tuple, str}


@pytest.mark.parametrize("t", [3, 5, 7])
def test_format_matrix_stack_matches_single(t):
    # A stack formats as its matrices one at a time, a stack of one and
    # an empty stack included.
    solutions = [record.subset for record in run_search(t).solutions()[:40]]
    stack = np.stack([assemble_cocyclic(subset) for subset in solutions])
    texts = format_matrix(t, stack)
    assert texts == [format_matrix(t, matrix) for matrix in stack]
    assert format_matrix(t, stack[:1]) == [format_matrix(t, stack[0])]
    assert format_matrix(t, stack[:0]) == []
    with pytest.raises(ValueError, match="one matrix or a stack"):
        format_matrix(t, stack[None])
