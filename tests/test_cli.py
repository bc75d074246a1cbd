"""Command line behavior: output formats and exit codes."""

import multiprocessing
from math import comb

import numpy as np
import pytest

import cochad.search
from cochad.cli import EXIT_ERROR, EXIT_INTERNAL, EXIT_OK, EXIT_VERDICT_FALSE, main
from oracles import class_domain, ingredient_of, positions_of


def test_search_output(capsys):
    code = main(["search", "--t", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out == [
        "distribution (1, 1, 1, 0): ingredients (1, 1, 1, 1), "
        "recipes 4, solution recipes 4, hadamard 24",
        "candidates checked: 72",
        "total hadamard: 24",
    ]


def test_search_with_export(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["search", "--t", "3", "--out", str(out_dir)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out[-1] == f"wrote 24 matrix files to {out_dir}"
    assert (out_dir / "report.txt").exists()
    assert len(list(out_dir.glob("t03-*.txt"))) == 24


def test_search_single_distribution(capsys):
    code = main(["search", "--t", "7", "--distribution", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out == [
        "distribution (6, 5, 5, 5): ingredients (4, 3, 3, 3), "
        "recipes 60, solution recipes 36, hadamard 504",
        "candidates checked: 8232",
        "total hadamard: 504",
    ]


def test_brute_force_output(capsys):
    code = main(["brute-force", "--t", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out == [
        "canonical subsets: 512",
        "distribution (1, 1, 1, 0): hadamard 24",
        "total hadamard: 24",
    ]


def test_distributions_output(capsys):
    code = main(["distributions", "--t", "13"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out == [
        "(21, 21, 21, 15)  0+0+0+6",
        "(21, 21, 18, 18)  0+0+3+3",
        "(20, 20, 20, 18)  1+1+1+3",
    ]


def test_ingredients_output(capsys):
    code = main(["ingredients", "--t", "5", "--k", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out[0] == "t=5 k=2 entry=3"
    assert sorted(out[1:3]) == ["profile (1, 2): 5 masks", "profile (2, 1): 5 masks"]
    assert out[3] == "profiles: 2"

    # Every profile line against the reference model, group by group: the
    # catalog holds the masks of size k, whose complements are those of
    # size t - k, so --k 7 prints the same text.
    code = main(["ingredients", "--t", "13", "--k", "6"])
    text = capsys.readouterr().out
    assert code == EXIT_OK
    assert main(["ingredients", "--t", "13", "--k", "7"]) == EXIT_OK
    assert capsys.readouterr().out == text
    out = text.splitlines()
    assert out[0] == "t=13 k=6 entry=21"
    assert out[-1] == "profiles: 74"
    domain = class_domain(13, 6, 2)
    groups = np.split(domain.flat, domain.starts[1:])
    assert len(out) == len(groups) + 2
    total = 0
    for line, masks in zip(out[1:-1], groups):
        profile, count = line.removeprefix("profile ").split(": ")
        ingredients = {ingredient_of(13, positions_of(13, m)) for m in masks.tolist()}
        assert [str(ing.counts) for ing in ingredients] == [profile]
        size6 = int((np.bitwise_count(masks) == 6).sum())
        assert 2 * size6 == len(masks)
        assert count == f"{size6} masks"
        total += size6
    assert total == comb(13, 6) == 1716


def test_verify_exit_codes(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["search", "--t", "3", "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    matrix = sorted(out_dir.glob("t03-*.txt"))[0]

    assert main(["verify", str(matrix)]) == EXIT_OK
    assert capsys.readouterr().out == "t=3 hadamard: true\n"

    text = matrix.read_text()
    body = text.index("\n") + 1
    flipped = "-" if text[body] == "+" else "+"
    matrix.write_text(text[:body] + flipped + text[body + 1 :])
    assert main(["verify", str(matrix)]) == EXIT_VERDICT_FALSE
    assert capsys.readouterr().out == "t=3 hadamard: false\n"

    assert main(["verify", str(tmp_path / "absent.txt")]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_verify_rejects_foreign_line_ends(tmp_path, capsys, newline):
    # The file is read as bytes, so no newline translation hides the "\r"
    # that parse_matrix rejects on line 1.
    out_dir = tmp_path / "run"
    assert main(["search", "--t", "3", "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    matrix = sorted(out_dir.glob("t03-*.txt"))[0]
    assert main(["verify", str(matrix)]) == EXIT_OK
    capsys.readouterr()
    matrix.write_bytes(matrix.read_bytes().replace(b"\n", newline.encode()))
    assert main(["verify", str(matrix)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ")


def test_verify_names_the_line_of_a_non_utf8_byte(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"t=3\n+\xff+\n")
    assert main(["verify", str(bad)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: byte 0xff is not UTF-8\n"


def test_malformed_matrix_exits_with_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("t=3\n+++\n")
    assert main(["verify", str(bad)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_domain_errors_exit_with_error(capsys):
    assert main(["search", "--t", "4"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")

    assert main(["search", "--t", "17"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")

    assert main(["brute-force", "--t", "9"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")

    assert main(["ingredients", "--t", "5", "--k", "9"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")

    # refused before the ~1.1 GB of mask tables are allocated
    assert main(["ingredients", "--t", "23", "--k", "1"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: mask tables are capped at t=21")


def test_internal_error_exits_with_its_own_code(monkeypatch, capsys):
    # A candidate that fails certification is a bug, not a "not Hadamard"
    # verdict, and must not escape as a traceback with exit 1.
    monkeypatch.setattr(cochad.search, "is_hadamard_direct", lambda matrix: False)
    assert main(["search", "--t", "3"]) == EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: candidate failed certification")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched certification only when forked",
)
def test_worker_certification_failure_crosses_the_pool(monkeypatch, capsys):
    # Each --jobs worker certifies its own solutions; a failure raises in
    # the worker and must reach the CLI as the same internal error.
    monkeypatch.setattr(cochad.search, "is_hadamard_direct", lambda matrix: False)
    monkeypatch.setattr(cochad.search.os, "cpu_count", lambda: 2)
    assert main(["search", "--t", "7", "--jobs", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: candidate failed certification")
