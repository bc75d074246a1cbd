"""One benchmark run of one workload, inside a fresh interpreter.

run.py starts this script once per run with ``PYTHONPATH=src``, so the
package's lru_caches start cold and ``ru_maxrss`` covers this run only.
Every output is checked against perfbench/pins.json.  It prints one JSON
line: the run's samples, check counts and, in traced mode, the per-layer
metrics.  Usage (normally through run.py):

    PYTHONPATH=src python3 perfbench/bench.py --name search_t13 --kind search \
        --t 13 --jobs 1 --seed 0 --seconds 10 --trace 0 --workdir .perfbench
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import cochad
from cochad import bitmask, cli, cocyclic, distributions, recipes, search
from spans import Tracer

PINS = Path(__file__).resolve().parent / "pins.json"

PRODUCT_MODULES = (bitmask, cli, cocyclic, distributions, recipes, search)

# Names the harness calls through; the tracer wraps them in place.
ENTRY_POINTS = ((search, "run_search"), (search, "brute_force"), (cli, "main"))

SPAN_SIZES = {
    "bitmask.pair_ci": lambda args, result: int(np.size(result)),
    "bitmask.row_test_batch": lambda args, result: int(np.size(result)),
    "bitmask.class_candidates": lambda args, result: len(result),
    "recipes.enumerate_recipes": lambda args, result: len(result),
    "search.export_solutions": lambda args, result: len(result),
    "search.verify_matrix_file": lambda args, result: 0 if result[1] else 1,
    "cli.main": lambda args, result: 1 if result != 0 else 0,
}

# Per-layer metric -> (span name, field of Tracer.totals).
LAYER_SPANS = {
    "search.join_s": ("search.run_search", "self_s"),
    "bitmask.pair_ci_s": ("bitmask.pair_ci", "s"),
    "bitmask.pair_ci_calls": ("bitmask.pair_ci", "calls"),
    "bitmask.pair_ci_elems": ("bitmask.pair_ci", "size"),
    "bitmask.class_candidates_s": ("bitmask.class_candidates", "s"),
    "bitmask.class_candidate_rows": ("bitmask.class_candidates", "size"),
    "bitmask.row_test_batch_s": ("bitmask.row_test_batch", "s"),
    "bitmask.row_test_batch_calls": ("bitmask.row_test_batch", "calls"),
    "bitmask.row_test_batch_elems": ("bitmask.row_test_batch", "size"),
    "recipes.recipe_of_s": ("recipes.recipe_of", "s"),
    "recipes.recipe_of_calls": ("recipes.recipe_of", "calls"),
    "recipes.enumerate_recipes_s": ("recipes.enumerate_recipes", "s"),
    "recipes.recipe_count": ("recipes.enumerate_recipes", "size"),
    "recipes.ingredient_counts_s": ("recipes.distribution_ingredient_counts", "s"),
    "cocyclic.assemble_s": ("cocyclic.assemble_cocyclic", "s"),
    "cocyclic.assemble_calls": ("cocyclic.assemble_cocyclic", "calls"),
    "cocyclic.direct_test_s": ("cocyclic.is_hadamard_direct", "s"),
    "cocyclic.direct_test_calls": ("cocyclic.is_hadamard_direct", "calls"),
    "cocyclic.format_matrix_s": ("cocyclic.format_matrix", "s"),
    "cocyclic.parse_matrix_s": ("cocyclic.parse_matrix", "s"),
    "search.export_s": ("search.export_solutions", "s"),
    "search.export_files": ("search.export_solutions", "size"),
    "search.verify_s": ("search.verify_matrix_file", "s"),
    "search.verify_calls": ("search.verify_matrix_file", "calls"),
    "search.verify_false": ("search.verify_matrix_file", "size"),
    "cli.main_s": ("cli.main", "s"),
    "cli.main_calls": ("cli.main", "calls"),
    "cli.nonzero_exits": ("cli.main", "size"),
    "distributions.enumerate_s": ("distributions.enumerate_distributions", "s"),
}


def _caches():
    found = {}
    for mod in PRODUCT_MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and (obj.__module__ or "").startswith("cochad."):
                found[id(obj)] = obj
    return list(found.values())


CACHES = _caches()


def digest_indices(index_tuples) -> str:
    """sha256 of the sorted solution index tuples, one tuple per line."""
    lines = sorted(" ".join(map(str, idx)) for idx in index_tuples)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def search_iteration(t, jobs, seed, tmp):
    start = perf_counter()
    report = search.run_search(t, jobs=jobs)
    wall = perf_counter() - start
    observed = {
        "hadamard": report.hadamard_count,
        "candidates_checked": report.candidates_checked,
        "solutions_sha256": digest_indices(r.subset.sorted_indices() for r in report.solutions()),
    }
    return wall, observed, [], {}


def brute_iteration(t, jobs, seed, tmp):
    start = perf_counter()
    report = search.brute_force(t)
    wall = perf_counter() - start
    observed = {
        "hadamard": report.hadamard_count,
        "space": report.space,
        "solutions_sha256": digest_indices(s.sorted_indices() for s in report.solutions),
    }
    return wall, observed, [], {}


def cli_iteration(t, jobs, seed, tmp):
    """``cochad search --out DIR`` then ``cochad verify`` on every file.

    The verify order is shuffled by the workload seed.  Listing the
    directory and the output checks are outside the timed region.
    """
    out = tmp / "out"
    argv = ["search", "--t", str(t)] + (["--jobs", str(jobs)] if jobs != 1 else [])
    argv += ["--out", str(out)]
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        search_rc = cli.main(argv)
    wall = perf_counter() - start
    files = sorted(p.name for p in out.iterdir() if p.name != "report.txt")
    random.Random(seed).shuffle(files)
    vbuf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(vbuf):
        verify_rcs = [cli.main(["verify", str(out / name)]) for name in files]
    wall += perf_counter() - start

    report_txt = (out / "report.txt").read_text()
    files_hash = hashlib.sha256()
    export_bytes = len(report_txt.encode())
    for name in sorted(files):
        data = (out / name).read_bytes()
        export_bytes += len(data)
        files_hash.update(name.encode() + b"\n" + data)
    observed = {
        "search_exit": search_rc,
        "stdout": buf.getvalue().replace(str(out), "<OUT>"),
        "report_txt": report_txt,
        "files": len(files),
        "files_sha256": files_hash.hexdigest(),
    }
    lines = vbuf.getvalue().splitlines()
    lines += [None] * (len(files) - len(lines))
    per_call = [[rc, line] for rc, line in zip(verify_rcs, lines)]
    counts = {
        "search.candidates_checked": int(re.search(r"candidates checked: (\d+)", report_txt)[1]),
        "search.hadamard": int(re.search(r"total hadamard: (\d+)", report_txt)[1]),
        "search.export_bytes": export_bytes,
    }
    return wall, observed, per_call, counts


KINDS = {"search": search_iteration, "brute": brute_iteration, "cli": cli_iteration}


def run_iteration(args, pins, workdir, tracer=None):
    """One timed call of the workload with cold caches; returns a sample."""
    for cache in CACHES:
        cache.cache_clear()
    gc.collect()
    tmp = Path(tempfile.mkdtemp(dir=workdir / "tmp"))
    try:
        fn = KINDS[args.kind]
        cpu0 = _cpu()
        if tracer is None:
            wall, observed, per_call, counts = fn(args.t, args.jobs, args.seed, tmp)
        else:
            with tracer.installed(PRODUCT_MODULES, ENTRY_POINTS):
                wall, observed, per_call, counts = fn(args.t, args.jobs, args.seed, tmp)
        cpu1 = _cpu()
    finally:
        shutil.rmtree(tmp)
    checks = [(key, observed.get(key), want) for key, want in pins.items() if key != "per_call"]
    checks += [("per_call", got, pins.get("per_call")) for got in per_call]
    failures = [(key, got, want) for key, got, want in checks if got != want]
    for key, got, want in failures[:5]:
        print(f"check failed: {key}: got {got!r}, pinned {want!r}", file=sys.stderr)
    counts.setdefault("search.candidates_checked", observed.get("candidates_checked", 0))
    counts.setdefault("search.hadamard", observed.get("hadamard", 0))
    counts["own_cpu_s"] = cpu1[0] - cpu0[0]
    counts["children_cpu_s"] = cpu1[1] - cpu0[1]
    return {"wall": wall, "attempted": len(checks), "failed": len(failures), "counts": counts}


def layer_metrics(tracer: Tracer, sample: dict, jobs: int, call_cost_s: float) -> dict[str, float]:
    totals = tracer.totals(tracer.run)
    out = {name: totals[span][field] if span in totals else 0
           for name, (span, field) in LAYER_SPANS.items()}
    counts = sample["counts"]
    out["search.candidates_checked"] = counts["search.candidates_checked"]
    out["search.hadamard"] = counts["search.hadamard"]
    out["search.join_yield"] = (counts["search.hadamard"] / counts["search.candidates_checked"]
                                if counts["search.candidates_checked"] else 0.0)
    out["search.export_bytes"] = counts.get("search.export_bytes", 0)
    out["search.children_cpu_s"] = counts["children_cpu_s"]
    out["search.parallel_efficiency"] = (
        (counts["own_cpu_s"] + counts["children_cpu_s"]) / (jobs * sample["wall"])
    )
    out["trace.overhead_s"] = call_cost_s * sum(entry["calls"] for entry in totals.values())
    return out


def warm_up(kind: str, workdir: Path) -> None:
    """Load lazily imported code paths with a tiny instance (t = 5)."""
    if kind == "brute":
        search.brute_force(5)
    elif kind == "search":
        search.run_search(5)
    else:
        tmp = Path(tempfile.mkdtemp(dir=workdir / "tmp"))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["search", "--t", "5", "--out", str(tmp)])
                cli.main(["verify", str(next(tmp.glob("t05-*.txt")))])
        finally:
            shutil.rmtree(tmp)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--kind", choices=sorted(KINDS), required=True)
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cochad.__file__).resolve().parents:
        print(f"error: cochad imported from {cochad.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(PINS) as fh:
        pins = json.load(fh).get(args.name)
    if not pins:
        print(f"error: no pinned outputs for workload {args.name}", file=sys.stderr)
        return 2

    warm_up(args.kind, workdir)
    samples, layers = [], []
    tracer = Tracer(SPAN_SIZES) if args.trace else None
    call_cost_s = Tracer.call_cost_s() if args.trace else 0.0
    start = perf_counter()
    while True:
        if tracer is None:
            samples.append(run_iteration(args, pins, workdir))
        else:
            tracer.run += 1
            samples.append(run_iteration(args, pins, workdir, tracer))
            layers.append(layer_metrics(tracer, samples[-1], args.jobs, call_cost_s))
        if perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.dump(workdir / f"spans-{args.name}-seed{args.seed}.json")

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "wall_s": [s["wall"] for s in samples],
        "hadamard": samples[0]["counts"]["search.hadamard"],
        # ru_maxrss is in KiB on Linux; workers add their own peak.
        "peak_rss_mb": (own + kids) / 1024,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "layers": {},
    }
    if layers:
        result["layers"] = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
