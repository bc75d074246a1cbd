"""Smoke test of the benchmark harness at tiny sizes (t = 5).

    python3 perfbench/smoke.py

Run from the repository root.  Checks that run.py emits every metric
BENCHMARK.json names, with its unit, in both modes; that a wrong pinned
digest is counted as a failed output check and gives a non-zero exit;
and that run.py fails without a result in a directory holding only
BENCHMARK.json and perfbench/.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")


def run(workload: str, trace: int, bench: Path = HERE, cwd: Path | None = None):
    """Run ``bench``/run.py (perfbench/ or a copy of it) on one workload."""
    done = subprocess.run(
        [sys.executable, str(bench.resolve() / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, done.stderr


def copy_benchmark(root: Path) -> Path:
    """Copy BENCHMARK.json and perfbench/ under root; returns the copy of perfbench/."""
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", root)
    return root / "perfbench"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in ("search_t5", "brute_t5", "cli_export_t5"):
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            label = f"{workload} trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, stderr {err.strip()!r}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics {sorted(units)} != declared {sorted(declared[trace])}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: checks {result}")
            print(f"ok {label}: {len(units)} metrics, {result['attempted']} checks")

    # A copy whose pinned digest is wrong, run from here, where src/ is.
    wrong = copy_benchmark(WORK / "wrong-digest")
    pins = json.loads((wrong / "pins.json").read_text())
    pins["search_t5"]["solutions_sha256"] = "0" * 64
    (wrong / "pins.json").write_text(json.dumps(pins))
    try:
        code, result, _ = run("search_t5", 0, bench=wrong)
    finally:
        shutil.rmtree(wrong.parent)
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"wrong digest not reported: exit {code}, result {result}")
    else:
        print(f"ok wrong digest: exit {code}, {result['failed']} of {result['attempted']} checks failed")

    bare = copy_benchmark(WORK / "bare").parent
    try:
        code, result, _ = run("search_t5", 0, bench=bare / "perfbench", cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"bare directory: exit {code}, result {result}")
    else:
        print(f"ok bare directory: exit {code}, no result")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
