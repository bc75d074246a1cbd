"""Benchmark runner for cochad; run from the repository root.

    python3 perfbench/run.py --workload search_t13 --seed 1 --seconds 15 --trace 0

Each run starts perfbench/bench.py in a fresh interpreter to time the
workload with cold lru_caches and check every output against
perfbench/pins.json.  Set-up time is measured before and after it, in
fresh interpreters that only import cochad.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 only when every output check passed.

``--workload all`` runs one round: every workload of BENCHMARK.json, in
an order drawn from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> (kind, t, jobs).  The *_t5 workloads are the smoke test's
# tiny sizes; BENCHMARK.json lists the measured ones.
WORKLOADS = {
    "search_t13": ("search", 13, 1),
    "cli_export_t9": ("cli", 9, 1),
    "brute_t7": ("brute", 7, 1),
    "search_t13_jobs2": ("search", 13, 2),
    "search_t5": ("search", 5, 1),
    "cli_export_t5": ("cli", 5, 1),
    "brute_t5": ("brute", 5, 1),
}

# Half of the probes run before the workload and half after it, so that a
# run's set-up median spans the run rather than one moment of the host.
SETUP_PROBES = 22
PROBE = "import time; t0 = time.perf_counter(); import cochad; print(time.perf_counter() - t0)"
RUN_DEADLINE_S = 170.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group.

    The group (cmd and any workers it forks) is killed and reaped at the
    deadline, or when this process is interrupted or terminated.
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_env(), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def setup_seconds(probes: int, deadline: float) -> list[float]:
    """Import time of cochad (numpy included) in fresh interpreters."""
    samples = []
    for _ in range(probes):
        done = _run([sys.executable, "-c", PROBE], deadline)
        if done.returncode != 0:
            raise RuntimeError("import cochad failed in a fresh interpreter")
        samples.append(float(done.stdout.strip()))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> dict:
    kind, t, jobs = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = setup_seconds(SETUP_PROBES // 2, deadline)
    workdir = Path(".perfbench")
    workdir.mkdir(exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--name", name, "--kind", kind, "--t", str(t), "--jobs", str(jobs),
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    done = _run(cmd, deadline)
    if done.returncode != 0:
        raise RuntimeError(f"bench.py exited with code {done.returncode}")
    child = json.loads(done.stdout.strip().splitlines()[-1])
    setup += setup_seconds(SETUP_PROBES - len(setup), deadline)

    print(f"workload {name}: {kind} t={t} jobs={jobs}, seed {seed}, trace {trace}")
    print(f"  setup_s {statistics.median(setup):.4f} s (median of {len(setup)})")
    walls = child["wall_s"]
    print(f"  {'traced ' if trace else ''}wall_s {statistics.median(walls):.4f} s "
          f"(median of {len(walls)}, range {min(walls):.4f}-{max(walls):.4f})")
    print(f"  failed_ops {child['failed'] / child['attempted']:.6f} "
          f"({child['failed']} of {child['attempted']} output checks)")
    if trace:
        values = child["layers"]
        for key, value in values.items():
            print(f"  {key} {value} {units[key]}")
    else:
        wall = statistics.median(child["wall_s"])
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": child["peak_rss_mb"],
            "solutions_per_s": child["hadamard"] / wall,
        }
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        print(f"  solutions_per_s {values['solutions_per_s']:.2f} 1/s ({child['hadamard']} solutions)")
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not Path("src/cochad/__init__.py").is_file():
        print("error: run from the repository root; src/cochad is missing", file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload == "all":
        names = [w["name"] for w in spec["workloads"]]
        random.Random(args.seed).shuffle(names)
    else:
        names = [args.workload]
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        if WORKLOADS[name][2] > nproc:
            print(f"error: {name} needs {WORKLOADS[name][2]} cores, {nproc} available",
                  file=sys.stderr)
            return 2

    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, args.trace, units
            )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(".perfbench/tmp", ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
