"""rmtlab benchmark: run one workload for a fixed time and report its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

A pass is one run of the workload's experiments through
``rmtlab.harness.run_experiment``, in a fresh interpreter started from
``one_pass.py``; passes run one at a time until S seconds have gone by.
After each pass the outputs are checked against ``oracles``.  With
``--trace 0`` every pass is untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported, with the traced passes' extra wall time as
``trace.overhead_s``.  Every metric is the median over its passes.  The last
line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import configs
import oracles

HERE = Path(__file__).resolve().parent
OUT = ".perfbench_out"
# every run must end within 180 s, so a pass may not outlive this
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PassError(RuntimeError):
    """A pass process failed, printed no result or ran out of time."""


def run_pass(root: Path, workload: str, seed: int, out_dir: Path, traced: bool, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return what it measured.

    ``setup_s`` runs from the launch of the interpreter until the pass has
    imported rmtlab and validated its configs; both readings come from the
    system-wide monotonic clock.
    """
    args = (root, workload, seed, out_dir, int(traced))
    cmd = [sys.executable, str(HERE / "one_pass.py"), *map(str, args)]
    launch = time.monotonic()
    # a process group of its own, so a pass that hangs is killed with its pool workers
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass still running after {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}:\n{stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - launch
    result["wall_s"] = sum(p["wall_s"] for p in result["parts"])
    result["cpu_s"] = sum(p["cpu_s"] for p in result["parts"])
    return result


def manifest(root: Path) -> dict:
    """Versions, BLAS build, CPUs, thread variables, start method, commit."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "start_method": multiprocessing.get_context().get_start_method(),
        "commit": commit,
    }


def _median_metric(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, details printed beside it)."""
    out_root = root / OUT / name
    shutil.rmtree(out_root, ignore_errors=True)
    raw = configs.CONFIGS[name](seed)
    problems = oracles.self_test()
    attempted = failed = 0
    hashes = None
    notes = {}
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        timeout = DEADLINE_S - (time.monotonic() - start)
        result = run_pass(root, name, seed, out_root / "pass", traced, timeout)
        outcome = checks.check_pass(result["parts"], raw, len(passes))
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        notes.update(outcome.notes)
        if hashes is None:
            hashes = outcome.hashes
        elif outcome.hashes != hashes:
            problems.append(f"records.csv differs between passes of seed {seed}: {outcome.hashes} vs {hashes}")
        passes.append((traced, result))
        print(
            f"{name} pass {len(passes)}{' traced' if traced else ''}: setup {result['setup_s']:.3f} s, "
            f"run {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, rss {result['peak_rss_mb']:.1f} MB",
            file=sys.stderr,
        )
        # stop before a pass that would end after the measuring time
        elapsed = time.monotonic() - start
        cycle = elapsed / len(passes)
        kinds = {t for t, _ in passes}
        if elapsed + cycle > seconds and (not trace or kinds == {False, True}):
            break

    plain = [r for t, r in passes if not t]
    if trace:
        traced = [r for t, r in passes if t]
        metrics = {}
        for key, (_, unit) in traced[0]["layers"].items():
            metrics[key] = _median_metric([r["layers"][key][0] for r in traced], unit)
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": _median_metric([r["setup_s"] for r in plain], "s"),
            "run_s": _median_metric([r["wall_s"] for r in plain], "s"),
            "cpu_s": _median_metric([r["cpu_s"] for r in plain], "s"),
            "peak_rss_mb": _median_metric([r["peak_rss_mb"] for r in plain], "MB"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = dict(workload=name, seed=seed, passes=len(passes), hashes=hashes, notes=notes, problems=problems)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*configs.CONFIGS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "rmtlab" / "__init__.py").is_file():
        print(f"perfbench: no rmtlab sources in {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2

    print(json.dumps({"manifest": manifest(root)}))
    names = list(configs.CONFIGS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, details = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            for problem in details["problems"]:
                print(f"perfbench: {name}: {problem}", file=sys.stderr)
            print(json.dumps(details))
            results[name] = result
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
