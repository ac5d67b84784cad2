"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/one_pass.py ROOT WORKLOAD SEED OUT_DIR TRACE

Imports rmtlab from ROOT/src, validates the workload's configs, then runs
each through ``rmtlab.harness.run_experiment``, writing outputs under
OUT_DIR.  Prints one JSON line: the clock reading when set-up ended, wall
and CPU seconds of each experiment, the pass's peak resident memory and,
with TRACE = 1, the per-layer metrics of spans recorded in this process.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

_WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)


def main(argv) -> int:
    root, workload, seed, out_dir, trace = argv
    sys.path.insert(0, str(Path(root, "src")))
    import rmtlab
    from rmtlab import harness

    import configs

    if Path(rmtlab.__file__).resolve().parent != Path(root, "src", "rmtlab").resolve():
        raise SystemExit(f"rmtlab imported from {rmtlab.__file__}, not from {root}/src")
    experiments = [
        harness.config_from_dict({**raw, "out_dir": out_dir, "label": raw["experiment"]})
        for raw in configs.CONFIGS[workload](int(seed))
    ]
    ready = time.monotonic()

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
    parts = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for cfg in experiments:
            cpu0 = _cpu()
            start = time.perf_counter()
            report = harness.run_experiment(cfg)  # looked up now, so the tracer sees it
            wall = time.perf_counter() - start
            cpu = _cpu() - cpu0
            out_path = str(report.out_path)
            parts.append(dict(experiment=cfg.experiment, wall_s=wall, cpu_s=cpu, out_path=out_path))
    # ru_maxrss is in KiB on Linux; children are the pass's pool workers
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in _WHO)
    result = dict(ready=ready, parts=parts, peak_rss_mb=peak_kib / 1024.0)
    if tracer:
        wall = sum(p["wall_s"] for p in parts)
        result["layers"] = tracer.layer_metrics(wall)
    print(json.dumps(result))
    return 0


def _cpu() -> float:
    """User + system seconds of this process and its reaped children."""
    usages = [resource.getrusage(who) for who in _WHO]
    return sum(u.ru_utime + u.ru_stime for u in usages)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
