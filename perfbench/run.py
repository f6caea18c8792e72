#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 25 --trace 0

The corpus is generated from ``--seed``; ops run back to back (one
closed-loop client) up to the op boundary nearest to ``--seconds``.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` runs the traced variant and prints
the per-layer metrics and writes its spans to
``.perfbench/traces/<workload>-seed<seed>.json`` (Chrome trace-event JSON).
The last line of standard output is the JSON result; the line before it
records the host and input facts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

UNITS = {"setup_s": "s", "primary_s": "s", "secondary_s": "s",
         "peak_rss_mb": "MB", "deputy_checks_kept": "count"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest forked worker."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def _reap_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _run(args, jobs: int, workdir: Path) -> dict:
    from spans import Tracer
    from verify import CheckFailed, seed_gate
    from workloads import WORKLOADS

    gate_error = None
    try:
        seed_gate()
    except CheckFailed as error:
        gate_error = str(error)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir, jobs, tracer)
    setup_s = []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - started)
    if tracer is not None:
        workload.prepare_trace()

    attempted = failed = 0
    errors: list[str] = []
    op_wall = 0.0
    started = time.perf_counter()
    try:
        # Closed loop: end at the op boundary nearest to the deadline.
        while (attempted < workload.min_ops
               or time.perf_counter() - started
               + op_wall / attempted / 2 < args.seconds):
            attempted += 1
            gc.collect()  # every op starts from the same heap state
            op_started = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.run_id = attempted
                    workload.traced_op()
                else:
                    workload.op()
            except CheckFailed as error:
                failed += 1
                errors.append(str(error))
            except Exception:  # an op that raises counts as failed
                failed += 1
                errors.append(traceback.format_exc())
            op_wall += time.perf_counter() - op_started
    finally:
        workload.close()

    if tracer is not None:
        metrics = workload.layers()
        metrics["trace.coverage_ratio"] = tracer.covered() / op_wall
        metrics["trace.overhead_s"] = tracer.overhead / attempted
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   **workload.metrics(),
                   "peak_rss_mb": _peak_rss_mb(),
                   "deputy_checks_kept": workload.kept}
        units = UNITS
    info = {
        "host": {"usable_cpus": jobs, "cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "machine": platform.machine()},
        "input": {"workload": args.workload, **workload.facts()},
        "run": {"seconds": args.seconds, "trace": args.trace,
                "setup_repeats": len(setup_s), "ops": attempted,
                "samples": (attempted if tracer is not None
                            else workload.samples_behind()),
                "failed_ratio": failed / attempted,
                "seed_gate": gate_error or "ok", "errors": errors[:3]},
        "named": dict(zip(workload.named, ("primary_s", "secondary_s"))),
    }
    if tracer is not None:
        tracer.write_chrome(
            OUT / "traces" / f"{args.workload}-seed{args.seed}.json", info)
    aliases = {metric: name for name, metric in info["named"].items()}
    for name, value in metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{label:42} {value:14.6f} {units[name]}")
    print(json.dumps({"info": info}, sort_keys=True))
    return {"correct": gate_error is None and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    jobs = len(os.sched_getaffinity(0))
    workdir = OUT / f"run-{os.getpid()}"
    try:
        result = _run(args, jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _reap_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
