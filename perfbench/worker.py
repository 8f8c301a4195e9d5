"""One benchmark process: set up, measure or trace a single workload.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS [MAX_REPS]
    python3 perfbench/worker.py trace   WORKLOAD SEED SPAN_FILE

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src`` and a fixed ``PYTHONHASHSEED``.  ``setup`` prints ``ready`` as
soon as the workload can run (the parent times that from process
start).  ``measure`` repeats the timed body, untraced, until SECONDS of
body time have passed (at least two repetitions, so a digest can be
compared with a repeat).  ``trace`` runs one repetition with every layer
wrapper installed.  Both print one JSON document as their last line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS, RepResult, check

MIN_REPS = 2


def environment() -> Dict[str, Any]:
    """What can change the simulator's speed or checks between runs."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "REPRO_TICK_ENGINE": os.environ.get("REPRO_TICK_ENGINE"),
        "KYOTO_CONTRACTS": os.environ.get("KYOTO_CONTRACTS"),
        "under_pytest": "pytest" in sys.modules,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rep(name: str, seed: int, body=None) -> "tuple[float, Optional[RepResult], Optional[str]]":
    workload = WORKLOADS[name]
    instance = workload.build(seed)
    try:
        started = time.perf_counter()
        result = (body or workload.body)(instance)
        elapsed = time.perf_counter() - started
    except Exception:  # a crash is a failed check, reported with its trace
        return 0.0, None, traceback.format_exc()
    finally:
        workload.cleanup(instance)
    return elapsed, result, None


def _tally(
    name: str,
    seed: int,
    result: Optional[RepResult],
    error: Optional[str],
    prepared: Dict[str, Any],
    first: Optional[RepResult],
    out: Dict[str, Any],
) -> None:
    if result is None:
        out["attempted"] += 1
        out["failed"] += 1
        out["failures"].append(f"exception: {error}")
        return
    for label, passed in check(name, seed, result, prepared, first):
        out["attempted"] += 1
        if not passed:
            out["failed"] += 1
            out["failures"].append(label)


def measure(name: str, seed: int, seconds: float, max_reps: int) -> Dict[str, Any]:
    prepared = WORKLOADS[name].prepare(seed)
    out: Dict[str, Any] = {
        "walls": [], "sim_ticks": [], "tick_ms": [], "extra": {},
        "attempted": 0, "failed": 0, "failures": [],
    }
    first: Optional[RepResult] = None
    spent = 0.0
    while len(out["walls"]) < max_reps and (
        spent < seconds or len(out["walls"]) < MIN_REPS
    ):
        elapsed, result, error = _run_rep(name, seed)
        _tally(name, seed, result, error, prepared, first, out)
        if result is None:
            break
        if first is None:
            first = result
            out["tick_ms"] = result.tick_ms
            out["extra"] = result.extra
            out["digests"] = result.digests
        out["walls"].append(elapsed)
        out["sim_ticks"].append(result.sim_ticks)
        spent += elapsed
    out["peak_rss_mb"] = _peak_rss_mb()
    out["env"] = environment()
    return out


def trace(name: str, seed: int, span_file: str) -> Dict[str, Any]:
    from spans import Tracer

    workload = WORKLOADS[name]
    prepared = workload.prepare(seed)
    tracer = Tracer()
    body = workload.body
    if name == "paper_campaign":
        def body(runners, _original=workload.body):
            wrapped = []
            for index, (item, runner) in enumerate(runners):
                wrapped.append((item, _with_run_id(tracer, index, item, runner)))
            return _original(wrapped)
    tracer.install()
    try:
        elapsed, result, error = _run_rep(name, seed, body)
    finally:
        tracer.uninstall()
    out: Dict[str, Any] = {
        "attempted": 0, "failed": 0, "failures": [], "wall_s": elapsed,
        "digests": result.digests if result is not None else {},
    }
    # The traced repetition must reproduce the pinned outputs: tracing
    # that perturbs the simulation would make every layer number moot.
    _tally(name, seed, result, error, prepared, None, out)
    out["metrics"] = tracer.metrics()
    out["layer_self_s"] = tracer.layer_self_totals()
    out["spans"] = tracer.dump(span_file)
    out["span_file"] = span_file
    out["env"] = environment()
    return out


def _with_run_id(tracer, index: int, item: str, runner):
    traced = tracer.traced(f"experiments.{item}", "experiments", runner)

    def run() -> str:
        tracer.run_id = index
        return traced()

    return run


def main(argv: List[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if name not in WORKLOADS:
        sys.stderr.write(f"unknown workload {name!r}\n")
        return 2
    if mode == "setup":
        WORKLOADS[name].prepare(seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if mode == "measure":
        max_reps = int(argv[4]) if len(argv) > 4 else 1000
        document = measure(name, seed, float(argv[3]), max_reps)
    elif mode == "trace":
        document = trace(name, seed, argv[3])
    else:
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 2
    sys.stdout.write(json.dumps(document) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
