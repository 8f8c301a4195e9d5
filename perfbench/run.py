"""Repo benchmark: end-to-end and per-layer metrics of the Kyoto simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see perfbench/README.md):
``paper_campaign``, ``replay_attribution``, ``churn_service``.

``--trace 0`` reports the end-to-end metrics: set-up time from a fresh
process (median of several processes), then the workload repeated
untraced in one process for ``--seconds`` of timed work.  ``--trace 1``
reports the per-layer metrics: one untraced repetition in one process
and one traced repetition in another, whose ratio is the tracing
overhead; spans are written under ``.perfbench/``.

Every repetition's outputs are checked (goldens, pinned digests, or a
repeat of the same inputs); a raised exception counts as a failed check.
The human-readable lines list every metric with its unit and the check
verdict; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")
GOLDENS = os.path.join(ROOT, "tests", "goldens", "experiment_goldens.json")

WORKLOADS = ("paper_campaign", "replay_attribution", "churn_service")

#: Fresh processes timed for ``setup_s``, after one untimed warm-up
#: process that compiles the byte code.
SETUP_PROBES = 5

#: A worker that outlives this is killed and the run fails.
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_rate": "ratio",
}

#: Environment variables that change what the simulator executes.
FLAGGED_VARIABLES = ("REPRO_TICK_ENGINE", "KYOTO_CONTRACTS")


class BenchError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Fixed, so dict and set orders cannot differ between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: List[str]) -> "subprocess.Popen[str]":
    return subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def run_worker(args: List[str]) -> Dict[str, Any]:
    """Run one worker to completion; returns its JSON document."""
    process = _spawn(args)
    try:
        stdout, stderr = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"worker {args} timed out after {WORKER_TIMEOUT_S} s")
    if process.returncode != 0 or not stdout.strip():
        raise BenchError(
            f"worker {args} exited with {process.returncode}:\n{stderr.strip()}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh worker until it reports ready."""
    started = time.perf_counter()
    process = _spawn(["setup", workload, str(seed)])
    try:
        assert process.stdout is not None
        line = process.stdout.readline()
        ready = time.perf_counter() - started
        _, stderr = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"setup of {workload} timed out")
    if line.strip() != "ready" or process.returncode != 0:
        raise BenchError(f"setup of {workload} failed:\n{stderr.strip()}")
    return ready


def describe_env(env: Dict[str, Any]) -> Tuple[str, List[str]]:
    line = (
        f"python {env['python']}  nproc {env['nproc']}  "
        f"PYTHONHASHSEED={env['PYTHONHASHSEED']}  "
        + "  ".join(f"{var}={env[var] or '-'}" for var in FLAGGED_VARIABLES)
    )
    flags = [
        f"{var} is set: this run does not measure the default program"
        for var in FLAGGED_VARIABLES
        if env[var]
    ]
    if env["under_pytest"]:
        flags.append("running under pytest: runtime contracts are on")
    return line, flags


def end_to_end(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    time_setup(workload, seed)  # warm-up: byte-code compilation
    setups = [time_setup(workload, seed) for _ in range(SETUP_PROBES)]
    measured = run_worker(["measure", workload, str(seed), str(seconds)])
    walls = measured["walls"]
    rates = [ticks / wall for ticks, wall in zip(measured["sim_ticks"], walls) if wall > 0]
    attempted, failed = measured["attempted"], measured["failed"]
    metrics = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "sim_ticks_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "check_pass_rate": (attempted - failed) / attempted if attempted else 0.0,
    }
    measured["setups"] = setups
    return metrics, measured


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def per_layer(workload: str, seed: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    os.makedirs(WORK_DIR, exist_ok=True)
    span_file = os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
    untraced = run_worker(["measure", workload, str(seed), "0", "1"])
    traced = run_worker(["trace", workload, str(seed), span_file])
    metrics = dict(traced["metrics"])
    tick_ms = untraced["tick_ms"]
    extra = untraced["extra"]
    metrics.update({
        "service.tick_ms_p50": _percentile(tick_ms, 0.50),
        "service.tick_ms_p99": _percentile(tick_ms, 0.99),
        "service.tick_samples": len(tick_ms),
        "service.admitted": extra.get("admitted", 0),
        "service.retired": extra.get("retired", 0),
        "telemetry.points_streamed": extra.get("points_streamed", 0),
        "telemetry.chunks_rolled": extra.get("chunks_rolled", 0),
        "telemetry.bytes_written": extra.get("bytes_written", 0),
        "trace.overhead_ratio": traced["wall_s"] / untraced["walls"][0]
        if untraced["walls"] else 0.0,
    })
    # Tracing must not perturb the simulation: same outputs either way.
    same_outputs = bool(traced["digests"]) and traced["digests"] == untraced.get("digests")
    combined = {
        "attempted": untraced["attempted"] + traced["attempted"] + 1,
        "failed": untraced["failed"] + traced["failed"] + (not same_outputs),
        "failures": untraced["failures"]
        + traced["failures"]
        + ([] if same_outputs else ["traced outputs differ from untraced outputs"]),
        "env": traced["env"],
        "layer_self_s": traced["layer_self_s"],
        "spans": traced["spans"],
        "span_file": os.path.relpath(span_file, ROOT),
    }
    return metrics, combined


def per_layer_units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in (os.path.join(SRC, "repro"), GOLDENS) if not os.path.exists(path)]
    if missing:
        sys.stderr.write(
            "perfbench: error: run from the root of a full checkout; missing "
            + ", ".join(os.path.relpath(path, ROOT) for path in missing)
            + "\n"
        )
        return 2

    try:
        if args.trace:
            metrics, detail = per_layer(args.workload, args.seed)
            units = per_layer_units()
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        sys.stderr.write(f"perfbench: error: {exc}\n")
        return 1

    env_line, flags = describe_env(detail["env"])
    attempted, failed = detail["attempted"], detail["failed"]
    out = sys.stdout
    out.write(
        f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}\n"
        f"environment: {env_line}\n"
    )
    for flag in flags:
        out.write(f"WARNING: {flag}\n")
    if args.trace:
        out.write(
            f"spans: {detail['spans']} written to {detail['span_file']}\n"
            "layer self time (s): "
            + "  ".join(
                f"{layer} {seconds:.3f}"
                for layer, seconds in sorted(
                    detail["layer_self_s"].items(), key=lambda item: -item[1]
                )
            )
            + "\n"
        )
    else:
        out.write(
            f"repetitions: {len(detail['walls'])} timed "
            f"({', '.join(f'{wall:.3f}' for wall in detail['walls'])} s); "
            f"setup probes: {', '.join(f'{s:.3f}' for s in detail['setups'])} s\n"
        )
    for name in units:
        out.write(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}\n")
    verdict = "correct" if failed == 0 else "INCORRECT"
    out.write(
        f"checks: {attempted} attempted, {failed} failed, error_rate "
        f"{failed / attempted if attempted else 1.0:.6g} -> {verdict}\n"
    )
    for failure in detail["failures"][:10]:
        out.write(f"  failed: {failure.strip().splitlines()[-1]}\n")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
