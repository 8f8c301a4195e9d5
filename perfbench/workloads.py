"""The benchmark's three workloads: build, timed body, output checks.

Each workload is a :class:`Workload` with three steps:

* ``prepare(seed)`` — everything a fresh process needs before the first
  timed run: imports, the reference pins, and one built instance (so
  ``setup_s`` covers scenario or system construction);
* ``build(seed)`` — a fresh instance for one timed repetition (untimed);
* ``body(instance)`` — the timed work; returns a :class:`RepResult`
  holding what the checks need, never timing anything itself except the
  per-tick latencies the service loop exposes.

:func:`check` compares a repetition's outputs with the goldens
(``paper_campaign``), with the pinned digests (default seed) or with the
first repetition of the same process (any other seed).  Every check is
counted: a failed comparison or a raised exception is one failed check.

The program only ever receives generated inputs: the seed reaches
``VirtualizedSystem(seed=)`` and ``ScenarioSpec.system.seed`` and nothing
else of the benchmark's own state.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")
GOLDENS_PATH = os.path.join(ROOT, "tests", "goldens", "experiment_goldens.json")
#: Scratch space for stream directories and span dumps (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: The seed the pinned digests were recorded with.
DEFAULT_SEED = 0

#: Fig 5 colocation under replay attribution: ticks per repetition.
REPLAY_WARMUP_TICKS = 10
REPLAY_MEASURE_TICKS = 100

#: Churn soak: ticks per repetition, driven one ``run(1)`` at a time.
CHURN_TICKS = 1000
CHURN_RATE_PER_TICK = 0.25
CHURN_LIFETIME_MEAN_TICKS = 200.0
CHURN_MAX_VCPUS = 128
CHURN_APPS = ("gcc", "lbm", "mcf", "povray")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_digest(document: Any) -> str:
    return sha256_text(json.dumps(document, sort_keys=True, separators=(",", ":")))


def load_pins() -> Dict[str, str]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


@dataclass
class RepResult:
    """What one timed repetition produced (inputs to the checks)."""

    #: Simulated scheduler ticks completed in the timed body.
    sim_ticks: int
    #: name -> sha256 of an output the checks compare.
    digests: Dict[str, str]
    #: Invariant checks evaluated on the outputs: name -> passed.
    invariants: Dict[str, bool] = field(default_factory=dict)
    #: Host milliseconds of each service-loop tick (churn_service only).
    tick_ms: List[float] = field(default_factory=list)
    #: Workload-specific values the traced run reports.
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    prepare: Callable[[int], Dict[str, Any]]
    build: Callable[[int], Any]
    body: Callable[[Any], RepResult]
    #: Release what ``build`` created outside the process (stream dirs).
    cleanup: Callable[[Any], None] = lambda instance: None


# -- paper_campaign ------------------------------------------------------------


def _campaign_prepare(seed: int) -> Dict[str, Any]:
    from repro.experiments.registry import REGISTRY, experiment_names

    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        goldens = json.load(handle)["reports"]
    names = experiment_names()
    missing = [name for name in names if name not in goldens or name not in REGISTRY]
    if missing:
        raise RuntimeError(f"no golden or registry entry for {missing}")
    return {"expected": {name: goldens[name] for name in names}}


def _campaign_build(seed: int) -> List[Tuple[str, Callable[[], str]]]:
    # The goldens fix the experiments' own seeds, so ``seed`` is unused.
    from repro.experiments.registry import REGISTRY, experiment_names

    return [(name, REGISTRY[name].runner) for name in experiment_names()]


class _TickCounter:
    """Counts simulated ticks of every system built during a block.

    Wraps ``VirtualizedSystem.__init__`` to keep each new system's clock
    (a two-field object, so no system stays alive); ticks are read off
    the clocks afterwards.  Construction is rare, so this costs nothing
    measurable inside the timed body.
    """

    def __enter__(self) -> "_TickCounter":
        from repro.hypervisor.system import VirtualizedSystem

        self._cls = VirtualizedSystem
        self._original = original = VirtualizedSystem.__init__
        self.clocks: List[Tuple[Any, int]] = []
        clocks = self.clocks

        def counting_init(system, *args, **kwargs):
            original(system, *args, **kwargs)
            clocks.append((system.engine.clock, system.tick_usec))

        VirtualizedSystem.__init__ = counting_init
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._cls.__init__ = self._original

    @property
    def ticks(self) -> int:
        return sum(clock.now_usec // tick_usec for clock, tick_usec in self.clocks)


def _campaign_body(runners: List[Tuple[str, Callable[[], str]]]) -> RepResult:
    digests: Dict[str, str] = {}
    with _TickCounter() as counter:
        for name, runner in runners:
            digests[name] = sha256_text(runner())
    return RepResult(sim_ticks=counter.ticks, digests=digests)


# -- replay_attribution --------------------------------------------------------


def replay_spec(seed: int):
    """Fig 5 colocation (gcc vs lbm, 250k permits each) on the ``numa``
    preset under KS4Xen, attributed by simulator replay, no faults."""
    from repro.scenario import (
        MachineSpecChoice,
        MonitorSpec,
        ScenarioSpec,
        SchedulerChoice,
        SystemSpec,
        VmSpec,
        WorkloadSpec,
    )
    from repro.scenario.defaults import PAPER_LLC_CAP

    return ScenarioSpec(
        name="perfbench-replay-attribution",
        machine=MachineSpecChoice(preset="numa"),
        scheduler=SchedulerChoice(kind="ks4xen"),
        system=SystemSpec(seed=seed),
        monitor=MonitorSpec(strategy="replay"),
        vms=(
            VmSpec(
                name="vsen1",
                workload=WorkloadSpec(app="gcc"),
                llc_cap=PAPER_LLC_CAP,
                pinned_cores=(0,),
            ),
            VmSpec(
                name="vdis",
                workload=WorkloadSpec(app="lbm"),
                llc_cap=PAPER_LLC_CAP,
                pinned_cores=(1,),
            ),
        ),
    )


def _replay_build(seed: int):
    from repro.scenario import materialize

    return materialize(replay_spec(seed))


def _replay_prepare(seed: int) -> Dict[str, Any]:
    _replay_build(seed)
    return {"pins": load_pins()}


def _replay_body(built) -> RepResult:
    """10 warm-up + 100 measured ticks; the digest covers vsen1's IPC,
    both VMs' punishments, the replay service's request accounting and
    the last replay report of each VM."""
    from repro.scenario.protocol import measured_ipc

    sen, dis = built.vm("vsen1"), built.vm("vdis")
    ipc = measured_ipc(
        built.system, sen, REPLAY_WARMUP_TICKS, REPLAY_MEASURE_TICKS
    )
    engine = built.kyoto
    service = built.monitor.replay_service
    stats = service.stats
    reports = {}
    for vm in (sen, dis):
        cached = service.cached_report(vm)
        if cached is not None:
            report = cached[0]
            reports[vm.name] = [
                report.instructions,
                repr(report.cycles),
                report.llc_accesses,
                report.llc_misses,
            ]
    outputs = {
        "vsen1_ipc": repr(ipc),
        "punishments": [engine.punishments(sen), engine.punishments(dis)],
        "replay_stats": {
            "requests": stats.requests,
            "replays": stats.replays,
            "cache_hits": stats.cache_hits,
            "stale_hits": stats.stale_hits,
        },
        "replay_reports": reports,
    }
    return RepResult(
        sim_ticks=REPLAY_WARMUP_TICKS + REPLAY_MEASURE_TICKS,
        digests={"replay_attribution": canonical_digest(outputs)},
        invariants={"replays_ran": stats.replays > 0},
    )


# -- churn_service -------------------------------------------------------------


def wide_machine():
    """4 sockets x 16 cores, 20 MiB LLC per socket: the geometry of the
    in-tree ``vm_churn_soak`` micro-benchmark, built from public types."""
    from repro.hardware.latency import PAPER_LATENCIES
    from repro.hardware.specs import KIB, MIB, CacheSpec, MachineSpec, SocketSpec

    socket = SocketSpec(
        cores=16,
        freq_khz=2_800_000,
        l1d=CacheSpec("L1D", 32 * KIB, 8),
        l1i=CacheSpec("L1I", 32 * KIB, 8),
        l2=CacheSpec("L2", 256 * KIB, 8),
        llc=CacheSpec("LLC", 20 * MIB, 20, shared=True),
    )
    return MachineSpec(
        name="perfbench-4s64c",
        sockets=(socket,) * 4,
        memory_bytes=4 * 32_768 * MIB,
        latency=PAPER_LATENCIES,
    )


@dataclass
class ChurnInstance:
    loop: Any
    recorder: Any
    sink: Any
    stream_dir: str


def _churn_build(seed: int) -> ChurnInstance:
    from repro.core.ks4xen import KS4Xen
    from repro.hypervisor.system import VirtualizedSystem
    from repro.scenario.defaults import PAPER_LLC_CAP
    from repro.service import (
        CapacityCapAdmission,
        ChurnGenerator,
        ServiceLoop,
        VmTemplate,
    )
    from repro.telemetry import MetricsRecorder, StreamingSink
    from repro.workloads.profiles import application_workload

    os.makedirs(WORK_DIR, exist_ok=True)
    stream_dir = tempfile.mkdtemp(prefix="stream-", dir=WORK_DIR)
    sink = StreamingSink(os.path.join(stream_dir, "stream"))
    recorder = MetricsRecorder(sink=sink)
    system = VirtualizedSystem(
        KS4Xen(), wide_machine(), seed=seed, recorder=recorder
    )
    churn = ChurnGenerator(
        system.rng.stream("service.arrivals"),
        system.rng.stream("service.lifetimes"),
        process="poisson",
        rate_per_tick=CHURN_RATE_PER_TICK,
        lifetime_kind="exponential",
        lifetime_mean_ticks=CHURN_LIFETIME_MEAN_TICKS,
    )
    templates = [
        VmTemplate(
            name=app,
            make_workload=lambda app=app: application_workload(app),
            llc_cap=PAPER_LLC_CAP,
            memory_node=node,
        )
        for node, app in enumerate(CHURN_APPS)
    ]
    loop = ServiceLoop(
        system,
        churn,
        CapacityCapAdmission(max_vcpus=CHURN_MAX_VCPUS),
        templates,
        system.rng.stream("service.templates"),
        drain_at_end=False,
    )
    return ChurnInstance(loop, recorder, sink, stream_dir)


def _churn_prepare(seed: int) -> Dict[str, Any]:
    _churn_cleanup(_churn_build(seed))
    return {"pins": load_pins()}


def _churn_body(instance: ChurnInstance) -> RepResult:
    loop = instance.loop
    clock = time.perf_counter
    tick_ms: List[float] = []
    for _ in range(CHURN_TICKS):
        started = clock()
        loop.run(1)
        tick_ms.append((clock() - started) * 1e3)
    loop.drain_at_end = True
    summary = loop.run(0)
    instance.sink.close(instance.recorder)
    return _churn_result(instance, summary, tick_ms)


def _churn_result(
    instance: ChurnInstance, summary: Dict[str, Any], tick_ms: List[float]
) -> RepResult:
    from repro.telemetry import read_stream

    sink = instance.sink
    stream = read_stream(sink.directory)
    points_read = sum(len(series) for series in stream.series.values())
    return RepResult(
        sim_ticks=int(summary["ticks_run"]),
        digests={"churn_service": canonical_digest(summary)},
        invariants={
            "admitted_eq_retired_plus_drained": summary["admitted"]
            == summary["retired"] + summary["drained"],
            "stream_reads_back_every_point": stream.clean
            and stream.finalized
            and points_read == sink.points_streamed,
        },
        tick_ms=tick_ms,
        extra={
            "admitted": float(summary["admitted"]),
            "retired": float(summary["retired"]),
            "points_streamed": float(sink.points_streamed),
            "chunks_rolled": float(sink.chunks_rolled),
            "bytes_written": float(_tree_bytes(sink.directory)),
        },
    )


def _tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, entry))
        for entry in os.listdir(directory)
    )


def _churn_cleanup(instance: ChurnInstance) -> None:
    if not instance.sink.closed:
        instance.sink.close()
    shutil.rmtree(instance.stream_dir, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {
    "paper_campaign": Workload(
        "paper_campaign", _campaign_prepare, _campaign_build, _campaign_body
    ),
    "replay_attribution": Workload(
        "replay_attribution", _replay_prepare, _replay_build, _replay_body
    ),
    "churn_service": Workload(
        "churn_service",
        _churn_prepare,
        _churn_build,
        _churn_body,
        _churn_cleanup,
    ),
}


def check(
    name: str,
    seed: int,
    result: RepResult,
    prepared: Dict[str, Any],
    first: Optional[RepResult],
) -> List[Tuple[str, bool]]:
    """Every output check of one repetition, as ``(label, passed)``.

    ``paper_campaign`` compares each report with the experiment goldens.
    The other workloads compare their digest with the pin at the default
    seed, and with the process's first repetition at any other seed
    (a digest must repeat for the same inputs).
    """
    checks: List[Tuple[str, bool]] = []
    if name == "paper_campaign":
        expected = prepared["expected"]
        for item, digest in sorted(expected.items()):
            checks.append((f"golden:{item}", result.digests.get(item) == digest))
    else:
        for key, digest in sorted(result.digests.items()):
            # The label carries the digest so a failure shows the new value.
            if seed == DEFAULT_SEED:
                checks.append(
                    (f"pin:{key} got {digest}", digest == prepared["pins"].get(key))
                )
            elif first is not None:
                checks.append(
                    (f"repeat:{key} got {digest}", digest == first.digests.get(key))
                )
    for label, passed in sorted(result.invariants.items()):
        checks.append((label, passed))
    return checks
