"""Span tracing of the simulator's layers, from outside the program.

:class:`Tracer` installs class-level wrappers on the public methods at
each layer boundary (named after the ``src/repro`` module that owns
them), records one span per call — name, start, end, parent span and
run id — in flat in-memory arrays, and removes every wrapper again in
:meth:`Tracer.uninstall` (callers do so in a ``finally``).  Calls made
millions of times (set-associative cache accesses, stream appends) are
not wrapped: their counts are read afterwards from the stats objects the
program keeps anyway.

A span's *layer self time* is its duration minus the time covered by
descendant spans of other layers; nested spans of the same layer (a
subclass hook calling ``super()``, a sink flush inside a compaction)
stay inside it.  :meth:`Tracer.metrics` derives every per-layer metric
from the spans and counters; :meth:`Tracer.dump` writes the spans out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: Paper items ``repro run all`` executes, in order (one span each).
EXPERIMENTS = (
    "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
)

#: Monitor class -> strategy name used in ``core.monitor_sample_*``.
MONITOR_STRATEGIES = {
    "DirectPmcMonitor": "direct",
    "SocketDedicationMonitor": "dedication",
    "McSimReplayMonitor": "replay",
}

TICK_SPANS = (
    "hypervisor.run_ticks",
    "hypervisor.run_ticks_until",
    "hypervisor.run_until_finished",
)


def _subclasses(base: type) -> List[type]:
    """``base`` and every loaded subclass of it, each once."""
    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = [-1]
        self.run_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []
        self._tick_depth = 0
        #: Outermost simulated ticks, and ticks x substeps x sockets.
        self.ticks = 0
        self.substep_sockets = 0
        self.idle_core_ticks = 0
        self.punishments = 0
        self.flush_owner_calls = 0
        #: Stats objects captured at construction (read after the run).
        self.cache_stats: List[Any] = []
        self.replay_stats: List[Any] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return name_id

    def _span(self, name_id: int, call: Callable[[], Any]) -> Any:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        try:
            return call()
        finally:
            self.span_end[index] = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, layer: str, function: Callable) -> Callable:
        """``function`` wrapped so each call records one span."""
        name_id = self._intern(name, layer)
        span = self._span

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return span(name_id, lambda: function(*args, **kwargs))

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_defined(
        self, classes: Iterable[type], attr: str, name: str, layer: str
    ) -> None:
        """Wrap ``attr`` on each class that defines it concretely."""
        for cls in classes:
            function = cls.__dict__.get(attr)
            if function is None or getattr(function, "__isabstractmethod__", False):
                continue
            self._replace(cls, attr, self.traced(name, layer, function))

    def _wrap_module_function(self, module: Any, attr: str, name: str, layer: str) -> None:
        """Wrap a module-level function in every loaded ``repro`` module
        that bound it (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = self.traced(name, layer, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            if loaded.__dict__.get(attr) is original:
                self._replace(loaded, attr, wrapper)

    def _wrap_ticks(self, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        name_id = self._intern(f"hypervisor.{attr}", "hypervisor")
        tracer = self

        @functools.wraps(original)
        def wrapper(system, *args, **kwargs):
            outermost = tracer._tick_depth == 0
            before = system.tick_index
            tracer._tick_depth += 1
            try:
                return tracer._span(
                    name_id, lambda: original(system, *args, **kwargs)
                )
            finally:
                tracer._tick_depth -= 1
                if outermost:
                    ran = system.tick_index - before
                    tracer.ticks += ran
                    tracer.substep_sockets += (
                        ran * system.substeps_per_tick * len(system.llc_domains)
                    )

        self._replace(cls, attr, wrapper)

    def _wrap_tick_start(self, cls: type) -> None:
        original = cls.__dict__["on_tick_start"]
        name_id = self._intern("schedulers.on_tick_start", "schedulers")
        tracer = self

        @functools.wraps(original)
        def wrapper(scheduler, *args, **kwargs):
            for core in scheduler.system.machine.cores:
                if core.running is None:
                    tracer.idle_core_ticks += 1
            return tracer._span(
                name_id, lambda: original(scheduler, *args, **kwargs)
            )

        self._replace(cls, "on_tick_start", wrapper)

    def _wrap_after(self, cls: type, attr: str, after: Callable[[Any, Any], None]) -> None:
        """Count-only hook: ``after(instance, result)`` once per call."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(instance, *args, **kwargs):
            result = original(instance, *args, **kwargs)
            after(instance, result)
            return result

        self._replace(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary; pair with :meth:`uninstall`."""
        from repro.cachesim.occupancy import LlcOccupancyDomain
        from repro.cachesim.setassoc import SetAssociativeCache
        from repro.core.engine import KyotoEngine
        from repro.core.monitor import PollutionMonitor
        from repro.core.pollution import PollutionAccount
        from repro.hypervisor.system import VirtualizedSystem
        from repro.mcsim.pin import PinTool
        from repro.mcsim.replay import McSimReplayer
        from repro.mcsim.service import ReplayService
        from repro.pmc.perfctr import PerfctrVirtualizer
        from repro.schedulers.base import Scheduler
        from repro.telemetry.recorder import MetricsRecorder
        from repro.telemetry.stream import StreamingSink

        try:
            for attr in ("run_ticks", "run_ticks_until", "run_until_finished"):
                self._wrap_ticks(VirtualizedSystem, attr)
            for attr in ("context_switch", "migrate_vcpu", "admit_vm", "retire_vm"):
                self._wrap_defined(
                    [VirtualizedSystem], attr, f"hypervisor.{attr}", "hypervisor"
                )

            schedulers = _subclasses(Scheduler)
            for cls in schedulers:
                function = cls.__dict__.get("on_tick_start")
                if function is not None and not getattr(
                    function, "__isabstractmethod__", False
                ):
                    self._wrap_tick_start(cls)
            for attr in ("on_tick_end", "on_accounting", "refill_core", "reassign_vcpu"):
                self._wrap_defined(schedulers, attr, f"schedulers.{attr}", "schedulers")

            self._wrap_defined([KyotoEngine], "on_tick_end", "core.kyoto.on_tick_end", "core.kyoto")
            self._wrap_defined([KyotoEngine], "on_accounting", "core.kyoto.on_accounting", "core.kyoto")
            for cls in _subclasses(PollutionMonitor):
                strategy = MONITOR_STRATEGIES.get(cls.__name__, cls.__name__)
                self._wrap_defined(
                    [cls], "sample", f"core.monitor.{strategy}.sample", "core.monitor"
                )

            def count_punishment(account, newly_punished) -> None:
                if newly_punished:
                    self.punishments += 1

            self._wrap_after(PollutionAccount, "debit", count_punishment)

            self._wrap_defined([LlcOccupancyDomain], "relax", "cachesim.relax", "cachesim")

            def count_flush(domain, result) -> None:
                self.flush_owner_calls += 1

            self._wrap_after(LlcOccupancyDomain, "flush_owner", count_flush)
            self._wrap_after(
                SetAssociativeCache,
                "__init__",
                lambda cache, result: self.cache_stats.append(cache.stats),
            )

            self._wrap_after(
                ReplayService,
                "__init__",
                lambda service, result: self.replay_stats.append(service.stats),
            )
            self._wrap_defined([ReplayService], "replay_vm", "mcsim.replay_vm", "mcsim")
            self._wrap_defined([PinTool], "capture", "mcsim.capture", "mcsim")
            self._wrap_defined([McSimReplayer], "replay", "mcsim.replay", "mcsim")

            self._wrap_defined(
                [PerfctrVirtualizer], "context_switch_in", "pmc.switch", "pmc"
            )
            self._wrap_defined(
                [PerfctrVirtualizer], "context_switch_out", "pmc.switch", "pmc"
            )
            self._wrap_defined([PerfctrVirtualizer], "sample", "pmc.sample", "pmc")

            self._wrap_module_function(
                importlib.import_module("repro.scenario.materialize"),
                "materialize",
                "scenario.materialize",
                "scenario",
            )

            self._wrap_defined(
                [StreamingSink], "flush_series", "telemetry.flush_series", "telemetry"
            )
            self._wrap_defined([StreamingSink], "close", "telemetry.close", "telemetry")
            self._wrap_defined(
                [MetricsRecorder],
                "compact_retired_series",
                "telemetry.compact_retired_series",
                "telemetry",
            )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def _durations(self) -> Tuple[List[float], List[float]]:
        """Per span: duration and layer self time (see module doc)."""
        count = len(self.span_name)
        names, parents, layers = self.span_name, self.span_parent, self.layers
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        covered = [0.0] * count
        # Children always follow their parent, so a reverse pass sees
        # every child before the parent it reports into.
        for index in range(count - 1, -1, -1):
            parent = parents[index]
            if parent < 0:
                continue
            if layers[names[index]] == layers[names[parent]]:
                covered[parent] += covered[index]
            else:
                covered[parent] += duration[index]
        return duration, [duration[i] - covered[i] for i in range(count)]

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric the spans and counters support."""
        duration, layer_self = self._durations()
        names, parents, layers = self.span_name, self.span_parent, self.layers
        name_of = self.names
        calls: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        entry_self: Dict[str, float] = {}
        steals = 0
        for index, name_id in enumerate(names):
            name = name_of[name_id]
            parent = parents[index]
            parent_id = names[parent] if parent >= 0 else -1
            if parent_id == name_id:
                continue  # super() call of the same hook: counted once
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration[index]
            if parent_id < 0 or layers[parent_id] != layers[name_id]:
                entry_self[name] = entry_self.get(name, 0.0) + layer_self[index]
            if (
                name == "schedulers.reassign_vcpu"
                and parent_id >= 0
                and name_of[parent_id] == "schedulers.on_tick_start"
            ):
                steals += 1

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        ticks = self.ticks
        tick_self = sum(entry_self.get(name, 0.0) for name in TICK_SPANS)
        accesses = sum(stats.total.accesses for stats in self.cache_stats)
        replay_s = inclusive.get("mcsim.replay", 0.0)
        requests = sum(stats.requests for stats in self.replay_stats)
        out: Dict[str, float] = {}
        for item in EXPERIMENTS:
            out[f"experiments.{item}_s"] = inclusive.get(f"experiments.{item}", 0.0)
        out.update({
            "scenario.materialize_s": inclusive.get("scenario.materialize", 0.0),
            "scenario.materialize_calls": calls.get("scenario.materialize", 0),
            "hypervisor.ticks": ticks,
            "hypervisor.tick_self_us": ratio(tick_self * 1e6, ticks),
            "hypervisor.context_switch_calls": calls.get("hypervisor.context_switch", 0),
            "hypervisor.migrate_vcpu_calls": calls.get("hypervisor.migrate_vcpu", 0),
            "hypervisor.admit_vm_us": ratio(
                inclusive.get("hypervisor.admit_vm", 0.0) * 1e6,
                calls.get("hypervisor.admit_vm", 0),
            ),
            "hypervisor.retire_vm_us": ratio(
                inclusive.get("hypervisor.retire_vm", 0.0) * 1e6,
                calls.get("hypervisor.retire_vm", 0),
            ),
            "schedulers.tick_start_s": entry_self.get("schedulers.on_tick_start", 0.0),
            "schedulers.tick_end_self_s": entry_self.get("schedulers.on_tick_end", 0.0),
            "schedulers.accounting_self_s": entry_self.get("schedulers.on_accounting", 0.0),
            "schedulers.refill_core_calls": calls.get("schedulers.refill_core", 0),
            "schedulers.steals": steals,
            "schedulers.idle_core_ticks": self.idle_core_ticks,
            "schedulers.steal_yield": ratio(steals, self.idle_core_ticks),
            "cachesim.relax_calls": calls.get("cachesim.relax", 0),
            "cachesim.relax_s": inclusive.get("cachesim.relax", 0.0),
            "cachesim.relax_per_substep": ratio(
                calls.get("cachesim.relax", 0), self.substep_sockets
            ),
            "cachesim.flush_owner_calls": self.flush_owner_calls,
            "cachesim.setassoc_accesses": accesses,
            "cachesim.setassoc_hits": sum(s.total.hits for s in self.cache_stats),
            "cachesim.setassoc_misses": sum(s.total.misses for s in self.cache_stats),
            "cachesim.setassoc_ns_per_access": ratio(replay_s * 1e9, accesses),
            "mcsim.requests": requests,
            "mcsim.replays": sum(stats.replays for stats in self.replay_stats),
            "mcsim.cache_hit_ratio": ratio(
                sum(stats.cache_hits for stats in self.replay_stats), requests
            ),
            "mcsim.capture_s": inclusive.get("mcsim.capture", 0.0),
            "mcsim.replay_s": replay_s,
            "pmc.switch_calls": calls.get("pmc.switch", 0),
            "pmc.switch_s": inclusive.get("pmc.switch", 0.0),
            "pmc.sample_calls": calls.get("pmc.sample", 0),
            "pmc.sample_s": inclusive.get("pmc.sample", 0.0),
            "core.kyoto_tick_end_self_s": entry_self.get("core.kyoto.on_tick_end", 0.0),
            "core.kyoto_accounting_s": entry_self.get("core.kyoto.on_accounting", 0.0),
        })
        for strategy in sorted(set(MONITOR_STRATEGIES.values())):
            span = f"core.monitor.{strategy}.sample"
            out[f"core.monitor_sample_calls.{strategy}"] = calls.get(span, 0)
            out[f"core.monitor_sample_s.{strategy}"] = entry_self.get(span, 0.0)
        out.update({
            "core.punishments": self.punishments,
            "telemetry.flush_series_s": inclusive.get("telemetry.flush_series", 0.0),
            "telemetry.compact_s": inclusive.get("telemetry.compact_retired_series", 0.0),
            "telemetry.close_s": inclusive.get("telemetry.close", 0.0),
        })
        return out

    def layer_self_totals(self) -> Dict[str, float]:
        """Total layer self time per layer (for the human-readable view)."""
        _, layer_self = self._durations()
        names, parents, layers = self.span_name, self.span_parent, self.layers
        totals: Dict[str, float] = {}
        for index, name_id in enumerate(names):
            layer = layers[name_id]
            parent = parents[index]
            if parent >= 0 and layers[names[parent]] == layer:
                continue  # already inside the enclosing span's layer self time
            totals[layer] = totals.get(layer, 0.0) + layer_self[index]
        return totals

    def dump(self, path: str) -> int:
        """Write the spans as gzip'd tab-separated rows; returns rows."""
        names = self.names
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\trun\n")
            for index in range(len(self.span_name)):
                handle.write(
                    f"{index}\t{names[self.span_name[index]]}\t"
                    f"{self.span_start[index] - origin:.9f}\t"
                    f"{self.span_end[index] - origin:.9f}\t"
                    f"{self.span_parent[index]}\t{self.span_run[index]}\n"
                )
        return len(self.span_name)
