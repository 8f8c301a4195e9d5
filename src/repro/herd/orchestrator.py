"""The herd orchestrator: crash-resilient, resumable campaign runs.

``repro herd run`` expands a sweep/experiment list into *points*, gives
each point a **content-keyed id** (a hash of the scenario's canonical
serialization, not of its file path — editing a sweep file changes the
ids, so a resume never wrongly skips changed work), journals every
lifecycle transition durably (:mod:`repro.herd.journal`) and drives the
queue over ``--jobs N`` concurrently supervised watchdog workers
(:mod:`repro.herd.pool`).

Failure taxonomy:

* an experiment that *raises* is deterministic — the exception would
  recur on every retry — so it concludes the point (``failed``) with the
  traceback captured in its artifact;
* a worker that **crashes** or **times out** is transient — the point is
  retried under exponential backoff with deterministic jitter
  (:mod:`repro.herd.backoff`) up to ``max_attempts``, after which the
  point is **quarantined**: it gets a synthetic ``ok: false`` artifact
  and the campaign moves on instead of wedging.

``repro herd resume DIR`` replays the journal, skips points whose
content-keyed id already reached ``done``, re-enqueues in-flight and
retryable ones (an orphaned in-flight attempt counts against the
budget), and appends to the same journal — so any number of crashes and
resumes still converges on the same merged campaign document
(:mod:`repro.herd.merge`) an uninterrupted run produces.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.scenario import ScenarioError, dumps_json
from repro.telemetry import MetricsRecorder, recording
from repro.util import wall_clock

from repro.experiments.campaign import (
    CampaignError,
    _run_one_into,
    describe_token,
    failure_artifact,
    watchdog_failure,
    write_artifact,
)
from repro.experiments.registry import (
    REGISTRY,
    expand_names,
    scenario_spec_of,
)

from .backoff import BackoffPolicy
from .journal import (
    JOURNAL_SCHEMA,
    HerdState,
    JournalError,
    JournalWriter,
    PointRecord,
    journal_path,
    replay_journal,
)
from .merge import merge_state, write_summary
from .pool import DEFAULT_GRACE_SEC, SupervisedPool


class HerdError(ValueError):
    """Raised on invalid herd inputs (bad names, bad config, bad resume)."""


@dataclass(frozen=True)
class HerdConfig:
    """Orchestration knobs recorded in the journal header."""

    jobs: int = 1
    timeout_sec: Optional[float] = None
    max_attempts: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    seed: int = 0
    grace_sec: float = DEFAULT_GRACE_SEC

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise HerdError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout_sec is not None and self.timeout_sec <= 0:
            raise HerdError(
                f"timeout_sec must be positive, got {self.timeout_sec}"
            )
        if self.max_attempts < 1:
            raise HerdError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.grace_sec <= 0:
            raise HerdError(f"grace_sec must be positive, got {self.grace_sec}")


class HerdPoint(NamedTuple):
    """One unit of campaign work."""

    point_id: str
    #: Registry name or scenario token — what the worker actually runs.
    token: str
    #: Display/artifact name (sweep points embed their ``@axis=value``).
    name: str


def _digest(content: str) -> str:
    return hashlib.sha256(content.encode("utf-8")).hexdigest()[:16]


def point_for(token: str) -> HerdPoint:
    """Content-keyed identity of one point.

    Registry experiments key on their (stable) name + description; a
    scenario point keys on the canonical JSON of its fully-expanded
    spec, so two tokens denoting the same grid point share an id and an
    edited spec gets a fresh one.  An unresolvable token still gets a
    deterministic id — the failure is the run's to report, not ours.
    """
    if token in REGISTRY:
        spec = REGISTRY[token]
        return HerdPoint(
            _digest(f"registry:{token}:{spec.description}"), token, token
        )
    try:
        spec = scenario_spec_of(token)
    except ScenarioError:
        return HerdPoint(_digest(f"unresolvable:{token}"), token, token)
    return HerdPoint(
        _digest(f"scenario:{dumps_json(spec)}"), token, spec.name
    )


def expand_points(names: Sequence[str]) -> List[HerdPoint]:
    """Expand user input into identified points; raises on unknown names."""
    known, unknown = expand_names(names)
    if unknown:
        raise HerdError(f"unknown experiment(s): {', '.join(unknown)}")
    if not known:
        raise HerdError("no experiments to run")
    return [point_for(token) for token in known]


# -- the drive loop ----------------------------------------------------------


class _QueueEntry(NamedTuple):
    point_id: str
    attempt: int


class _Driver:
    """One orchestration session over an open journal."""

    def __init__(
        self,
        state: HerdState,
        tokens: Dict[str, str],
        json_dir: str,
        config: HerdConfig,
        journal: JournalWriter,
        recorder: MetricsRecorder,
        out: IO[str],
    ) -> None:
        self.state = state
        self.tokens = tokens
        self.json_dir = json_dir
        self.config = config
        self.journal = journal
        self.recorder = recorder
        self.out = out
        self.pending: List[_QueueEntry] = []
        #: (ready_at_wall, point_id, attempt) retry schedule.
        self.waiting: List[Tuple[float, str, int]] = []
        #: point_id -> attempt currently in flight.
        self.in_flight: Dict[str, int] = {}

    # -- queue management ------------------------------------------------------

    def enqueue(self, point: PointRecord) -> None:
        attempt = point.attempts_used + 1
        self.journal.append(
            {"event": "enqueued", "point": point.point_id, "attempt": attempt}
        )
        self.recorder.inc("herd.enqueued")
        point.status = "pending"
        self.pending.append(_QueueEntry(point.point_id, attempt))

    def _promote_ready(self) -> None:
        now = wall_clock()
        still_waiting: List[Tuple[float, str, int]] = []
        for ready_at, point_id, attempt in self.waiting:
            if ready_at <= now:
                self.pending.append(_QueueEntry(point_id, attempt))
            else:
                still_waiting.append((ready_at, point_id, attempt))
        self.waiting = still_waiting

    def _next_ready_delta(self) -> Optional[float]:
        if not self.waiting:
            return None
        return max(0.0, min(entry[0] for entry in self.waiting) - wall_clock())

    # -- outcomes --------------------------------------------------------------

    def _conclude_result(
        self,
        point: PointRecord,
        attempt: int,
        artifact: dict,
        wall_time_sec: float,
    ) -> None:
        path_suffix = write_artifact(self.json_dir, artifact)
        if artifact.get("ok"):
            event = "done"
            point.status = "done"
            self.recorder.inc("herd.done")
        else:
            # The driver raised deterministically: retrying replays the
            # same exception, so the failure is terminal, not transient.
            event = "failed"
            point.status = "failed"
            point.last_error = artifact.get("error")
            self.recorder.inc("herd.failed")
        record = {
            "event": event,
            "point": point.point_id,
            "attempt": attempt,
            "wall_time_sec": round(wall_time_sec, 3),
        }
        if artifact.get("error"):
            record["error"] = artifact["error"]
        self.journal.append(record)
        point.history.append(
            {
                "attempt": attempt,
                "outcome": event,
                "wall_time_sec": round(wall_time_sec, 3),
            }
        )
        label = "done" if event == "done" else "FAILED"
        self.out.write(
            f"[{label}] {point.name} (attempt {attempt}, "
            f"{wall_time_sec:.1f}s)\n"
        )
        del path_suffix  # path only matters to the artifact reader

    def _conclude_transient(
        self,
        point: PointRecord,
        attempt: int,
        kind: str,
        error: str,
        wall_time_sec: float,
    ) -> None:
        self.recorder.inc(
            "herd.crashes" if kind == "crash" else "herd.timeouts"
        )
        self.journal.append(
            {
                "event": kind,
                "point": point.point_id,
                "attempt": attempt,
                "error": error,
                "wall_time_sec": round(wall_time_sec, 3),
            }
        )
        point.history.append(
            {"attempt": attempt, "outcome": kind, "error": error}
        )
        point.last_error = error
        if attempt >= self.config.max_attempts:
            self._quarantine(point, error)
            return
        delay_sec = self.config.backoff.delay_sec(
            self.config.seed, point.point_id, attempt
        )
        next_attempt = attempt + 1
        self.journal.append(
            {
                "event": "retry",
                "point": point.point_id,
                "attempt": next_attempt,
                "delay_sec": round(delay_sec, 6),
            }
        )
        self.recorder.inc("herd.retries")
        point.status = "retry_scheduled"
        self.waiting.append((wall_clock() + delay_sec, point.point_id, next_attempt))
        self.out.write(
            f"[{kind}] {point.name} (attempt {attempt}): {error} — "
            f"retry {next_attempt}/{self.config.max_attempts} in "
            f"{delay_sec:.2f}s\n"
        )

    def _quarantine(self, point: PointRecord, error: str) -> None:
        point.status = "quarantined"
        stable_error = f"quarantined: {error}"
        self.journal.append(
            {
                "event": "quarantined",
                "point": point.point_id,
                "attempts": point.attempts_used,
                "error": stable_error,
            }
        )
        self.recorder.inc("herd.quarantined")
        _display, description = describe_token(self.tokens[point.point_id])
        write_artifact(
            self.json_dir,
            failure_artifact(point.name, description, stable_error, 0.0),
        )
        self.out.write(
            f"[QUARANTINED] {point.name} after "
            f"{point.attempts_used} attempts: {error}\n"
        )

    def _handle_outcome(self, outcome) -> None:
        point = self.state.points[outcome.key]
        attempt = self.in_flight.pop(outcome.key)
        if outcome.kind == "result":
            self._conclude_result(
                point, attempt, outcome.result, outcome.wall_time_sec
            )
            return
        failure = watchdog_failure(
            self.tokens[outcome.key], outcome, self.config.timeout_sec
        )
        self._conclude_transient(
            point, attempt, outcome.kind, failure["error"],
            outcome.wall_time_sec,
        )

    # -- main loop -------------------------------------------------------------

    def drive(self) -> None:
        pool = SupervisedPool(
            target=_run_one_into,
            jobs=self.config.jobs,
            timeout_sec=self.config.timeout_sec,
            grace_sec=self.config.grace_sec,
        )
        try:
            while self.pending or self.waiting or pool.active:
                self._promote_ready()
                while pool.free_slots > 0 and self.pending:
                    entry = self.pending.pop(0)
                    point = self.state.points[entry.point_id]
                    self.journal.append(
                        {
                            "event": "started",
                            "point": entry.point_id,
                            "attempt": entry.attempt,
                        }
                    )
                    self.recorder.inc("herd.attempts")
                    point.status = "running"
                    point.attempts_used = max(point.attempts_used, entry.attempt)
                    self.in_flight[entry.point_id] = entry.attempt
                    pool.launch(
                        entry.point_id, (self.tokens[entry.point_id], None)
                    )
                if pool.active:
                    for outcome in pool.wait(0.25):
                        self._handle_outcome(outcome)
                elif self.waiting:
                    delta = self._next_ready_delta()
                    if delta:
                        time.sleep(min(delta, 0.05))
        finally:
            pool.shutdown()


# -- entry points ------------------------------------------------------------


def _open_state(
    points: List[HerdPoint], config: HerdConfig, json_dir: str
) -> Tuple[HerdState, JournalWriter]:
    """Create a fresh journal + state for ``herd run``."""
    writer = JournalWriter(journal_path(json_dir))
    header = {
        "schema": JOURNAL_SCHEMA,
        "event": "campaign",
        "created_wall_sec": round(wall_clock(), 3),
        "jobs": config.jobs,
        "timeout_sec": config.timeout_sec,
        "max_attempts": config.max_attempts,
        "seed": config.seed,
        "backoff": config.backoff.to_dict(),
        "points": [
            {"id": point.point_id, "name": point.name, "token": point.token}
            for point in points
        ],
    }
    writer.append(header)
    state = HerdState(header=header, points={}, clean=True)
    for point in points:
        state.points[point.point_id] = PointRecord(
            point_id=point.point_id, name=point.name
        )
    return state, writer


def _drive_session(
    state: HerdState,
    enqueue: List[PointRecord],
    json_dir: str,
    config: HerdConfig,
    writer: JournalWriter,
    out: IO[str],
) -> int:
    """Shared tail of run/resume: drive, merge, report, exit code."""
    recorder = MetricsRecorder()
    tokens = {
        entry["id"]: entry["token"] for entry in state.header.get("points", [])
    }
    driver = _Driver(state, tokens, json_dir, config, writer, recorder, out)
    with recording(recorder):
        for point in enqueue:
            driver.enqueue(point)
        driver.drive()
    summary = merge_state(state, json_dir, recorder.counters)
    path = write_summary(summary, json_dir)
    out.write(f"herd summary written to {path}\n")
    counts = state.counts()
    out.write(
        f"herd: {counts['done']} done, {counts['failed']} failed, "
        f"{counts['quarantined']} quarantined "
        f"(of {len(state.points)} points)\n"
    )
    bad = counts["failed"] + counts["quarantined"]
    incomplete = len(state.points) - counts["done"] - bad
    return 1 if bad or incomplete else 0


def run_herd(
    names: Sequence[str],
    json_dir: str,
    config: Optional[HerdConfig] = None,
    out: IO[str] = sys.stdout,
) -> int:
    """``repro herd run``: fresh campaign into ``json_dir``.

    Refuses to clobber an existing journal — that is what ``resume`` is
    for.  Returns the process exit code (0 = every point done).
    """
    config = config if config is not None else HerdConfig()
    try:
        existing = replay_journal(journal_path(json_dir))
    except JournalError:
        existing = None
    if existing is not None:
        raise HerdError(
            f"{json_dir} already holds a herd journal; use 'repro herd "
            f"resume {json_dir}' (or pick a fresh directory)"
        )
    points = expand_points(names)
    state, writer = _open_state(points, config, json_dir)
    out.write(
        f"== herd: {len(points)} points, jobs {config.jobs}, "
        f"max attempts {config.max_attempts} ==\n"
    )
    with writer:
        return _drive_session(
            state, list(state.points.values()), json_dir, config, writer, out
        )


def _config_from_header(header: Dict[str, object], jobs: Optional[int]) -> HerdConfig:
    timeout = header.get("timeout_sec")
    return HerdConfig(
        jobs=int(jobs if jobs is not None else header.get("jobs", 1) or 1),
        timeout_sec=float(timeout) if timeout is not None else None,  # type: ignore[arg-type]
        max_attempts=int(header.get("max_attempts", 3) or 3),  # type: ignore[call-overload]
        backoff=BackoffPolicy.from_dict(
            dict(header.get("backoff", {}) or {})  # type: ignore[call-overload]
        ),
        seed=int(header.get("seed", 0) or 0),  # type: ignore[call-overload]
    )


def resume_herd(
    json_dir: str,
    jobs: Optional[int] = None,
    out: IO[str] = sys.stdout,
) -> int:
    """``repro herd resume``: pick a journalled campaign back up.

    Completed points are skipped by content-keyed id; in-flight and
    retry-eligible points are re-enqueued (orphaned attempts count
    against the budget — a point whose budget is already spent is
    quarantined right here rather than re-run).  Orchestration knobs
    come from the journal header; ``jobs`` may be overridden.
    """
    state = replay_journal(journal_path(json_dir))
    config = _config_from_header(state.header, jobs)
    writer = JournalWriter(journal_path(json_dir))
    recorder_skips = 0
    enqueue: List[PointRecord] = []
    quarantine_now: List[PointRecord] = []
    for point in state.points.values():
        if point.status == "done":
            recorder_skips += 1
        elif point.status in ("failed", "quarantined"):
            continue
        elif point.attempts_used >= config.max_attempts:
            quarantine_now.append(point)
        else:
            enqueue.append(point)
    out.write(
        f"== herd resume: {len(state.points)} points "
        f"({recorder_skips} already done, {len(enqueue)} re-enqueued, "
        f"jobs {config.jobs}) ==\n"
    )
    with writer:
        writer.append(
            {
                "event": "resumed",
                "jobs": config.jobs,
                "skipped_done": recorder_skips,
            }
        )
        state.resumes += 1
        recorder = MetricsRecorder()
        tokens = {
            entry["id"]: entry["token"]
            for entry in state.header.get("points", [])
        }
        driver = _Driver(
            state, tokens, json_dir, config, writer, recorder, out
        )
        recorder.inc("herd.resume.skips", recorder_skips)
        with recording(recorder):
            for point in quarantine_now:
                error = point.last_error or "attempt budget exhausted"
                driver._quarantine(point, error)
            for point in enqueue:
                driver.enqueue(point)
            driver.drive()
        summary = merge_state(state, json_dir, recorder.counters)
        path = write_summary(summary, json_dir)
        out.write(f"herd summary written to {path}\n")
        counts = state.counts()
        out.write(
            f"herd: {counts['done']} done, {counts['failed']} failed, "
            f"{counts['quarantined']} quarantined "
            f"(of {len(state.points)} points)\n"
        )
        bad = counts["failed"] + counts["quarantined"]
        incomplete = len(state.points) - counts["done"] - bad
        return 1 if bad or incomplete else 0


def herd_status(json_dir: str, out: IO[str] = sys.stdout) -> int:
    """``repro herd status``: replay the journal, print queue state."""
    try:
        state = replay_journal(journal_path(json_dir))
    except JournalError as exc:
        sys.stderr.write(f"repro herd: error: {exc}\n")
        return 2
    counts = state.counts()
    tail = "" if state.clean else " (journal ends mid-write: crashed run)"
    out.write(
        f"herd campaign in {json_dir}: {len(state.points)} points, "
        f"{state.resumes} resume(s){tail}\n"
    )
    for status in (
        "done",
        "failed",
        "quarantined",
        "running",
        "retry_scheduled",
        "attempt_failed",
        "pending",
    ):
        if counts[status]:
            out.write(f"  {status:15s} {counts[status]}\n")
    for point in state.points.values():
        if point.status in ("failed", "quarantined"):
            out.write(
                f"  [{point.status}] {point.name} "
                f"(attempts {point.attempts_used}): {point.last_error}\n"
            )
    return 0


__all__ = [
    "CampaignError",
    "HerdConfig",
    "HerdError",
    "HerdPoint",
    "expand_points",
    "herd_status",
    "point_for",
    "resume_herd",
    "run_herd",
]
