"""Herd orchestrator: lifecycle semantics, retries, quarantine, resume."""

import io
import json
import os
import time

import pytest

from repro import herd
from repro.cli import main
from repro.experiments.registry import REGISTRY, ExperimentSpec
from repro.herd.journal import journal_path, replay_journal
from repro.herd.merge import normalized_for_comparison, summary_path

#: Fast deterministic backoff for tests: retries land in ~0.05s.
FAST_BACKOFF = herd.BackoffPolicy(
    base_delay_sec=0.05, multiplier=2.0, max_delay_sec=0.2, jitter_frac=0.1
)


def _poison():
    os._exit(7)


def _boom():
    raise RuntimeError("deterministic failure")


def _flaky():
    marker = os.environ["HERD_TEST_MARKER"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(5)
    return "flaky report\n"


def _hang():
    time.sleep(600)
    return "never\n"


@pytest.fixture
def fixture_registry(monkeypatch, tmp_path):
    """Register the failure-mode zoo; children inherit via fork."""
    monkeypatch.setitem(
        REGISTRY, "poison", ExperimentSpec("poison", "always exits 7", _poison)
    )
    monkeypatch.setitem(
        REGISTRY, "boom", ExperimentSpec("boom", "raises every time", _boom)
    )
    monkeypatch.setitem(
        REGISTRY, "flaky", ExperimentSpec("flaky", "crashes once", _flaky)
    )
    monkeypatch.setitem(
        REGISTRY, "hang", ExperimentSpec("hang", "sleeps forever", _hang)
    )
    monkeypatch.setenv("HERD_TEST_MARKER", str(tmp_path / "flaky-marker"))


def _config(**overrides):
    defaults = dict(jobs=2, max_attempts=2, backoff=FAST_BACKOFF, seed=7)
    defaults.update(overrides)
    return herd.HerdConfig(**defaults)


def _summary(json_dir):
    with open(summary_path(str(json_dir)), "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRun:
    def test_all_done_exit_zero(self, tmp_path):
        out = io.StringIO()
        code = herd.run_herd(
            ["table1", "table2"], str(tmp_path), _config(), out=out
        )
        assert code == 0
        assert os.path.isfile(journal_path(str(tmp_path)))
        summary = _summary(tmp_path)
        assert summary["schema"] == "repro.campaign/1"
        assert summary["num_failed"] == 0
        assert summary["herd"]["quarantined"] == []
        assert summary["herd"]["counters"]["herd.done"] == 2.0
        state = replay_journal(journal_path(str(tmp_path)))
        assert state.counts()["done"] == 2

    def test_refuses_directory_with_existing_journal(self, tmp_path):
        herd.run_herd(["table1"], str(tmp_path), _config(), out=io.StringIO())
        with pytest.raises(herd.HerdError):
            herd.run_herd(
                ["table1"], str(tmp_path), _config(), out=io.StringIO()
            )

    def test_unknown_name_rejected_before_any_journal(self, tmp_path):
        with pytest.raises(herd.HerdError):
            herd.run_herd(["nope"], str(tmp_path), _config())
        assert not os.path.exists(journal_path(str(tmp_path)))


class TestFailureSemantics:
    def test_deterministic_failure_is_terminal_not_retried(
        self, fixture_registry, tmp_path
    ):
        code = herd.run_herd(
            ["boom"], str(tmp_path), _config(), out=io.StringIO()
        )
        assert code == 1
        summary = _summary(tmp_path)
        (point,) = summary["herd"]["points"]
        assert point["status"] == "failed"
        assert point["attempts"] == 1  # an exception replays identically
        assert "herd.retries" not in summary["herd"]["counters"]
        artifact = json.loads((tmp_path / "boom.json").read_text())
        assert "RuntimeError: deterministic failure" in artifact["error"]
        assert "Traceback" in artifact["traceback"]

    def test_transient_crash_retried_then_quarantined(
        self, fixture_registry, tmp_path
    ):
        out = io.StringIO()
        code = herd.run_herd(["poison"], str(tmp_path), _config(), out=out)
        assert code == 1
        summary = _summary(tmp_path)
        (point,) = summary["herd"]["points"]
        assert point["status"] == "quarantined"
        assert point["attempts"] == 2
        assert [h["outcome"] for h in point["history"]] == ["crash", "crash"]
        assert summary["herd"]["quarantined"] == ["poison"]
        assert summary["herd"]["counters"]["herd.retries"] == 1.0
        # The quarantine leaves a synthetic artifact so aggregation sees
        # the point; its error text is attempt-independent.
        artifact = json.loads((tmp_path / "poison.json").read_text())
        assert artifact["ok"] is False
        assert artifact["error"].startswith("quarantined: ChildCrash")
        assert "QUARANTINED" in out.getvalue()

    def test_flaky_point_recovers_on_retry(self, fixture_registry, tmp_path):
        code = herd.run_herd(
            ["flaky"], str(tmp_path), _config(), out=io.StringIO()
        )
        assert code == 0
        summary = _summary(tmp_path)
        (point,) = summary["herd"]["points"]
        assert point["status"] == "done"
        assert point["attempts"] == 2
        assert [h["outcome"] for h in point["history"]] == ["crash", "done"]
        artifact = json.loads((tmp_path / "flaky.json").read_text())
        assert artifact["ok"] is True
        assert artifact["report"] == "flaky report\n"

    def test_hang_times_out_and_quarantines(self, fixture_registry, tmp_path):
        code = herd.run_herd(
            ["hang"],
            str(tmp_path),
            _config(timeout_sec=0.3, grace_sec=0.3),
            out=io.StringIO(),
        )
        assert code == 1
        summary = _summary(tmp_path)
        (point,) = summary["herd"]["points"]
        assert point["status"] == "quarantined"
        assert [h["outcome"] for h in point["history"]] == [
            "timeout", "timeout",
        ]
        artifact = json.loads((tmp_path / "hang.json").read_text())
        assert "TimeoutError" in artifact["error"]

    def test_crash_text_matches_campaign_watchdog(
        self, fixture_registry, tmp_path
    ):
        """One crash reads the same in `repro herd` and `repro run`."""
        from repro.experiments.campaign import run_campaign

        run_dir = tmp_path / "run"
        herd_dir = tmp_path / "herd"
        run_campaign(
            ["poison"], json_dir=str(run_dir), out=io.StringIO(),
            timeout_sec=30.0,
        )
        herd.run_herd(
            ["poison"], str(herd_dir), _config(max_attempts=1),
            out=io.StringIO(),
        )
        run_error = json.loads((run_dir / "poison.json").read_text())["error"]
        assert run_error == (
            "ChildCrash: experiment 'poison' worker died without reporting "
            "(exit code 7)"
        )
        (point,) = _summary(herd_dir)["herd"]["points"]
        assert point["history"][0]["error"] == run_error
        herd_artifact = json.loads((herd_dir / "poison.json").read_text())
        assert herd_artifact["error"] == f"quarantined: {run_error}"

    def test_poison_does_not_wedge_the_rest(self, fixture_registry, tmp_path):
        code = herd.run_herd(
            ["poison", "table1", "flaky"],
            str(tmp_path),
            _config(),
            out=io.StringIO(),
        )
        assert code == 1
        summary = _summary(tmp_path)
        by_name = {p["name"]: p for p in summary["herd"]["points"]}
        assert by_name["table1"]["status"] == "done"
        assert by_name["flaky"]["status"] == "done"
        assert by_name["poison"]["status"] == "quarantined"


class TestResume:
    def test_resume_of_complete_run_skips_everything(self, tmp_path):
        herd.run_herd(
            ["table1", "table2"], str(tmp_path), _config(), out=io.StringIO()
        )
        before = _summary(tmp_path)
        out = io.StringIO()
        code = herd.resume_herd(str(tmp_path), out=out)
        assert code == 0
        assert "2 already done, 0 re-enqueued" in out.getvalue()
        after = _summary(tmp_path)
        assert after["herd"]["resumes"] == 1
        assert normalized_for_comparison(after) == normalized_for_comparison(
            before
        )

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(herd.JournalError):
            herd.resume_herd(str(tmp_path))

    def test_jobs_override_recorded(self, tmp_path):
        herd.run_herd(["table1"], str(tmp_path), _config(), out=io.StringIO())
        herd.resume_herd(str(tmp_path), jobs=4, out=io.StringIO())
        records, _clean = herd.scan_journal(journal_path(str(tmp_path)))
        resumed = [r for r in records if r["event"] == "resumed"]
        assert resumed and resumed[-1]["jobs"] == 4


class TestPointIdentity:
    def test_registry_ids_are_content_keyed_and_stable(self):
        point = herd.point_for("table1")
        assert point.name == "table1"
        assert point.point_id == herd.point_for("table1").point_id
        assert point.point_id != herd.point_for("table2").point_id

    def test_scenario_point_ids_key_on_expanded_spec(self):
        token = "examples/scenarios/colocation.toml"
        first = herd.point_for(token)
        assert first.point_id == herd.point_for(token).point_id
        assert first.name != token  # display name comes from the spec

    def test_unresolvable_token_still_gets_deterministic_id(self):
        point = herd.point_for("missing/file.toml")
        assert point.point_id == herd.point_for("missing/file.toml").point_id
        assert point.name == "missing/file.toml"

    def test_expand_points_rejects_unknown(self):
        with pytest.raises(herd.HerdError):
            herd.expand_points(["definitely-not-registered"])
        with pytest.raises(herd.HerdError):
            herd.expand_points([])


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(herd.HerdError):
            herd.HerdConfig(jobs=0)
        with pytest.raises(herd.HerdError):
            herd.HerdConfig(timeout_sec=0.0)
        with pytest.raises(herd.HerdError):
            herd.HerdConfig(max_attempts=0)
        with pytest.raises(herd.HerdError):
            herd.HerdConfig(grace_sec=0.0)


class TestCli:
    def test_run_status_resume_round_trip(self, tmp_path):
        json_dir = str(tmp_path / "camp")
        assert main(["herd", "run", "table1", "--json", json_dir]) == 0
        assert main(["herd", "status", json_dir]) == 0
        out = io.StringIO()
        assert herd.herd_status(json_dir, out=out) == 0
        assert "1 points" in out.getvalue()
        assert main(["herd", "resume", json_dir]) == 0

    def test_run_into_existing_campaign_is_a_usage_error(
        self, tmp_path, capsys
    ):
        json_dir = str(tmp_path / "camp")
        assert main(["herd", "run", "table1", "--json", json_dir]) == 0
        assert main(["herd", "run", "table1", "--json", json_dir]) == 2
        assert "resume" in capsys.readouterr().err

    def test_status_without_journal_is_an_error(self, tmp_path):
        assert main(["herd", "status", str(tmp_path)]) == 2

    def test_status_reports_quarantine(self, fixture_registry, tmp_path):
        json_dir = str(tmp_path / "camp")
        assert main(
            [
                "herd", "run", "poison", "--json", json_dir,
                "--max-attempts", "2", "--base-delay-sec", "0.05",
                "--max-delay-sec", "0.1",
            ]
        ) == 1
        out = io.StringIO()
        assert herd.herd_status(json_dir, out=out) == 0
        text = out.getvalue()
        assert "quarantined" in text
        assert "poison" in text
