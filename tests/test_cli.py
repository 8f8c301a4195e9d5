"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, list_experiments, run_experiments


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "fig05", "table1"])
        assert args.experiments == ["fig05", "table1"]
        assert args.jobs == 1
        assert args.json_dir is None

    def test_run_command_jobs_and_json(self):
        args = build_parser().parse_args(
            ["run", "fig02", "--jobs", "4", "--json", "out"]
        )
        assert args.jobs == 4
        assert args.json_dir == "out"

    def test_campaign_command(self):
        args = build_parser().parse_args(
            ["campaign", "artifacts", "--output", "summary.json"]
        )
        assert args.command == "campaign"
        assert args.artifact_dir == "artifacts"
        assert args.output == "summary.json"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2


class TestListing:
    def test_all_figures_and_tables_present(self):
        expected = {f"fig{i:02d}" for i in range(1, 13)} | {"table1", "table2"}
        # ``chaos`` is runnable by name but not part of ``run all``.
        assert set(EXPERIMENTS) == expected | {"chaos"}

    def test_listing_mentions_everything(self):
        text = list_experiments()
        for name in EXPERIMENTS:
            assert name in text


class TestRunning:
    def test_run_table1(self):
        out = io.StringIO()
        code = run_experiments(["table1"], out=out)
        assert code == 0
        assert "8096 MB" in out.getvalue()

    def test_run_multiple(self):
        out = io.StringIO()
        code = run_experiments(["table1", "table2"], out=out)
        assert code == 0
        assert "vdis2" in out.getvalue()

    def test_unknown_experiment(self):
        out = io.StringIO()
        code = run_experiments(["fig99"], out=out)
        assert code == 2
        assert "unknown experiment" in out.getvalue()

    def test_run_fig07(self):
        out = io.StringIO()
        assert run_experiments(["fig07"], out=out) == 0
        assert "Pisces" in out.getvalue()


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, prog",
    [
        (["run", "fig02", "--jobs", "0"], "repro run"),
        (["run", "fig02", "--timeout-sec", "0"], "repro run"),
        (["run", "fig02", "--timeout-sec", "-1"], "repro run"),
        (
            ["scenario", "run", "examples/scenarios/colocation.toml", "--jobs", "0"],
            "repro scenario",
        ),
    ],
    ids=["run-jobs-0", "run-timeout-0", "run-timeout-negative", "scenario-jobs-0"],
)
def test_invalid_campaign_options_are_usage_errors(argv, prog):
    """Like ``repro herd``: a one-line error and exit 2, not a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    assert result.returncode == 2
    assert result.stderr.startswith(f"{prog}: error: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
