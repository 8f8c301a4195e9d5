"""Table-driven tests for every kyotolint rule.

Each case is a minimal snippet that must (or must not) trigger exactly
the rule under test; pragma behaviour and reporting get their own cases.
"""

from __future__ import annotations

import json

import pytest

from repro.lint.report import exit_code, format_json, format_text
from repro.lint.walker import lint_paths, lint_source

#: (case id, rule id expected, snippet, should_fire)
RULE_CASES = [
    # -- D001: bare random module functions --------------------------------
    (
        "d001-module-call",
        "D001",
        "import random\nx = random.random()\n",
        True,
    ),
    (
        "d001-aliased-module",
        "D001",
        "import random as rnd\nx = rnd.randint(0, 3)\n",
        True,
    ),
    (
        "d001-from-import",
        "D001",
        "from random import choice\nx = choice([1, 2])\n",
        True,
    ),
    (
        "d001-instance-method-ok",
        "D001",
        "import random\nr = None\n\n\ndef f(rng):\n    return rng.random()\n",
        False,
    ),
    (
        "d001-unrelated-module-ok",
        "D001",
        "import numpy.random as npr\nx = npr.random()\n",
        False,
    ),
    # -- D002: raw random.Random construction ------------------------------
    (
        "d002-direct",
        "D002",
        "import random\nr = random.Random(42)\n",
        True,
    ),
    (
        "d002-from-import",
        "D002",
        "from random import Random\nr = Random(42)\n",
        True,
    ),
    (
        "d002-injected-ok",
        "D002",
        "def f(rng=None):\n    return rng\n",
        False,
    ),
    # -- D003: wall clock ---------------------------------------------------
    (
        "d003-time-time",
        "D003",
        "import time\nt = time.time()\n",
        True,
    ),
    (
        "d003-perf-counter-from-import",
        "D003",
        "from time import perf_counter\nt = perf_counter()\n",
        True,
    ),
    (
        "d003-datetime-now",
        "D003",
        "import datetime\nd = datetime.datetime.now()\n",
        True,
    ),
    (
        "d003-datetime-from-import",
        "D003",
        "from datetime import datetime\nd = datetime.utcnow()\n",
        True,
    ),
    (
        "d003-sleep-ok",
        "D003",
        "import time\ntime.sleep(0.1)\n",
        False,
    ),
    # -- D004: set iteration ------------------------------------------------
    (
        "d004-for-set-call",
        "D004",
        "for x in set([3, 1, 2]):\n    print(x)\n",
        True,
    ),
    (
        "d004-set-literal",
        "D004",
        "for x in {3, 1, 2}:\n    print(x)\n",
        True,
    ),
    (
        "d004-set-union",
        "D004",
        "a = {1}\nfor x in set(a) | set([2]):\n    print(x)\n",
        True,
    ),
    (
        "d004-comprehension",
        "D004",
        "xs = [x for x in set([1, 2])]\n",
        True,
    ),
    (
        "d004-sorted-ok",
        "D004",
        "for x in sorted(set([3, 1, 2])):\n    print(x)\n",
        False,
    ),
    (
        "d004-membership-ok",
        "D004",
        "seen = set([1, 2])\nif 1 in seen:\n    print(1)\n",
        False,
    ),
    # -- U001: mixed unit suffixes ------------------------------------------
    (
        "u001-add",
        "U001",
        "total = freq_khz + delay_usec\n",
        True,
    ),
    (
        "u001-sub-attr",
        "U001",
        "d = obj.period_ticks - obj.window_cycles\n",
        True,
    ),
    (
        "u001-compare",
        "U001",
        "flag = budget_ms < spent_ticks\n",
        True,
    ),
    (
        "u001-same-unit-ok",
        "U001",
        "total = start_usec + delta_usec\n",
        False,
    ),
    (
        "u001-multiply-ok",
        "U001",
        "cycles = tick_usec * freq_khz\n",
        False,
    ),
    (
        "u001-conversion-call-ok",
        "U001",
        "total = usec_to_cycles(tick_usec, freq) + cost_cycles\n",
        False,
    ),
    (
        "u001-no-suffix-ok",
        "U001",
        "total = alpha + beta\n",
        False,
    ),
    # -- U002: float equality -----------------------------------------------
    (
        "u002-eq-fractional",
        "U002",
        "ok = value == 0.3\n",
        True,
    ),
    (
        "u002-neq-fractional",
        "U002",
        "ok = value != 0.1\n",
        True,
    ),
    (
        "u002-whole-float-ok",
        "U002",
        "ok = value == 0.0\n",
        False,
    ),
    (
        "u002-less-than-ok",
        "U002",
        "ok = value < 0.3\n",
        False,
    ),
    # -- U003: unit flow through assignment chains --------------------------
    (
        "u003-direct-suffix-assign",
        "U003",
        "freq_ms = clock_khz\n",
        True,
    ),
    (
        "u003-chain-assign",
        "U003",
        "elapsed = end_usec\nbudget_ms = elapsed\n",
        True,
    ),
    (
        "u003-chain-arithmetic",
        "U003",
        "elapsed = end_usec\ntotal = elapsed + window_ms\n",
        True,
    ),
    (
        "u003-inside-function",
        "U003",
        "def f(end_usec, window_ms):\n"
        "    elapsed = end_usec\n"
        "    return elapsed + window_ms\n",
        True,
    ),
    (
        "u003-conversion-call-ok",
        "U003",
        "budget_ms = usec_to_ms(end_usec)\n",
        False,
    ),
    (
        "u003-conflicting-reassignment-ok",
        "U003",
        "a = end_usec\na = window_ms\nb_ms = a\n",
        False,
    ),
    (
        "u003-same-unit-ok",
        "U003",
        "elapsed = end_usec\ntotal_usec = elapsed\n",
        False,
    ),
    # -- H001: mutable defaults ---------------------------------------------
    (
        "h001-list",
        "H001",
        "def f(acc=[]):\n    return acc\n",
        True,
    ),
    (
        "h001-dict-call",
        "H001",
        "def f(table=dict()):\n    return table\n",
        True,
    ),
    (
        "h001-kwonly-set",
        "H001",
        "def f(*, seen={1}):\n    return seen\n",
        True,
    ),
    (
        "h001-none-ok",
        "H001",
        "def f(acc=None):\n    return acc or []\n",
        False,
    ),
    (
        "h001-tuple-ok",
        "H001",
        "def f(dims=(1, 2)):\n    return dims\n",
        False,
    ),
    # -- H002: swallowed exceptions -----------------------------------------
    (
        "h002-bare",
        "H002",
        "try:\n    x = 1\nexcept:\n    pass\n",
        True,
    ),
    (
        "h002-broad",
        "H002",
        "try:\n    x = 1\nexcept Exception:\n    pass\n",
        True,
    ),
    (
        "h002-narrow-ok",
        "H002",
        "try:\n    x = 1\nexcept KeyError:\n    pass\n",
        False,
    ),
    (
        "h002-handled-ok",
        "H002",
        "try:\n    x = 1\nexcept Exception:\n    x = 0\n",
        False,
    ),
]


@pytest.mark.parametrize(
    "rule_id,snippet,should_fire",
    [case[1:] for case in RULE_CASES],
    ids=[case[0] for case in RULE_CASES],
)
def test_rule_table(rule_id, snippet, should_fire):
    findings = lint_source(snippet, path="repro/example.py")
    fired = [f.rule_id for f in findings if f.rule_id == rule_id]
    if should_fire:
        assert fired, f"expected {rule_id} on:\n{snippet}"
    else:
        assert not fired, f"unexpected {rule_id} on:\n{snippet}: {findings}"


# -- allowlists ---------------------------------------------------------------


def test_d002_allowed_inside_rng_module():
    source = "import random\nr = random.Random(7)\n"
    assert lint_source(source, path="src/repro/simulation/rng.py") == []


def test_d003_allowed_inside_util_module():
    source = "import time\n\n\ndef wall_clock():\n    return time.time()\n"
    assert lint_source(source, path="src/repro/util.py") == []


# -- pragmas ------------------------------------------------------------------


def test_same_line_pragma_suppresses():
    source = "import random\nx = random.random()  # kyotolint: disable=D001\n"
    assert lint_source(source, path="repro/example.py") == []


def test_pragma_only_suppresses_listed_rule():
    source = "import random\nx = random.Random(1)  # kyotolint: disable=D001\n"
    findings = lint_source(source, path="repro/example.py")
    assert [f.rule_id for f in findings] == ["D002"]


def test_pragma_disable_all_on_line():
    source = "import random\nx = random.random()  # kyotolint: disable=all\n"
    assert lint_source(source, path="repro/example.py") == []


def test_file_level_pragma():
    source = (
        "# kyotolint: disable-file=U002\n"
        "a = x == 0.1\n"
        "b = y != 0.7\n"
    )
    assert lint_source(source, path="repro/example.py") == []


def test_pragma_on_continuation_line_covers_the_construct():
    source = (
        "total = (\n"
        "    freq_khz\n"
        "    + delay_usec  # kyotolint: disable=U001\n"
        ")\n"
    )
    assert lint_source(source, path="repro/example.py") == []


def test_disable_and_disable_file_share_a_line():
    source = (
        "import random\n"
        "x = random.random()"
        "  # kyotolint: disable=D001  # kyotolint: disable-file=U002\n"
        "a = y == 0.3\n"
    )
    assert lint_source(source, path="repro/example.py") == []


def test_disable_file_then_disable_on_same_line():
    source = (
        "import random\n"
        "x = random.random()"
        "  # kyotolint: disable-file=U002  # kyotolint: disable=D001\n"
        "a = y == 0.3\n"
    )
    assert lint_source(source, path="repro/example.py") == []


# -- reports / plumbing -------------------------------------------------------


def test_json_report_schema():
    findings = lint_source(
        "import random\nx = random.random()\n", path="repro/example.py"
    )
    payload = json.loads(format_json(findings))
    assert payload["tool"] == "kyotolint"
    assert payload["version"] == 2
    assert payload["summary"]["total"] == 1
    assert payload["summary"]["by_rule"] == {"D001": 1}
    (entry,) = payload["findings"]
    assert entry["rule"] == "D001"
    assert entry["path"] == "repro/example.py"
    assert entry["line"] == 2


def test_text_report_mentions_location_and_summary():
    findings = lint_source(
        "import random\nx = random.random()\n", path="repro/example.py"
    )
    text = format_text(findings)
    assert "repro/example.py:2" in text
    assert "1 failing" in text


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n", path="repro/example.py")
    assert [f.rule_id for f in findings] == ["E999"]
    assert exit_code(findings) == 1


def test_lint_paths_recurses_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text(
        "import random\nx = random.random()\n"
    )
    (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
    findings = lint_paths([str(tmp_path)])
    assert [f.rule_id for f in findings] == ["D001"]


def test_dangling_symlink_is_an_error_not_a_skip(tmp_path):
    (tmp_path / "good.py").write_text("x = 1\n")
    (tmp_path / "gone.py").symlink_to(tmp_path / "missing.py")
    findings = lint_paths([str(tmp_path)])
    (finding,) = findings
    assert finding.rule_id == "E999"
    assert finding.path.endswith("gone.py")
    assert finding.message.startswith("cannot read file: ")
    assert exit_code(findings) == 1


def test_non_utf8_file_is_an_error_not_a_crash(tmp_path):
    (tmp_path / "latin.py").write_bytes(b"name = '\xe9t\xe9'\n")
    findings = lint_paths([str(tmp_path)])
    (finding,) = findings
    assert finding.rule_id == "E999"
    assert finding.path.endswith("latin.py")
    assert finding.message.startswith("cannot read file: ")
    assert exit_code(findings) == 1
