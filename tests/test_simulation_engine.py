"""Tests for repro.simulation.engine."""

import pytest

from repro.simulation.engine import Engine, SimulationError


class TestBasics:
    def test_starts_at_zero(self):
        assert Engine().now_usec == 0

    def test_step_advances_clock(self):
        engine = Engine()
        engine.schedule(50, lambda: None)
        assert engine.step() is True
        assert engine.now_usec == 50

    def test_step_empty_returns_false(self):
        assert Engine().step() is False

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.schedule(100, lambda: None)
        engine.run_until(100)
        with pytest.raises(SimulationError):
            engine.schedule(50, lambda: None)

    def test_events_fired_counter(self):
        engine = Engine()
        for i in range(3):
            engine.schedule(i * 10, lambda: None)
        engine.run_until(100)
        assert engine.events_fired == 3


class TestRunUntil:
    def test_runs_events_in_window(self):
        engine = Engine()
        fired = []
        for t in (10, 20, 30, 40):
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.run_until(25)
        assert fired == [10, 20]

    def test_clock_lands_on_horizon(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run_until(100)
        assert engine.now_usec == 100

    def test_event_at_horizon_included(self):
        engine = Engine()
        fired = []
        engine.schedule(100, lambda: fired.append(1))
        engine.run_until(100)
        assert fired == [1]

    def test_horizon_before_now_raises(self):
        engine = Engine()
        engine.run_until(100)
        with pytest.raises(SimulationError):
            engine.run_until(50)

    def test_events_can_schedule_events(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(
                engine.now_usec + 10, lambda: fired.append("second")
            )

        engine.schedule(10, first)
        engine.run_until(100)
        assert fired == ["first", "second"]


class TestPeriodic:
    def test_periodic_fires_repeatedly(self):
        """A callback that re-arms itself one period ahead fires once per
        period up to the horizon."""
        engine = Engine()
        times = []

        def tick():
            times.append(engine.now_usec)
            engine.schedule(engine.now_usec + 10, tick)

        engine.schedule(10, tick)
        engine.run_until(55)
        assert times == [10, 20, 30, 40, 50]

    def test_cancel_pending_event(self):
        engine = Engine()
        fired = []
        event = engine.schedule(10, lambda: fired.append(1))
        engine.cancel(event)
        engine.run_until(100)
        assert fired == []

    def test_runaway_guard(self):
        """An event that re-arms itself forever stops at the horizon:
        run_until never runs past it, and the next firing stays queued."""
        engine = Engine()

        def rearm():
            engine.schedule(engine.now_usec + 1, rearm)

        engine.schedule(0, rearm)
        engine.run_until(100)
        assert engine.events_fired == 101
        assert engine.queue.peek_time() == 101
