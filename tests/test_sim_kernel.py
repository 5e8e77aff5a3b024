"""Unit tests for the simulation kernel and timers."""

import time

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

from helpers import RecordingMonitor


def test_run_advances_clock_to_until():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_call_later_fires_at_expected_time():
    sim = Simulator()
    seen = []
    sim.call_later(2.5, lambda: seen.append(sim.now))
    sim.run(until=5.0)
    assert seen == [2.5]


def test_call_at_in_past_raises():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_events_scheduled_during_run_are_dispatched():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.call_later(1.0, lambda: seen.append("second"))

    sim.call_later(1.0, first)
    sim.run(until=3.0)
    assert seen == ["first", "second"]


def test_run_without_until_drains_queue():
    sim = Simulator()
    sim.call_later(7.0, lambda: None)
    end = sim.run()
    assert end == 7.0


def test_stop_halts_run_mid_way():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, lambda: (seen.append(1), sim.stop()))
    sim.call_later(2.0, lambda: seen.append(2))
    sim.run(until=10.0)
    assert seen == [1]
    assert sim.now == 1.0


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run(until=10.0)

    sim.call_later(1.0, nested)
    sim.run(until=2.0)


def test_max_events_guard_trips():
    sim = Simulator()

    def loop():
        sim.call_later(0.0, loop)

    sim.call_later(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(until=1.0, max_events=100)


def test_events_processed_counts_dispatches():
    sim = Simulator()
    for _ in range(5):
        sim.call_later(1.0, lambda: None)
    sim.call_later(1.5, lambda: None).cancel()
    assert sim.pending_events == 5  # a cancelled event is not pending
    sim.run(until=2.0)
    assert sim.events_processed == 5


def test_timer_start_cancel_restart():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.start(5.0)
    assert timer.pending
    assert timer.expires_at == 5.0
    timer.cancel()
    assert not timer.pending
    timer.start(2.0)
    sim.run(until=10.0)
    assert fired == [2.0]
    assert not timer.pending


def test_timer_restart_replaces_previous_expiry():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.start(5.0)
    timer.start(1.0)
    sim.run(until=10.0)
    assert fired == [1.0]


def test_periodic_every_fires_until_stopped():
    sim = Simulator()
    times = []
    stop = sim.every(1.0, lambda: times.append(sim.now))
    sim.call_later(3.5, stop)
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]


def test_periodic_with_explicit_start():
    sim = Simulator()
    times = []
    sim.every(2.0, lambda: times.append(sim.now), start_at=0.5)
    sim.run(until=5.0)
    assert times == [0.5, 2.5, 4.5]


def test_periodic_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


# --- watchdogs ---------------------------------------------------------------


def test_stall_detector_catches_zero_delay_loop_and_names_tag():
    sim = Simulator()

    def reschedule():
        sim.call_later(0.0, reschedule, tag="mac.retry")

    sim.call_later(1.0, reschedule, tag="mac.retry")
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=10.0, stall_limit=500)
    message = str(excinfo.value)
    assert "stalled" in message
    assert "mac.retry" in message
    assert "t=1" in message


def test_stall_message_counts_interleaved_loops_and_one_shots():
    sim = Simulator()

    def loop(tag):
        def fire():
            sim.call_later(0.0, fire, tag=tag)

        return fire

    sim.call_at(1.0, loop("mac.retry"), tag="mac.retry")
    sim.call_at(1.0, loop("gmp.probe"), tag="gmp.probe")
    for _ in range(3):
        sim.call_at(1.0, lambda: None, tag="once")
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=10.0, stall_limit=500)
    assert str(excinfo.value) == (
        "simulated clock stalled at t=1.000000000: 501 events without "
        "advancing; offending tags: mac.retry x249, gmp.probe x249, once x3"
    )


def test_stall_detector_tolerates_bursts_below_limit():
    sim = Simulator()
    seen = []
    # 50 events at the same instant, then the clock advances: no trip.
    for _ in range(50):
        sim.call_later(1.0, lambda: seen.append(sim.now))
    sim.call_later(2.0, lambda: seen.append(sim.now))
    sim.run(until=3.0, stall_limit=100)
    assert len(seen) == 51


def test_stall_counter_resets_when_clock_advances():
    sim = Simulator()
    # 30 events at each of many distinct times; limit of 40 never trips.
    for step in range(1, 6):
        for _ in range(30):
            sim.call_later(float(step), lambda: None)
    assert sim.run(until=10.0, stall_limit=40) == 10.0


def test_wall_deadline_trips_on_event_storm():
    sim = Simulator()

    def reschedule():
        sim.call_later(1e-9, reschedule)

    sim.call_later(0.0, reschedule)
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=1e6, wall_deadline=0.05)
    assert "wall-clock deadline" in str(excinfo.value)


def test_wall_deadline_overshoot_is_bounded_by_one_batch():
    # Slow handlers that each schedule the next: the deadline is checked
    # before every batch, so the run trips within one batch of events.
    sim = Simulator()

    def slow():
        time.sleep(0.005)
        sim.call_later(1e-3, slow)

    sim.call_later(0.0, slow)
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=1e6, wall_deadline=0.05)
    assert "wall-clock deadline" in str(excinfo.value)
    assert sim.events_processed <= 128


def test_watchdog_parameters_validated():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(until=1.0, stall_limit=0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0, wall_deadline=0.0)


def test_kernel_usable_after_watchdog_trip():
    sim = Simulator()

    def reschedule():
        sim.call_later(0.0, reschedule, tag="loop")

    sim.call_later(1.0, reschedule, tag="loop")
    with pytest.raises(SimulationError):
        sim.run(until=10.0, stall_limit=50)
    # The kernel is left in a defined state: clock at the failing
    # event's time and run() callable again.
    seen = []
    sim.call_later(5.0, lambda: seen.append(sim.now))
    sim.run(until=sim.now + 5.0, stall_limit=None, max_events=sim.events_processed + 60)
    assert seen == [6.0]


# --- Timer edge cases --------------------------------------------------------


def test_timer_cancel_then_start_rearms_cleanly():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.cancel()
    assert not timer.pending
    timer.start(2.0)
    assert timer.pending
    assert timer.expires_at == 2.0
    sim.run(until=5.0)
    assert fired == [2.0]


def test_timer_start_while_pending_replaces_expiry():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(3.0)  # replaces, never fires at 1.0
    sim.run(until=5.0)
    assert fired == [3.0]


def test_timer_rearming_itself_from_callback():
    sim = Simulator()
    fired = []

    def on_fire():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer = sim.timer(on_fire)
    timer.start(1.0)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0]
    assert not timer.pending


def test_timer_callback_exception_leaves_kernel_defined():
    sim = Simulator()

    def explode():
        raise RuntimeError("boom")

    timer = sim.timer(explode)
    timer.start(1.0)
    with pytest.raises(RuntimeError):
        sim.run(until=5.0)
    # Clock stopped at the failing event; the timer is disarmed; the
    # kernel accepts new work.
    assert sim.now == 1.0
    assert not timer.pending
    seen = []
    sim.call_later(1.0, lambda: seen.append(sim.now))
    sim.run(until=5.0)
    assert seen == [2.0]


# ------------------------------------------------------------ run monitors


def test_monitor_ticks_once_per_interval_crossing():
    sim = Simulator()
    monitor = RecordingMonitor(interval=1.0)
    sim.attach_monitor(monitor)
    stop = sim.every(0.25, lambda: None)
    sim.run(until=5.0)
    stop()
    # One tick per whole-second crossing; dense events never double-fire.
    assert monitor.ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_monitor_sparse_schedule_has_no_catchup_storm():
    sim = Simulator()
    monitor = RecordingMonitor(interval=1.0)
    sim.attach_monitor(monitor)
    fired = []
    sim.call_at(10.0, lambda: fired.append(sim.now))
    sim.run(until=20.0)
    # The clock jumped 0 -> 10 in one dispatch: exactly one tick fires
    # at the jump, not ten catch-up ticks.
    assert fired == [10.0]
    assert monitor.ticks == [10.0]


def test_monitor_rejects_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.attach_monitor(RecordingMonitor(interval=0.0))


def test_watchdog_abort_notifies_monitors_before_raising():
    sim = Simulator()
    monitor = RecordingMonitor(interval=1.0)
    sim.attach_monitor(monitor)
    stop = sim.every(0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=100.0, max_events=17)
    stop()
    assert len(monitor.aborts) == 1
    _, message = monitor.aborts[0]
    assert "max_events" in message


def test_failing_abort_hook_never_masks_the_watchdog():
    class ExplodingMonitor(RecordingMonitor):
        def on_abort(self, now, error):
            raise RuntimeError("flush failed")

    sim = Simulator()
    sim.attach_monitor(ExplodingMonitor(interval=1.0))
    sim.every(0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=100.0, max_events=5)


def test_monitor_is_absent_from_the_event_sequence():
    from repro.sim.replay import ReplaySanitizer

    def digest(with_monitor):
        sim = Simulator(sanitizer=ReplaySanitizer())
        if with_monitor:
            sim.attach_monitor(RecordingMonitor(interval=0.5))
        stop = sim.every(0.25, lambda: None)
        sim.run(until=5.0)
        stop()
        return sim.sanitizer.hexdigest()

    assert digest(False) == digest(True)
