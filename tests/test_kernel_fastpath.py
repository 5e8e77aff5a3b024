"""Tests for the batched dispatch loop and the tombstone heap.

``Simulator.run`` always pops events in batches, whatever watchdogs or
observers are armed; these tests pin the invariants that keep batched
dispatch indistinguishable from one-at-a-time dispatch — cancellation
inside a batch, preemption by newly scheduled higher-priority events,
stop and exceptions mid-batch, and tombstone compaction bookkeeping.
Each batch-guard test runs twice: on a bare ``run()`` and with every
watchdog, a monitor and the replay sanitizer armed.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator
from repro.sim.replay import ReplaySanitizer

from helpers import RecordingMonitor


class _Kernel:
    """Builds and runs a simulator in one configuration."""

    def __init__(self, armed):
        self.armed = armed

    def __repr__(self):
        return "armed" if self.armed else "bare"

    def simulator(self):
        if not self.armed:
            return Simulator()
        sim = Simulator(sanitizer=ReplaySanitizer())
        sim.attach_monitor(RecordingMonitor(interval=0.5))
        return sim

    def run(self, sim):
        if not self.armed:
            return sim.run()
        return sim.run(stall_limit=10_000, max_events=10**9, wall_deadline=3600.0)


#: The batch guards below run in both configurations.
KERNELS = (_Kernel(armed=False), _Kernel(armed=True))


def test_cancel_within_same_time_batch_skips_callback():
    for kernel in KERNELS:
        sim = kernel.simulator()
        seen = []
        later = sim.call_at(1.0, lambda: seen.append("b"), priority=1)

        def first():
            seen.append("a")
            later.cancel()

        sim.call_at(1.0, first, priority=0)
        kernel.run(sim)
        assert seen == ["a"], kernel


def test_same_time_lower_priority_event_preempts_batch():
    # A callback that schedules a same-time event with a priority lower
    # than a pending batch member must see the new event dispatched
    # first, exactly as unbatched (time, priority, seq) order demands.
    for kernel in KERNELS:
        sim = kernel.simulator()
        order = []

        def first():
            order.append("a")
            sim.call_at(1.0, lambda: order.append("c"), priority=1)

        sim.call_at(1.0, first, priority=0)
        sim.call_at(1.0, lambda: order.append("b"), priority=5)
        kernel.run(sim)
        assert order == ["a", "c", "b"], kernel


def test_stop_mid_batch_preserves_remaining_events():
    for kernel in KERNELS:
        sim = kernel.simulator()
        seen = []

        def first():
            seen.append("a")
            sim.stop()

        sim.call_at(1.0, first, priority=0)
        sim.call_at(1.0, lambda: seen.append("b"), priority=1)
        sim.call_at(1.0, lambda: seen.append("c"), priority=2)
        kernel.run(sim)
        assert seen == ["a"], kernel
        # The interrupted batch was reinjected; a second run drains it
        # in the original order.
        kernel.run(sim)
        assert seen == ["a", "b", "c"], kernel


def test_exception_mid_batch_preserves_remaining_events():
    for kernel in KERNELS:
        sim = kernel.simulator()
        seen = []

        def boom():
            seen.append("a")
            raise RuntimeError("handler failure")

        sim.call_at(1.0, boom, priority=0)
        sim.call_at(1.0, lambda: seen.append("b"), priority=1)
        with pytest.raises(RuntimeError):
            kernel.run(sim)
        kernel.run(sim)
        assert seen == ["a", "b"], kernel


def test_cancelled_timers_never_fire_under_churn():
    sim = Simulator()
    fired = []
    events = [
        sim.call_at(float(index + 1), (lambda n: (lambda: fired.append(n)))(index))
        for index in range(500)
    ]
    for index, event in enumerate(events):
        if index % 2:
            event.cancel()
    sim.run()
    assert fired == [index for index in range(500) if index % 2 == 0]


def test_every_survives_cancellation_churn_around_it():
    sim = Simulator()
    ticks = []
    stop = sim.every(1.0, lambda: ticks.append(sim.now))
    # Churn: schedule and immediately cancel many one-shots so the heap
    # compacts tombstones while the recurring slot keeps re-arming.
    for index in range(600):
        sim.call_at(0.5 + index * 0.01, lambda: None).cancel()
    sim.call_at(5.5, stop)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_tombstones_compact_in_bulk():
    queue = EventQueue()
    events = [queue.push(float(index), lambda: None) for index in range(1200)]
    for event in events[:900]:
        event.cancel()
    # Lazy cancellation leaves tombstones in the heap until the
    # compaction threshold trips, after which the live count and the
    # tombstone count must agree with the survivors.
    assert len(queue) == 300
    assert queue.tombstones < 900
    popped = [queue.pop() for _ in range(300)]
    assert [event.time for event in popped] == [float(i) for i in range(900, 1200)]
    assert not queue


def test_repush_rejects_event_still_in_heap():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    with pytest.raises(SimulationError):
        queue.repush(event, 2.0)


def test_repush_reuses_slot_with_fresh_sequence():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    first_seq = event.seq
    assert queue.pop() is event
    queue.repush(event, 2.0)
    assert event.seq > first_seq
    assert event.time == 2.0
    assert queue.pop() is event


def test_pop_batch_respects_limit_and_horizon():
    queue = EventQueue()
    for index in range(10):
        queue.push(float(index), lambda: None)
    batch = queue.pop_batch(4, 100.0)
    assert [event.time for event in batch] == [0.0, 1.0, 2.0, 3.0]
    batch = queue.pop_batch(100, 5.5)
    assert [event.time for event in batch] == [4.0, 5.0]
    assert len(queue) == 4


def test_batched_run_counts_every_dispatch():
    for kernel in KERNELS:
        sim = kernel.simulator()
        for index in range(257):  # spans several batch boundaries
            sim.call_at(1.0 + index * 1e-6, lambda: None)
        kernel.run(sim)
        assert sim.events_processed == 257, kernel
        if kernel.armed:
            assert sim.sanitizer.events == 257
