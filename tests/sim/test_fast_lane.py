"""Same-tick ordering, ``post()`` light entries, and recycling edges.

Events scheduled at exactly ``now`` go through the heap like any other;
``post()`` schedules a fire-and-forget callback with no Event object at
all; fired and cancelled events are recycled through a free pool.  Every
test here pins the observable schedule (callback order, counts, handles)
across those representation choices.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.core import _POOL_CAP, Simulator


class TestFastLaneEquivalence:
    """Same-tick scheduling rides the heap: the ``(time, sequence)`` key
    fires work scheduled at ``now`` after everything queued before it."""

    def test_heap_events_due_now_fire_before_fifo_entries(self):
        # An event scheduled *earlier* for time T must precede a
        # same-tick event created at T.
        sim = Simulator()
        log = []
        sim.call_at(5.0, lambda: log.append("queued-first"))

        def at_five():
            log.append("firing")
            sim.call_soon(lambda: log.append("same-tick-second"))

        # Insertion order: this callback runs before "queued-first" only
        # if it was scheduled first -- schedule it after, so the earlier
        # entry drains first, then the one created at T.
        sim.call_at(5.0, lambda: None)  # placeholder to vary sequences
        sim.call_at(5.0, at_five)
        sim.run()
        assert log == ["queued-first", "firing", "same-tick-second"]

    def test_cancel_same_tick_event_before_it_fires(self):
        sim = Simulator()
        log = []

        def setup():
            handle = sim.call_soon(lambda: log.append("cancelled"))
            sim.call_soon(lambda: log.append("kept"))
            handle.cancel()
            assert not handle.active

        sim.call_at(2.0, setup)
        sim.run()
        assert log == ["kept"]

    def test_step_drains_fifo_in_order(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, lambda: [sim.call_soon(log.append, args=(i,))
                                  for i in range(3)])
        while sim.step():
            pass
        assert log == [0, 1, 2]


class TestPost:
    def test_post_fires_in_time_and_insertion_order(self):
        sim = Simulator()
        log = []
        sim.post(20.0, log.append, args=("b",))
        sim.post(10.0, log.append, args=("a",))
        sim.call_at(20.0, log.append, args=("c",))  # after first post(20)
        sim.post(20.0, log.append, args=("d",))
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_post_in_past_raises(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(5.0, lambda: None)

    def test_post_at_now_is_a_light_entry(self):
        # Same-tick posts stay light entries (no Event drawn from the
        # pool) and fire this tick, in insertion order with call_soon.
        sim = Simulator()
        log = []

        def now_burst():
            sim.post(sim.now, log.append, args=("x",))
            sim.call_soon(log.append, args=("y",))
            sim.post(sim.now, log.append, args=("z",))

        sim.call_at(3.0, now_burst)
        sim.run()
        assert log == ["x", "y", "z"]
        # Only call_soon reused the Event now_burst vacated.
        assert sim.stats()["pool_hits"] == 1

    def test_post_counts_as_pending_and_executed(self):
        sim = Simulator()
        for i in range(4):
            sim.post(float(i + 1), lambda: None)
        assert sim.pending == 4
        sim.run()
        assert sim.pending == 0
        assert sim.executed == 4

    def test_post_survives_compaction(self):
        # Mass cancellation triggers compaction while light entries sit
        # in the heap; they must be kept, not dropped or recycled.
        sim = Simulator()
        log = []
        sim.post(500.0, log.append, args=("light",))
        victims = [sim.call_at(100.0 + i, lambda: log.append("victim"))
                   for i in range(300)]
        for victim in victims:
            victim.cancel()
        assert sim.pending == 1
        sim.run()
        assert log == ["light"]

    def test_post_interleaves_with_step(self):
        sim = Simulator()
        log = []
        sim.post(1.0, log.append, args=(1,))
        sim.call_at(2.0, log.append, args=(2,))
        assert sim.step() and log == [1]
        assert sim.step() and log == [1, 2]
        assert not sim.step()

    def test_run_until_stops_before_light_entry(self):
        sim = Simulator()
        log = []
        sim.post(100.0, log.append, args=("late",))
        sim.run(until=50.0)
        assert log == [] and sim.now == 50.0
        sim.run()
        assert log == ["late"]


class TestCompactionAliasing:
    def test_compaction_fired_from_inside_callback_mid_run(self):
        # The nasty aliasing case: the *currently firing* event's object
        # was already popped when its callback cancels en masse and
        # trips compaction -- which rebuilds the heap and recycles
        # cancelled events into the pool.  The in-flight event must not
        # be recycled out from under its own callback, and events
        # scheduled *by* the callback after compaction must be distinct
        # objects with working handles.
        sim = Simulator()
        log = []
        victims = [sim.call_at(50.0 + i, lambda i=i: log.append(i))
                   for i in range(300)]

        def massacre():
            for victim in victims:
                victim.cancel()
            # Compaction may have run synchronously inside cancel();
            # scheduling from the same callback must still work and the
            # new handles must control the new events only.
            fresh = sim.call_after(1.0, log.append, args=("fresh",))
            assert fresh.active
            sim.call_soon(log.append, args=("soon",))

        sim.call_at(10.0, massacre)
        sim.run()
        assert log == ["soon", "fresh"]
        stats = sim.stats()
        assert stats["compaction_dropped"] > 0
        assert stats["pending"] == 0

    def test_recancelling_inside_compacting_callback_is_safe(self):
        sim = Simulator()
        log = []
        victims = [sim.call_at(50.0 + i, lambda: log.append("victim"))
                   for i in range(300)]

        def massacre():
            for victim in victims:
                victim.cancel()
            # All handles are now stale; cancelling again (post
            # compaction, post recycling) must be a no-op.
            for victim in victims:
                victim.cancel()
            assert sim.pending == 0

        sim.call_at(10.0, massacre)
        sim.run()
        assert log == []


class TestHandleGenerations:
    def test_stale_handle_across_many_recycling_generations(self):
        # One Event object can serve many schedule() lifetimes.  A handle
        # from generation k must be inert for every generation > k, and
        # `active` must report False the moment its own generation ends.
        sim = Simulator()
        log = []
        stale = []
        for generation in range(50):
            handle = sim.call_after(1.0, log.append, args=(generation,))
            sim.run()
            assert not handle.active
            stale.append(handle)
            # Stale cancels must never kill the *next* generation.
            for old in stale:
                old.cancel()
        assert log == list(range(50))
        assert sim.stats()["pool_hits"] > 0

    def test_cancelled_generation_recycles_without_leaking_actives(self):
        sim = Simulator()
        log = []
        for generation in range(30):
            doomed = sim.call_after(5.0, log.append, args=("doomed",))
            kept = sim.call_after(1.0, log.append, args=(generation,))
            doomed.cancel()
            sim.run()
            assert not doomed.active and not kept.active
        assert log == list(range(30))


class TestAdaptivePoolCap:
    def test_cap_starts_at_floor_and_tracks_peak_pending(self):
        sim = Simulator()
        assert sim.stats()["pool_cap"] == _POOL_CAP
        target = _POOL_CAP * 2
        for i in range(target):
            sim.call_at(float(i + 1), lambda: None)
        stats = sim.stats()
        assert stats["peak_pending"] == target
        assert stats["pool_cap"] == target
        sim.run()
        # The raised cap persists so the next burst of this size runs
        # entirely from the pool.
        assert sim.stats()["pool_cap"] == target
        assert sim.stats()["pool_size"] <= target

    def test_small_runs_keep_the_floor_cap(self):
        sim = Simulator()
        for i in range(100):
            sim.call_at(float(i + 1), lambda: None)
        sim.run()
        assert sim.stats()["pool_cap"] == _POOL_CAP

    def test_pool_hit_rate_reported(self):
        sim = Simulator()
        for round_no in range(3):
            for i in range(500):
                sim.call_at(sim.now + float(i + 1), lambda: None)
            sim.run()
        stats = sim.stats()
        assert stats["pool_hits"] > 0
        assert 0.0 < stats["pool_hit_rate"] <= 1.0
