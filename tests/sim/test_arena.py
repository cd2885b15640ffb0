"""The heap-entry arena: vacated 5-slot lists are recycled by the drain
and reused by ``schedule()``/``post()``, so at steady state the hot loop
allocates no entry lists.  These tests pin down the freelist's
observable contract: the stats counters, actual recycling at steady
state, the shared cap with the event pool, and -- most importantly --
that the arena changes nothing about execution order or timing.
"""

from repro.sim.core import Simulator


def ping_pong(sim, rounds, log):
    """A self-sustaining post() chain: one live entry, recycled forever."""

    def fire(i):
        log.append((sim.now, i))
        if i < rounds:
            sim.post(sim.now + 1.0, fire, (i + 1,))

    sim.post(1.0, fire, (0,))


class TestArenaCounters:
    def test_counters_present_and_zero_initially(self):
        stats = Simulator().stats()
        assert stats["arena_cap"] > 0
        assert stats["arena_size"] == 0
        assert stats["arena_hits"] == 0
        assert stats["arena_hit_rate"] == 0.0

    def test_cap_is_shared_with_event_pool(self):
        sim = Simulator()
        stats = sim.stats()
        assert stats["arena_cap"] == stats["pool_cap"]

    def test_hit_rate_is_hits_over_heap_pushes(self):
        sim = Simulator()
        log = []
        ping_pong(sim, 40, log)
        sim.run()
        stats = sim.stats()
        assert stats["heap_pushes"] > 0
        assert stats["arena_hit_rate"] == (
            stats["arena_hits"] / stats["heap_pushes"])


class TestArenaRecycling:
    def test_steady_state_posts_recycle(self):
        sim = Simulator()
        log = []
        ping_pong(sim, 100, log)
        sim.run()
        # Every posting after the first finds the single vacated entry.
        stats = sim.stats()
        assert stats["arena_hits"] == 100
        assert stats["arena_size"] == 1  # the last entry, parked
        assert log == [(float(i + 1), i) for i in range(101)]

    def test_schedule_and_post_share_the_freelist(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, fired.append, (0,))
        sim.run()
        assert sim.stats()["arena_size"] == 1
        # A future-time schedule() reuses the entry post() vacated.
        sim.call_at(2.0, lambda: fired.append(1))
        assert sim.stats()["arena_hits"] == 1
        assert sim.stats()["arena_size"] == 0
        sim.run()
        assert fired == [0, 1]

    def test_arena_never_grows_past_cap(self):
        sim = Simulator()
        fired = []
        # A wide burst: every entry vacates on the same drain pass.
        for i in range(200):
            sim.post(1.0 + i * 0.001, fired.append, (i,))
        sim.run()
        stats = sim.stats()
        assert stats["arena_size"] <= stats["arena_cap"]
        assert fired == list(range(200))


class TestArenaEquivalence:
    """Recycling must be invisible: reused entries keep the schedule."""

    def test_recycled_entries_preserve_ordering(self):
        # Interleave cancellations with postings so vacated event
        # entries are reused by later postings mid-run.
        sim = Simulator()
        log = []
        handles = [sim.call_at(5.0 + i, log.append, args=(i,))
                   for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        for i in range(10, 20):
            sim.post(4.0 + (i - 10) * 0.1, log.append, (i,))
        sim.run()
        assert log == list(range(10, 20)) + [1, 3, 5, 7, 9]
