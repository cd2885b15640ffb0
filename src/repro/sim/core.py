"""The event loop at the heart of every experiment.

Design notes
------------

* **Virtual time** is a ``float`` number of milliseconds starting at 0.
* **Determinism**: events that fire at the same instant are delivered in
  insertion order (a monotonically increasing tiebreaker is part of the heap
  key), so a run is a pure function of (code, seed).
* **Cancellation** is lazy: cancelling marks the event and the entry is
  skipped when popped, which keeps cancellation O(1) -- important because
  protocols cancel retransmission timers on virtually every reply.  When
  cancelled entries outnumber live ones the heap is compacted in one pass
  (the same strategy asyncio uses), so a cancel-heavy run never drags a
  long tail of dead timers through every push and pop.
* **Allocation discipline**: the heap stores uniform 5-slot ``[time,
  sequence, event_or_None, callback, args]`` list entries (C-speed
  element-wise comparisons that never get past the unique ``sequence``),
  :class:`Event` has ``__slots__``, and executed or compacted events are
  recycled through a free pool.  The entry lists themselves are recycled
  through an arena freelist: a popped entry is returned to the arena
  *before* its callback runs (its slots are overwritten on reuse and
  cleared at run exit), so at steady state the hot loop
  schedules and fires events with **zero** per-event allocation -- the
  entry a delivery vacates is immediately reused by the deliveries it
  causes, which also keeps the GC generation-0 counter flat (GC tracking
  of per-message heap tuples used to be the floor under the delivery
  path, ~2.5x the schedule() cost with GC on).  Both the event pool and
  the arena share a cap that scales with the peak number of pending
  events (bounded by :data:`_POOL_CAP_MAX`), so a run holding 10⁶ events
  in flight recycles at the same rate as a small one instead of
  thrashing the allocator.  Callers that never cancel can use
  :meth:`Simulator.schedule` to skip the :class:`EventHandle`, or
  :meth:`Simulator.post` (message delivery) to skip the :class:`Event`
  object entirely -- a light posting is a bare ``[time, sequence, None,
  callback, args]`` entry.  Every event, including one scheduled at
  exactly ``now``, goes through the heap: the ``(time, sequence)`` key
  fires same-tick work after everything queued before it.

:meth:`Simulator.stats` exposes the hot-loop counters (heap ops, pool
hit-rate, compactions) for ``repro profile`` and ``repro bench
--profile``; see ``docs/profiling.md``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError

Callback = Callable[..., None]

#: Recycled-event pool floor; the effective cap scales with the peak
#: number of pending events up to :data:`_POOL_CAP_MAX` (a pool never
#: holds more events than were simultaneously live, so it cannot raise
#: peak memory -- it only delays the GC).
_POOL_CAP = 8192

#: Hard bound on the recycled-event pool.
_POOL_CAP_MAX = 1 << 20

#: Compact the heap when more than this many entries are cancelled *and*
#: they outnumber the live entries (both conditions, like asyncio).
_COMPACT_MIN_CANCELLED = 64

#: Hot-loop aliases: skip the module-attribute (and __init__ frame) per
#: scheduled event.
_heappush = heapq.heappush

#: ``run()`` deadline when no ``until`` is given.
_INF = float("inf")


class Event:
    """A scheduled callback, ordered in the heap by ``(time, sequence)``.

    ``sequence`` doubles as a generation tag: it is reset to ``-1`` when the
    event fires and reassigned when the object is recycled for a new
    scheduling, which lets stale :class:`EventHandle` objects detect that
    "their" event is gone in O(1).
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "label")

    def __init__(self, time: float = 0.0, sequence: int = -1,
                 callback: Optional[Callback] = None,
                 args: Tuple[Any, ...] = (), label: str = "") -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label


_new_event = Event.__new__


class EventHandle:
    """Caller-facing handle allowing an event to be cancelled.

    The handle pins the ``(event, sequence)`` pair observed at scheduling
    time; once the event has fired (or its object has been recycled) the
    handle becomes inert: ``active`` is False and ``cancel()`` is a no-op.
    """

    __slots__ = ("_sim", "_event", "_sequence")

    def __init__(self, sim: "Simulator", event: Event, sequence: int):
        self._sim = sim
        self._event = event
        self._sequence = sequence

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire (meaningful only
        while ``active``)."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        event = self._event
        return event.sequence == self._sequence and not event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self._sim._cancel_event(self._event, self._sequence)


class Simulator:
    """A deterministic discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.call_at(10.0, lambda: print("fires at t=10ms"))
        sim.run(until=100.0)

    The simulator never advances past an event without executing it, and it
    raises :class:`SimulationError` on attempts to schedule in the past.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        # Heap entries are uniform 5-slot lists:
        #   [time, sequence, event_or_None, callback, args]
        # Event entries leave slots 3/4 as None; light postings leave
        # slot 2 as None.  Uniformity matters: heapq compares entries
        # element-wise, and mixing tuples with lists would raise.
        self._queue: List[List[Any]] = []
        self._sequence: int = 0
        self._executed: int = 0
        self._live: int = 0
        self._peak_live: int = 0
        self._cancelled_queued: int = 0
        self._pool: List[Event] = []
        self._pool_cap: int = _POOL_CAP
        self._pool_hits: int = 0
        # Arena freelist of vacated heap-entry lists (recycled by the
        # drain, drained by schedule()/post(); shares the adaptive pool
        # cap).
        # Misses (cold allocations) are counted instead of hits: every
        # heap push is either a hit or a miss, so hits are derived.
        self._arena: List[List[Any]] = []
        self._arena_misses: int = 0
        self._compactions: int = 0
        self._compaction_dropped: int = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (not cancelled, not fired) events still queued.

        Maintained as an O(1) counter; the heap may additionally hold
        cancelled entries awaiting lazy removal.
        """
        return self._live

    @property
    def executed(self) -> int:
        """Total events executed so far (statistics/debugging)."""
        return self._executed

    def stats(self) -> Dict[str, Any]:
        """Hot-loop subsystem counters (see ``docs/profiling.md``).

        All counters are maintained for free or nearly so: heap pops and
        total cancellations are derived from conservation identities
        (``scheduled = executed + pending + cancelled``; every entry
        leaves the heap by pop or by compaction) rather than counted in
        the hot loop.
        """
        scheduled = self._sequence
        heap_pops = scheduled - len(self._queue) - self._compaction_dropped
        # Every heap push either reuses an arena entry or allocates one,
        # so hits fall out of the miss count kept off the hot path.
        arena_hits = scheduled - self._arena_misses
        return {
            "now_ms": self._now,
            "scheduled": scheduled,
            "executed": self._executed,
            "pending": self._live,
            "cancelled": scheduled - self._executed - self._live,
            "heap_pushes": scheduled,
            "heap_pops": heap_pops,
            "compactions": self._compactions,
            "compaction_dropped": self._compaction_dropped,
            "peak_pending": self._peak_live,
            "pool_cap": self._pool_cap,
            "pool_size": len(self._pool),
            "pool_hits": self._pool_hits,
            "pool_hit_rate": self._pool_hits / scheduled if scheduled
            else 0.0,
            "arena_cap": self._pool_cap,
            "arena_size": len(self._arena),
            "arena_hits": arena_hits,
            "arena_hit_rate": arena_hits / scheduled if scheduled
            else 0.0,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, callback: Callback,
                 args: Tuple[Any, ...] = (), label: str = "") -> Event:
        """Hot-path scheduling: no :class:`EventHandle` is created.

        Use when the caller will never cancel (message deliveries, one-shot
        kicks).  ``args`` are passed to ``callback`` at fire time, which
        lets callers avoid building a closure per event.

        Returns:
            The raw :class:`Event` (with its current ``sequence`` as the
            generation tag) -- :class:`repro.sim.process.Timer` uses the
            pair to cancel without a handle.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        pool = self._pool
        if pool:
            self._pool_hits += 1
            event = pool.pop()
        else:
            # Bare allocation: __new__ skips the __init__ frame, the six
            # stores below are shared with the pool-hit branch.
            event = _new_event(Event)
        event.time = time
        event.sequence = sequence
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.label = label
        # An event entry only stores slots 0..2: slots 3/4 may hold stale
        # refs from a recycled light posting, but they are never read
        # while slot 2 is non-None, and run()'s exit pass clears whatever
        # the arena retains.
        arena = self._arena
        if arena:
            entry = arena.pop()
            entry[0] = time
            entry[1] = sequence
            entry[2] = event
        else:
            self._arena_misses += 1
            entry = [time, sequence, event, None, None]
        _heappush(self._queue, entry)
        live = self._live + 1
        self._live = live
        if live > self._peak_live:
            self._peak_live = live
            if live > self._pool_cap:
                self._pool_cap = (live if live < _POOL_CAP_MAX
                                  else _POOL_CAP_MAX)
        return event

    def post(self, time: float, callback: Callback,
             args: Tuple[Any, ...] = ()) -> None:
        """Fire-and-forget scheduling: no :class:`Event`, no handle.

        The heap entry is a bare ``[time, sequence, None, callback,
        args]`` list drawn from the arena freelist -- at steady state
        zero tracked allocations per posting, and no cancelled-check on
        the drain.  This is the message-delivery path: the network posts
        every delivery (they are never cancelled), which makes this the
        most frequently executed scheduling call in the repository.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        arena = self._arena
        if arena:
            entry = arena.pop()
            entry[0] = time
            entry[1] = sequence
            entry[3] = callback
            entry[4] = args
        else:
            self._arena_misses += 1
            entry = [time, sequence, None, callback, args]
        _heappush(self._queue, entry)
        live = self._live + 1
        self._live = live
        if live > self._peak_live:
            self._peak_live = live
            if live > self._pool_cap:
                self._pool_cap = (live if live < _POOL_CAP_MAX
                                  else _POOL_CAP_MAX)

    def call_at(self, time: float, callback: Callback,
                label: str = "", args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback`` to run at absolute virtual ``time``.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        event = self.schedule(time, callback, args, label)
        return EventHandle(self, event, event.sequence)

    def call_after(self, delay: float, callback: Callback,
                   label: str = "", args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ms from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback, label=label,
                            args=args)

    def call_soon(self, callback: Callback, label: str = "",
                  args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback`` at the current instant (after queued peers)."""
        return self.call_at(self._now, callback, label=label, args=args)

    def call_every(self, period_ms: float, callback: Callback,
                   until_ms: float, label: str = "") -> None:
        """Run ``callback`` now and every ``period_ms`` until ``until_ms``
        (inclusive).

        Each firing schedules only the next one, so arming a long horizon
        keeps O(1) live events instead of O(until/period) -- the pattern
        the periodic safety/liveness observers rely on.  Ticks land at
        exactly ``now + k * period_ms``.

        Raises:
            ValueError: if ``period_ms`` is not positive.
        """
        if period_ms <= 0:
            raise ValueError(
                f"period_ms must be positive, got {period_ms}")

        def tick(at_ms: float) -> None:
            callback()
            next_ms = at_ms + period_ms
            if next_ms <= until_ms:
                self.call_at(next_ms, tick, args=(next_ms,), label=label)

        if self._now <= until_ms:
            self.call_at(self._now, tick, args=(self._now,), label=label)

    # ------------------------------------------------------------------
    # Cancellation (internal; EventHandle and Timer delegate here)
    # ------------------------------------------------------------------
    def _cancel_event(self, event: Event, sequence: int) -> bool:
        """Cancel a scheduled event if ``sequence`` still matches.

        Returns True if the event was live and is now cancelled.  The
        heap entry is removed lazily; when dead entries pile up the heap
        is compacted in one pass.
        """
        if event.sequence != sequence or event.cancelled:
            return False
        event.cancelled = True
        event.callback = None
        event.args = ()
        self._live -= 1
        self._cancelled_queued += 1
        if (self._cancelled_queued > _COMPACT_MIN_CANCELLED
                and self._cancelled_queued * 2 > len(self._queue)):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify; pops stay in the same
        order because heap keys are unique ``(time, sequence)`` pairs.

        Mutates the queue in place: ``run()`` holds a reference to it
        across callbacks, and callbacks may trigger compaction.
        """
        pool = self._pool
        pool_cap = self._pool_cap
        arena = self._arena
        queue = self._queue
        keep = []
        for entry in queue:
            event = entry[2]
            if event is not None and event.cancelled:
                if len(pool) < pool_cap:
                    pool.append(event)
                if len(arena) < pool_cap:
                    entry[2] = None
                    arena.append(entry)
            else:
                keep.append(entry)
        self._compaction_dropped += len(queue) - len(keep)
        queue[:] = keep
        heapq.heapify(queue)
        self._cancelled_queued = 0
        self._compactions += 1

    def _retire(self, event: Event) -> None:
        """Tombstone a popped event and return it to the free pool."""
        event.sequence = -1
        event.callback = None
        event.args = ()
        if len(self._pool) < self._pool_cap:
            self._pool.append(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.

        Returns:
            True if an event was executed; False if the queue was empty.
        """
        queue = self._queue
        arena = self._arena
        while queue:
            entry = heapq.heappop(queue)
            event = entry[2]
            if event is None:
                self._now = entry[0]
                self._executed += 1
                self._live -= 1
                callback = entry[3]
                args = entry[4]
                entry[3] = None
                entry[4] = None
                if len(arena) < self._pool_cap:
                    arena.append(entry)
                callback(*args)
                return True
            # Event entry: slots 3/4 are never read while slot 2 is
            # non-None, so the shell is recyclable as soon as slot 2 is
            # cleared.
            entry[2] = None
            if len(arena) < self._pool_cap:
                arena.append(entry)
            if event.cancelled:
                self._cancelled_queued -= 1
                self._retire(event)
                continue
            self._now = event.time
            self._executed += 1
            self._live -= 1
            callback = event.callback
            args = event.args
            self._retire(event)
            if args:
                callback(*args)
            else:
                callback()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue is empty, ``until`` is reached, or the budget
        of ``max_events`` is exhausted.

        When ``until`` is given and no live event is left at or before it,
        the clock is advanced to exactly ``until`` even if the last event
        fires earlier, so back-to-back ``run`` calls compose naturally
        (``run(until=100); run(until=200)``).  A run cut short by
        ``max_events`` leaves the clock at the last executed event, so
        the events still due before ``until`` stay schedulable.

        Returns:
            Number of events executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        executed = 0
        out_of_budget = False
        queue = self._queue
        pool = self._pool
        arena = self._arena
        # Recycling inside the drain appends unconditionally (no len/cap
        # check per event); the finally clause trims both freelists back
        # to the cap in one pass.  Transient growth is bounded by the
        # peak number of in-flight entries -- the same memory the heap
        # itself just released.
        pool_append = pool.append
        arena_append = arena.append
        pop = heapq.heappop
        try:
            if until is None and max_events is None:
                # Run-to-quiescence drain: no deadline to peek for, so
                # every event is popped straight off -- one less index and
                # branch per event on the hottest loop in the repo.
                while queue:
                    entry = pop(queue)
                    event = entry[2]
                    if event is None:
                        # Light posting: fire straight off the entry.  The
                        # shell goes back to the arena *before* the
                        # callback runs, so the entry a delivery vacates
                        # is immediately reused by the deliveries it
                        # causes.  Slots 3/4 are left stale here (post()
                        # overwrites them on reuse, event entries never
                        # read them); the finally clause clears whatever
                        # the arena still holds at exit.
                        self._now = entry[0]
                        executed += 1
                        self._live -= 1
                        callback = entry[3]
                        args = entry[4]
                        arena_append(entry)
                        callback(*args)
                        continue
                    entry[2] = None
                    arena_append(entry)
                    if event.cancelled:
                        self._cancelled_queued -= 1
                        event.sequence = -1
                        pool_append(event)
                        continue
                    self._now = entry[0]
                    executed += 1
                    self._live -= 1
                    callback = event.callback
                    args = event.args
                    event.sequence = -1
                    event.callback = None
                    event.args = ()
                    pool_append(event)
                    if args:
                        callback(*args)
                    else:
                        callback()
                return executed
            deadline = _INF if until is None else until
            while queue:
                entry = queue[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    pop(queue)
                    self._cancelled_queued -= 1
                    event.sequence = -1
                    pool_append(event)
                    entry[2] = None
                    arena_append(entry)
                    continue
                if entry[0] > deadline:
                    break
                if max_events is not None and executed >= max_events:
                    out_of_budget = True
                    break
                pop(queue)
                self._now = entry[0]
                executed += 1
                self._live -= 1
                if event is None:
                    callback = entry[3]
                    args = entry[4]
                    arena_append(entry)
                    callback(*args)
                    continue
                entry[2] = None
                arena_append(entry)
                callback = event.callback
                args = event.args
                event.sequence = -1
                event.callback = None
                event.args = ()
                pool_append(event)
                if args:
                    callback(*args)
                else:
                    callback()
        finally:
            self._running = False
            # Deferred bookkeeping: the executed counter is only read
            # between runs, so the hot loops keep a local and commit it
            # here (exceptions included).
            self._executed += executed
            # Trim both freelists back to the cap, and clear the stale
            # callback/args slots light postings left behind so parked
            # arena entries never pin delivered payloads between runs.
            cap = self._pool_cap
            if len(arena) > cap:
                del arena[cap:]
            if len(pool) > cap:
                del pool[cap:]
            for entry in arena:
                entry[3] = None
                entry[4] = None
        if until is not None and self._now < until and not out_of_budget:
            self._now = until
        return executed

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run to quiescence; guard against runaway event loops.

        Raises:
            SimulationError: if ``max_events`` is exceeded, which almost
                always indicates a timer rescheduling itself unconditionally.
        """
        executed = self.run(max_events=max_events)
        if self.pending:
            raise SimulationError(
                f"drain exceeded {max_events} events with "
                f"{self.pending} still pending"
            )
        return executed
