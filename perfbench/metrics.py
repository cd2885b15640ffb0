"""Per-request accounting, the tail-percentile rule and outage gaps.

Pure functions over plain tuples, so they can be tested on synthetic
completion lists without running a simulation.

A request is keyed by its *arrival* time: the moment it was due (open
loop) or sent (closed loop, where the two coincide).  Only requests
that arrived inside ``[window_start, window_end - limit)`` are
*attempted*: each of them has a full latency limit of observed time
before the run ends, so a request that has not committed within the
limit is a real miss and never an artifact of the cut-off.  Requests
that arrived before warmup are excluded even when they commit inside
the window, which keeps the failed fraction in ``[0, 1]``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_TAIL_SAMPLES = 10

#: ``(arrival_ms, sent_ms or None, committed_ms or None)``.
RequestRecord = Tuple[float, Optional[float], Optional[float]]


@dataclass(frozen=True)
class Accounting:
    """What the attempted requests of one cell (or a pool) came to."""

    attempted: int
    #: Attempted requests with no commit within the latency limit.
    late_or_lost: int
    #: Attempted requests that never committed at all.
    never_committed: int
    #: Arrival-to-commit latencies of the attempted requests that
    #: committed, in ms.
    latencies: Tuple[float, ...]
    #: Arrival-to-send waits of the attempted requests that were
    #: sent, in ms.
    queue_waits: Tuple[float, ...]

    @property
    def failed_frac(self) -> float:
        """Share of attempted requests that missed the latency limit."""
        return self.late_or_lost / self.attempted if self.attempted else 0.0


def account(records: Sequence[RequestRecord], window_start: float,
            window_end: float, limit_ms: float) -> Accounting:
    """Match each attempted request to its own commit.

    A request counts as served when ``committed - arrival <= limit_ms``;
    the limit itself is inside.
    """
    cutoff = window_end - limit_ms
    attempted = late = never = 0
    latencies: List[float] = []
    waits: List[float] = []
    for arrival, sent, committed in records:
        if arrival < window_start or arrival >= cutoff:
            continue
        attempted += 1
        if sent is not None:
            waits.append(sent - arrival)
        if committed is None:
            never += 1
            late += 1
            continue
        latency = committed - arrival
        latencies.append(latency)
        if latency > limit_ms:
            late += 1
    return Accounting(attempted, late, never, tuple(latencies),
                      tuple(waits))


def pool(parts: Sequence[Accounting]) -> Accounting:
    """Pool several cells' accounting into one."""
    return Accounting(
        attempted=sum(p.attempted for p in parts),
        late_or_lost=sum(p.late_or_lost for p in parts),
        never_committed=sum(p.never_committed for p in parts),
        latencies=tuple(x for p in parts for x in p.latencies),
        queue_waits=tuple(x for p in parts for x in p.queue_waits))


def nearest_rank(ordered: Sequence[float], percent: int) -> float:
    """The nearest-rank ``percent``-th percentile of sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    rank = -(-percent * len(ordered) // 100)  # ceil without floats
    return ordered[max(rank, 1) - 1]


def tail_percent(count: int, want: int = 99) -> Optional[int]:
    """Highest whole percentile up to ``want`` that leaves at least
    :data:`MIN_TAIL_SAMPLES` samples strictly beyond it, or None."""
    for percent in range(want, 0, -1):
        rank = -(-percent * count // 100)
        if count - rank >= MIN_TAIL_SAMPLES:
            return percent
    return None


def tail(samples: Sequence[float], want: int = 99
         ) -> Tuple[Optional[float], Optional[int], int]:
    """``(value, percentile used, sample count)`` under the tail rule."""
    ordered = sorted(samples)
    percent = tail_percent(len(ordered), want)
    if percent is None:
        return None, None, len(ordered)
    return nearest_rank(ordered, percent), percent, len(ordered)


def longest_outage(records: Sequence[RequestRecord], window_start: float,
                   window_end: float) -> float:
    """Longest stretch of ``[window_start, window_end)`` in which some
    request was waiting and none committed: time without service.

    Idle time, when nothing had arrived that was not yet served, does
    not count; a request that never commits keeps waiting to the end.
    """
    inf = float("inf")
    by_commit = sorted((inf if committed is None else committed, arrival)
                       for arrival, _, committed in records)
    commits = [committed for committed, _ in by_commit]
    # waiting_from[i]: earliest arrival among the requests that commit
    # at commits[i] or later.
    waiting_from = [inf] * (len(by_commit) + 1)
    for index in range(len(by_commit) - 1, -1, -1):
        waiting_from[index] = min(waiting_from[index + 1],
                                  by_commit[index][1])
    longest = 0.0
    previous = window_start
    for committed in commits + [window_end]:
        if committed < window_start:
            continue
        end = min(committed, window_end)
        waiting = waiting_from[bisect.bisect_right(commits, previous)]
        longest = max(longest, end - max(previous, waiting))
        if committed >= window_end:
            break
        previous = committed
    return longest
