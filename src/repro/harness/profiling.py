"""First-class profiling for the hot paths (``repro bench --profile``,
``repro profile``).

Two complementary views of where time goes:

* **cProfile/pstats** -- wall-clock attribution by function, for finding
  the next thing to optimize.  :func:`profile_call` wraps any thunk;
  the stats can be dumped to a ``.pstats`` file (loadable with
  ``python -m pstats`` or snakeviz) and/or rendered with
  :func:`format_stats`.
* **Subsystem counters** -- the simulator's and network's own hot-loop
  counters (heap ops, pool hit-rate, compactions, coalesced deliveries,
  MAC stamps/verifies) and the ``digest_of`` call count, collected for
  free as the run executes.  :func:`format_subsystems` renders them side
  by side; ``docs/profiling.md`` explains how to read them.

The two disagree on purpose: cProfile says where *wall time* went under
instrumentation overhead; the counters say what the hot loops *did*.
Regressions usually show in the counters first (pool hit-rate
collapses, digests per commit climb) before they are big enough to see
in a profile.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import asdict, is_dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto.primitives import digest_cache_stats

#: Default number of rows shown by :func:`format_stats`.
DEFAULT_LIMIT = 25


def profile_call(thunk: Callable[[], Any]) -> Tuple[Any, cProfile.Profile]:
    """Run ``thunk`` under cProfile; returns ``(result, profiler)``.

    The profiler is disabled (but not consumed) on return, even if the
    thunk raises, so a failing run still leaves usable stats behind.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = thunk()
    finally:
        profiler.disable()
    return result, profiler


def dump_stats(profiler: cProfile.Profile, path: str) -> None:
    """Write the raw profile to ``path`` (pstats format).

    The file round-trips through ``pstats.Stats(path)``,
    ``python -m pstats``, snakeviz, gprof2dot, etc.
    """
    profiler.dump_stats(path)


def format_stats(profiler: cProfile.Profile, sort: str = "cumulative",
                 limit: int = DEFAULT_LIMIT) -> str:
    """Top-``limit`` rows of the profile, sorted by ``sort``
    (any pstats sort key: ``cumulative``, ``tottime``, ``ncalls``...).
    """
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(limit)
    return stream.getvalue().rstrip()


def subsystem_counters(sim: Any = None,
                       network: Any = None) -> Dict[str, Dict[str, Any]]:
    """Collect the per-subsystem hot-loop counters of one run.

    ``sim`` is a :class:`repro.sim.core.Simulator` (its ``stats()``
    dict is taken as-is); ``network`` is a
    :class:`repro.net.network.Network` (its ``stats`` dataclass is
    flattened).  Either may be None.
    """
    out: Dict[str, Dict[str, Any]] = {}
    if sim is not None:
        out["sim"] = sim.stats()
    if network is not None:
        stats = network.stats
        out["network"] = (asdict(stats) if is_dataclass(stats)
                         else dict(vars(stats)))
    # The digest_of() call count is process-global (it belongs to no
    # sim or network), so it is always reported.
    out["crypto"] = {"digest_of": sum(digest_cache_stats().values())}
    return out


def format_subsystems(counters: Dict[str, Dict[str, Any]]) -> str:
    """Render :func:`subsystem_counters` output as an aligned table."""
    lines = []
    for subsystem, values in counters.items():
        lines.append(f"[{subsystem}]")
        width = max((len(k) for k in values), default=0)
        for key, value in values.items():
            if isinstance(value, float):
                rendered = f"{value:.4f}" if 0 < abs(value) < 1_000 \
                    else f"{value:.1f}"
            else:
                rendered = str(value)
            lines.append(f"  {key:<{width}}  {rendered}")
    return "\n".join(lines)


def profile_report(profiler: cProfile.Profile,
                   counters: Optional[Dict[str, Dict[str, Any]]] = None,
                   sort: str = "cumulative",
                   limit: int = DEFAULT_LIMIT) -> str:
    """The combined report ``repro profile`` prints: subsystem counters
    first (what the hot loops did), then the top of the wall-clock
    profile (where the time went)."""
    parts = []
    if counters:
        parts.append(format_subsystems(counters))
    parts.append(format_stats(profiler, sort=sort, limit=limit))
    return "\n\n".join(parts)
