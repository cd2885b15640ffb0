"""Perf-trajectory gate: archive benchmark points, fail on regressions.

``repro bench`` measures the current hot paths against the preserved seed
implementation and reports host-normalized *speedup ratios*.  One run is
a point; the archive under ``benchmarks/perf/history/`` is the
trajectory.  The gate compares the current point against the best
recorded speedup per benchmark and fails when any ratio drops more than
``tolerance`` (default 20%) below that best -- which catches the failure
mode a fresh-run smoke cannot: a PR that quietly gives back the speedups
earlier PRs banked, while still being "faster than the seed".

Speedup ratios are used (rather than wall-clock) because both sides of
each ratio run on the same host in the same process, so points recorded
on different machines remain comparable.  Wall-clock-ish numbers
(``units_per_sec``, the closed loop's ``commits_per_wall_sec``) are
archived for plotting but never gated on.

Used by ``scripts/ci.sh perf`` through the ``repro trajectory`` CLI::

    python -m repro trajectory check BENCH_perf.json
    python -m repro trajectory record BENCH_perf.json --label pr5
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

#: Default archive location, relative to the repository root.
HISTORY_DIR = os.path.join("benchmarks", "perf", "history")

#: Default slack: fail when a speedup drops >20% below the best recorded.
TOLERANCE = 0.2

#: Gauges removed from the suite on purpose, name -> reason.  Their
#: archived points stay in the history, but the missing-benchmark guard
#: lets them go; any other gauge that vanishes still fails the gate.
RETIRED_BENCHMARKS: Dict[str, str] = {
    "same_tick_drain": "the simulator's same-tick FIFO lane was removed; "
                       "it carried at most 2.9% of events on the "
                       "end-to-end benchmark",
    "digest_cache": "the per-message digest cache was removed; it hit 0 "
                    "times on every end-to-end benchmark cell",
}


def _point_from_suite(payload: Dict[str, Any],
                      label: Optional[str] = None) -> Dict[str, Any]:
    """Distill one ``BENCH_perf.json`` payload into a history point."""
    benchmarks: Dict[str, Any] = {}
    for name, bench in payload.get("benchmarks", {}).items():
        entry: Dict[str, Any] = {}
        for key in ("speedup", "units_per_sec", "seconds",
                    "commits_per_wall_sec", "results_match",
                    "deterministic"):
            if key in bench:
                entry[key] = bench[key]
        benchmarks[name] = entry
    return {
        "schema": 1,
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": payload.get("host", {}),
        "params": payload.get("params", {}),
        "benchmarks": benchmarks,
    }


def load_history(history_dir: str = HISTORY_DIR) -> List[Dict[str, Any]]:
    """All archived points, ordered by filename (i.e. by recording time
    for auto-named points).

    A corrupt point (e.g. a file truncated by a killed run, then
    re-propagated by a CI cache) is skipped with a warning instead of
    wedging the gate forever; its best values are lost, which the
    warning makes loud enough to act on.
    """
    if not os.path.isdir(history_dir):
        return []
    points = []
    for name in sorted(os.listdir(history_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(history_dir, name)
        try:
            with open(path) as fh:
                point = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"warning: skipping corrupt trajectory point {path}: "
                  f"{exc}", file=sys.stderr)
            continue
        point["_file"] = name
        points.append(point)
    return points


def best_speedups(history: List[Dict[str, Any]]) -> Dict[str, float]:
    """Best recorded speedup per benchmark across the trajectory."""
    best: Dict[str, float] = {}
    for point in history:
        for name, bench in point.get("benchmarks", {}).items():
            speedup = bench.get("speedup")
            if speedup is None:
                continue
            if name not in best or speedup > best[name]:
                best[name] = speedup
    return best


def describe_host(host: Dict[str, Any]) -> str:
    """One-line summary of a payload's recorded host facts.

    Used by ``repro trajectory check`` when the gate trips: comparing
    the current run's line against the best point's line is the fastest
    way to tell a regression from host contention (different machine,
    fewer cores, or a loadavg showing something else was running).
    """
    if not host:
        return "(no host facts recorded)"
    parts: List[str] = []
    if host.get("cpu_model"):
        parts.append(str(host["cpu_model"]))
    if host.get("nproc") is not None:
        parts.append(f"nproc={host['nproc']}")
    loadavg = host.get("loadavg")
    if loadavg:
        parts.append("loadavg=" + "/".join(f"{x:.2f}" for x in loadavg))
    if host.get("platform"):
        parts.append(str(host["platform"]))
    return ", ".join(parts) if parts else "(no host facts recorded)"


def best_point_for(history: List[Dict[str, Any]],
                   benchmark: str) -> Optional[Dict[str, Any]]:
    """The archived point holding the best speedup for ``benchmark``."""
    best_point: Optional[Dict[str, Any]] = None
    best_speedup: Optional[float] = None
    for point in history:
        speedup = point.get("benchmarks", {}).get(benchmark, {}).get(
            "speedup")
        if speedup is None:
            continue
        if best_speedup is None or speedup > best_speedup:
            best_speedup = speedup
            best_point = point
    return best_point


def is_partial(payload: Dict[str, Any]) -> bool:
    """Was this payload produced by ``repro bench --only`` (a triage
    subset) or under ``--profile`` (instrumented timings)?

    Partial/instrumented payloads may be *checked* (each present
    benchmark is still gated) but never *recorded*: a subset would
    disarm the missing-benchmark guard for everyone after it, and
    profiled timings are not comparable to clean ones.
    """
    params = payload.get("params", {})
    return bool(params.get("only")) or bool(params.get("profiled"))


def check_point(payload: Dict[str, Any],
                history: List[Dict[str, Any]],
                tolerance: float = TOLERANCE) -> List[str]:
    """Regression messages for ``payload`` against the trajectory.

    Empty list = gate passes.  An empty history passes by definition
    (the first recorded point seeds the trajectory).  A partial payload
    (``repro bench --only``) is gated only on the benchmarks it
    contains; the missing-benchmark guard is skipped, since the subset
    declares itself in ``params.only``.
    """
    problems: List[str] = []
    best = best_speedups(history)
    benchmarks = payload.get("benchmarks", {})
    for name, bench in benchmarks.items():
        speedup = bench.get("speedup")
        if speedup is None or name not in best:
            continue
        floor = (1.0 - tolerance) * best[name]
        if speedup < floor:
            problems.append(
                f"{name}: speedup {speedup:.2f}x fell >"
                f"{tolerance:.0%} below the best recorded "
                f"{best[name]:.2f}x (floor {floor:.2f}x)")
    # A gated benchmark cannot vanish from the suite unnoticed: removing
    # or renaming it is the quietest way to give a speedup back.  Only
    # an entry in RETIRED_BENCHMARKS lets one go.
    if not is_partial(payload):
        for name in sorted(best):
            if name not in benchmarks and name not in RETIRED_BENCHMARKS:
                problems.append(
                    f"{name}: on the trajectory (best {best[name]:.2f}x) "
                    f"but missing from this payload -- removed or renamed?")
    return problems


def record_point(payload: Dict[str, Any],
                 history_dir: str = HISTORY_DIR,
                 label: Optional[str] = None) -> str:
    """Archive ``payload`` as a trajectory point; returns the file path.

    Raises:
        ValueError: for a partial (``--only``) or profiled payload --
            recording one would either disarm the missing-benchmark
            guard or bank instrumented (non-comparable) timings.
    """
    if is_partial(payload):
        raise ValueError(
            "refusing to record a partial/profiled payload as a "
            "trajectory point (produced with --only or --profile); "
            "run the full suite uninstrumented")
    os.makedirs(history_dir, exist_ok=True)
    point = _point_from_suite(payload, label=label)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    name = f"{stamp}-{label}.json" if label else f"{stamp}.json"
    path = os.path.join(history_dir, name)
    # Never clobber an existing point (two runs in the same second).
    serial = 1
    while os.path.exists(path):
        serial += 1
        path = os.path.join(
            history_dir, name.replace(".json", f"-{serial}.json"))
    # Write-then-rename so a killed run cannot leave a truncated point.
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(point, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_path, path)
    return path


def format_check(payload: Dict[str, Any],
                 history: List[Dict[str, Any]],
                 tolerance: float = TOLERANCE) -> str:
    """Human-readable gate report (current vs best vs floor)."""
    best = best_speedups(history)
    lines = [f"{'benchmark':>24} {'current':>9} {'best':>9} {'floor':>9}"
             f" {'status':>8}"]
    for name, bench in payload.get("benchmarks", {}).items():
        speedup = bench.get("speedup")
        if speedup is None:
            continue
        if name in best:
            floor = (1.0 - tolerance) * best[name]
            status = "ok" if speedup >= floor else "REGRESS"
            lines.append(f"{name:>24} {speedup:8.2f}x {best[name]:8.2f}x "
                         f"{floor:8.2f}x {status:>8}")
        else:
            lines.append(f"{name:>24} {speedup:8.2f}x {'--':>9} {'--':>9} "
                         f"{'seeding':>8}")
    for name, reason in RETIRED_BENCHMARKS.items():
        lines.append(f"{name:>24} retired, not gated: {reason}")
    if is_partial(payload):
        lines.append("(partial/profiled payload: gated on present "
                     "benchmarks only, not recordable)")
    if not history:
        lines.append("(history empty: this run seeds the trajectory)")
    return "\n".join(lines)
