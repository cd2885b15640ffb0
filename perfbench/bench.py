"""Measure one workload: rounds, output checks, metrics.

``measure()`` runs the untraced rounds for the time budget (at least
one), checks every cell's outputs and that repeated rounds agree
exactly, and returns the end-to-end metrics.  ``measure_traced()`` runs
one untraced and one traced round of the same seed, checks that tracing
did not change a single deterministic output, and returns the per-layer
metrics.  Either raises :class:`CheckFailed` on a failed check.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench import metrics
from perfbench.tracer import LAYERS, OTHER, Tracer
from perfbench.workloads import (
    PROTOCOLS,
    YARDSTICK_REF_S,
    CellResult,
    Workload,
    run_round,
    yardstick,
)

# Wall time is what this benchmark measures.
_clock = time.perf_counter  # repro: lint-ok[D002]

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Self shares plus the untraced share must sum to 1 within this.
SHARE_TOLERANCE = 0.005


class CheckFailed(Exception):
    """An output check failed; no metric may be reported."""


@dataclass
class RoundSummary:
    """Deterministic outputs of one round plus its wall times."""

    deterministic: Dict[str, Any]
    #: Per protocol, wall seconds at the reference host speed.
    wall_s: Dict[str, float]
    #: Per protocol, wall seconds as measured.
    raw_wall_s: Dict[str, float]
    commits: Dict[str, int]

    @property
    def wall_s_per_kcommit(self) -> float:
        return sum(self.wall_s.values()) / (sum(self.commits.values())
                                             / 1000.0)

    @property
    def raw_wall_s_per_kcommit(self) -> float:
        return sum(self.raw_wall_s.values()) / (sum(self.commits.values())
                                                 / 1000.0)

    def fingerprint(self) -> str:
        """Canonical bytes of everything that must not vary."""
        return json.dumps(self.deterministic, sort_keys=True)


def summarize(workload: Workload, results: List[CellResult]
              ) -> RoundSummary:
    """Check one round's cells and reduce them to its outputs."""
    problems = [f"{r.protocol}: {p}" for r in results for p in r.problems]
    if problems:
        raise CheckFailed("; ".join(problems))
    window = (workload.warmup_ms, workload.duration_ms)
    parts = []
    cell_p99 = []
    outage = 0.0
    in_window = 0
    for result in results:
        part = metrics.account(result.records, window[0], window[1],
                               result.limit_ms)
        parts.append(part)
        cell_p99.append(metrics.tail(part.latencies))
        outage += metrics.longest_outage(result.records, *window)
        in_window += sum(1 for at in result.commit_times
                         if window[0] <= at < window[1])
    pooled = metrics.pool(parts)
    if pooled.attempted == 0 or not pooled.latencies:
        raise CheckFailed("no request was attempted and committed in the "
                          "measured window")
    latencies = sorted(pooled.latencies)
    if any(value is None for value, _, _ in cell_p99):
        raise CheckFailed(f"too few latency samples for a tail percentile: "
                          f"{[count for _, _, count in cell_p99]}")
    waits = sorted(pooled.queue_waits)
    wait_p99, wait_at, _ = metrics.tail(waits)
    counters: Dict[str, int] = {}
    for result in results:
        for key, value in result.counters.items():
            if key == "backlog_peak":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    measured_s = (window[1] - window[0]) / 1000.0
    deterministic = {
        "model_kops": in_window / measured_s / 1000.0,
        "model_p50_ms": metrics.nearest_rank(latencies, 50),
        # Per cell, then averaged: timer-driven commits put whole atoms
        # of identical latencies into the tail (Zyzzyva's 800 ms under
        # rolling crashes), so a pooled p99 reads the same for every seed.
        "model_p99_ms": statistics.fmean(v for v, _, _ in cell_p99),
        "model_p99_percentiles": [at for _, at, _ in cell_p99],
        "latency_samples": len(latencies),
        "failed_frac": pooled.failed_frac,
        "outage_ms": outage,
        "attempted": pooled.attempted,
        "late_or_lost": pooled.late_or_lost,
        "never_committed": pooled.never_committed,
        "queue_wait_p50_ms": metrics.nearest_rank(waits, 50),
        "queue_wait_p99_ms": wait_p99,
        "queue_wait_percentile": wait_at,
        "latency_sum_ms": sum(latencies),
        "commits": {r.protocol: r.commits for r in results},
        "counters": {r.protocol: r.counters for r in results},
        "totals": counters,
    }
    return RoundSummary(deterministic,
                        {r.protocol: r.scaled_wall_s for r in results},
                        {r.protocol: r.wall_s for r in results},
                        {r.protocol: r.commits for r in results})


def _round(workload: Workload, seed: int, tracer: Optional[Tracer] = None
           ) -> RoundSummary:
    on_cell = None
    if tracer is not None:
        def on_cell(index: int) -> None:
            tracer.cell = index
    return summarize(workload, run_round(workload, seed, on_cell))


def setup_seconds(workload_name: str, seed: int, script: str,
                  repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh process that imports everything and
    builds every cell and driver of the workload (``--setup-only``),
    at the reference host speed of :func:`yardstick`."""
    times = []
    speeds = [yardstick()]
    for _ in range(repeats):
        start = _clock()
        subprocess.run([sys.executable, script, "--setup-only",
                        "--workload", workload_name, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(_clock() - start)
        speeds.append(yardstick())
    return statistics.median(times) * YARDSTICK_REF_S / statistics.fmean(
        speeds)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float,
            script: Optional[str] = None, setup_repeats: int = SETUP_REPEATS
            ) -> Tuple[Dict[str, Tuple[float, str]], RoundSummary,
                       List[Tuple[float, float]]]:
    """Untraced rounds for ``seconds`` of wall time (at least one).

    ``script`` is this benchmark's ``run.py``, started ``setup_repeats``
    times with ``--setup-only`` to time ``setup_s``.  Returns the
    end-to-end metrics ``{name: (value, unit)}``, the first round's
    summary and every round's ``(scaled, raw)`` wall seconds per 1000
    commits.
    """
    setup_s = setup_seconds(workload.name, seed, script, setup_repeats) \
        if script is not None else None
    first: Optional[RoundSummary] = None
    walls: List[Tuple[float, float]] = []
    start = _clock()
    while first is None or _clock() - start < seconds:
        summary = _round(workload, seed)
        if first is None:
            first = summary
        elif summary.fingerprint() != first.fingerprint():
            raise CheckFailed(f"round {len(walls) + 1} differs from "
                              f"round 1 at the same seed")
        walls.append((summary.wall_s_per_kcommit,
                      summary.raw_wall_s_per_kcommit))
    d = first.deterministic
    result = {
        "wall_s_per_kcommit": (statistics.median(
            scaled for scaled, _ in walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "model_kops": (d["model_kops"], "kops/s"),
        "model_p50_ms": (d["model_p50_ms"], "ms"),
        "model_p99_ms": (d["model_p99_ms"], "ms"),
        "served_frac": (1.0 - d["failed_frac"], "ratio"),
        "outage_ms": (d["outage_ms"], "ms"),
    }
    if setup_s is not None:
        result["setup_s"] = (setup_s, "s")
    return result, first, walls


def measure_traced(workload: Workload, seed: int,
                   spans_out: Optional[str] = None
                   ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any]]:
    """One untraced and one traced round; the per-layer metrics.

    Returns ``({name: (value, unit)}, extras)`` where ``extras`` holds
    the untraced base and the layer table for the printed report.
    """
    base = _round(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _round(workload, seed, tracer)
    finally:
        tracer.restore()
    if traced.fingerprint() != base.fingerprint():
        raise CheckFailed("the traced round's deterministic outputs differ "
                          "from the untraced round's")
    spans = tracer.summary()
    if spans_out:
        tracer.write(spans_out)
    d = base.deterministic
    totals = d["totals"]
    commits = sum(base.commits.values())
    per_commit = 1.0 / commits
    per_kcommit = 1000.0 / commits
    by_name = spans["by_name"]

    def spans_of(*names: str) -> int:
        return sum(by_name.get(name, (0, 0.0))[0] for name in names)

    digest_calls = totals["digest_hits"] + totals["digest_stores"] \
        + totals["digest_uncached"]
    if spans_of("digest_of") != digest_calls:
        raise CheckFailed(f"traced digest_of spans {spans_of('digest_of')} "
                          f"!= digest_of calls {digest_calls}")
    root_s = spans["root_s"]
    layers = spans["layers"]
    shares = {layer: layers[layer] / root_s for layer in layers}
    if abs(sum(shares.values()) - 1.0) > SHARE_TOLERANCE:
        raise CheckFailed(f"layer shares sum to {sum(shares.values())}")

    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    def layer_time(layer: str) -> None:
        put(f"{layer}.self_share", shares[layer], "ratio")
        put(f"{layer}.self_s_per_kcommit", layers[layer] * per_kcommit, "s")

    put("sim.events_per_commit", totals["events"] * per_commit, "count")
    put("sim.heap_pushes_per_commit", totals["heap_pushes"] * per_commit,
        "count")
    put("sim.cancelled_per_commit", totals["cancelled"] * per_commit,
        "count")
    layer_time("sim")
    put("net.messages_per_commit", totals["messages_sent"] * per_commit,
        "count")
    put("net.bytes_per_commit", totals["bytes_sent"] * per_commit, "B")
    put("net.delivered_ratio",
        totals["messages_delivered"] / totals["messages_sent"], "ratio")
    layer_time("net")
    put("crypto.digests_per_commit",
        (totals["digest_stores"] + totals["digest_uncached"]) * per_commit,
        "count")
    put("crypto.digest_cache_hit_ratio",
        totals["digest_hits"] / digest_calls if digest_calls else 0.0,
        "ratio")
    put("crypto.auth_stamped_per_commit", totals["auth_stamped"]
        * per_commit, "count")
    put("crypto.auth_verified_per_commit", totals["auth_verified"]
        * per_commit, "count")
    put("crypto.sign_per_commit",
        spans_of("KeyStore.sign", "KeyStore.sign_digest") * per_commit,
        "count")
    put("crypto.verify_per_commit",
        spans_of("KeyStore.verify_digest") * per_commit, "count")
    layer_time("crypto")
    for protocol in PROTOCOLS:
        name = protocol.value
        put(f"protocols.{name}.wall_s_per_kcommit",
            base.wall_s[name] / (base.commits[name] / 1000.0), "s")
    put("protocols.requests_per_batch",
        totals["executes"] / totals["executed_batches"], "count")
    put("protocols.view_changes", totals["view_changes"], "count")
    put("protocols.client_retransmits_per_kcommit",
        totals["client_retransmits"] * per_kcommit, "count")
    layer_time("protocols")
    put("smr.executes_per_commit", totals["executes"] * per_commit, "count")
    put("smr.auth_failures", totals["auth_failures"], "count")
    layer_time("smr")
    put("workloads.latency_samples", d["latency_samples"], "count")
    put("workloads.failed_frac", d["failed_frac"], "ratio")
    put("workloads.queue_wait_p50_ms", d["queue_wait_p50_ms"], "ms")
    put("workloads.queue_wait_p99_ms", d["queue_wait_p99_ms"], "ms")
    put("workloads.backlog_peak", totals["backlog_peak"], "count")
    layer_time("workloads")
    put("faults.crashes_injected", totals["crashes_injected"], "count")
    put("faults.safety_observations", spans_of("SafetyChecker.observe"),
        "count")
    put("faults.self_share", shares["faults"], "ratio")
    put("trace.overhead_ratio",
        traced.wall_s_per_kcommit / base.wall_s_per_kcommit, "ratio")
    put("trace.untraced_share", shares[OTHER], "ratio")
    put("trace.spans", spans["spans"], "count")
    extras = {
        "base_wall_s_per_kcommit": base.wall_s_per_kcommit,
        "traced_wall_s_per_kcommit": traced.wall_s_per_kcommit,
        "root_s": root_s,
        "layers": {layer: (layers[layer], shares[layer])
                   for layer in LAYERS + (OTHER,)},
        "top_spans": sorted(by_name.items(), key=lambda kv: -kv[1][1])[:15],
        "deterministic": d,
    }
    return out, extras
