"""Tests of the end-to-end benchmark at tiny sizes.

The full-size workloads are never collected here: every simulation below
runs a few hundred virtual milliseconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import metrics
from perfbench.bench import (
    CheckFailed,
    _round,
    measure,
    measure_traced,
    summarize,
)
from perfbench.tracer import LAYERS, OTHER, Tracer
from perfbench.workloads import (
    WORKLOADS,
    CellResult,
    build_cell,
    run_cell,
)
from repro.common.config import ProtocolName
from repro.crypto import primitives
from repro.net.network import Network
from repro.sim.core import Simulator

LIMIT = 100.0
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _tiny(name: str, duration_ms: float = 400.0):
    return replace(WORKLOADS[name], duration_ms=duration_ms,
                   warmup_ms=100.0)


# -- per-request accounting ------------------------------------------------
def test_never_committed_request_is_failed():
    acc = metrics.account([(200.0, 200.0, None), (300.0, 300.0, 305.0)],
                          100.0, 1000.0, LIMIT)
    assert acc.attempted == 2
    assert acc.late_or_lost == 1
    assert acc.never_committed == 1
    assert acc.failed_frac == 0.5
    assert acc.latencies == (5.0,)


def test_pre_warmup_requests_are_excluded():
    # Arrived before warmup, committed inside the window: not attempted,
    # so the failed share cannot go negative.
    acc = metrics.account([(50.0, 50.0, 150.0), (99.9, 99.9, 400.0)],
                          100.0, 1000.0, LIMIT)
    assert acc.attempted == 0
    assert acc.failed_frac == 0.0


def test_requests_due_within_one_limit_of_the_end_are_excluded():
    records = [(899.9, 899.9, None), (900.0, 900.0, None)]
    acc = metrics.account(records, 100.0, 1000.0, LIMIT)
    assert acc.attempted == 1
    assert acc.late_or_lost == 1


def test_latency_limit_is_an_exact_boundary():
    at_limit = metrics.account([(200.0, 200.0, 300.0)], 100.0, 1000.0,
                               LIMIT)
    assert at_limit.late_or_lost == 0
    past = metrics.account([(200.0, 200.0, 300.0 + 1e-9)], 100.0, 1000.0,
                           LIMIT)
    assert past.late_or_lost == 1
    assert 0.0 <= past.failed_frac <= 1.0


def test_queue_wait_runs_from_arrival_to_send():
    acc = metrics.account([(200.0, 230.0, 240.0), (300.0, None, None)],
                          100.0, 1000.0, LIMIT)
    assert acc.queue_waits == (30.0,)
    assert acc.latencies == (40.0,)


def test_pool_sums_parts():
    a = metrics.account([(200.0, 200.0, 205.0)], 100.0, 1000.0, LIMIT)
    b = metrics.account([(300.0, 300.0, None)], 100.0, 1000.0, LIMIT)
    pooled = metrics.pool([a, b])
    assert (pooled.attempted, pooled.late_or_lost) == (2, 1)
    assert pooled.latencies == (5.0,)


# -- percentile rule ---------------------------------------------------------
def test_tail_uses_p99_with_ten_samples_beyond_it():
    assert metrics.tail_percent(1000) == 99
    samples = [float(i) for i in range(1, 1001)]
    value, percent, count = metrics.tail(samples)
    assert (value, percent, count) == (990.0, 99, 1000)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    assert metrics.tail_percent(999) == 98
    value, percent, count = metrics.tail([float(i) for i in range(100)])
    assert (value, percent) == (89.0, 90)
    assert sum(1 for s in range(100) if s > value) == 10
    assert count == 100


def test_tail_needs_more_than_ten_samples():
    assert metrics.tail([1.0] * 10) == (None, None, 10)
    assert metrics.tail_percent(11) is not None


def test_nearest_rank_median():
    assert metrics.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    with pytest.raises(ValueError):
        metrics.nearest_rank([], 50)


def test_outage_counts_only_time_with_a_request_waiting():
    records = [(150.0, 150.0, 160.0), (300.0, 300.0, 400.0),
               (310.0, 310.0, 320.0)]
    # Idle 160-300 is not an outage; 320-400 has the first request
    # still waiting.
    assert metrics.longest_outage(records, 100.0, 500.0) == 80.0


def test_outage_runs_to_the_window_end_for_a_lost_request():
    records = [(150.0, 150.0, 160.0), (200.0, 200.0, None)]
    assert metrics.longest_outage(records, 100.0, 1000.0) == 800.0
    # A request waiting since before warmup counts from the window start.
    assert metrics.longest_outage([(50.0, 50.0, 400.0)], 100.0,
                                  1000.0) == 300.0
    assert metrics.longest_outage([], 100.0, 300.0) == 0.0


# -- output checks -----------------------------------------------------------
def test_a_failed_cell_check_reports_no_metrics():
    bad = CellResult("xpaxos", LIMIT, 0.1, 1, [(200.0, 200.0, 201.0)],
                     [201.0], {}, ["anarchy observed"])
    with pytest.raises(CheckFailed, match="anarchy"):
        summarize(_tiny("open-lan-t2"), [bad])


def test_cells_pass_their_output_checks():
    workload = _tiny("rolling-crashes-open", duration_ms=2_600.0)
    for protocol in (ProtocolName.XPAXOS, ProtocolName.ZAB):
        result = run_cell(build_cell(workload, protocol, seed=3))
        assert result.problems == []
        assert result.counters["crashes_injected"] == 1
        assert result.commits > 0


def test_same_seed_is_byte_identical_across_processes():
    # A second interpreter with other string hashing: any set iteration
    # order leaking into the simulation would show here.
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from dataclasses import replace\n"
        "from perfbench.bench import _round\n"
        "from perfbench.workloads import WORKLOADS\n"
        "w = replace(WORKLOADS['rolling-crashes-open'], duration_ms=2200.0,"
        " warmup_ms=100.0)\n"
        "print(_round(w, 4).fingerprint())\n")
    other = subprocess.Popen(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), ROOT],
        env=dict(os.environ, PYTHONHASHSEED="7"), stdout=subprocess.PIPE,
        text=True)
    here = _round(_tiny("rolling-crashes-open", duration_ms=2_200.0), 4)
    out, _ = other.communicate()
    assert other.returncode == 0
    assert out == here.fingerprint() + "\n"


def test_seed_reaches_the_latency_pool():
    workload = _tiny("open-lan-t2")
    runs = [run_cell(build_cell(workload, ProtocolName.PAXOS, seed))
            for seed in (5, 5, 6)]
    assert runs[0].records == runs[1].records
    assert runs[0].records != runs[2].records


# -- tracer --------------------------------------------------------------------
@pytest.mark.parametrize("protocol", list(ProtocolName),
                         ids=lambda p: p.value)
def test_tracer_counts_match_public_counters_and_restore(protocol):
    workload = _tiny("open-lan-t2", duration_ms=300.0)
    originals = (Simulator.schedule, Simulator.post, Network._deliver_auth,
                 primitives.digest_of, sys.modules[
                     "repro.protocols.xpaxos.replica"].digest_of)
    tracer = Tracer()
    tracer.install()
    try:
        before = primitives.digest_cache_stats()
        cell = build_cell(workload, protocol, seed=2)
        result = run_cell(cell)
        after = primitives.digest_cache_stats()
    finally:
        tracer.restore()
    assert (Simulator.schedule, Simulator.post, Network._deliver_auth,
            primitives.digest_of, sys.modules[
                "repro.protocols.xpaxos.replica"].digest_of) == originals
    assert not hasattr(type(cell.runtime.replicas[0]).on_message,
                       "_perfbench_span")
    spans = tracer.summary()
    by_name = spans["by_name"]
    digest_calls = sum(after[k] - before[k] for k in after)
    assert by_name["digest_of"][0] == digest_calls > 0
    on_message = sum(count for name, (count, _) in by_name.items()
                     if name.endswith(".on_message"))
    assert on_message == cell.runtime.network.stats.messages_delivered
    assert result.counters["messages_delivered"] == on_message
    executes = sum(count for name, (count, _) in by_name.items()
                   if name.endswith(".execute"))
    assert executes == result.counters["executes"] > 0
    total = sum(spans["layers"][layer] for layer in LAYERS + (OTHER,))
    assert total == pytest.approx(spans["root_s"], rel=1e-6)


def _declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)[section]]


def test_untraced_run_reports_every_end_to_end_metric():
    result, first, per_round = measure(
        _tiny("open-lan-t2"), seed=1, seconds=0.0,
        script=os.path.join(HERE, "run.py"), setup_repeats=1)
    assert sorted(result) == sorted(_declared("end_to_end"))
    assert len(per_round) == 1
    assert all(value > 0 for value, _ in result.values())


def test_traced_run_reports_every_per_layer_metric_unperturbed():
    # measure_traced raises CheckFailed unless the traced round is
    # byte-identical to the untraced one and the shares sum to 100%.
    workload = _tiny("rolling-crashes-open", duration_ms=2_100.0)
    result, extras = measure_traced(workload, seed=4)
    assert sorted(result) == sorted(_declared("per_layer"))
    assert result["faults.crashes_injected"][0] == 5
    assert result["smr.auth_failures"][0] == 0
    shares = sum(result[f"{layer}.self_share"][0] for layer in LAYERS)
    assert shares + result["trace.untraced_share"][0] == pytest.approx(
        1.0, abs=0.005)
