"""The benchmark's three workloads and how one protocol cell of each runs.

A *cell* is one protocol on one workload: a fresh cluster built through
``build_cluster``, driven by ``make_driver``, watched by a
``SafetyChecker`` (and on the crash workload a ``LivenessChecker`` and a
``FaultInjector``).  A *round* runs the five protocol cells one after
another in this process.  Everything here is a pure function of the
workload and the seed except the wall times.
"""

from __future__ import annotations

import gc
# The host-speed yardstick churns a heap like the simulator does; it
# schedules nothing.
# repro: lint-ok[S002]
import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    WorkloadConfig,
    sites_for,
)
from repro.crypto.costs import CostModel
from repro.crypto.primitives import digest_cache_stats
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector
from repro.faults.liveness import LivenessChecker
from repro.harness.configs import paper_config
from repro.harness.matrix import CELL_TIMEOUTS, OBSERVE_PERIOD_MS
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel, LinkStats
from repro.protocols.registry import build_cluster
from repro.scenarios.library import builtin_scenarios
from repro.workloads.clients import make_driver

from perfbench.metrics import RequestRecord

PROTOCOLS = tuple(ProtocolName)

#: Tail of every link, as a multiple of its median RTT: the 99.99th
#: percentile (and the cap) is 1.5x the median.  On the LAN a tail is
#: needed at all because with none every delay is exactly 1 ms and the
#: latency percentiles are the same few values for every seed.  On the
#: WAN it replaces Table 3's measured tails (p99.99 RTT 1.1-1.3 s on the
#: Table 4 links, 5-12x the median), under which a slow 250 ms
#: window stalls a cell and the modelled metrics swung by 13-46% from
#: seed to seed in trial runs.
TAIL = 1.5


def _latency(sites, seed: int, wan: bool) -> LatencyModel:
    """Median RTTs of the paper's EC2 WAN (Table 3) or a 2 ms LAN,
    each link with the :data:`TAIL` tail."""
    sites = sorted(set(sites))
    ec2 = LatencyModel.ec2()
    links = {}
    for a in sites:
        for b in sites:
            if a != b:
                rtt = ec2.stats(a, b).avg_ms if wan else 2.0
                links[(a, b)] = LinkStats(rtt, rtt * TAIL, rtt * TAIL,
                                          rtt * TAIL)
    return LatencyModel(links, seed=seed)


# Wall time is what this benchmark measures.
_clock = time.perf_counter  # repro: lint-ok[D002]

#: Wall time of one :func:`yardstick` call on the reference host (median
#: of 442 calls; 2 vCPU Intel Xeon, CPython 3.11.7).
YARDSTICK_REF_S = 0.110


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (run once per protocol)."""

    name: str
    why: str
    t: int
    num_clients: int
    request_size: int
    duration_ms: float
    warmup_ms: float
    #: Aggregate open-loop arrival rate; None = closed loop.
    offered_load_rps: Optional[float] = None
    cohorts: int = 2
    #: ``"ec2"``: the paper's WAN (Table 3 median RTTs, see :data:`TAIL`)
    #: with Table 4 placement, modelled crypto CPU and a 4000 B/ms
    #: uplink, as ``repro compare``.  ``"lan"``: 1 ms median one-way
    #: delay, free CPU and the scenario matrix's timeouts.
    network: str = "lan"
    #: Name of a built-in scenario whose fault schedule is injected.
    faults: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="closed-wan",
        why="Fig 7a saturation point: 512 closed-loop clients on the EC2 "
            "WAN fill 20-request batches; cost is per-request "
            "authentication, digests and execution",
        t=1, num_clients=512, request_size=1024,
        duration_ms=7_500.0, warmup_ms=500.0, network="ec2"),
    Workload(
        name="open-lan-t2",
        why="Fig 7c t=2 clusters under 800 req/s open-loop cohorts on a "
            "1 ms LAN: batches of 1-2 fan out 5-7 ways, so cost is "
            "messages, events and MAC stamping",
        t=2, num_clients=6, request_size=64,
        duration_ms=8_500.0, warmup_ms=500.0,
        offered_load_rps=800.0, cohorts=2),
    Workload(
        name="rolling-crashes-open",
        why="Fig 9 rolling crashes under 800 req/s open-loop arrivals: "
            "cost moves to view changes, retransmits and fault handling; "
            "service gaps show in outage and failed share",
        t=1, num_clients=64, request_size=64,
        duration_ms=9_000.0, warmup_ms=500.0,
        offered_load_rps=800.0, cohorts=2, faults="rolling-crashes"),
)}


def cluster_config(workload: Workload, protocol: ProtocolName
                   ) -> ClusterConfig:
    """The cell's cluster configuration."""
    if workload.network == "ec2":
        # The timeouts of ``repro sweep/compare`` (cli._bench_config).
        return paper_config(protocol, t=workload.t,
                            request_retransmit_ms=20_000.0,
                            view_change_timeout_ms=10_000.0)
    return ClusterConfig(t=workload.t, protocol=protocol,
                         sites=sites_for(protocol, workload.t),
                         **CELL_TIMEOUTS)


def latency_limit_ms(config: ClusterConfig) -> float:
    """2 Delta: the paper's round-trip synchrony bound (Section 5.1.1)."""
    return 2.0 * config.delta_ms


@dataclass
class Cell:
    """A built, not yet run, protocol cell."""

    protocol: ProtocolName
    config: ClusterConfig
    runtime: Any
    driver: Any
    checker: SafetyChecker
    liveness: Optional[LivenessChecker]
    injector: Optional[FaultInjector]
    #: Per client: ``[(arrival_ms, sent_ms), ...]`` in send order.
    proposals: Dict[int, List[Tuple[float, float]]] = field(
        default_factory=dict)
    #: Arrival times of every open-loop arrival.
    arrivals: List[float] = field(default_factory=list)


def build_cell(workload: Workload, protocol: ProtocolName,
               seed: int) -> Cell:
    """Build one cell: cluster, checkers, faults, driver, recorders."""
    config = cluster_config(workload, protocol)
    assert config.sites is not None
    if workload.network == "ec2":
        client_site = "CA"
        runtime = build_cluster(
            config, num_clients=workload.num_clients,
            latency=_latency(list(config.sites) + [client_site], seed,
                             wan=True),
            bandwidth=BandwidthModel(default_rate=4_000.0),
            cost_model=CostModel(), client_site=client_site, seed=seed)
    else:
        client_site = config.sites[0]
        runtime = build_cluster(config, num_clients=workload.num_clients,
                                latency=_latency(config.sites, seed,
                                                 wan=False),
                                client_site=client_site, seed=seed)
    checker = SafetyChecker(runtime)
    checker.observe_periodically(OBSERVE_PERIOD_MS, workload.duration_ms)
    liveness = injector = None
    if workload.faults is not None:
        scenario = next(s for s in builtin_scenarios()
                        if s.name == workload.faults)
        liveness = LivenessChecker(runtime,
                                   bound_ms=scenario.liveness_bound_ms)
        liveness.watch(workload.duration_ms)
        injector = FaultInjector(runtime)
        injector.arm(scenario.schedule(config))
    driver = make_driver(runtime, WorkloadConfig(
        num_clients=workload.num_clients,
        request_size=workload.request_size,
        duration_ms=workload.duration_ms, warmup_ms=workload.warmup_ms,
        client_site=client_site, seed=seed,
        offered_load_rps=workload.offered_load_rps,
        cohorts=workload.cohorts))
    cell = Cell(protocol, config, runtime, driver, checker, liveness,
                injector)
    _record_requests(cell)
    return cell


def _record_requests(cell: Cell) -> None:
    """Note each request's arrival and send time, per client.

    Instance-level wrappers only: they read the clock of the simulation
    and call straight through, so the run is unchanged.
    """
    sim = cell.runtime.sim
    arrived_at = getattr(cell.driver, "arrived_at", None)
    note_arrival = getattr(cell.driver, "note_arrival", None)
    if note_arrival is not None:
        arrivals = cell.arrivals

        def recording_note_arrival(now_ms: float) -> None:
            arrivals.append(now_ms)
            note_arrival(now_ms)

        cell.driver.note_arrival = recording_note_arrival
    for client in cell.runtime.clients:
        log = cell.proposals.setdefault(client.client_id, [])
        propose = client.propose

        def recording_propose(op, size_bytes=0, _log=log, _propose=propose,
                              _client=client.client_id):
            now = sim.now
            arrival = now if arrived_at is None \
                else arrived_at.get(_client, now)
            _log.append((arrival, now))
            return _propose(op, size_bytes=size_bytes)

        client.propose = recording_propose


@dataclass
class CellResult:
    """What one cell measured and produced."""

    protocol: str
    #: The cell's latency limit (:func:`latency_limit_ms`).
    limit_ms: float
    wall_s: float
    #: Client-visible commits by the end of the run.
    commits: int
    records: List[RequestRecord]
    commit_times: List[float]
    #: Exact work counters over ``driver.run()``.
    counters: Dict[str, Any]
    #: Failed output checks (empty when the cell is correct).
    problems: List[str]
    #: Mean :func:`yardstick` time over the cell's round.
    yardstick_s: float = YARDSTICK_REF_S

    @property
    def scaled_wall_s(self) -> float:
        """``wall_s`` at the reference host speed (see :func:`yardstick`)."""
        return self.wall_s * YARDSTICK_REF_S / self.yardstick_s


def _counters(cell: Cell) -> Dict[str, int]:
    runtime = cell.runtime
    stats = runtime.sim.stats()
    net = runtime.network.stats
    digests = digest_cache_stats()
    return {
        "events": stats["executed"],
        "heap_pushes": stats["heap_pushes"],
        "cancelled": stats["cancelled"],
        "messages_sent": net.messages_sent,
        "messages_delivered": net.messages_delivered,
        "bytes_sent": net.bytes_sent,
        "auth_stamped": net.auth_stamped,
        "auth_verified": net.auth_verified,
        "digest_hits": digests["hits"],
        "digest_stores": digests["stores"],
        "digest_uncached": digests["uncached"],
    }


def run_cell(cell: Cell) -> CellResult:
    """Run a built cell to its horizon, then check and collect it."""
    before = _counters(cell)
    # Start every cell from a collected heap, so a cell does not pay for
    # the garbage of the one before it.
    gc.collect()
    start = _clock()
    cell.driver.run()
    wall_s = _clock() - start
    after = _counters(cell)
    counters: Dict[str, Any] = {k: after[k] - before[k] for k in after}
    runtime = cell.runtime

    problems: List[str] = []
    records, commit_times = _match_requests(cell, problems)
    replicas = runtime.replicas
    nodes = list(replicas) + list(runtime.clients)
    counters["auth_failures"] = sum(n.auth_failures for n in nodes)
    # Every StateMachine.execute is logged in its replica's trace.
    counters["executes"] = sum(len(r.execution_trace) for r in replicas)
    counters["executed_batches"] = sum(
        len({seqno for seqno, _ in r.execution_trace}) for r in replicas)
    counters["view_changes"] = max(
        (getattr(r, "view_changes_completed", 0) for r in replicas),
        default=0)
    counters["client_retransmits"] = sum(
        getattr(c, "timeouts", 0) for c in runtime.clients)
    counters["backlog_peak"] = getattr(cell.driver, "backlog_peak", 0)
    counters["crashes_injected"] = 0 if cell.injector is None else sum(
        1 for event in cell.injector.injected if event.kind == "crash")

    violations = cell.checker.violations()
    if violations:
        problems.append(f"{len(violations)} total-order violations "
                        f"(first: {violations[0]})")
    if cell.checker.anarchy_observed:
        problems.append("anarchy observed")
    if counters["auth_failures"]:
        problems.append(f"{counters['auth_failures']} authentication "
                        f"failures")
    if not commit_times:
        problems.append("no request committed")
    if cell.liveness is not None and cell.liveness.violations:
        problems.append(f"{len(cell.liveness.violations)} liveness stalls "
                        f"(first: {cell.liveness.violations[0]})")
    return CellResult(cell.protocol.value, latency_limit_ms(cell.config),
                      wall_s, len(commit_times), records, commit_times,
                      counters, problems)


def _match_requests(cell: Cell, problems: List[str]
                    ) -> Tuple[List[RequestRecord], List[float]]:
    """Pair each client's k-th request with its k-th completion.

    A client has one request in flight at a time, so completions come
    back in send order; each completion's send time must equal the
    one noted for its request.
    """
    records: List[RequestRecord] = []
    commit_times: List[float] = []
    sent_arrivals: List[float] = []
    for client in cell.runtime.clients:
        proposals = cell.proposals.get(client.client_id, [])
        completions = client.completions
        rids = [rid for _, _, rid in completions]
        if len(set(rids)) != len(rids):
            problems.append(f"client {client.client_id} completed a "
                            f"request twice")
        if len(completions) > len(proposals):
            problems.append(f"client {client.client_id} completed "
                            f"{len(completions)} requests but sent "
                            f"{len(proposals)}")
            continue
        for index, (arrival, sent) in enumerate(proposals):
            sent_arrivals.append(arrival)
            committed = None
            if index < len(completions):
                sent_at, committed, _ = completions[index]
                if sent_at != sent:
                    problems.append(
                        f"client {client.client_id} completion {index} was "
                        f"sent at {sent_at}, its request at {sent}")
                    break
                commit_times.append(committed)
            records.append((arrival, sent, committed))
    if cell.arrivals:
        # Arrivals still queued in the driver's backlog at the end were
        # never sent.
        pending: Dict[float, int] = {}
        for arrival in cell.arrivals:
            pending[arrival] = pending.get(arrival, 0) + 1
        for arrival in sent_arrivals:
            pending[arrival] = pending.get(arrival, 0) - 1
        if any(count < 0 for count in pending.values()):
            problems.append("a request was sent without an arrival")
        for arrival, count in sorted(pending.items()):
            records.extend([(arrival, None, None)] * max(count, 0))
    records.sort(key=lambda r: r[0])
    commit_times.sort()
    return records, commit_times


def run_round(workload: Workload, seed: int,
              on_cell: Optional[Any] = None) -> List[CellResult]:
    """Build and run the five protocol cells in order.

    ``on_cell(index)`` is called before each cell is built (the tracer
    tags its spans with the cell index).
    """
    results = []
    speeds = [yardstick()]
    for index, protocol in enumerate(PROTOCOLS):
        if on_cell is not None:
            on_cell(index)
        results.append(run_cell(build_cell(workload, protocol,
                                           cell_seed(seed, index))))
        speeds.append(yardstick())
    # One yardstick call is as noisy as a cell; the round's mean tracks
    # the host's drift without adding that noise.
    for result in results:
        result.yardstick_s = statistics.fmean(speeds)
    return results


def yardstick() -> float:
    """Wall seconds of a fixed piece of pure-Python work.

    The speed of the shared host this benchmark was tuned on drifts by
    15-30% over minutes, and the simulator's wall time drifts with it.
    The yardstick allocates tuples, lists and dict entries and churns a
    heap, as the simulator does, but runs no ``repro`` code, so it
    measures the host's current speed and never the code under test.
    It is timed before the first cell of a round and after every cell.
    """
    start = _clock()
    heap: List[Tuple[int, int, Tuple[int, str]]] = []
    table: Dict[Tuple[int, str], List[Any]] = {}
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, (i, "x")))
        table[(i % 977, "k")] = [i, str(i)]
        if len(heap) > 500:
            heapq.heappop(heap)
    total = 0
    for i in range(200_000):
        total += i * i
    return _clock() - start


def cell_seed(seed: int, index: int) -> int:
    """Each protocol cell draws its own network delays and arrivals.

    With one seed for all five, the cells would share their arrival
    bursts and slow links, and the pooled model metrics would swing with
    the seed as much as a single cell does.
    """
    return seed * len(PROTOCOLS) + index


def setup_all(workload: Workload, seed: int) -> List[Cell]:
    """Build every cell and its driver without running them."""
    return [build_cell(workload, protocol, cell_seed(seed, index))
            for index, protocol in enumerate(PROTOCOLS)]
