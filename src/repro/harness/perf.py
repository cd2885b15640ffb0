"""Performance micro-benchmark suite (``repro bench``).

Every experiment in this repository funnels through two hot paths: the
discrete-event loop (:mod:`repro.sim.core`) and the message fabric
(:mod:`repro.net.network`).  This module measures both -- event churn with
the cancel-and-reschedule pattern protocols exhibit on every reply, a
point-to-point message storm, an n-way broadcast storm, and one end-to-end
closed-loop XPaxos run -- and writes the results to ``BENCH_perf.json`` so
each PR leaves a perf data point behind.

To make the speedup measurable *within* one checkout, the seed
implementations of the simulator and the network (as of the original
import: ``@dataclass(order=True)`` events, per-send delivery closures,
f-string labels, O(n) ``pending`` scans) are preserved here verbatim as
baselines.  The micro-benchmarks run the same workload against the seed
baseline and the current implementation and report the ratio.

Wall-clock numbers are host-dependent; the committed/delivered counts are
deterministic (same seed, same counts) and double as a regression check
that the optimized paths are observationally identical to the seed.
"""

from __future__ import annotations

import gc
import hashlib
# The heap-churn benchmarks measure the raw event heap against the seed
# implementation by design.  # repro: lint-ok[S002]
import heapq
import json
import os
import platform
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.common.config import ProtocolName, WorkloadConfig
from repro.crypto.authenticators import MAC_VECTOR
from repro.crypto.costs import CostModel, CpuMeter
from repro.crypto.primitives import Digest, KeyStore, Mac, Signature
from repro.harness.configs import paper_config
from repro.harness.runner import ExperimentRunner
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network
from repro.sim.core import Simulator

# ----------------------------------------------------------------------
# Seed baselines (the implementation this repo started from), kept so the
# suite can report a speedup on the machine it runs on.
# ----------------------------------------------------------------------


@dataclass(order=True)
class _SeedEvent:
    """The seed's Event: ordered dataclass, no __slots__."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class _SeedEventHandle:
    __slots__ = ("_event",)

    def __init__(self, event: _SeedEvent):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True


class SeedSimulator:
    """The seed's event loop: heap of orderable Event objects, lazy
    cancellation without compaction, O(n) ``pending`` scans."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_SeedEvent] = []
        self._sequence = 0
        self._executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def executed(self) -> int:
        return self._executed

    def call_at(self, time: float, callback: Callable[[], None],
                label: str = "") -> _SeedEventHandle:
        event = _SeedEvent(time=time, sequence=self._sequence,
                           callback=callback, label=label)
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return _SeedEventHandle(event)

    def call_after(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> _SeedEventHandle:
        return self.call_at(self._now + delay, callback, label=label)

    def run(self, until: Optional[float] = None) -> int:
        executed = 0
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            self._now = event.time
            self._executed += 1
            executed += 1
            event.callback()
        if until is not None and self._now < until:
            self._now = until
        return executed


class SeedNetwork:
    """The seed's send path: endpoint lookups per message, a delivery
    closure and an f-string label per message, FIFO dict probed always."""

    def __init__(self, sim: SeedSimulator, latency: LatencyModel,
                 bandwidth: Optional[BandwidthModel] = None,
                 fifo: bool = False) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.fifo = fifo
        self.delivered = 0
        self._endpoints: Dict[str, Endpoint] = {}
        self._last_delivery: Dict[tuple, float] = {}

    def attach(self, endpoint: Endpoint) -> None:
        self._endpoints[endpoint.name] = endpoint

    def send(self, src: str, dst: str, payload: Any,
             size_bytes: int = 0) -> None:
        source = self._endpoints[src]
        target = self._endpoints[dst]
        if not source.is_up():
            return
        depart = self.sim.now
        if (self.bandwidth is not None and size_bytes > 0
                and source.site != target.site):
            depart = self.bandwidth.serialize(src, size_bytes, self.sim.now)
        delay = self.latency.sample_one_way(source.site, target.site,
                                            now=depart)
        arrival = depart + delay
        if self.fifo:
            key = (src, dst)
            arrival = max(arrival, self._last_delivery.get(key, 0.0))
            self._last_delivery[key] = arrival

        def deliver() -> None:
            if not target.is_up():
                return
            self.delivered += 1
            target.deliver(src, payload)

        self.sim.call_at(arrival, deliver, label=f"{src}->{dst}")

    def broadcast(self, src: str, dsts: List[str], payload: Any,
                  size_bytes: int = 0) -> None:
        for dst in dsts:
            self.send(src, dst, payload, size_bytes=size_bytes)


# ----------------------------------------------------------------------
# Workloads (run identically against seed and current implementations)
# ----------------------------------------------------------------------

def _churn_workload(sim, num_events: int) -> Dict[str, Any]:
    """The protocol hot pattern: every 'reply' cancels an outstanding
    retransmission timer and re-arms it far in the future."""
    slots = 128
    handles: List[Any] = [None] * slots
    state = {"count": 0}

    def noop() -> None:
        pass

    def pump() -> None:
        count = state["count"] + 1
        state["count"] = count
        slot = count % slots
        handle = handles[slot]
        if handle is not None:
            handle.cancel()
        handles[slot] = sim.call_after(10_000.0, noop, label="retransmit")
        if count < num_events:
            sim.call_after(0.01, pump, label="reply")

    sim.call_after(0.0, pump, label="reply")
    sim.run(until=num_events * 0.01 + 1.0)
    return {"executed": sim.executed, "pending": sim.pending}


def _heap_churn_workload(sim, backlog: int, churn: int) -> Dict[str, Any]:
    """The open-loop Fig 7 ceiling regime: a standing backlog of far-future
    arrivals (10⁶ at full size) sits in the heap while the reply churn
    pattern runs against it, so every push/pop pays the deep heap."""
    def noop() -> None:
        pass

    base = 1_000_000.0
    for i in range(backlog):
        sim.call_at(base + i, noop, label="backlog")

    slots = 128
    handles: List[Any] = [None] * slots
    state = {"count": 0}

    def pump() -> None:
        count = state["count"] + 1
        state["count"] = count
        slot = count % slots
        handle = handles[slot]
        if handle is not None:
            handle.cancel()
        handles[slot] = sim.call_after(10_000.0, noop, label="retransmit")
        if count < churn:
            sim.call_after(0.01, pump, label="reply")

    sim.call_after(0.0, pump, label="reply")
    sim.run(until=churn * 0.01 + 1.0)
    return {"executed": sim.executed, "pending": sim.pending}


def _storm_endpoints(network, count: int = 9) -> List[str]:
    sites = ("CA", "VA", "JP")
    sink = {"delivered": 0}

    def make(name: str, site: str) -> Endpoint:
        def deliver(src: str, payload: Any) -> None:
            sink["delivered"] += 1

        return Endpoint(name, site, deliver, lambda: True)

    names = []
    for i in range(count):
        name = f"n{i}"
        network.attach(make(name, sites[i % len(sites)]))
        names.append(name)
    network._bench_sink = sink
    return names


def _storm_workload(sim, network, num_messages: int) -> Dict[str, Any]:
    """Point-to-point storm: every endpoint keeps a message in flight;
    each delivery triggers the next send (closed loop over the fabric)."""
    names = _storm_endpoints(network)
    k = len(names)
    for i in range(num_messages):
        src = names[i % k]
        dst = names[(i * 5 + 1) % k]
        if src == dst:
            dst = names[(i * 5 + 2) % k]
        network.send(src, dst, i, size_bytes=256)
    sim.run()
    # Delivered count is the cross-fabric equivalence check; raw event
    # counts differ by design once the current fabric coalesces same-tick
    # deliveries into shared events.
    return {"delivered": network._bench_sink["delivered"]}


def _broadcast_workload(sim, network, rounds: int) -> Dict[str, Any]:
    """n-way broadcast storm: a leader ships one payload to 8 peers per
    round, the pattern of every ordering protocol's fan-out."""
    names = _storm_endpoints(network)
    leader, peers = names[0], names[1:]
    payload = ("batch", b"x" * 64)
    for _ in range(rounds):
        network.broadcast(leader, peers, payload, size_bytes=1024)
    sim.run()
    return {"delivered": network._bench_sink["delivered"]}


def _auth_endpoints(network, keystore, count: int = 9):
    """Endpoints that verify their channel authenticator on delivery --
    transport-stamped MACs on the current fabric, payload-embedded
    ``(body, mac)`` pairs on the seed fabric."""
    sites = ("CA", "VA", "JP")
    sink = {"delivered": 0, "verified": 0}
    cpu = CpuMeter(CostModel.free())

    def make(name: str, site: str) -> Endpoint:
        def deliver(src, payload):  # seed style: mac embedded in payload
            sink["delivered"] += 1
            body, mac = payload
            if mac.receiver == name and keystore.verify_mac(mac, body):
                sink["verified"] += 1

        def deliver_auth(src, body, auth, size_bytes):
            sink["delivered"] += 1
            if MAC_VECTOR.verify(keystore, cpu, src, name, body, auth,
                                 size_bytes=size_bytes,
                                 body_digest=network.delivery_digest):
                sink["verified"] += 1

        return Endpoint(name, site, deliver, lambda: True,
                        deliver_auth=deliver_auth)

    names = []
    for i in range(count):
        name = f"n{i}"
        network.attach(make(name, sites[i % len(sites)]))
        names.append(name)
    network._bench_sink = sink
    return names


def _auth_broadcast_current(sim, network, rounds, keystore):
    """Transport-level MAC vector: one payload digest per fan-out, the
    per-receiver MAC stamped at delivery fan-out time by multicast."""
    names = _auth_endpoints(network, keystore)
    leader, peers = names[0], names[1:]
    payload = ("batch", b"x" * 64)
    for _ in range(rounds):
        network.multicast_authenticated(leader, peers, payload,
                                        size_bytes=1004,
                                        authenticator=MAC_VECTOR,
                                        keystore=keystore)
    sim.run()
    sink = network._bench_sink
    return {"delivered": sink["delivered"], "verified": sink["verified"]}


def _auth_broadcast_seed(sim, network, rounds, keystore):
    """The embedded-MAC encoding this repo started from: every receiver
    needs a distinct payload object, so the fan-out degenerates into n
    sequential sends, each hashing the payload afresh for its MAC."""
    names = _auth_endpoints(network, keystore)
    leader, peers = names[0], names[1:]
    body = ("batch", b"x" * 64)
    for _ in range(rounds):
        for dst in peers:
            mac = keystore.mac(leader, dst, body)
            network.send(leader, dst, (body, mac), size_bytes=1024)
    sim.run()
    sink = network._bench_sink
    return {"delivered": sink["delivered"], "verified": sink["verified"]}


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------

def _best_of(repeat: int, thunk: Callable[[], Dict[str, Any]]):
    """Run ``thunk`` ``repeat`` times; return (best seconds, last result).

    Each timed run starts from a collected heap: earlier benchmarks in
    the suite (notably the 10^6-object heap-churn workload) otherwise
    leave garbage whose GC traversal lands inside *this* benchmark's
    window, skewing the gated current/seed ratio run-to-run.  The
    collection applies identically to both sides of every comparison.
    """
    best = float("inf")
    result: Dict[str, Any] = {}
    for _ in range(max(1, repeat)):
        gc.collect()
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _compare(current: Callable[[], Dict[str, Any]],
             baseline: Callable[[], Dict[str, Any]], units: int,
             repeat: int) -> Dict[str, Any]:
    """Time both sides interleaved (current, seed, current, seed, ...).

    The gated quantity is the *ratio* of the two minima.  Timing all
    current runs then all seed runs lets a host-frequency drift (turbo
    decay, a background task) land entirely on one side and swing the
    ratio by 20%+; alternating the sides makes any slow window hit both
    minima alike, so the ratio stays stable even when wall-clock moves.
    """
    cur_s = base_s = float("inf")
    cur_r: Dict[str, Any] = {}
    base_r: Dict[str, Any] = {}
    for _ in range(max(1, repeat)):
        gc.collect()
        start = time.perf_counter()
        cur_r = current()
        elapsed = time.perf_counter() - start
        if elapsed < cur_s:
            cur_s = elapsed
        gc.collect()
        start = time.perf_counter()
        base_r = baseline()
        elapsed = time.perf_counter() - start
        if elapsed < base_s:
            base_s = elapsed
    return {
        "units": units,
        "seconds": cur_s,
        "baseline_seconds": base_s,
        "units_per_sec": units / cur_s if cur_s > 0 else float("inf"),
        "baseline_units_per_sec": (units / base_s if base_s > 0
                                   else float("inf")),
        "speedup": base_s / cur_s if cur_s > 0 else float("inf"),
        "result": cur_r,
        "baseline_result": base_r,
        "results_match": cur_r == base_r,
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def bench_event_churn(num_events: int = 200_000,
                      repeat: int = 3) -> Dict[str, Any]:
    """Cancel-and-reschedule event churn, seed vs current simulator."""
    return _compare(
        lambda: _churn_workload(Simulator(), num_events),
        lambda: _churn_workload(SeedSimulator(), num_events),
        num_events, repeat)


def bench_heap_churn_1m(backlog: int = 1_000_000, churn: int = 100_000,
                        repeat: int = 3) -> Dict[str, Any]:
    """Reply churn against a 10⁶-entry standing backlog, seed vs current.

    Isolates pure heap cost at depth: the adaptive event pool and the
    compaction policy must hold up when every push and pop traverses a
    twenty-level heap.
    """
    return _compare(
        lambda: _heap_churn_workload(Simulator(), backlog, churn),
        lambda: _heap_churn_workload(SeedSimulator(), backlog, churn),
        backlog + churn, repeat)


def _current_net(seed: int):
    sim = Simulator()
    latency = LatencyModel.ec2(seed=seed)
    net = Network(sim, latency, bandwidth=BandwidthModel())
    return sim, net


def _seed_net(seed: int):
    sim = SeedSimulator()
    latency = LatencyModel.ec2(seed=seed)
    net = SeedNetwork(sim, latency, bandwidth=BandwidthModel())
    return sim, net


def bench_message_storm(num_messages: int = 100_000, seed: int = 0,
                        repeat: int = 3) -> Dict[str, Any]:
    """Point-to-point message storm, seed vs current fabric.

    Both fabrics draw latency samples in the same RNG order, so delivered
    counts must match exactly -- a determinism check riding the benchmark.
    """

    def current() -> Dict[str, Any]:
        sim, net = _current_net(seed)
        return _storm_workload(sim, net, num_messages)

    def baseline() -> Dict[str, Any]:
        sim, net = _seed_net(seed)
        return _storm_workload(sim, net, num_messages)

    return _compare(current, baseline, num_messages, repeat)


def bench_broadcast_storm(rounds: int = 12_500, seed: int = 0,
                          repeat: int = 3) -> Dict[str, Any]:
    """n-way broadcast storm: multicast path vs seed per-destination loop."""

    def current() -> Dict[str, Any]:
        sim, net = _current_net(seed)
        return _broadcast_workload(sim, net, rounds)

    def baseline() -> Dict[str, Any]:
        sim, net = _seed_net(seed)
        return _broadcast_workload(sim, net, rounds)

    return _compare(current, baseline, rounds * 8, repeat)


def bench_authenticated_broadcast(rounds: int = 4_000, seed: int = 0,
                                  repeat: int = 3) -> Dict[str, Any]:
    """MAC'd 8-way fan-out: delivery-time MAC vector on the multicast
    path vs the seed's payload-embedded MACs over sequential sends.

    Every delivery verifies its MAC on both sides, and both fabrics draw
    latency in the same order, so delivered/verified counts must match
    exactly -- the forgery-detection semantics ride the benchmark.
    """

    def current() -> Dict[str, Any]:
        sim, net = _current_net(seed)
        return _auth_broadcast_current(sim, net, rounds, KeyStore())

    def baseline() -> Dict[str, Any]:
        sim, net = _seed_net(seed)
        return _auth_broadcast_seed(sim, net, rounds, KeyStore())

    return _compare(current, baseline, rounds * 8, repeat)


# ----------------------------------------------------------------------
# Seed canonical encoder (preserved verbatim)
# ----------------------------------------------------------------------

def _seed_canonical(obj: Any) -> bytes:
    """The seed's canonical encoder, preserved verbatim as the reference
    the byte-identity tests hold :func:`digest_of` to: one generic
    isinstance chain, no exact-type fast path, byte-identical output to
    the current encoder."""
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"T" if obj else b"F"
    if isinstance(obj, int):
        return b"i" + str(obj).encode()
    if isinstance(obj, float):
        return b"f" + repr(obj).encode()
    if isinstance(obj, str):
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if isinstance(obj, bytes):
        return b"b" + str(len(obj)).encode() + b":" + obj
    if isinstance(obj, Digest):
        return b"D" + obj.value
    if isinstance(obj, Signature):
        return b"S" + _seed_canonical((obj.signer, obj.digest.value))
    if isinstance(obj, Mac):
        return b"M" + _seed_canonical((obj.sender, obj.receiver,
                                       obj.digest.value))
    if isinstance(obj, (tuple, list)):
        parts = b"".join(_seed_canonical(x) for x in obj)
        return b"l" + str(len(obj)).encode() + b":" + parts
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: _seed_canonical(kv[0]))
        parts = b"".join(_seed_canonical(k) + _seed_canonical(v)
                         for k, v in items)
        return b"d" + str(len(obj)).encode() + b":" + parts
    if is_dataclass(obj) and not isinstance(obj, type):
        parts = [type(obj).__name__.encode()]
        for f in fields(obj):
            parts.append(_seed_canonical(f.name))
            parts.append(_seed_canonical(getattr(obj, f.name)))
        return b"c" + b"".join(parts)
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def _seed_digest_of(obj: Any) -> Digest:
    """The seed's ``digest_of`` over :func:`_seed_canonical`."""
    return Digest(hashlib.sha256(_seed_canonical(obj)).digest())


def bench_xpaxos_closed_loop(num_clients: int = 16,
                             duration_ms: float = 2_000.0,
                             seed: int = 0) -> Dict[str, Any]:
    """End-to-end closed-loop XPaxos run on the paper's WAN, run twice to
    confirm determinism (same seed, same committed count)."""
    config = paper_config(ProtocolName.XPAXOS, t=1,
                          request_retransmit_ms=20_000.0,
                          view_change_timeout_ms=10_000.0)
    workload = WorkloadConfig(num_clients=num_clients, request_size=1024,
                              duration_ms=duration_ms,
                              warmup_ms=min(500.0, duration_ms / 4),
                              client_site="CA")

    def run_once() -> Dict[str, Any]:
        runner = ExperimentRunner(
            latency_factory=lambda s: LatencyModel.ec2(seed=s),
            bandwidth_factory=lambda: BandwidthModel(default_rate=4_000.0),
            cost_model=CostModel(),
            seed=seed,
        )
        result = runner.run_point(config, workload)
        return {"committed": result.committed,
                "throughput_kops": result.throughput_kops}

    start = time.perf_counter()
    first = run_once()
    elapsed = time.perf_counter() - start
    second = run_once()
    return {
        "units": first["committed"],
        "seconds": elapsed,
        "committed": first["committed"],
        "throughput_kops": first["throughput_kops"],
        "virtual_ms": duration_ms,
        "commits_per_wall_sec": (first["committed"] / elapsed
                                 if elapsed > 0 else float("inf")),
        "deterministic": first == second,
    }


def _make_runner(seed: int) -> ExperimentRunner:
    return ExperimentRunner(
        latency_factory=lambda s: LatencyModel.ec2(seed=s),
        bandwidth_factory=lambda: BandwidthModel(default_rate=4_000.0),
        cost_model=CostModel(),
        seed=seed,
    )


def bench_pipelined_throughput(duration_ms: float = 2_000.0,
                               seed: int = 0) -> Dict[str, Any]:
    """Pipelining speedup: saturating open-loop XPaxos run at
    ``pipeline_depth=8`` (current) vs ``pipeline_depth=1`` (baseline).

    The offered load is far past either configuration's capacity, so each
    run measures its pipeline's actual ceiling; the gated ``speedup`` is
    the committed-count ratio over identical virtual time -- a
    deterministic quantity, immune to wall-clock noise.
    """
    workload = WorkloadConfig(num_clients=200, request_size=1024,
                              duration_ms=duration_ms,
                              warmup_ms=min(500.0, duration_ms / 4),
                              client_site="CA",
                              offered_load_rps=10_000.0, cohorts=4)

    def run_depth(depth: int) -> Dict[str, Any]:
        config = paper_config(ProtocolName.XPAXOS, t=1,
                              request_retransmit_ms=20_000.0,
                              view_change_timeout_ms=10_000.0,
                              pipeline_depth=depth)
        result = _make_runner(seed).run_point(config, workload)
        return {"committed": result.committed,
                "throughput_kops": result.throughput_kops}

    start = time.perf_counter()
    deep = run_depth(8)
    elapsed = time.perf_counter() - start
    base_start = time.perf_counter()
    shallow = run_depth(1)
    baseline_seconds = time.perf_counter() - base_start
    speedup = (deep["committed"] / shallow["committed"]
               if shallow["committed"] else float("inf"))
    return {
        "units": deep["committed"],
        "seconds": elapsed,
        "baseline_seconds": baseline_seconds,
        "speedup": speedup,
        "committed_depth8": deep["committed"],
        "committed_depth1": shallow["committed"],
        "throughput_kops": deep["throughput_kops"],
        "virtual_ms": duration_ms,
        "results_match": 0 < shallow["committed"] <= deep["committed"],
    }


def bench_cohort_driver(num_clients: int = 16,
                        duration_ms: float = 2_000.0,
                        seed: int = 0) -> Dict[str, Any]:
    """Open-loop / closed-loop equivalence check.

    Runs the closed loop, re-runs open-loop with the achieved throughput
    as the offered rate, and reports whether both models agree (within
    25%) on delivered throughput -- at matched load below saturation the
    two must measure the same protocol.  Run twice for determinism.
    """
    config = paper_config(ProtocolName.XPAXOS, t=1,
                          request_retransmit_ms=20_000.0,
                          view_change_timeout_ms=10_000.0)
    closed_workload = WorkloadConfig(
        num_clients=num_clients, request_size=1024,
        duration_ms=duration_ms,
        warmup_ms=min(500.0, duration_ms / 4), client_site="CA")

    def run_pair() -> Dict[str, Any]:
        closed = _make_runner(seed).run_point(config, closed_workload)
        rate_rps = closed.throughput_kops * 1_000.0
        open_workload = replace(closed_workload,
                                offered_load_rps=max(rate_rps, 1.0),
                                cohorts=4)
        open_result = _make_runner(seed).run_point(config, open_workload)
        return {"closed_committed": closed.committed,
                "open_committed": open_result.committed,
                "closed_kops": closed.throughput_kops,
                "open_kops": open_result.throughput_kops}

    start = time.perf_counter()
    first = run_pair()
    elapsed = time.perf_counter() - start
    second = run_pair()
    # 25% relative, with an absolute slack of a few commits: probe-sized
    # runs commit so few requests that Poisson arrival granularity alone
    # can exceed any relative bound.
    agreement = (first["closed_kops"] > 0
                 and (abs(first["open_kops"] - first["closed_kops"])
                      <= 0.25 * first["closed_kops"]
                      or abs(first["open_committed"]
                             - first["closed_committed"]) <= 5))
    return {
        "units": first["open_committed"],
        "seconds": elapsed,
        "closed_committed": first["closed_committed"],
        "open_committed": first["open_committed"],
        "closed_kops": first["closed_kops"],
        "open_kops": first["open_kops"],
        "virtual_ms": duration_ms,
        "agreement": agreement,
        "deterministic": first == second and agreement,
    }


def suite_benchmarks(events: int = 200_000, messages: int = 100_000,
                     broadcast_rounds: int = 12_500, clients: int = 16,
                     duration_ms: float = 2_000.0, seed: int = 0,
                     repeat: int = 3, heap_backlog: int = 1_000_000,
                     heap_churn: int = 100_000,
                     ) -> Dict[str, Callable[[], Dict[str, Any]]]:
    """The suite registry: benchmark name -> ready-to-run thunk.

    Single source of truth for what ``repro bench`` runs, what ``--only``
    accepts, and what the CI lint stage checks ``bench_*`` functions
    against.  Keys are the function names minus the ``bench_`` prefix.
    """
    return {
        "event_churn": lambda: bench_event_churn(events, repeat=repeat),
        "heap_churn_1m": lambda: bench_heap_churn_1m(
            heap_backlog, heap_churn, repeat=repeat),
        "message_storm": lambda: bench_message_storm(
            messages, seed=seed, repeat=repeat),
        "broadcast_storm": lambda: bench_broadcast_storm(
            broadcast_rounds, seed=seed, repeat=repeat),
        "authenticated_broadcast": lambda: bench_authenticated_broadcast(
            max(1, broadcast_rounds // 3), seed=seed, repeat=repeat),
        "xpaxos_closed_loop": lambda: bench_xpaxos_closed_loop(
            clients, duration_ms, seed=seed),
        "pipelined_throughput": lambda: bench_pipelined_throughput(
            duration_ms, seed=seed),
        "cohort_driver": lambda: bench_cohort_driver(
            clients, duration_ms, seed=seed),
    }


def unregistered_benchmarks() -> List[str]:
    """``bench_*`` functions in this module that :func:`suite_benchmarks`
    does not run.  The CI lint stage fails if any exist: a benchmark that
    is not in the suite never reaches the trajectory gate, so a perf
    regression in it would go unnoticed."""
    registered = set(suite_benchmarks())
    return sorted(
        name for name, value in globals().items()
        if name.startswith("bench_") and callable(value)
        and name[len("bench_"):] not in registered)


def _host_facts() -> Dict[str, Any]:
    """Host facts for perf-gate triage, recorded into every payload (and
    therefore every archived trajectory point): a tripped gate whose
    point shows a loaded or smaller host is contention, not a
    regression (docs/parallelism.md)."""
    facts: Dict[str, Any] = {"nproc": os.cpu_count()}
    try:
        facts["loadavg"] = [round(x, 2) for x in os.getloadavg()]
    except (AttributeError, OSError):  # platforms without getloadavg
        facts["loadavg"] = None
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:  # no procfs (macOS, Windows)
        pass
    facts["cpu_model"] = model
    return facts


def run_suite(events: int = 200_000, messages: int = 100_000,
              broadcast_rounds: int = 12_500, clients: int = 16,
              duration_ms: float = 2_000.0, seed: int = 0,
              repeat: int = 3, heap_backlog: int = 1_000_000,
              heap_churn: int = 100_000,
              only: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the suite; returns the ``BENCH_perf.json`` payload.

    ``only`` restricts the run to the named benchmarks (triage mode --
    the trajectory gate treats such partial payloads as subsets, they
    must not be recorded as history points).
    """
    benchmarks = suite_benchmarks(
        events=events, messages=messages,
        broadcast_rounds=broadcast_rounds, clients=clients,
        duration_ms=duration_ms, seed=seed, repeat=repeat,
        heap_backlog=heap_backlog, heap_churn=heap_churn)
    if only:
        unknown = sorted(set(only) - set(benchmarks))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s): {', '.join(unknown)}; "
                f"known: {', '.join(benchmarks)}")
        wanted = set(only)
        benchmarks = {name: thunk for name, thunk in benchmarks.items()
                      if name in wanted}
    return {
        "schema": 1,
        "suite": "perf",
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            **_host_facts(),
        },
        "params": {
            "events": events, "messages": messages,
            "broadcast_rounds": broadcast_rounds, "clients": clients,
            "duration_ms": duration_ms, "seed": seed, "repeat": repeat,
            "heap_backlog": heap_backlog, "heap_churn": heap_churn,
            "only": sorted(only) if only else None,
        },
        "benchmarks": {name: thunk() for name, thunk in benchmarks.items()},
    }


def format_suite(payload: Dict[str, Any]) -> str:
    """Plain-text rendering of a suite result."""
    lines = [f"{'benchmark':>20} {'units':>10} {'sec':>8} {'base sec':>9} "
             f"{'speedup':>8} {'match':>6}"]
    for name, bench in payload["benchmarks"].items():
        if "speedup" in bench:
            lines.append(
                f"{name:>20} {bench['units']:>10} {bench['seconds']:8.3f} "
                f"{bench['baseline_seconds']:9.3f} "
                f"{bench['speedup']:7.2f}x "
                f"{'yes' if bench['results_match'] else 'NO':>6}")
        else:
            det = "yes" if bench.get("deterministic") else "NO"
            lines.append(
                f"{name:>20} {bench['units']:>10} {bench['seconds']:8.3f} "
                f"{'':>9} {'':>8} {det:>6}")
    return "\n".join(lines)


def write_suite(payload: Dict[str, Any], path: str) -> None:
    """Write the suite result to ``path`` as JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
