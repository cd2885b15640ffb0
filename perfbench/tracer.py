"""Span tracer: where the wall time of one simulation round goes, by layer.

The tracer records one span per call into a layer's public function from
outside it.  A span holds its name, start, end, parent span and the cell
it belongs to; spans live in flat arrays and are summarised (or written
out) after the round.  The root span of each cell is ``Simulator.run``.
A layer's self time is its spans' durations minus their child spans, so
the layer self times plus the time spent in spans of no known layer sum
to the root exactly.

Boundaries (each patched at class or module level for the traced round
only, then restored):

* ``sim``: ``Simulator.run`` (root), scheduling (``schedule``, ``post``,
  ``call_at``, ``call_every``), ``EventHandle.cancel``, ``Timer.start`` /
  ``Timer.stop``.  Every callback the event loop fires is dispatched
  through a span named after the callback, in the layer of the module
  that defines it; timer firings are named after the timer's callback.
  The root's own self time is therefore the event loop itself.
* ``net``: ``Network.send_authenticated``, ``multicast_authenticated``
  and the two delivery callbacks the network posts.
* ``crypto``: ``digest_of`` (rebound in every module that imported it
  by name), the ``KeyStore`` sign/verify/MAC methods and the channel
  authenticators' ``begin``/``stamp``/``verify``.
* ``protocols``: ``on_message``, ``propose`` and ``recover`` where a
  protocol module defines them, plus protocol timer callbacks.
* ``smr``: ``StateMachine.execute`` and ``SmrClientBase.record_completion``.
* ``workloads``: the drivers' send and arrival callbacks (dispatched)
  and their per-client commit callbacks.
* ``faults``: ``SafetyChecker.observe``, ``LivenessChecker.sample`` and
  the fault injector's scheduled actions.

``Network.__init__`` pre-binds its delivery callbacks and the simulator's
``post``, so :meth:`Tracer.install` must run before the cluster is built.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers on the request path, in report order.
LAYERS = ("sim", "net", "crypto", "protocols", "smr", "workloads",
          "faults")

#: Layer of spans whose code lives outside every layer package.
OTHER = "other"

ROOT = "Simulator.run"

_PREFIXES = tuple((f"repro.{layer}", layer) for layer in LAYERS)

# Span timestamps are host wall time by design: this module measures it.
_clock = time.perf_counter  # repro: lint-ok[D002]


def layer_of(module: Optional[str]) -> str:
    """Layer of a ``repro`` module name (``OTHER`` if none)."""
    for prefix, layer in _PREFIXES:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return OTHER


def _is_traced(fn: Any) -> bool:
    return getattr(getattr(fn, "__func__", fn), "_perfbench_span",
                   None) is not None


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.child_time = array("d")
        self.parents = array("i")
        self.name_ids = array("i")
        self.cells = array("i")
        self.cell = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._classified: Dict[Any, int] = {}

    # -- spans ------------------------------------------------------------
    def span_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _recorder(self, root: bool) -> Callable:
        """Build ``call(nid, fn, args, kwargs)`` recording one span.

        Spans are recorded only inside a root span, so set-up work done
        while the patches are installed never enters the accounting.
        """
        stack = self._stack
        starts, ends = self.starts, self.ends
        child_time = self.child_time
        parents_append = self.parents.append
        names_append = self.name_ids.append
        cells_append = self.cells.append
        starts_append = starts.append
        ends_append = ends.append
        child_append = child_time.append
        tracer = self

        def call(nid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
            if bool(stack) == root:
                return fn(*args, **kwargs)
            index = len(starts)
            parent = stack[-1] if stack else -1
            parents_append(parent)
            names_append(nid)
            cells_append(tracer.cell)
            ends_append(0.0)
            child_append(0.0)
            stack.append(index)
            start = _clock()
            starts_append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                ends[index] = end
                stack.pop()
                if parent >= 0:
                    child_time[parent] += end - start

        return call

    def wrap(self, fn: Callable, name: str, layer: str,
             root: bool = False) -> Callable:
        """``fn`` with a span around every call."""
        nid = self.span_id(name, layer)
        call = self._recorder(root)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(nid, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced._perfbench_span = nid
        return traced

    # -- patching ---------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own,
                              vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, layer: str,
                     root: bool = False) -> None:
        """Wrap ``cls.attr`` (as resolved through the MRO) on ``cls``."""
        fn = getattr(cls, attr)
        self._set(cls, attr,
                  self.wrap(fn, f"{cls.__name__}.{attr}", layer, root))

    def patch_own_methods(self, classes: List[type], attrs: Tuple[str, ...],
                          layer: str) -> None:
        """Wrap each of ``attrs`` that a class defines itself."""
        for cls in classes:
            for attr in attrs:
                if attr in vars(cls):
                    self.patch_method(cls, attr, layer)

    def patch_function(self, fn: Callable, name: str, layer: str) -> None:
        """Rebind ``fn`` in every ``repro`` module that holds it."""
        traced = self.wrap(fn, name, layer)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in sorted(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_factory(self, cls: type, attr: str, name: str,
                      layer: str) -> None:
        """Wrap the callbacks ``cls.attr(...)`` builds and returns."""
        factory = getattr(cls, attr)

        def traced_factory(*args: Any, **kwargs: Any) -> Any:
            return self.wrap(factory(*args, **kwargs), name, layer)

        self._set(cls, attr, traced_factory)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- dispatch of event-loop callbacks ---------------------------------
    def _classify(self, callback: Callable, args: tuple,
                  timer_fire: Any, run_unless_crashed: Any) -> Optional[int]:
        func = getattr(callback, "__func__", callback)
        target = callback
        if func is timer_fire:
            target = callback.__self__._callback
        elif func is run_unless_crashed:
            target = args[0]
        if _is_traced(target):
            return None
        key = getattr(target, "__func__", target)
        key = getattr(key, "__code__", key)
        nid = self._classified.get(key, -1)
        if nid == -1:
            inner = getattr(target, "__func__", target)
            name = getattr(inner, "__qualname__", type(inner).__name__)
            nid = self._classified[key] = self.span_id(
                name, layer_of(getattr(inner, "__module__", None)))
        return nid

    def _patch_scheduling(self) -> None:
        from repro.sim.core import EventHandle, Simulator
        from repro.sim.process import Process, Timer

        call = self._recorder(root=False)

        def dispatch(nid: int, callback: Callable, *args: Any) -> Any:
            return call(nid, callback, args, {})

        classify = self._classify
        timer_fire = Timer._fire
        run_unless_crashed = Process._run_unless_crashed

        def wrapped_args(callback, args):
            nid = classify(callback, args, timer_fire, run_unless_crashed)
            if nid is None:
                return callback, args
            return dispatch, (nid, callback) + tuple(args)

        schedule = Simulator.schedule
        post = Simulator.post

        def dispatching_schedule(sim, time_, callback, args=(), label=""):
            if callback is not dispatch:
                callback, args = wrapped_args(callback, args)
            return schedule(sim, time_, callback, args, label)

        def dispatching_post(sim, time_, callback, args=()):
            if callback is not dispatch:
                callback, args = wrapped_args(callback, args)
            return post(sim, time_, callback, args)

        self._set(Simulator, "schedule", self.wrap(
            dispatching_schedule, "Simulator.schedule", "sim"))
        self._set(Simulator, "post", self.wrap(
            dispatching_post, "Simulator.post", "sim"))
        for attr in ("call_at", "call_every"):
            self.patch_method(Simulator, attr, "sim")
        self.patch_method(Simulator, "run", "sim", root=True)
        self.patch_method(EventHandle, "cancel", "sim")
        self.patch_method(Timer, "start", "sim")
        self.patch_method(Timer, "stop", "sim")

    # -- install ----------------------------------------------------------
    def install(self) -> None:
        """Patch every boundary.  Call before building any cluster."""
        from repro.crypto import authenticators
        from repro.crypto.primitives import KeyStore, digest_of
        from repro.faults.checker import SafetyChecker
        from repro.faults.liveness import LivenessChecker
        from repro.net.network import Network
        # The registry imports every protocol module.
        import repro.protocols.registry  # noqa: F401
        from repro.smr.app import StateMachine
        from repro.smr.runtime import NodeBase, SmrClientBase
        from repro.workloads import cohorts
        from repro.workloads.clients import ClosedLoopDriver

        self._patch_scheduling()
        for attr in ("send_authenticated", "multicast_authenticated",
                     "_deliver_auth", "_deliver_auth_batch"):
            self.patch_method(Network, attr, "net")

        self.patch_function(digest_of, "digest_of", "crypto")
        for attr in ("sign", "sign_digest", "verify", "verify_digest",
                     "check", "mac", "mac_digest", "verify_mac",
                     "verify_mac_digest"):
            self.patch_method(KeyStore, attr, "crypto")
        self.patch_own_methods(
            _subclasses(authenticators.Authenticator),
            ("begin", "stamp", "verify"), "crypto")

        # Only where a protocol module defines the method itself, so a
        # call never nests in a span of the same method.
        self.patch_own_methods(
            [cls for cls in _subclasses(NodeBase)
             if cls.__module__.startswith("repro.protocols.")],
            ("on_message", "propose", "recover"), "protocols")

        self.patch_own_methods(_subclasses(StateMachine), ("execute",),
                               "smr")
        self.patch_method(SmrClientBase, "record_completion", "smr")

        self.patch_factory(ClosedLoopDriver, "_make_on_commit",
                           "ClosedLoopDriver.on_commit", "workloads")
        self.patch_factory(cohorts._Cohort, "_make_on_commit",
                           "CohortDriver.on_commit", "workloads")

        self.patch_method(SafetyChecker, "observe", "faults")
        self.patch_method(LivenessChecker, "sample", "faults")

    # -- reports ----------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> Dict[str, Any]:
        """Per-name counts and self seconds, per-layer self seconds and
        the total root time."""
        counts = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        starts, ends, child = self.starts, self.ends, self.child_time
        for index, nid in enumerate(self.name_ids):
            counts[nid] += 1
            self_s[nid] += ends[index] - starts[index] - child[index]
        root_id = self._ids.get((ROOT, "sim"))
        root_s = 0.0
        for index, parent in enumerate(self.parents):
            if parent < 0 and self.name_ids[index] == root_id:
                root_s += ends[index] - starts[index]
        layers = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        by_name: Dict[str, Tuple[int, float]] = {}
        for nid, (name, layer) in enumerate(self.names):
            layers[layer] += self_s[nid]
            prev = by_name.get(name, (0, 0.0))
            by_name[name] = (prev[0] + counts[nid], prev[1] + self_s[nid])
        return {"root_s": root_s, "layers": layers, "by_name": by_name,
                "spans": self.span_count}

    def write(self, path: str) -> None:
        """Write every span as a TSV line: name, layer, cell, parent,
        start and end (seconds, relative to the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            out.write("index\tname\tlayer\tcell\tparent\tstart_s\tend_s\n")
            for index, nid in enumerate(self.name_ids):
                name, layer = self.names[nid]
                out.write(f"{index}\t{name}\t{layer}\t{self.cells[index]}"
                          f"\t{self.parents[index]}"
                          f"\t{self.starts[index] - origin:.9f}"
                          f"\t{self.ends[index] - origin:.9f}\n")


def _subclasses(cls: type) -> List[type]:
    """``cls`` and all its subclasses, in a stable order."""
    found = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in found:
                found.append(item)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))
