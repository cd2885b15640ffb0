"""Digest correctness: fast encoding and memoized digests are invisible.

Three obligations:

* ``digest_of`` is byte-identical to the seed encoder's output for every
  wire-message shape (the exact-type fast path may only change how fast
  hashing happens, never *what* is hashed);
* MAC vectors are unchanged whether a fan-out rides the coalesced batch
  path or the per-receiver path -- the authenticator depends only on
  (sender, receiver, body digest), never on delivery scheduling;
* ``Batch.bodies_digest`` is memoized on the frozen batch and never
  invalidated, which is exactly why mutating a frozen message after it
  has been digested is forbidden (lint rule A002): the stale digest this
  test demonstrates is the bug the rule prevents.
"""

import dataclasses

from repro.crypto.authenticators import (
    MAC_VECTOR,
    MacVectorAuthenticator,
    registered_classes,
)
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    Mac,
    Signature,
    digest_of,
)
from repro.harness.perf import _seed_digest_of
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network
from repro.protocols.xpaxos.messages import PreChk, ReplyMsg
from repro.sim.core import Simulator
from repro.smr.messages import Batch, Reply, Request


def make_batch(i=0, n=4):
    return Batch(tuple(
        Request(op=("put", f"key-{i}-{j}", b"v" * 24), timestamp=i * 8 + j,
                client=j, size_bytes=64)
        for j in range(n)))


class TestByteIdentity:
    """digest_of == the seed encoder, byte for byte, shape by shape."""

    def test_wire_messages_match_seed_encoder(self):
        keystore = KeyStore()
        sig = keystore.sign("r0", ("prepare", 1, 2))
        mac = keystore.mac("r0", "c1", ("reply", 3))
        samples = [
            Request(op=("get", "k"), timestamp=7, client=2, size_bytes=32),
            Request(op=("put", "k", b"v"), timestamp=8, client=2,
                    signature=sig),
            make_batch(),
            Reply(replica=1, view=0, seqno=5, timestamp=7, result="ok"),
            ReplyMsg(replica=0, view=1, seqno=9, timestamp=4, client=3,
                     result=None, result_digest=digest_of(("r", 9))),
            PreChk(seqno=40, view=1, state_digest=b"\x01" * 32, sender=2),
            sig,
            mac,
            ("tuple", 1, 2.5, None, True, b"bytes"),
            {"b": 1, "a": (2, 3)},
            ["list", ("nested", Digest(b"\x02" * 32))],
        ]
        for obj in samples:
            assert digest_of(obj).value == _seed_digest_of(obj).value, obj

    def test_repeated_digests_stay_identical(self):
        batch = make_batch(1)
        first = digest_of(batch)
        for _ in range(3):
            assert digest_of(batch).value == first.value
        # A fresh, equal-valued instance digests to the same bytes.
        assert digest_of(make_batch(1)).value == first.value

    def test_every_registered_wire_class_is_frozen(self):
        # The immutability contract A002 guards: every class that
        # crosses the wire is a frozen dataclass.
        # The registry is process-global and other test modules register
        # ad-hoc fixture classes, so scope the sweep to the package.
        for cls in registered_classes():
            if not cls.__module__.startswith("repro."):
                continue
            assert dataclasses.is_dataclass(cls), cls
            assert cls.__dataclass_params__.frozen, cls


def _auth_net(sites, coalesce):
    """A network with one auth-recording sink per (name, site) pair."""
    sim = Simulator()
    latency = LatencyModel.uniform(
        tuple(sorted(set(site for _, site in sites))) + ("S",),
        one_way_ms=5.0, jitter=0.0, seed=7)
    # No bandwidth model: uplink serialization would spread the arrival
    # ticks and keep the receivers off the coalesced path.
    net = Network(sim, latency, coalesce=coalesce)
    inboxes = {}
    for name, site in sites:
        inbox = inboxes[name] = []
        net.attach(Endpoint(
            name, site,
            lambda src, p: None,
            lambda: True,
            deliver_auth=(lambda inbox: lambda src, body, auth, size:
                          inbox.append(auth))(inbox)))
    net.attach(Endpoint("s", "S", lambda src, p: None, lambda: True))
    return sim, net, inboxes


class TestMacVectorsBothPaths:
    """The same fan-out through the coalesced batch path and the
    per-receiver path must stamp byte-identical MAC vectors."""

    def run_fanout(self, coalesce):
        sim, net, inboxes = _auth_net(
            [("b", "Y"), ("c", "Y"), ("d", "Z")], coalesce)
        keystore = KeyStore()
        body = PreChk(seqno=11, view=0, state_digest=b"\x03" * 32, sender=0)
        net.multicast_authenticated("s", sorted(inboxes), body,
                                    size_bytes=44,
                                    authenticator=MAC_VECTOR,
                                    keystore=keystore)
        sim.run()
        macs = {}
        for name, inbox in inboxes.items():
            (auth,) = inbox
            assert keystore.verify_mac(auth, body)
            macs[name] = tuple(auth)  # full layout, token bytes included
        return net.stats, macs

    def test_coalesced_and_per_receiver_macs_are_byte_identical(self):
        # Same topology, both delivery paths: with coalescing on, the
        # zero-jitter arrivals share one batch event (`_deliver_auth_batch`
        # hoists the digest across the drain); with it off, every
        # receiver rides its own event.  The MAC vector must not notice.
        coalesced_stats, coalesced = self.run_fanout(coalesce=True)
        split_stats, split = self.run_fanout(coalesce=False)
        assert coalesced_stats.coalesced_deliveries == 3
        assert split_stats.coalesced_deliveries == 0
        assert coalesced == split

    def test_transport_stamp_matches_keystore_mac_digest(self):
        # The inlined fan-out stamp and the KeyStore API derive the
        # same token ("keep in sync" contract in authenticators.py).
        keystore = KeyStore()
        context = digest_of(("ctx", 1))
        stamped = MacVectorAuthenticator().stamp(keystore, "a", "b", context)
        assert tuple(stamped) == tuple(keystore.mac_digest("a", "b", context))


class TestMutationAfterDigestGuard:
    """Why A002 exists: a mutated message keeps serving its stale digest."""

    def test_mutation_after_digest_serves_stale_digest(self):
        batch = make_batch(4)
        before = batch.bodies_digest()
        # The forbidden write A002 flags in real code -- performed here
        # deliberately to pin down the failure mode it prevents.
        swapped = make_batch(5).requests
        object.__setattr__(batch, "requests", swapped)  # repro: lint-ok[A002]
        assert batch.bodies_digest() is before  # stale: memo never revalidates
        assert Batch(swapped).bodies_digest().value != before.value

    def test_unmutated_messages_never_go_stale(self):
        batch = make_batch(3)
        assert digest_of(batch).value == _seed_digest_of(batch).value
        bodies = tuple(r.body() for r in batch.requests)
        assert batch.bodies_digest().value == _seed_digest_of(bodies).value
        assert batch.bodies_digest() is batch.bodies_digest()
