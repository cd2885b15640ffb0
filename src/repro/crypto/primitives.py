"""Digests, digital signatures and MACs for the simulated system.

Implementation notes
--------------------

* A :class:`Digest` is a real SHA-256 over a canonical encoding of the
  message payload, so content tampering is always detectable.
  :func:`digest_of` encodes and hashes on every call; a derived digest
  worth keeping is memoized by its owner through
  :func:`cache_on_instance` (``Batch.bodies_digest``).
* A :class:`Signature` is *unforgeable by construction*: it can only be
  created through :meth:`KeyStore.sign`, which requires the signer's private
  capability.  Byzantine behaviour in the tests therefore has exactly the
  power the paper grants it -- replaying, withholding, equivocating with
  fresh signatures of its own, but never forging another machine's.
* Equality of signatures is value-based so they can sit inside frozen
  message dataclasses and travel through the network layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from operator import itemgetter
from typing import Any, Dict, Tuple

from repro.common.errors import SignatureError

#: Canonical principal name of machine ``p``: replicas are ``"r<i>"``,
#: clients ``"c<i>"``.
Principal = str


def replica_principal(replica_id: int) -> Principal:
    """Principal name of a replica."""
    return f"r{replica_id}"


def client_principal(client_id: int) -> Principal:
    """Principal name of a client."""
    return f"c{client_id}"


def _canonical(obj: Any) -> bytes:
    """Encode ``obj`` deterministically for hashing.

    Handles the payload types that appear inside protocol messages: scalars,
    bytes, tuples/lists, dicts, dataclasses, signatures and digests.

    The exact-type tests up front are the hot path: wire payloads are
    overwhelmingly tuples of ints/strs/bytes, and dispatching on
    ``obj.__class__`` skips the generic isinstance chain.  Subclasses
    (enums, user types) still route through :func:`_canonical_general`
    and encode byte-identically to the pre-fast-path encoder.
    """
    cls = obj.__class__
    if cls is tuple or cls is list:
        parts = b"".join(map(_canonical, obj))
        return b"l%d:%b" % (len(obj), parts)
    if cls is int:
        return b"i%d" % obj
    if cls is str:
        data = obj.encode()
        return b"s%d:%b" % (len(data), data)
    if cls is bytes:
        return b"b%d:%b" % (len(obj), obj)
    if cls is float:
        return b"f" + repr(obj).encode()
    return _canonical_general(obj)


def _canonical_general(obj: Any) -> bytes:
    """Structural encoding for everything off the exact-type fast path."""
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
        return b"S" + _canonical((obj.signer, obj.digest.value))
    if isinstance(obj, Mac):
        return b"M" + _canonical((obj.sender, obj.receiver, obj.digest.value))
    if isinstance(obj, (tuple, list)):
        parts = b"".join(_canonical(x) for x in obj)
        return b"l" + str(len(obj)).encode() + b":" + parts
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: _canonical(kv[0]))
        parts = b"".join(_canonical(k) + _canonical(v) for k, v in items)
        return b"d" + str(len(obj)).encode() + b":" + parts
    if is_dataclass(obj) and not isinstance(obj, type):
        parts = [type(obj).__name__.encode()]
        for f in fields(obj):
            parts.append(_canonical(f.name))
            parts.append(_canonical(getattr(obj, f.name)))
        return b"c" + b"".join(parts)
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


@dataclass(frozen=True)
class Digest:
    """SHA-256 digest of a canonically encoded payload (the paper's D(m))."""

    value: bytes

    def hex(self) -> str:
        """Hex form for logs and debugging."""
        return self.value.hex()

    def __repr__(self) -> str:
        return f"Digest({self.value.hex()[:12]})"

    # Hand-written equality/hash: digests are compared on every MAC and
    # signature verification, and the generated dataclass __eq__ builds a
    # field tuple per side per compare.  Value semantics are unchanged.
    def __eq__(self, other: Any) -> bool:
        if other.__class__ is Digest:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


_sha256 = hashlib.sha256

_digest_calls = 0


def digest_of(obj: Any) -> Digest:
    """Compute ``D(obj)``: SHA-256 over the canonical encoding."""
    global _digest_calls
    _digest_calls += 1
    return Digest(_sha256(_canonical(obj)).digest())


def cache_on_instance(obj: Any, attr: str, value: Any) -> None:
    """Memoize a derived value on a frozen instance.

    The sanctioned mutation point for frozen dataclasses: lint rule A002
    flags any other ``object.__setattr__`` on message instances.  Only
    derived values (digests of immutable fields, e.g.
    ``Batch.bodies_digest``) may be cached -- the attribute must never
    feed back into equality, hashing, or the wire encoding.
    """
    object.__setattr__(obj, attr, value)


def digest_cache_stats() -> Dict[str, int]:
    """``digest_of`` call counters for ``repro profile``
    (docs/profiling.md).

    ``digest_of`` memoizes nothing, so every call counts as ``uncached``
    and ``hits``/``stores`` always read 0; the three keys are kept so
    ``hits + stores + uncached`` stays the total call count.
    """
    return {"hits": 0, "stores": 0, "uncached": _digest_calls}


def reset_digest_cache_stats() -> None:
    """Zero the ``digest_of`` call counter (profiling harness hook)."""
    global _digest_calls
    _digest_calls = 0


class Signature(tuple):
    """A digital signature ``<D(m)>_{sigma_p}`` by principal ``signer``.

    The private field ``_token`` is derived inside :class:`KeyStore` from the
    signer's secret; holding a Signature object with a valid token is proof
    the signer produced it.

    Implemented as a lean ``tuple`` subclass rather than a frozen
    dataclass: one is minted per sign/stamp on the fan-out hot path, and
    tuple construction and comparison run at C speed while keeping the
    same value semantics and immutability (``__slots__ = ()``).
    """

    __slots__ = ()

    def __new__(cls, signer: Principal, digest: Digest,
                _token: bytes) -> "Signature":
        return tuple.__new__(cls, (signer, digest, _token))

    signer = property(itemgetter(0))
    digest = property(itemgetter(1))
    _token = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Sig({self.signer},{self.digest.hex()[:8]})"


class Mac(tuple):
    """A message authentication code on the channel ``sender -> receiver``.

    Same lean tuple-subclass layout as :class:`Signature`: the transport
    mints one Mac per receiver per fan-out, so constructor cost is paid
    n times per multicast.
    """

    __slots__ = ()

    def __new__(cls, sender: Principal, receiver: Principal,
                digest: Digest, _token: bytes) -> "Mac":
        return tuple.__new__(cls, (sender, receiver, digest, _token))

    sender = property(itemgetter(0))
    receiver = property(itemgetter(1))
    digest = property(itemgetter(2))
    _token = property(itemgetter(3))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Mac({self.sender}->{self.receiver},{self.digest.hex()[:8]})"


class KeyStore:
    """The system-wide key infrastructure.

    The paper assumes every machine knows every other machine's public key
    (Section 4.2).  A single KeyStore per experiment plays the role of that
    PKI: ``sign``/``mac`` require the caller to *be* the principal (enforced
    by the protocol runtime, which only hands each node its own signing
    facade), and ``verify`` is available to everyone.
    """

    def __init__(self, secret: bytes = b"xft-repro") -> None:
        self._secret = secret
        # Domain-separated token prefixes, concatenated once per keystore
        # instead of once per token derivation.
        self._sig_prefix = b"sig" + secret
        self._mac_prefix = b"mac" + secret

    # -- internal token derivations ------------------------------------
    # Single-shot hashing: SHA-256 over one concatenated buffer is
    # byte-identical to the equivalent sequence of h.update() calls, and
    # skips four C-call round trips per token on the fan-out hot path.
    # The mac/verify fast paths below inline these derivations to skip
    # the extra frame per stamp/check; keep both in sync.
    def _sig_token(self, signer: Principal, digest: Digest) -> bytes:
        return _sha256(
            self._sig_prefix + signer.encode() + digest.value
        ).digest()

    def _mac_token(self, sender: Principal, receiver: Principal,
                   digest: Digest) -> bytes:
        return _sha256(
            self._mac_prefix + sender.encode() + receiver.encode()
            + digest.value
        ).digest()

    # -- public API -----------------------------------------------------
    def sign(self, signer: Principal, payload: Any) -> Signature:
        """Sign ``payload`` as ``signer`` (requires the signer's identity)."""
        digest = digest_of(payload)
        return Signature(signer, digest, self._sig_token(signer, digest))

    def sign_digest(self, signer: Principal, digest: Digest) -> Signature:
        """Sign an already computed digest."""
        return Signature(signer, digest, self._sig_token(signer, digest))

    def verify(self, signature: Signature, payload: Any) -> bool:
        """Check that ``signature`` is a valid signature of ``payload``."""
        digest = digest_of(payload)
        return self.verify_digest(signature, digest)

    def verify_digest(self, signature: Signature, digest: Digest) -> bool:
        """Check ``signature`` against a digest."""
        signer, sig_digest, token = signature
        return (
            sig_digest.value == digest.value
            and token == _sha256(
                self._sig_prefix + signer.encode() + digest.value
            ).digest()
        )

    def check(self, signature: Signature, payload: Any,
              expected_signer: Principal) -> None:
        """Verify and raise :class:`SignatureError` on failure."""
        if signature.signer != expected_signer:
            raise SignatureError(
                f"signature by {signature.signer}, expected {expected_signer}"
            )
        if not self.verify(signature, payload):
            raise SignatureError(
                f"invalid signature by {signature.signer}"
            )

    def mac(self, sender: Principal, receiver: Principal,
            payload: Any) -> Mac:
        """Authenticate ``payload`` on the pairwise channel."""
        return self.mac_digest(sender, receiver, digest_of(payload))

    def mac_digest(self, sender: Principal, receiver: Principal,
                   digest: Digest) -> Mac:
        """MAC an already computed digest.

        The fan-out fast path: an n-way authenticated broadcast hashes the
        payload once and derives n channel tokens from the digest, instead
        of hashing the payload n times.
        """
        token = _sha256(
            self._mac_prefix + sender.encode() + receiver.encode()
            + digest.value
        ).digest()
        return Mac(sender, receiver, digest, token)

    def verify_mac(self, mac: Mac, payload: Any) -> bool:
        """Check a MAC against a payload."""
        digest = digest_of(payload)
        sender, receiver, mac_digest, token = mac
        return (
            mac_digest.value == digest.value
            and token == _sha256(
                self._mac_prefix + sender.encode() + receiver.encode()
                + digest.value
            ).digest()
        )

    def verify_mac_digest(self, mac: Mac, digest: Digest) -> bool:
        """Check a MAC against an already computed payload digest.

        The delivery-time fast path: the transport hashes a fan-out's
        body once and hands the digest to each receiver, which then only
        derives the channel token instead of re-hashing the payload.
        """
        sender, receiver, mac_digest, token = mac
        return (
            mac_digest.value == digest.value
            and token == _sha256(
                self._mac_prefix + sender.encode() + receiver.encode()
                + digest.value
            ).digest()
        )

    def forge_attempt(self, forger: Principal, victim: Principal,
                      payload: Any) -> Signature:
        """Produce the *invalid* signature a Byzantine ``forger`` would get
        when trying to sign as ``victim``.

        The token is derived from the forger's own key, so verification
        against ``victim`` always fails.  Used by the adversary models in the
        test suite to demonstrate unforgeability.
        """
        digest = digest_of(payload)
        return Signature(victim, digest, self._sig_token(forger, digest))
