"""Transport layer: the seam between protocol logic and message delivery.

This package owns *how bytes move* between participants, independently of
*what the protocol does* with them:

* :mod:`repro.net.transport` — the deterministic in-process
  :class:`~repro.net.transport.LoopbackTransport` that the cycle engine
  delegates to, and the request/reply rule of the cycle model;
* :mod:`repro.net.envelope` — length-prefixed socket records that carry
  wire frames (and JSON control metadata) over a TCP stream;
* :mod:`repro.net.bootstrap` — the membership/key bootstrap driven by the
  :class:`~repro.gossip.messages.MembershipAnnouncement` and
  :class:`~repro.gossip.messages.KeyAnnouncement` frames;
* :mod:`repro.net.live` — the multi-process asyncio socket runner
  (imported lazily: it pulls in :mod:`repro.core`, which itself imports
  the transport layer).
"""

from .envelope import (
    DEFAULT_WRITE_BUFFER_LIMIT,
    KIND_CONTROL,
    KIND_FRAME,
    Envelope,
    EnvelopeError,
    decode_envelope,
    encode_envelope,
)
from .transport import LoopbackTransport

#: Names resolved lazily: bootstrap imports :mod:`repro.gossip.messages`,
#: which imports the simulation engine — and the engine imports this package
#: for :class:`LoopbackTransport`.  Deferring the gossip-dependent module
#: keeps the transport seam importable from inside the engine.
_LAZY = {
    "MembershipDirectory": "bootstrap",
    "key_announcement_for": "bootstrap",
    "verify_key_announcement": "bootstrap",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)

__all__ = [
    "DEFAULT_WRITE_BUFFER_LIMIT",
    "Envelope",
    "EnvelopeError",
    "KIND_CONTROL",
    "KIND_FRAME",
    "LoopbackTransport",
    "MembershipDirectory",
    "decode_envelope",
    "encode_envelope",
    "key_announcement_for",
    "verify_key_announcement",
]
