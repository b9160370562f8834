"""Membership and key bootstrap over the announcement wire frames.

PR 3 defined :class:`~repro.gossip.messages.MembershipAnnouncement` and
:class:`~repro.gossip.messages.KeyAnnouncement` "so the future socket runner
... can exercise membership traffic through the same conformance-tested wire
format"; this module is that future.  The live runner bootstraps in three
steps, all of them carried as serialized announcement frames:

1. every worker announces each participant it hosts with one
   ``MembershipAnnouncement`` frame (the worker's socket address rides in
   the envelope header — the frame itself stays transport-agnostic);
2. the coordinator feeds every announcement into its
   :class:`MembershipDirectory` and replays the full announcement log to
   every worker (including workers that connect *late*: replaying the log
   is exactly how a late joiner catches up via membership gossip);
3. the coordinator broadcasts one ``KeyAnnouncement`` frame carrying the
   public threshold-key parameters; each worker verifies it against the key
   material it holds before serving any protocol traffic.

The directory is deliberately transport-free (it consumes and produces
frame bytes), so the bootstrap protocol is unit-testable without sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..crypto.backends import CipherBackend
from ..exceptions import ProtocolError
from ..gossip.messages import (
    Frame,
    KeyAnnouncement,
    MembershipAnnouncement,
    deserialize,
)

#: A worker's socket address, as announced next to a membership frame.
Address = tuple[str, int]


@dataclass(frozen=True)
class MemberRecord:
    """What the directory knows about one announced participant."""

    node_id: int
    online: bool
    cycle: int
    address: Address | None = None


class MembershipDirectory:
    """Routing table built from ``MembershipAnnouncement`` frames.

    The directory keeps the raw announcement log alongside the decoded
    state: replaying :meth:`snapshot` into a fresh directory reproduces it
    exactly, which is how a late-joining worker catches up (and how the
    bootstrap tests exercise catch-up without a socket in sight).
    """

    def __init__(self) -> None:
        self._members: dict[int, MemberRecord] = {}
        self._log: list[tuple[bytes, Address | None]] = []

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------ feeding
    def announce(self, node_id: int, online: bool, cycle: int,
                 address: Address | None = None) -> Frame:
        """Build, apply and return one membership announcement frame."""
        frame = MembershipAnnouncement(
            node_id=node_id, online=online, cycle=cycle
        ).serialize()
        self.feed(frame, address=address)
        return frame

    def feed(self, frame: bytes, address: Address | None = None) -> MembershipAnnouncement:
        """Apply one received announcement frame to the directory.

        Raises :class:`~repro.exceptions.WireFormatError` for undecodable
        frames and :class:`~repro.exceptions.ProtocolError` when the frame
        decodes to a different message type.
        """
        message = deserialize(frame)
        if not isinstance(message, MembershipAnnouncement):
            raise ProtocolError(
                f"membership bootstrap received a {type(message).__name__} frame"
            )
        if address is not None:
            host, port = address
            address = (str(host), int(port))
        known = self._members.get(message.node_id)
        if known is not None and address is None:
            # A bare join/leave toggle keeps the announced location.
            address = known.address
        self._members[message.node_id] = MemberRecord(
            node_id=message.node_id,
            online=message.online,
            cycle=message.cycle,
            address=address,
        )
        self._log.append((bytes(frame), address))
        return message

    # ------------------------------------------------------------------ queries
    def record(self, node_id: int) -> MemberRecord:
        """The latest record of one participant."""
        try:
            return self._members[node_id]
        except KeyError as exc:
            raise ProtocolError(f"node {node_id} was never announced") from exc

    def address_of(self, node_id: int) -> Address:
        """Socket address of the worker hosting *node_id*."""
        record = self.record(node_id)
        if record.address is None:
            raise ProtocolError(f"node {node_id} was announced without an address")
        return record.address

    # ------------------------------------------------------------------ replication
    def snapshot(self) -> list[tuple[bytes, Address | None]]:
        """The full announcement log (frame bytes plus announced addresses).

        Replaying this into :meth:`catch_up` on an empty directory yields an
        identical directory — membership gossip for late joiners.
        """
        return list(self._log)

    def catch_up(self, entries: Iterable[Sequence]) -> int:
        """Replay a snapshot (or any announcement stream); return the count."""
        applied = 0
        for frame, address in entries:
            if address is not None:
                address = (address[0], int(address[1]))
            self.feed(bytes(frame), address=address)
            applied += 1
        return applied


# ---------------------------------------------------------------------- keys
def key_announcement_for(backend: CipherBackend) -> KeyAnnouncement:
    """The public-key announcement of a backend's threshold key material.

    Real backends announce the RSA modulus and Damgård–Jurik degree; the
    plain simulation backend announces its codec modulus with degree 1 (the
    "public key" of the simulated scheme), so the bootstrap protocol runs
    identically across backends.
    """
    public_key = getattr(backend, "public_key", None)
    if public_key is not None:
        modulus = int(public_key.n)
        degree = int(getattr(public_key, "s", 1))
    else:
        modulus = int(backend.codec.modulus)
        degree = 1
    return KeyAnnouncement(
        modulus=modulus,
        degree=degree,
        threshold=backend.threshold,
        n_shares=backend.n_shares,
    )


def verify_key_announcement(frame: bytes, backend: CipherBackend) -> KeyAnnouncement:
    """Decode a key announcement and check it matches *backend*'s key.

    Raises :class:`~repro.exceptions.WireFormatError` for undecodable
    frames and :class:`~repro.exceptions.ProtocolError` when the announced
    parameters disagree with the locally held key material — a worker must
    refuse to serve a run keyed differently from its own shares.
    """
    message = deserialize(frame)
    if not isinstance(message, KeyAnnouncement):
        raise ProtocolError(
            f"key bootstrap received a {type(message).__name__} frame"
        )
    expected = key_announcement_for(backend)
    if message != expected:
        raise ProtocolError(
            "announced key parameters disagree with the local key material "
            f"(announced degree={message.degree} threshold={message.threshold} "
            f"n_shares={message.n_shares})"
        )
    return message
