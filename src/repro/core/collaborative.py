"""Collaborative (threshold) decryption inside the simulation.

"The collaborative decryption is performed by getting from a sufficient
number of distinct participants their partial decryptions" (paper, Section
II.B).  In the simulation, key shares are held by the first ``n_shares``
participants (a decryption committee); a participant wanting to decrypt its
perturbed encrypted means sends each committee member the ciphertexts and
receives a partial decryption back, then combines locally.

Every round-trip moves serialized byte frames
(:class:`~repro.gossip.messages.DecryptRequest` /
:class:`~repro.gossip.messages.DecryptResponse`): helpers partially decrypt
the ciphertexts of the request they *receive*, responses travel back the
same way, and the network accounts measured frame lengths, so the cost
analysis reflects the decryption traffic.  Receiving is ``deserialize``: an
intact in-process frame returns the message it was serialized from
(:class:`~repro.gossip.messages.Frame`), so the one request object serves
every helper; bytes from a socket or from the fault model are decoded in
full.  A frame corrupted in transit fails its checksum, that helper
contributes no partial decryptions, and when fewer than ``threshold``
distinct shares survive the round the usual
:class:`~repro.exceptions.ThresholdError` surfaces — the caller retries at
the next cycle, exactly as it does when committee members are
offline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..crypto.backends import CipherBackend, PartialVectorDecryption
from ..crypto.wire import wire_ciphertext_bytes
from ..exceptions import ThresholdError, WireFormatError
from ..gossip.encrypted_sum import EncryptedEstimate, estimate_payload_bytes
from ..gossip.messages import (
    DecryptRequest,
    DecryptResponse,
    Frame,
    WireMessage,
    deserialize,
)
from ..simulation.engine import CycleEngine


@dataclass(frozen=True)
class DecryptionOutcome:
    """Result of one collaborative decryption round: one decrypted vector per
    estimate (:func:`collaborative_decrypt`: the one vector itself)."""

    values: list[np.ndarray] | np.ndarray
    helpers: tuple[int, ...]
    messages: int
    bytes_transferred: int


def share_holder_ids(n_shares: int) -> list[int]:
    """Node ids of the decryption committee (share *i+1* is held by node *i*)."""
    return list(range(n_shares))


def share_index_of(node_id: int, n_shares: int) -> int | None:
    """Key-share index (1-based) held by *node_id*, or None."""
    if 0 <= node_id < n_shares:
        return node_id + 1
    return None


def build_decrypt_request(backend: CipherBackend,
                          estimates: Sequence[EncryptedEstimate]) -> Frame:
    """Serialize one committee decryption request frame.

    The single frame-building site: both drivers' committee fan-outs
    (:func:`collaborative_decrypt_many` here, the live driver's over its
    transport) call it, so they can never diverge in what they put on the
    wire.
    """
    return DecryptRequest(
        estimates=tuple(estimates), ciphertext_bytes=wire_ciphertext_bytes(backend)
    ).serialize()


def serve_decrypt_request(backend: CipherBackend, helper_id: int,
                          request: DecryptRequest) -> Frame:
    """A committee member's serialized answer to one decoded request.

    The helper half of the round, shared by the cycle engine's committee
    round and the live worker's ``WorkerTransport.serve``: one partial
    decryption per requested estimate, under the key share *helper_id*
    holds.  Raises
    :class:`ThresholdError` when that node holds none.
    """
    share_index = share_index_of(helper_id, backend.n_shares)
    if share_index is None:
        raise ThresholdError(f"node {helper_id} holds no key share")
    partials = tuple(
        backend.partial_decrypt_vector(share_index, estimate.vector)
        for estimate in request.estimates
    )
    return DecryptResponse(
        partials=partials, ciphertext_bytes=wire_ciphertext_bytes(backend)
    ).serialize()


def response_partials(
    response: WireMessage | None, expected_partials: int
) -> tuple[PartialVectorDecryption, ...] | None:
    """A decoded helper response's partials; ``None`` means "treat as a loss".

    A response that never arrived, decoded to a different message type, or
    carries the wrong number of partial decryptions simply removes that
    helper's contribution from the round — shared loss semantics of both
    execution modes.
    """
    if not isinstance(response, DecryptResponse):
        return None
    if len(response.partials) != expected_partials:
        return None
    return response.partials


def decode_decrypt_response(frame: bytes, expected_partials: int):
    """:func:`response_partials` of a raw response frame; a frame that fails
    its checksum is a loss too."""
    try:
        return response_partials(deserialize(frame), expected_partials)
    except WireFormatError:
        return None


def finalize_decryption(
    backend: CipherBackend,
    per_helper: Sequence[Sequence[PartialVectorDecryption] | None],
    estimates: Sequence[EncryptedEstimate],
) -> list[np.ndarray]:
    """Combine the helpers' partials and undo each estimate's public exponent.

    *per_helper* holds one entry per helper asked: its partials, one per
    estimate, or ``None`` when its contribution was lost.  Raises
    :class:`ThresholdError` (from the backend) when the round left fewer
    than ``threshold`` distinct usable partials for some estimate.
    """
    usable = [partials for partials in per_helper if partials is not None]
    return [
        backend.combine_vector([partials[position] for partials in usable])
        / float(1 << estimate.halvings)
        for position, estimate in enumerate(estimates)
    ]


def _online_helpers(engine: CycleEngine, backend: CipherBackend) -> tuple[int, ...]:
    """The decryption helpers for this cycle, or :class:`ThresholdError`."""
    online = set(engine.online_ids())
    committee = [node_id for node_id in share_holder_ids(backend.n_shares) if node_id in online]
    if len(committee) < backend.threshold:
        raise ThresholdError(
            f"only {len(committee)} of the {backend.threshold} required decryption "
            "helpers are online"
        )
    return tuple(committee[: backend.threshold])


def collaborative_decrypt_many(
    engine: CycleEngine,
    requester_id: int,
    backend: CipherBackend,
    estimates: Sequence[EncryptedEstimate],
) -> DecryptionOutcome:
    """Decrypt *estimates* in one request/response round with the online helpers.

    The request to each helper carries all the estimates' ciphertexts at
    once, on every ciphertext layout: 2·threshold messages per round.
    Helpers operate on ``deserialize`` of the frame they received; an
    undecodable (corrupted) frame simply removes that helper's contribution
    from the round.  A *dropped* request is served regardless: the committee
    round-trip is atomic in the cycle model (drops are modelled at the
    gossip layer).  The outcome's message and byte counts are what the
    network ledger charged over the round.

    Raises :class:`ThresholdError` when fewer than ``backend.threshold``
    committee members are currently online, or when corruption left fewer
    than ``threshold`` usable partial decryptions (the caller typically
    retries at the next cycle).
    """
    helpers = _online_helpers(engine, backend)
    modelled = sum(estimate_payload_bytes(backend, estimate) for estimate in estimates)
    request_frame = build_decrypt_request(backend, estimates)
    ledger = engine.network.total
    messages, transferred = ledger.messages_sent, ledger.bytes_sent
    per_helper = [
        response_partials(
            engine.transport.exchange(
                requester_id, helper_id, ("decrypt-request", "decrypt-response"),
                request_frame,
                lambda request: serve_decrypt_request(backend, helper_id, request),
                modelled_bytes=modelled, lossy_request=False,
            ),
            len(estimates),
        )
        for helper_id in helpers
    ]
    return DecryptionOutcome(
        values=finalize_decryption(backend, per_helper, estimates),
        helpers=helpers,
        messages=ledger.messages_sent - messages,
        bytes_transferred=ledger.bytes_sent - transferred,
    )


def collaborative_decrypt(
    engine: CycleEngine,
    requester_id: int,
    backend: CipherBackend,
    estimate: EncryptedEstimate,
) -> DecryptionOutcome:
    """:func:`collaborative_decrypt_many` of the one *estimate*."""
    outcome = collaborative_decrypt_many(engine, requester_id, backend, [estimate])
    return replace(outcome, values=outcome.values[0])
