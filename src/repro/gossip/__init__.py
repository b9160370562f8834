"""Gossip layer: uniform peer sampling over the online population, the
encrypted gossip averaging primitive used by the Chiaroscuro computation
step, and the wire messages.

The protocol averages by one rule, written twice: pairwise over encrypted
estimates (:func:`average_estimates`, one call per side of every
participant's exchange) and vectorised over a cleartext slab
(:func:`repro.simulation.slab.average_pairs_inplace`, the slab engine and the
plain distributed baseline)."""

from .encrypted_sum import (
    EncryptedEstimate,
    add_estimates,
    average_estimates,
    check_headroom,
    estimates_payload_bytes,
    fresh_estimates,
    required_headroom_bits,
    rerandomize_estimates,
)
from .messages import (
    MESSAGE_TYPES,
    DecryptRequest,
    DecryptResponse,
    DiptychExchange,
    DiptychReply,
    KeyAnnouncement,
    MembershipAnnouncement,
    WireMessage,
    deserialize,
)
from .peers import sample_peer

__all__ = [
    "sample_peer",
    "EncryptedEstimate",
    "fresh_estimates",
    "average_estimates",
    "add_estimates",
    "rerandomize_estimates",
    "estimates_payload_bytes",
    "required_headroom_bits",
    "check_headroom",
    "MESSAGE_TYPES",
    "WireMessage",
    "deserialize",
    "DiptychExchange",
    "DiptychReply",
    "DecryptRequest",
    "DecryptResponse",
    "MembershipAnnouncement",
    "KeyAnnouncement",
]
