"""Gossip layer: uniform peer sampling over the online population, the
encrypted gossip averaging primitive used by the Chiaroscuro computation
step, and the wire messages.

The protocol averages by one rule, written twice: pairwise over encrypted
estimates (:func:`average_estimates`, run by every participant's exchange)
and vectorised over a cleartext slab
(:func:`repro.simulation.slab.average_pairs_inplace`, the slab engine and the
plain distributed baseline).  The encrypted-avg, push-pull and push-sum
frame types in :data:`MESSAGE_TYPES` stay decodable and pinned by the golden
wire vectors, but no run sends them."""

from .encrypted_sum import (
    EncryptedEstimate,
    add_estimates,
    average_estimates,
    check_headroom,
    decode_estimate,
    estimate_payload_bytes,
    fresh_estimate,
    required_headroom_bits,
    rerandomize_estimate,
)
from .messages import (
    MESSAGE_TYPES,
    DecryptRequest,
    DecryptResponse,
    DiptychExchange,
    DiptychReply,
    EncryptedAvgReply,
    EncryptedAvgRequest,
    GossipAvgReply,
    GossipAvgRequest,
    KeyAnnouncement,
    MembershipAnnouncement,
    PushSumMessage,
    WireMessage,
    deserialize,
)
from .peers import sample_peer

__all__ = [
    "sample_peer",
    "EncryptedEstimate",
    "fresh_estimate",
    "average_estimates",
    "add_estimates",
    "rerandomize_estimate",
    "decode_estimate",
    "estimate_payload_bytes",
    "required_headroom_bits",
    "check_headroom",
    "MESSAGE_TYPES",
    "WireMessage",
    "deserialize",
    "EncryptedAvgRequest",
    "EncryptedAvgReply",
    "DiptychExchange",
    "DiptychReply",
    "DecryptRequest",
    "DecryptResponse",
    "GossipAvgRequest",
    "GossipAvgReply",
    "PushSumMessage",
    "MembershipAnnouncement",
    "KeyAnnouncement",
]
