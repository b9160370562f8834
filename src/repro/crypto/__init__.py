"""Cryptographic substrate: Damgård–Jurik (Paillier is its degree 1), threshold
decryption, fixed-point encoding and the pluggable cipher backends used by the
protocol."""

from . import damgard_jurik
from .backends import (
    CipherBackend,
    DamgardJurikBackend,
    EncryptedVector,
    OperationCounter,
    PartialVectorDecryption,
    PlainBackend,
    make_backend,
    normalize_packing,
)
from .damgard_jurik import (
    DamgardJurikPrivateKey,
    DamgardJurikPublicKey,
    dlog_one_plus_n,
    generate_keypair,
)
from .encoding import DEFAULT_WEIGHT_BITS, FixedPointCodec, PackedCodec
from .fastmath import (
    BlinderPool,
    PrecomputedKey,
    multi_pow,
    plan_pool_batch,
)
from .math_utils import (
    crt_pair,
    generate_prime,
    is_probable_prime,
    lcm,
    mod_inverse,
    random_coprime,
)
from .threshold import (
    KeyShare,
    PartialDecryption,
    ThresholdPublicKey,
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
    threshold_decrypt,
)
from .wire import (
    WIRE_VERSION,
    WireReader,
    read_encrypted_vector,
    read_partial_decryption,
    wire_ciphertext_bytes,
    write_encrypted_vector,
    write_partial_decryption,
)

__all__ = [
    "damgard_jurik",
    "CipherBackend",
    "DamgardJurikBackend",
    "PlainBackend",
    "EncryptedVector",
    "PartialVectorDecryption",
    "OperationCounter",
    "make_backend",
    "normalize_packing",
    "BlinderPool",
    "PrecomputedKey",
    "multi_pow",
    "plan_pool_batch",
    "DamgardJurikPublicKey",
    "DamgardJurikPrivateKey",
    "generate_keypair",
    "dlog_one_plus_n",
    "FixedPointCodec",
    "PackedCodec",
    "DEFAULT_WEIGHT_BITS",
    "ThresholdPublicKey",
    "KeyShare",
    "PartialDecryption",
    "generate_threshold_keypair",
    "partial_decrypt",
    "combine_partial_decryptions",
    "threshold_decrypt",
    "is_probable_prime",
    "generate_prime",
    "lcm",
    "mod_inverse",
    "crt_pair",
    "random_coprime",
    "WIRE_VERSION",
    "WireReader",
    "wire_ciphertext_bytes",
    "read_encrypted_vector",
    "read_partial_decryption",
    "write_encrypted_vector",
    "write_partial_decryption",
]
