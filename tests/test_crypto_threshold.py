"""Tests of the threshold (collaborative) Damgård–Jurik decryption."""

from __future__ import annotations

import pytest

from repro.crypto import damgard_jurik as dj
from repro.crypto.threshold import (
    KeyShare,
    PartialDecryption,
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
)
from repro.exceptions import KeyGenerationError, ThresholdError
import oracles


@pytest.fixture(scope="module")
def threshold_setup():
    public, shares, dealer = generate_threshold_keypair(
        key_bits=160, s=1, threshold=3, n_shares=6
    )
    return public, shares, dealer


class TestKeyGeneration:
    def test_share_count_and_indices(self, threshold_setup):
        _public, shares, _dealer = threshold_setup
        assert len(shares) == 6
        assert [share.index for share in shares] == [1, 2, 3, 4, 5, 6]

    def test_rejects_threshold_above_shares(self):
        with pytest.raises(KeyGenerationError):
            generate_threshold_keypair(key_bits=128, threshold=5, n_shares=3)

    def test_share_index_must_be_positive(self):
        with pytest.raises(KeyGenerationError):
            KeyShare(index=0, value=1)

    def test_dealer_key_still_decrypts(self, threshold_setup):
        public, _shares, dealer = threshold_setup
        ciphertext = dj.encrypt(public.public_key, 321)
        assert dj.decrypt(dealer, ciphertext) == 321


class TestThresholdDecryption:
    def test_exact_threshold_subset(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        plaintext = 123456
        ciphertext = dj.encrypt(public.public_key, plaintext)
        assert oracles.threshold_decrypt(public, shares[:3], ciphertext) == plaintext

    def test_any_subset_works(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        plaintext = 999
        ciphertext = dj.encrypt(public.public_key, plaintext)
        for subset in (shares[1:4], shares[3:6], [shares[0], shares[2], shares[5]]):
            assert oracles.threshold_decrypt(public, subset, ciphertext) == plaintext

    def test_more_than_threshold_works(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        ciphertext = dj.encrypt(public.public_key, 5555)
        assert oracles.threshold_decrypt(public, shares, ciphertext) == 5555

    def test_fewer_than_threshold_fails(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        ciphertext = dj.encrypt(public.public_key, 1)
        partials = [partial_decrypt(public, share, ciphertext) for share in shares[:2]]
        with pytest.raises(ThresholdError):
            combine_partial_decryptions(public, partials)

    def test_duplicate_shares_do_not_count_twice(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        ciphertext = dj.encrypt(public.public_key, 1)
        partial = partial_decrypt(public, shares[0], ciphertext)
        with pytest.raises(ThresholdError):
            combine_partial_decryptions(public, [partial, partial, partial])

    def test_conflicting_partials_rejected(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        ciphertext = dj.encrypt(public.public_key, 1)
        good = partial_decrypt(public, shares[0], ciphertext)
        bad = PartialDecryption(index=good.index, value=(good.value + 1))
        others = [partial_decrypt(public, share, ciphertext) for share in shares[1:3]]
        with pytest.raises(ThresholdError):
            combine_partial_decryptions(public, [good, bad, *others])

    def test_mapping_input_accepted(self, threshold_setup):
        public, shares, _dealer = threshold_setup
        plaintext = 777
        ciphertext = dj.encrypt(public.public_key, plaintext)
        partials = {
            share.index: partial_decrypt(public, share, ciphertext).value
            for share in shares[:3]
        }
        assert combine_partial_decryptions(public, partials) == plaintext

    def test_homomorphic_sum_then_threshold_decrypt(self, threshold_setup):
        """The protocol's actual usage: gossip-summed ciphertext, then committee decryption."""
        public, shares, _dealer = threshold_setup
        values = [11, 22, 33, 44]
        ciphertexts = [dj.encrypt(public.public_key, value) for value in values]
        total = dj.add_ciphertexts(public.public_key, *ciphertexts)
        assert oracles.threshold_decrypt(public, shares[:3], total) == sum(values)

    def test_degree_two_threshold(self):
        public, shares, _dealer = generate_threshold_keypair(
            key_bits=128, s=2, threshold=2, n_shares=4
        )
        plaintext = public.public_key.n + 4242  # exceeds the degree-1 space
        ciphertext = dj.encrypt(public.public_key, plaintext)
        assert oracles.threshold_decrypt(public, shares[:2], ciphertext) == plaintext

    def test_empty_partials_rejected(self, threshold_setup):
        public, _shares, _dealer = threshold_setup
        with pytest.raises(ThresholdError):
            combine_partial_decryptions(public, [])
