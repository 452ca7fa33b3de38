"""Packed sign-op kernels: bit-identity with the unpacked reference.

``transient_vector`` is the unpacked view of ``transient_vector_packed``'s
raw-word draw, so under a shared seed the packed pipeline must produce
*exactly* the bits of the unpacked one — not just the same distribution.
"""

import numpy as np
import pytest

from repro.comm.bits import PackedBits
from repro.core.sign_ops import (
    expected_merge_probability,
    merge_sign_bits,
    merge_sign_bits_packed,
    transient_vector,
    transient_vector_packed,
)

SIZES = [0, 1, 63, 64, 65, 100, 1000, 4097]


def random_bits(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random(size) < 0.5).astype(np.uint8)


class TestPackedTransientBitIdentity:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("weights", [(1, 1), (3, 1), (7, 2)])
    def test_same_seed_same_bits(self, size, weights):
        received_weight, local_weight = weights
        local_bits = random_bits(size, size + 5)
        reference = transient_vector(
            local_bits, received_weight, local_weight,
            rng=np.random.default_rng(17),
        )
        packed = transient_vector_packed(
            PackedBits.from_bits(local_bits), received_weight, local_weight,
            rng=np.random.default_rng(17),
        )
        assert np.array_equal(packed.to_bits(), reference)

    def test_rejects_bad_weights(self):
        packed = PackedBits.from_bits(random_bits(10, 0))
        with pytest.raises(ValueError):
            transient_vector_packed(packed, 0, 1, np.random.default_rng(0))


class TestPackedMergeBitIdentity:
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_unpacked(self, size):
        received = random_bits(size, size + 20)
        local = random_bits(size, size + 21)
        transient = random_bits(size, size + 22)
        reference = merge_sign_bits(received, local, transient)
        packed = merge_sign_bits_packed(
            PackedBits.from_bits(received),
            PackedBits.from_bits(local),
            PackedBits.from_bits(transient),
        )
        assert np.array_equal(packed.to_bits(), reference)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            merge_sign_bits_packed(
                PackedBits.from_bits(random_bits(64, 1)),
                PackedBits.from_bits(random_bits(65, 2)),
                PackedBits.from_bits(random_bits(64, 3)),
            )

    @pytest.mark.parametrize("size", SIZES)
    def test_full_hop_pipeline_identity(self, size):
        """Draw + merge, packed vs unpacked, one shared seed end-to-end."""
        received = random_bits(size, size + 30)
        local = random_bits(size, size + 31)
        ref_transient = transient_vector(local, 3, 1, np.random.default_rng(7))
        ref_merged = merge_sign_bits(received, local, ref_transient)
        packed_transient = transient_vector_packed(
            PackedBits.from_bits(local), 3, 1, np.random.default_rng(7)
        )
        packed_merged = merge_sign_bits_packed(
            PackedBits.from_bits(received),
            PackedBits.from_bits(local),
            packed_transient,
        )
        assert np.array_equal(packed_merged.to_bits(), ref_merged)


class TestPackedMergeUnbiasedness:
    @pytest.mark.parametrize("weights", [(1, 1), (3, 1), (5, 3)])
    def test_merge_probability_invariant(self, weights):
        """E[merged] = (a p + b q) / (a + b) holds on the packed path."""
        received_weight, local_weight = weights
        size = 200_000
        received_prob, local_prob = 0.7, 0.4
        rng = np.random.default_rng(123)
        received = PackedBits.from_bits(rng.random(size) < received_prob)
        local_bits = (rng.random(size) < local_prob).astype(np.uint8)
        transient = transient_vector_packed(
            PackedBits.from_bits(local_bits), received_weight, local_weight, rng
        )
        merged = merge_sign_bits_packed(
            received, PackedBits.from_bits(local_bits), transient
        )
        expected = expected_merge_probability(
            received_prob, local_prob, received_weight, local_weight
        )
        observed = merged.popcount() / size
        assert observed == pytest.approx(float(expected), abs=0.01)
