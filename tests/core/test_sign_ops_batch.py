"""Batched sign-op kernels must match the packed per-lane reference exactly.

``transient_vector_batch`` reads each lane's raw words from that lane's own
generator as a function of the lane's length and weights only — never of
the batch's shared width — so under cloned generators the batched and
per-lane results must be bit-for-bit equal and leave every stream at the
same position, including ragged lane lengths and per-lane weight vectors.
"""

import copy

import numpy as np
import pytest

from repro.comm.bits import PackedBits, PackedBitsBatch
from repro.core.sign_ops import (
    merge_sign_bits_batch,
    merge_sign_bits_packed,
    transient_vector_batch,
    transient_vector_packed,
)


def make_batch(lanes: int, lengths: list[int], seed: int) -> PackedBitsBatch:
    rng = np.random.default_rng(seed)
    n = max(lengths) if lengths else 0
    bits = (rng.random((lanes, n)) < 0.5).astype(np.uint8)
    return PackedBitsBatch.from_bit_matrix(
        bits, lengths=np.array(lengths, dtype=np.int64)
    )


class TestTransientVectorBatch:
    @pytest.mark.parametrize("lengths", [[64, 64, 64], [1, 63, 200], [0, 5]])
    def test_matches_per_lane_packed_reference(self, lengths):
        lanes = len(lengths)
        local = make_batch(lanes, lengths, 0)
        rngs = [np.random.default_rng(100 + lane) for lane in range(lanes)]
        clones = [copy.deepcopy(rng) for rng in rngs]
        batched = transient_vector_batch(local, 3, 2, rngs)
        for lane in range(lanes):
            expected = transient_vector_packed(local.row(lane), 3, 2, clones[lane])
            assert batched.row(lane).equals(expected)
        # Both paths must have consumed the same amount of stream.
        for rng, clone in zip(rngs, clones):
            assert rng.random() == clone.random()

    def test_vector_weights_apply_per_lane(self):
        local = make_batch(3, [100, 100, 100], 1)
        received = np.array([1, 2, 5])
        weights = np.array([4, 3, 1])
        rngs = [np.random.default_rng(7 + lane) for lane in range(3)]
        clones = [copy.deepcopy(rng) for rng in rngs]
        batched = transient_vector_batch(local, received, weights, rngs)
        for lane in range(3):
            expected = transient_vector_packed(
                local.row(lane),
                int(received[lane]),
                int(weights[lane]),
                clones[lane],
            )
            assert batched.row(lane).equals(expected)
        for rng, clone in zip(rngs, clones):
            assert rng.random() == clone.random()

    def test_unequal_lengths_keep_each_stream_in_step(self):
        # Long lanes next to short ones, dyadic weights (no tie-break reads)
        # next to non-dyadic ones (tie-break reads in the 200k lane): each
        # lane must read what a one-lane call of its own length reads.
        lengths = [200_000, 1, 64, 0, 70_001]
        local = make_batch(len(lengths), lengths, 3)
        received = np.array([2, 3, 14, 1, 4])
        weights = np.array([1, 1, 1, 1, 9])
        rngs = [np.random.default_rng(40 + lane) for lane in range(len(lengths))]
        clones = [copy.deepcopy(rng) for rng in rngs]
        batched = transient_vector_batch(local, received, weights, rngs)
        for lane in range(len(lengths)):
            expected = transient_vector_packed(
                local.row(lane),
                int(received[lane]),
                int(weights[lane]),
                clones[lane],
            )
            assert batched.row(lane).equals(expected)
        for rng, clone in zip(rngs, clones):
            assert rng.random() == clone.random()

    def test_rejects_a_generator_shared_by_two_lanes(self):
        local = make_batch(2, [10, 10], 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="share a generator"):
            transient_vector_batch(local, 1, 1, [rng, rng])

    def test_rejects_invalid_weights_and_rng_count(self):
        local = make_batch(2, [10, 10], 2)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match=">= 1"):
            transient_vector_batch(local, 0, 1, rngs)
        with pytest.raises(ValueError, match=">= 1"):
            transient_vector_batch(local, 1, np.array([1, 0]), rngs)
        with pytest.raises(ValueError, match="one generator per lane"):
            transient_vector_batch(local, 1, 1, rngs[:1])


class TestMergeSignBitsBatch:
    @pytest.mark.parametrize("lengths", [[64, 64], [3, 65, 129], [0, 1]])
    def test_matches_per_lane_packed_reference(self, lengths):
        lanes = len(lengths)
        received = make_batch(lanes, lengths, 10)
        local = make_batch(lanes, lengths, 11)
        transient = make_batch(lanes, lengths, 12)
        merged = merge_sign_bits_batch(received, local, transient)
        for lane in range(lanes):
            expected = merge_sign_bits_packed(
                received.row(lane), local.row(lane), transient.row(lane)
            )
            assert merged.row(lane).equals(expected)

    def test_transient_resolves_disagreements_only(self):
        ones = PackedBitsBatch.from_bit_matrix(np.ones((1, 64), dtype=np.uint8))
        zeros = PackedBitsBatch.from_bit_matrix(np.zeros((1, 64), dtype=np.uint8))
        # Agreeing lanes ignore the transient entirely.
        assert merge_sign_bits_batch(ones, ones, zeros).equals(ones)
        assert merge_sign_bits_batch(zeros, zeros, ones).equals(zeros)
        # Disagreeing lanes take exactly the transient bit.
        assert merge_sign_bits_batch(ones, zeros, ones).equals(ones)
        assert merge_sign_bits_batch(ones, zeros, zeros).equals(zeros)

    def test_shape_mismatch_raises(self):
        a = make_batch(2, [10, 10], 0)
        b = make_batch(2, [10, 9], 0)
        with pytest.raises(ValueError, match="mismatch"):
            merge_sign_bits_batch(a, b, a)
