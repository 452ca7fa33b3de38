"""Property tests for :class:`PackedBitsBatch`, the lane-stacked container.

Every batched operation must agree lane-by-lane with the per-lane
:class:`PackedBits` reference it replaces, and the per-row zero-padding
invariant must survive construction, ragged lengths, widening, and every
word-level operator.  Sizes straddle the 64-bit word boundary on purpose.
"""

import numpy as np
import pytest

from repro.comm.bits import PackedBits, PackedBitsBatch

BOUNDARY_SIZES = [0, 1, 7, 63, 64, 65, 127, 128, 129, 1000]


def random_bit_matrix(lanes: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((lanes, n)) < 0.5).astype(np.uint8)


def assert_padding_zero(batch: PackedBitsBatch) -> None:
    """Re-validate through __post_init__, which rejects dirty padding."""
    PackedBitsBatch(words=batch.words.copy(), lengths=batch.lengths.copy())


class TestConstruction:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_rows_match_scalar_packing(self, n):
        bits = random_bit_matrix(5, n, n)
        batch = PackedBitsBatch.from_bit_matrix(bits)
        assert batch.num_lanes == 5
        for lane in range(5):
            assert batch.row(lane).equals(PackedBits.from_bits(bits[lane]))
        assert_padding_zero(batch)

    def test_ragged_lengths_zero_trailing_columns(self):
        bits = np.ones((3, 70), dtype=np.uint8)
        lengths = np.array([70, 3, 0])
        batch = PackedBitsBatch.from_bit_matrix(bits, lengths=lengths)
        assert np.array_equal(batch.lengths, lengths)
        assert np.array_equal(batch.popcounts(), lengths)
        assert_padding_zero(batch)

    def test_width_pads_but_preserves_rows(self):
        bits = random_bit_matrix(4, 65, 9)
        wide = PackedBitsBatch.from_bit_matrix(bits, width=5)
        assert wide.width == 5
        for lane in range(4):
            assert wide.row(lane).equals(PackedBits.from_bits(bits[lane]))
        assert_padding_zero(wide)

    def test_sign_matrix_maps_nonnegative_to_one(self):
        signs = np.array([[1.0, -1.0, 0.0], [-2.5, 3.0, -0.1]])
        batch = PackedBitsBatch.from_sign_matrix(signs)
        assert np.array_equal(batch.row(0).to_bits(), [1, 0, 1])
        assert np.array_equal(batch.row(1).to_bits(), [0, 1, 0])

    def test_row_view_is_zero_copy(self):
        batch = PackedBitsBatch.from_bit_matrix(random_bit_matrix(2, 100, 0))
        assert batch.row(1).words.base is not None
        assert np.shares_memory(batch.row(1).words, batch.words)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="2-D"):
            PackedBitsBatch.from_bit_matrix(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="0/1"):
            PackedBitsBatch.from_bit_matrix(np.full((2, 3), 2, dtype=np.int64))
        with pytest.raises(ValueError, match="one entry per lane"):
            PackedBitsBatch.from_bit_matrix(
                np.zeros((2, 3), dtype=np.uint8), lengths=np.array([3])
            )
        with pytest.raises(ValueError, match=r"\[0, columns\]"):
            PackedBitsBatch.from_bit_matrix(
                np.zeros((1, 3), dtype=np.uint8), lengths=np.array([4])
            )
        with pytest.raises(ValueError, match="cannot hold"):
            PackedBitsBatch.from_bit_matrix(
                np.zeros((1, 65), dtype=np.uint8), width=1
            )
        with pytest.raises(ValueError, match="padding"):
            PackedBitsBatch(
                words=np.full((1, 1), 2, dtype="<u8"), lengths=np.array([1])
            )


class TestOperators:
    @pytest.mark.parametrize("n", [1, 64, 129])
    def test_bitwise_ops_match_per_lane(self, n):
        a_bits = random_bit_matrix(6, n, n)
        b_bits = random_bit_matrix(6, n, n + 1)
        a = PackedBitsBatch.from_bit_matrix(a_bits)
        b = PackedBitsBatch.from_bit_matrix(b_bits)
        for batched, scalar_op in [
            (a & b, lambda x, y: x & y),
            (a | b, lambda x, y: x | y),
            (a ^ b, lambda x, y: x ^ y),
        ]:
            for lane in range(6):
                expected = scalar_op(a.row(lane), b.row(lane))
                assert batched.row(lane).equals(expected)
            assert_padding_zero(batched)

    def test_invert_matches_per_lane_and_keeps_padding(self):
        bits = np.ones((3, 70), dtype=np.uint8)
        lengths = np.array([70, 65, 1])
        batch = PackedBitsBatch.from_bit_matrix(bits, lengths=lengths)
        inverted = batch.invert()
        for lane in range(3):
            assert inverted.row(lane).equals(batch.row(lane).invert())
        assert_padding_zero(inverted)

    def test_popcounts_match_per_lane(self):
        bits = random_bit_matrix(7, 200, 3)
        batch = PackedBitsBatch.from_bit_matrix(bits)
        assert np.array_equal(batch.popcounts(), bits.sum(axis=1))

    def test_incompatible_operands_raise(self):
        a = PackedBitsBatch.from_bit_matrix(random_bit_matrix(2, 10, 0))
        b = PackedBitsBatch.from_bit_matrix(random_bit_matrix(3, 10, 1))
        with pytest.raises(ValueError, match="mismatch"):
            a & b
        with pytest.raises(TypeError, match="PackedBitsBatch"):
            a | object()


class TestConsensus:
    def test_equals_is_exact(self):
        bits = random_bit_matrix(3, 65, 6)
        a = PackedBitsBatch.from_bit_matrix(bits)
        assert a.equals(PackedBitsBatch.from_bit_matrix(bits.copy()))
        flipped = bits.copy()
        flipped[1, 64] ^= 1
        assert not a.equals(PackedBitsBatch.from_bit_matrix(flipped))
        assert not a.equals(object())
