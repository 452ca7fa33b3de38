"""Property tests for :class:`PackedBits`, the one-bit wire container.

Bits, signs, the byte layout and the wire size must survive packing
exactly, and the word ops must match elementwise numpy.  Sizes deliberately
straddle the 64-bit word boundary (0, 1, 63, 64, 65, and non-multiples of
64).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.bits import PackedBits

BOUNDARY_SIZES = [0, 1, 7, 8, 9, 63, 64, 65, 100, 127, 128, 129, 1000]


def random_bits(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random(size) < 0.5).astype(np.uint8)


class TestPackedBitsRoundtrip:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_bits_roundtrip(self, size):
        bits = random_bits(size, size)
        assert np.array_equal(PackedBits.from_bits(bits).to_bits(), bits)

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_signs_roundtrip(self, size):
        rng = np.random.default_rng(size + 1)
        signs = np.where(rng.random(size) < 0.5, 1.0, -1.0)
        assert np.array_equal(PackedBits.from_signs(signs).to_signs(), signs)

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_bitvector_interop(self, size):
        """The byte view is the former byte-level ``BitVector`` layout:
        ``np.packbits(bits, bitorder="little")``, then zero padding."""
        bits = random_bits(size, size + 2)
        packed = PackedBits.from_bits(bits)
        expected = np.packbits(bits, bitorder="little")
        assert np.array_equal(packed.words.view(np.uint8)[: expected.size], expected)
        assert not packed.words.view(np.uint8)[expected.size :].any()

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_wire_bytes_match_bitvector(self, size):
        """Wire bytes are the byte-packed length, ``ceil(n / 8)``."""
        bits = random_bits(size, size + 3)
        assert PackedBits.from_bits(bits).nbytes == -(-size // 8)

    def test_zero_maps_to_plus_one(self):
        packed = PackedBits.from_signs(np.array([0.0, -0.5, 2.0, -0.0]))
        assert np.array_equal(packed.to_signs(), [1.0, -1.0, 1.0, 1.0])

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            PackedBits.from_bits(np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            PackedBits.from_bits(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            PackedBits(words=np.zeros(2, dtype=np.uint64), length=3)
        with pytest.raises(ValueError):
            PackedBits(words=np.array([8], dtype=np.uint64), length=3)

    def test_tail_bits_are_zero(self):
        packed = PackedBits.from_bits(np.ones(65, dtype=np.uint8))
        assert packed.words[-1] == 1  # only bit 64 set in the second word
        assert packed.popcount() == 65


class TestPackedBitsOps:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_word_ops_match_elementwise(self, size):
        a_bits = random_bits(size, size + 10)
        b_bits = random_bits(size, size + 11)
        a, b = PackedBits.from_bits(a_bits), PackedBits.from_bits(b_bits)
        assert np.array_equal((a & b).to_bits(), a_bits & b_bits)
        assert np.array_equal((a | b).to_bits(), a_bits | b_bits)
        assert np.array_equal((a ^ b).to_bits(), a_bits ^ b_bits)
        assert np.array_equal(a.invert().to_bits(), 1 - a_bits)
        assert a.popcount() == int(a_bits.sum())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PackedBits.from_bits(np.ones(3, dtype=np.uint8)) & PackedBits.from_bits(
                np.ones(4, dtype=np.uint8)
            )

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4])
    def test_split_concat_roundtrip(self, size, num_parts):
        bits = random_bits(size, size * 7 + num_parts)
        packed = PackedBits.from_bits(bits)
        parts = packed.split(num_parts)
        assert sum(len(p) for p in parts) == size
        assert np.array_equal(PackedBits.concat(parts).to_bits(), bits)

    @given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_slice_matches_numpy(self, start, stop, seed):
        bits = random_bits(200, seed % 1000)
        packed = PackedBits.from_bits(bits)
        lo, hi = min(start, stop), max(start, stop)
        assert np.array_equal(packed.slice(lo, hi).to_bits(), bits[lo:hi])
