"""Tests for the SSDM stochastic sign compressor."""

import numpy as np
import pytest

from repro.compression.ssdm import (
    BlockScaledSignPayload,
    SSDMCompressor,
    stochastic_sign,
)


class TestStochasticSign:
    def test_signs_are_pm_one(self, rng):
        signs, _ = stochastic_sign(rng.standard_normal(100), rng)
        assert np.isin(signs, (-1.0, 1.0)).all()

    def test_norm_returned(self, rng):
        vector = rng.standard_normal(10)
        _, norm = stochastic_sign(vector, rng)
        assert norm == pytest.approx(np.linalg.norm(vector))

    def test_zero_vector_fair_coin(self):
        rng = np.random.default_rng(0)
        signs, norm = stochastic_sign(np.zeros(2000), rng)
        assert norm == 0.0
        assert abs(signs.mean()) < 0.1

    def test_unbiased_estimator(self):
        # E[norm * sign~(v)] == v (Appendix A).
        rng = np.random.default_rng(1)
        vector = rng.standard_normal(16)
        norm = np.linalg.norm(vector)
        total = np.zeros(16)
        trials = 30_000
        draw_rng = np.random.default_rng(2)
        for _ in range(trials):
            signs, _ = stochastic_sign(vector, draw_rng)
            total += norm * signs
        estimate = total / trials
        # std of the mean ~ norm / sqrt(trials)
        assert np.abs(estimate - vector).max() < 5 * norm / np.sqrt(trials) + 0.05

    def test_extreme_element_always_kept(self):
        # An element equal to the norm has flip probability 1.
        rng = np.random.default_rng(3)
        vector = np.array([5.0, 0.0, 0.0])
        for _ in range(50):
            signs, _ = stochastic_sign(vector, rng)
            assert signs[0] == 1.0


def _frozen_block_signs(vector, rng, block, zero_blocks_half):
    """The two blockwise draws ``stochastic_sign`` replaced, frozen.

    The compressor pinned a zero block's probabilities to 1/2; SSDM's
    strategy divided by a norm of 1 instead.  Both must match.
    """
    num_blocks = (vector.size + block - 1) // block
    padded = np.zeros(num_blocks * block)
    padded[: vector.size] = vector
    blocks = padded.reshape(num_blocks, block)
    norms = np.linalg.norm(blocks, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    probs = 0.5 + blocks / (2.0 * safe[:, None])
    if zero_blocks_half:
        probs[norms == 0.0] = 0.5
    draws = rng.random(blocks.shape)
    return np.where(draws < probs, 1.0, -1.0).reshape(-1)[: vector.size], norms


class TestBlockSizes:
    DIMENSION = 103

    def _vector(self):
        vector = np.random.default_rng(9).standard_normal(self.DIMENSION)
        vector[:14] = 0.0  # two whole zero blocks at block size 7
        vector[3:14:2] = -0.0
        vector[60:70] = -0.0
        return vector

    @pytest.mark.parametrize("block", [1, 7, 50, 102, 103, 104, None])
    @pytest.mark.parametrize("zero_blocks_half", [True, False])
    def test_matches_both_frozen_draws(self, block, zero_blocks_half):
        vector = self._vector()
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        signs, norms = stochastic_sign(vector, ours, block)
        if block is None or block >= vector.size:
            expected, expected_norm = stochastic_sign(vector, reference)
            assert isinstance(norms, float) and norms == expected_norm
        else:
            expected, expected_norms = _frozen_block_signs(
                vector, reference, block, zero_blocks_half
            )
            assert np.array_equal(norms, expected_norms)
        assert np.array_equal(signs, expected)
        assert ours.random() == reference.random()

    @pytest.mark.parametrize("block", [1, 7, 50, 102, 103, 104, None])
    def test_compressor_decodes_the_same_draw(self, block):
        vector = self._vector()
        signs, norms = stochastic_sign(vector, np.random.default_rng(6), block)
        payload = SSDMCompressor(block).compress(
            vector, rng=np.random.default_rng(6)
        )
        scales = np.repeat(np.atleast_1d(norms), block or vector.size)
        assert np.array_equal(payload.decode(), scales[: vector.size] * signs)


class TestSSDMCompressor:
    def test_requires_rng(self, rng):
        with pytest.raises(ValueError):
            SSDMCompressor().compress(rng.standard_normal(4))

    def test_payload_size_global(self, rng):
        payload = SSDMCompressor().compress(rng.standard_normal(80), rng=rng)
        assert payload.nbytes == 10 + 4  # bits + one fp32 norm

    def test_block_payload_size(self, rng):
        payload = SSDMCompressor(block_size=16).compress(
            rng.standard_normal(80), rng=rng
        )
        assert isinstance(payload, BlockScaledSignPayload)
        assert payload.nbytes == 10 + 4 * 5  # bits + 5 block norms

    def test_block_decode_shape(self, rng):
        vector = rng.standard_normal(50)  # not a multiple of 16
        payload = SSDMCompressor(block_size=16).compress(vector, rng=rng)
        assert payload.decode().shape == (50,)

    def test_block_unbiased(self):
        rng = np.random.default_rng(4)
        vector = rng.standard_normal(32)
        compressor = SSDMCompressor(block_size=8)
        total = np.zeros(32)
        trials = 20_000
        for _ in range(trials):
            total += compressor.compress(vector, rng=rng).decode()
        estimate = total / trials
        assert np.abs(estimate - vector).max() < 0.2

    def test_block_of_zeros_decodes_to_zero(self, rng):
        vector = np.concatenate([np.zeros(8), np.ones(8)])
        payload = SSDMCompressor(block_size=8).compress(vector, rng=rng)
        assert np.allclose(payload.decode()[:8], 0.0)

    def test_small_vector_falls_back_to_global(self, rng):
        payload = SSDMCompressor(block_size=64).compress(
            rng.standard_normal(10), rng=rng
        )
        # Single-block fallback is the plain scaled payload.
        from repro.compression.base import ScaledSignPayload

        assert isinstance(payload, ScaledSignPayload)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            SSDMCompressor(block_size=0)
