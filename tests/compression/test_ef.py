"""Tests for EF-signSGD error feedback."""

import numpy as np
import pytest

from repro.compression.ef import EFSignCompressor


class TestEFSign:
    def test_memory_identity(self, rng):
        # Invariant: corrected = decoded + new_memory, exactly.
        compressor = EFSignCompressor()
        grad = rng.standard_normal(30)
        payload = compressor.compress(grad)
        assert np.allclose(payload.decode() + compressor.memory, grad, atol=1e-12)

    def test_memory_accumulates_across_rounds(self, rng):
        compressor = EFSignCompressor()
        g1, g2 = rng.standard_normal(20), rng.standard_normal(20)
        d1 = compressor.compress(g1).decode()
        mem1 = compressor.memory
        d2 = compressor.compress(g2).decode()
        assert np.allclose(mem1 + g2, d2 + compressor.memory, atol=1e-12)
        assert d1.shape == d2.shape

    def test_scale_is_l1_mean_of_corrected(self, rng):
        compressor = EFSignCompressor()
        grad = rng.standard_normal(25)
        payload = compressor.compress(grad)
        assert payload.scale == pytest.approx(np.abs(grad).mean())

    def test_total_transmitted_tracks_total_gradient(self, rng):
        # Error feedback's defining property: sum of decoded messages
        # approaches sum of gradients (memory stays bounded).
        compressor = EFSignCompressor()
        total_grad = np.zeros(40)
        total_sent = np.zeros(40)
        for _ in range(200):
            grad = rng.standard_normal(40)
            total_grad += grad
            total_sent += compressor.compress(grad).decode()
        residual = total_grad - total_sent
        assert np.allclose(residual, compressor.memory, atol=1e-9)
        assert np.abs(residual).max() < 10  # bounded, not growing ~200

    def test_dimension_change_rejected(self, rng):
        compressor = EFSignCompressor()
        compressor.compress(rng.standard_normal(5))
        with pytest.raises(ValueError):
            compressor.compress(rng.standard_normal(6))

    def test_memory_property_is_copy(self, rng):
        compressor = EFSignCompressor()
        compressor.compress(rng.standard_normal(5))
        view = compressor.memory
        view[0] = 1e9
        assert compressor.memory[0] != 1e9
