"""Unit and property tests for the wire-size rules of sign sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.bits import elias_gamma_bits, signed_int_bit_width


class TestSignedIntBitWidth:
    def test_one_is_one_bit(self):
        assert signed_int_bit_width(1) == 1

    @pytest.mark.parametrize(
        "value,expected",
        [(2, 3), (3, 3), (4, 4), (7, 4), (8, 5), (15, 5), (16, 6)],
    )
    def test_growth(self, value, expected):
        assert signed_int_bit_width(value) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            signed_int_bit_width(0)

    def test_width_covers_range(self):
        # A width-w signed encoding must represent 2*v + 1 values.
        for v in range(2, 100):
            width = signed_int_bit_width(v)
            assert 2**width >= 2 * v + 1


class TestEliasGammaBits:
    EDGES = [
        1, 2, 3,
        2**31 - 1, 2**31,
        2**53 - 1, 2**53, 2**53 + 1,
        2**62, 2**63 - 1,
    ]

    @staticmethod
    def expected(values):
        return sum(2 * int(v).bit_length() - 1 for v in values)

    def test_matches_bit_length_at_float_and_word_edges(self):
        for value in self.EDGES:
            assert elias_gamma_bits([value]) == self.expected([value]), value
        values = np.array(self.EDGES, dtype=np.int64)
        assert elias_gamma_bits(values) == self.expected(self.EDGES)

    def test_one_is_one_bit(self):
        assert elias_gamma_bits([1, 1, 1]) == 3

    def test_empty_is_zero_bits(self):
        assert elias_gamma_bits([]) == 0
        assert elias_gamma_bits(np.zeros(0, dtype=np.int64)) == 0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            elias_gamma_bits(np.array([3, bad, 1]))

    @given(st.lists(st.integers(1, 2**63 - 1), min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_bit_length(self, values):
        assert elias_gamma_bits(np.array(values, dtype=np.int64)) == (
            self.expected(values)
        )
