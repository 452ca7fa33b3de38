"""The exact Bernoulli sampler behind every transient draw.

``r = ¬v* ⊕ B`` with ``B_j = [k_j < T]``, ``T = ceil(b 2^53 / (a + b))`` and
``k_j`` a uniform 53-bit integer read most significant bit first, one raw
``uint64`` word per 64 elements per bit level.  Three checks pin it down:

- an element-by-element integer reference rebuilt from the same raw words
  (so a slip in the word-parallel compare cannot hide behind the
  distribution tests);
- chi-square tests of ``P(r=1 | v*=1) = b/(a+b)`` and
  ``P(r=1 | v*=0) = a/(a+b)`` at every weight pair the one-bit compilers
  emit, plus the dyadic and non-dyadic pairs named below;
- the stream rule: dyadic pairs stop after ``T``'s lowest set bit and read
  no tie-break words; every other pair at this N does read some.

All draws are seeded, so the statistics are deterministic.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from repro.allreduce import get_topology
from repro.comm.bits import PackedBits
from repro.core.sign_ops import (
    _PLANE_DEPTH,
    transient_vector,
    transient_vector_packed,
)
from repro.sched.plan import CompileContext, MergeSign

# 2^18 elements: ~64 expected ties after the word-parallel levels.
N = 1 << 18
ALPHA = 1e-3

# (received_weight a, local_weight b); P(B=1) = b / (a + b).
DYADIC = [(1, 1), (3, 1), (15, 1)]  # 1/2, 1/4, 1/16
NON_DYADIC = [(2, 1), (3, 2), (14, 1)]  # 1/3, 2/5, 1/15

COMPILED_TOPOLOGIES = [
    ("ring", {}, 16),
    ("torus", {"rows": 4, "cols": 4}, 16),
    ("torus", {"rows": 2, "cols": 3}, 6),
    ("tree", {"arity": 2}, 7),
    ("tree", {"arity": 3}, 13),
    ("halving_doubling", {}, 8),
]


def _compiled_weight_pairs() -> set[tuple[int, int]]:
    pairs = set()
    for name, build_kwargs, num_workers in COMPILED_TOPOLOGIES:
        entry = get_topology(name)
        topology = entry.build(num_workers, **build_kwargs)
        plan = entry.compile_one_bit(
            CompileContext(
                num_workers=num_workers,
                dimension=1000,
                meta=dict(topology.meta),
                segment_elems=None,
            )
        )
        for step in plan.steps:
            if isinstance(step, MergeSign):
                for wave in step.waves:
                    pairs.update(
                        (merge.received_weight, merge.local_weight)
                        for merge in wave
                    )
    return pairs


WEIGHT_PAIRS = sorted(set(DYADIC + NON_DYADIC) | _compiled_weight_pairs())


def _is_dyadic(a: int, b: int) -> bool:
    denominator = Fraction(b, a + b).denominator
    return denominator & (denominator - 1) == 0


def _threshold(a: int, b: int) -> int:
    return -((-b << 53) // (a + b))


def _reference_bernoulli(length: int, a: int, b: int, rng) -> np.ndarray:
    """``B`` element by element: build each ``k_j`` as an integer."""
    threshold = _threshold(a, b)
    exact_depth = 54 - (threshold & -threshold).bit_length()
    depth = min(exact_depth, _PLANE_DEPTH)
    words = -(-length // 64)
    planes = rng.bit_generator.random_raw(depth * words).reshape(depth, words)
    bits = np.unpackbits(
        planes.view(np.uint8), axis=1, bitorder="little"
    )[:, :length].astype(np.int64)
    drawn = np.zeros(length, dtype=np.int64)
    for level in range(depth):
        drawn = (drawn << 1) | bits[level]
    # k's top bits are T's top bits xor the raw bits, so k is uniform.
    top = threshold >> (53 - depth)
    below = (top ^ drawn) < top
    tied = drawn == 0
    if exact_depth > depth:
        low_bits = 53 - depth
        low = rng.bit_generator.random_raw(int(tied.sum())) >> np.uint64(
            64 - low_bits
        )
        below[tied] = low < np.uint64(threshold & ((1 << low_bits) - 1))
    return below


def _chi_square_pvalue(ones: int, total: int, prob: float) -> float:
    observed = np.array([ones, total - ones], dtype=np.float64)
    expected = np.array([prob * total, (1.0 - prob) * total])
    return float(stats.chisquare(observed, expected).pvalue)


def test_named_pairs_cover_both_paths():
    assert all(_is_dyadic(a, b) for a, b in DYADIC)
    assert not any(_is_dyadic(a, b) for a, b in NON_DYADIC)
    # The compilers emit both kinds (ring hops, tree subtree sizes).
    compiled = _compiled_weight_pairs()
    assert any(_is_dyadic(a, b) for a, b in compiled)
    assert any(not _is_dyadic(a, b) for a, b in compiled)


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 4097, 100_000])
@pytest.mark.parametrize("weights", [(1, 1), (3, 1), (2, 1), (3, 4), (4, 9)])
def test_matches_the_integer_reference(length, weights):
    a, b = weights
    local = (np.random.default_rng(length).random(length) < 0.5).astype(np.uint8)
    rng = np.random.default_rng(99)
    clone = copy.deepcopy(rng)
    transient = transient_vector(local, a, b, rng)
    expected = (1 - local) ^ _reference_bernoulli(length, a, b, clone)
    assert np.array_equal(transient, expected)
    # Same raw words consumed, tie-break draws included.
    assert rng.random() == clone.random()


@pytest.mark.parametrize("weights", WEIGHT_PAIRS, ids=lambda w: f"{w[0]}+{w[1]}")
def test_transient_probabilities_are_exact(weights):
    a, b = weights
    data_rng = np.random.default_rng(a * 1000 + b)
    local = (data_rng.random(N) < 0.5).astype(np.uint8)
    rng = np.random.default_rng(a * 7919 + b)
    main_draws = copy.deepcopy(rng)
    transient = transient_vector(local, a, b, rng)

    ones = local == 1
    keep = Fraction(b, a + b)
    assert (
        _chi_square_pvalue(int(transient[ones].sum()), int(ones.sum()), float(keep))
        > ALPHA
    )
    assert (
        _chi_square_pvalue(
            int(transient[~ones].sum()), int((~ones).sum()), float(1 - keep)
        )
        > ALPHA
    )

    # Replay only the word-parallel levels; whatever the sampler read
    # beyond them is the per-element tie-break.
    threshold = _threshold(a, b)
    depth = min(54 - (threshold & -threshold).bit_length(), _PLANE_DEPTH)
    main_draws.bit_generator.random_raw(depth * (-(-N // 64)))
    tie_break_ran = rng.bit_generator.state != main_draws.bit_generator.state
    assert tie_break_ran == (not _is_dyadic(a, b))


def test_packed_draw_is_independent_of_the_local_values():
    # B depends only on the length: flipping v* flips r everywhere.
    local = (np.random.default_rng(3).random(5000) < 0.5).astype(np.uint8)
    r = transient_vector_packed(
        PackedBits.from_bits(local), 2, 1, np.random.default_rng(4)
    )
    r_flipped = transient_vector_packed(
        PackedBits.from_bits(1 - local), 2, 1, np.random.default_rng(4)
    )
    assert r.invert().equals(r_flipped)
