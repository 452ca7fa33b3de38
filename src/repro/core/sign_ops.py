"""The Marsit bit-wise merge operator (paper Eq. 2 and Section 4.1.1).

Sign vectors are bit vectors with the convention ``1 == +1``, ``0 == -1``.
When a worker that has already folded in ``a`` workers' signs (the received
vector ``v``) meets a local vector ``v*`` representing ``b`` workers, the
merged bit is

    ``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)``

with the transient vector ``r`` drawn *before* ``v`` arrives (it depends only
on ``v*``), which is what lets compression overlap reception:

    ``P(r_j = 1) = b / (a + b)``  where ``v*_j = 1``
    ``P(r_j = 1) = a / (a + b)``  where ``v*_j = 0``

Eq. (2) is the special case ``a = m - 1, b = 1``.  Induction over hops gives
the exact invariant tested in this package:

    ``P(merged_j = 1) = (a p_j + b q_j) / (a + b)``

where ``p_j``/``q_j`` are the +1 fractions represented by ``v``/``v*`` —
i.e. the final bit is an unbiased one-bit sample of the *mean sign* across
all contributing workers, with no decompression anywhere.

How ``r`` is drawn.  Write ``r = ¬v* ⊕ B`` with ``B ~ Bernoulli(b/(a+b))``
i.i.d.: where ``v*_j = 1`` that gives ``P(r_j = 1) = b/(a+b)``, where
``v*_j = 0`` it gives ``a/(a+b)`` — exactly the two cases above, and ``B``
is independent of both ``v`` and ``v*``.  ``B`` is drawn 64 elements per
``uint64`` word straight from the generator's raw output: element ``j``
compares a uniform 53-bit integer ``k_j`` with ``T = ceil(b 2^53 / (a+b))``
most significant bit first, one raw word per 64 elements per bit level,
so ``P(B_j = 1) = P(k_j < T) = T / 2^53`` — the resolution of a float64
uniform, with no extra bias.  The comparison stops after the lowest set
bit of ``T`` (``b/(a+b) = 1/2, 1/4, 1/16`` finish exactly in 1, 2, 4
levels); otherwise the ≈ ``2^-12`` of elements still tied after
``_PLANE_DEPTH`` levels settle their remaining bits with one more raw word
each from the same generator.

All three tiers are views of that one per-lane primitive
(:func:`_bernoulli_words`): the unpacked reference (:func:`transient_vector`,
:func:`merge_sign_bits`), the packed fast path
(:func:`transient_vector_packed`, :func:`merge_sign_bits_packed`) on
:class:`~repro.comm.bits.PackedBits` operands, and the lane-stacked batch
path (:func:`transient_vector_batch`, :func:`merge_sign_bits_batch`) that
runs a whole synchronous step — one lane per (cycle, position) pair — over a
:class:`~repro.comm.bits.PackedBitsBatch`.  A lane consumes raw words as a
function of its own length, its weights and its own draws only, never of the
batch it sits in, so all three tiers are bit-for-bit interchangeable under
per-rank generators with a shared seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.bits import PackedBits, PackedBitsBatch

__all__ = [
    "expected_merge_probability",
    "merge_sign_bits",
    "merge_sign_bits_batch",
    "merge_sign_bits_packed",
    "transient_vector",
    "transient_vector_batch",
    "transient_vector_packed",
]

_WORD_BITS = 64
# Bits of the uniform integer each element compares against its threshold:
# the resolution of a float64 uniform.
_UNIFORM_BITS = 53
# Bit levels compared word-parallel before the remaining ties (a 2^-depth
# fraction of the elements) are settled one raw word per element.
_PLANE_DEPTH = 12
# A tie settles k's low bits from the top of one raw word.
_LOW_BITS = _UNIFORM_BITS - _PLANE_DEPTH
_LOW_SHIFT = np.uint64(_WORD_BITS - _LOW_BITS)
_LOW_MASK = np.uint64((1 << _LOW_BITS) - 1)
_ALL_ONES = np.uint64(2**_WORD_BITS - 1)


def _validate_bits(bits: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(bits)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if (
        array.size
        and array.dtype != np.bool_
        and not bool(((array == 0) | (array == 1)).all())
    ):
        raise ValueError(f"{name} must contain only 0/1 values")
    return array.astype(np.uint8)


def _bernoulli_words(
    valid: np.ndarray,
    lengths: np.ndarray,
    received_weights: np.ndarray,
    local_weights: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Bit ``j`` of lane ``i`` is i.i.d. ``Bernoulli(T_i / 2^53)``.

    ``T_i = ceil(b_i 2^53 / (a_i + b_i))``.  ``valid`` is the ``(lanes,
    width)`` word matrix with exactly the first ``lengths[i]`` bits of row
    ``i`` set; the result has the same shape and is zero wherever ``valid``
    is.  Lane ``i`` reads ``depth_i * ceil(lengths[i] / 64)`` raw words from
    ``rngs[i]``, then one more per element still tied after
    ``_PLANE_DEPTH`` levels, in element order.  All main draws happen before
    any tie-break draw, so the generators must be distinct objects for the
    per-lane streams to equal one-lane calls.
    """
    lanes, width = valid.shape
    thresholds = [
        -((-int(b) << _UNIFORM_BITS) // (int(a) + int(b)))
        for a, b in zip(received_weights, local_weights)
    ]
    # Levels needed for an exact answer: down to T's lowest set bit.
    exact_depth = [
        _UNIFORM_BITS + 1 - (t & -t).bit_length() for t in thresholds
    ]
    depth = [min(levels, _PLANE_DEPTH) for levels in exact_depth]
    max_depth = max(depth, default=0)
    num_words = (lengths + _WORD_BITS - 1) // _WORD_BITS
    # Level l of lane i sits at planes[l, i, :num_words[i]].  Entries past a
    # lane's words or depth stay uninitialised: the padding is never tied
    # and levels past a lane's depth only matter for lanes without ties.
    planes = np.empty((max_depth, lanes, width), dtype=np.uint64)
    for lane in range(lanes):
        words, lane_depth = int(num_words[lane]), depth[lane]
        if words:
            planes[:lane_depth, lane, :words] = (
                rngs[lane].bit_generator.random_raw(lane_depth * words)
            ).reshape(lane_depth, words)
    # threshold_masks[l, i] is all ones where bit 52 - l of T_i is set and
    # level l is within lane i's depth, broadcast along the words.
    threshold_words = np.array(thresholds, dtype=np.uint64)
    levels = np.arange(max_depth)
    shifts = (_UNIFORM_BITS - 1 - levels).astype(np.uint64)
    level_bits = (threshold_words >> shifts[:, None]) & np.uint64(1)
    level_bits[levels[:, None] >= np.array(depth, dtype=np.int64)] = 0
    threshold_masks = (level_bits * _ALL_ONES)[:, :, None]

    # The drawn integer is k = T xor W, W the raw bits: uniform because W
    # is.  An element leaves the tie at the first level where W has a 1,
    # i.e. where k's bit differs from T's; there k < T iff T's bit is 1.
    tied = valid.copy()
    below = np.zeros((lanes, width), dtype=np.uint64)
    for level in range(max_depth):
        leaving = np.bitwise_and(tied, planes[level], out=planes[level])
        tied ^= leaving
        leaving &= threshold_masks[level]
        below |= leaving

    # Exact lanes are finished: a tie through T's lowest set bit means
    # k >= T.  The rest settle k's low bits against T's, element by element.
    settled = [lane for lane in range(lanes) if exact_depth[lane] <= depth[lane]]
    tied[settled] = 0
    lane_idx, word_idx = np.nonzero(tied)
    if lane_idx.size:
        bits = np.unpackbits(
            tied[lane_idx, word_idx].view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        )
        hit, bit = np.nonzero(bits)
        lane_of = lane_idx[hit]
        counts = np.bincount(lane_of, minlength=lanes)
        draws = np.concatenate(
            [
                rngs[lane].bit_generator.random_raw(int(counts[lane]))
                for lane in np.flatnonzero(counts)
            ]
        )
        low_thresholds = (threshold_words & _LOW_MASK)[lane_of]
        bits[hit, bit] = (draws >> _LOW_SHIFT) < low_thresholds
        # (lane_idx, word_idx) pairs are distinct, so a fancy |= is safe.
        below[lane_idx, word_idx] |= np.packbits(
            bits, axis=1, bitorder="little"
        ).view(np.uint64)[:, 0]
    return below


def transient_vector(
    local_bits: np.ndarray,
    received_weight: int,
    local_weight: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the transient vector ``r`` of Eq. (2), generalized to weights.

    Args:
        local_bits: the local sign bits ``v*`` (0/1).
        received_weight: ``a`` — workers already folded into the incoming
            vector.  Eq. (2) uses ``a = m - 1``.
        local_weight: ``b`` — workers represented by ``local_bits``
            (1 in RAR's reduce phase; a whole row's worth in TAR's column
            phase).
        rng: source of randomness; the draw happens *before* reception.

    Returns:
        A 0/1 ``uint8`` vector: where ``v*_j = 1``, ``P(r_j = 1) = b/(a+b)``;
        where ``v*_j = 0``, ``P(r_j = 1) = a/(a+b)``.  It is the unpacked
        :func:`transient_vector_packed`, bit for bit under a shared seed.
    """
    local = _validate_bits(local_bits, "local_bits")
    return transient_vector_packed(
        PackedBits.from_bits(local), received_weight, local_weight, rng
    ).to_bits()


def merge_sign_bits(
    received_bits: np.ndarray,
    local_bits: np.ndarray,
    transient: np.ndarray,
) -> np.ndarray:
    """Apply ``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` bit-wise.

    Pure bit logic — no decompression, no floats; agreement keeps the common
    bit, disagreement resolves to the pre-drawn transient bit.
    """
    received = _validate_bits(received_bits, "received_bits")
    local = _validate_bits(local_bits, "local_bits")
    trans = _validate_bits(transient, "transient")
    if not received.size == local.size == trans.size:
        raise ValueError("all bit vectors must share one length")
    return (received & local) | ((received ^ local) & trans)


def transient_vector_packed(
    local_bits: PackedBits,
    received_weight: int,
    local_weight: int,
    rng: np.random.Generator,
) -> PackedBits:
    """Packed-word :func:`transient_vector`: ``r = ¬v* ⊕ B``, 64 bits per op.

    It is the one-lane :func:`transient_vector_batch`, so the result is
    bit-for-bit equal to the unpacked reference and to a lane of the batch
    under a shared seed.  ``B`` depends on ``v*``'s length, not its values,
    so the draw can run before reception.
    """
    lane = PackedBitsBatch._trusted(
        local_bits.words[None, :], np.array([len(local_bits)], dtype=np.int64)
    )
    return transient_vector_batch(lane, received_weight, local_weight, [rng]).row(0)


def merge_sign_bits_packed(
    received_bits: PackedBits,
    local_bits: PackedBits,
    transient: PackedBits,
) -> PackedBits:
    """``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` on ``uint64`` words."""
    if not len(received_bits) == len(local_bits) == len(transient):
        raise ValueError("all bit vectors must share one length")
    return (received_bits & local_bits) | (
        (received_bits ^ local_bits) & transient
    )


def transient_vector_batch(
    local_bits: PackedBitsBatch,
    received_weights: int | np.ndarray,
    local_weights: int | np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> PackedBitsBatch:
    """Lane-stacked :func:`transient_vector_packed` for a whole synchronous
    step: every lane's words are drawn first, then one bit-serial compare
    runs over the ``(lanes, width)`` matrix.

    ``rngs[i]`` is lane ``i``'s generator (the receiving rank's stream; a
    MergeSign wave's destinations are distinct, and so must the generators
    be).  Each lane reads exactly the raw words a one-lane call of its own
    length and weights reads, whatever the batch's shared width, so batched
    and scalar engines stay bit-for-bit interchangeable under a shared seed.
    Weights may be scalars (every lane at the same hop, the ring schedules)
    or per-lane arrays (the tree reduce, where subtree sizes differ).
    """
    lanes = local_bits.num_lanes
    if len(rngs) != lanes:
        raise ValueError("one generator per lane required")
    if len({id(rng) for rng in rngs}) != lanes:
        raise ValueError("lanes must not share a generator")
    received = np.broadcast_to(
        np.asarray(received_weights, dtype=np.int64), (lanes,)
    )
    local_w = np.broadcast_to(np.asarray(local_weights, dtype=np.int64), (lanes,))
    if lanes and (received.min() < 1 or local_w.min() < 1):
        raise ValueError("weights must be >= 1")
    inverted = local_bits.invert()
    draw = _bernoulli_words(
        inverted.words | local_bits.words,
        local_bits.lengths,
        received,
        local_w,
        rngs,
    )
    return PackedBitsBatch._trusted(inverted.words ^ draw, local_bits.lengths)


def merge_sign_bits_batch(
    received_bits: PackedBitsBatch,
    local_bits: PackedBitsBatch,
    transient: PackedBitsBatch,
) -> PackedBitsBatch:
    """``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` over a whole lane stack.

    One batched word-matrix expression merges every (cycle, position) lane of
    a synchronous step at once — the lockstep engine's per-step workhorse.
    """
    return (received_bits & local_bits) | (
        (received_bits ^ local_bits) & transient
    )


def expected_merge_probability(
    received_prob: np.ndarray | float,
    local_prob: np.ndarray | float,
    received_weight: int,
    local_weight: int,
) -> np.ndarray:
    """The invariant the merge preserves: the weighted mean +1 probability.

    Used by tests and the theory module to check unbiasedness:
    ``E[merged] = (a p + b q) / (a + b)``.
    """
    total = received_weight + local_weight
    return (
        received_weight * np.asarray(received_prob, dtype=np.float64)
        + local_weight * np.asarray(local_prob, dtype=np.float64)
    ) / total
