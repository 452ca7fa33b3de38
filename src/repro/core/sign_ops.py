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

How the compare runs.  Write ``W_l`` for level ``l``'s raw words and
``P_l = W_0 | … | W_l``.  Element ``j`` leaves the tie at the first level
where ``W`` has a 1, and there ``k_j < T`` iff ``T``'s bit is 1.  The
elements leaving during a run of 1-bits ``s..e`` of ``T`` are exactly
``P_e ⊕ P_(s-1)``, so ``B`` is the XOR of ``P_l`` over the levels after
which ``T``'s bit turns.  Each lane's raw words land in one copy, level
``l`` of every lane forming one contiguous ``(lanes, width)`` plane; one
in-place OR per level builds ``P_l`` there, and one XOR per turn folds it
into ``B``: an alternating ``T`` such as ``1/3`` costs two word ops per
level, a constant run one.  Lanes that share ``T`` (ring and torus hops)
need no masks; a wave whose lanes turn at different levels (the tree's
mixed subtree sizes) masks each lane's turns.  The elements still tied are
the zero bits of the last ``P``; the tie-break finds them with one flat
scan of it.

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

Because ``B`` never depends on ``v`` or ``v*``, it can be drawn before the
hop runs.  The synchronizer draws a whole round's ``B`` words up front
(:func:`repro.sched.executor.draw_transients`), and both executors consume
that one table: they pass each wave's words as ``draw=`` and only the
``r = ¬(v* ⊕ B)`` step runs inside the hop.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from repro.comm.bits import (
    PackedBits,
    PackedBitsBatch,
    _mask_row_padding,
    _row_padding,
)

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


class _Schedule(NamedTuple):
    """What the word-parallel compare does for one wave's weights."""

    #: Bit levels read per lane: down to T's lowest set bit, at most
    #: ``_PLANE_DEPTH``.
    depth: tuple[int, ...]
    #: Per level: ``None`` where no lane's T turns after it, ``True`` where
    #: every lane's does, else a ``(lanes, 1)`` mask of the lanes that do.
    turns: tuple
    #: Whether any lane still has ties after its planes.
    ties: bool
    #: Boolean mask of the exact lanes (their ties mean ``k >= T``) when
    #: ``ties`` and some lanes are exact, else ``None``.
    exact: np.ndarray | None
    #: ``T``'s low ``_LOW_BITS`` bits per lane, for the tie-break.
    low_thresholds: np.ndarray


@functools.lru_cache(maxsize=256)
def _schedule(received: bytes, local: bytes) -> _Schedule:
    """The schedule for ``int64`` weight vectors (as bytes: a hop's
    weights repeat every round)."""
    pairs = list(
        zip(
            np.frombuffer(received, dtype=np.int64).tolist(),
            np.frombuffer(local, dtype=np.int64).tolist(),
        )
    )
    if any(a < 1 or b < 1 for a, b in pairs):
        raise ValueError("weights must be >= 1")
    thresholds = [-((-b << _UNIFORM_BITS) // (a + b)) for a, b in pairs]
    # Levels needed for an exact answer: down to T's lowest set bit.
    exact_depth = [_UNIFORM_BITS + 1 - (t & -t).bit_length() for t in thresholds]
    depth = tuple(min(levels, _PLANE_DEPTH) for levels in exact_depth)
    max_depth = max(depth, default=0)
    # bits[l][i] is bit 52 - l of T_i, zero from lane i's depth on (and at
    # level max_depth), so a lane's last 1-bit always turns.
    bits = [
        [
            (t >> (_UNIFORM_BITS - 1 - level)) & 1 if level < d else 0
            for t, d in zip(thresholds, depth)
        ]
        for level in range(max_depth + 1)
    ]
    turns = []
    for level in range(max_depth):
        turning = [x != y for x, y in zip(bits[level], bits[level + 1])]
        if not any(turning):
            turns.append(None)
        elif all(turning):
            turns.append(True)
        else:
            mask = (np.array(turning) * _ALL_ONES)[:, None]
            mask.flags.writeable = False
            turns.append(mask)
    exact = np.array([e <= d for e, d in zip(exact_depth, depth)], dtype=bool)
    exact.flags.writeable = False
    low = np.array(thresholds, dtype=np.uint64) & _LOW_MASK
    low.flags.writeable = False
    ties = not exact.all()
    return _Schedule(
        depth, tuple(turns), ties, exact if ties and exact.any() else None, low
    )


def _bernoulli_words(
    lengths: np.ndarray,
    width: int,
    received_weights: np.ndarray,
    local_weights: np.ndarray,
    rngs: Sequence[np.random.Generator],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Bit ``j`` of lane ``i`` is i.i.d. ``Bernoulli(T_i / 2^53)``.

    ``T_i = ceil(b_i 2^53 / (a_i + b_i))``.  The result is a ``(lanes,
    width)`` word matrix (``out`` when given) whose row ``i`` holds lane
    ``i``'s ``lengths[i]`` bits; bits past them are unspecified (callers
    mask them).  Lane ``i``
    reads ``depth_i * ceil(lengths[i] / 64)`` raw words from ``rngs[i]``,
    then one more per element still tied after ``_PLANE_DEPTH`` levels, in
    element order.  All main draws happen before any tie-break draw, so the
    generators must be distinct objects for the per-lane streams to equal
    one-lane calls.
    """
    lanes = lengths.size
    schedule = _schedule(
        np.asarray(received_weights, dtype=np.int64).tobytes(),
        np.asarray(local_weights, dtype=np.int64).tobytes(),
    )
    depth = schedule.depth
    max_depth = max(depth, default=0)
    below = np.empty((lanes, width), dtype=np.uint64) if out is None else out
    if not width or not max_depth:
        below.fill(0)
        return below
    num_words = (lengths + _WORD_BITS - 1) // _WORD_BITS
    # Level l of lane i sits at planes[l, i, :num_words[i]]: one copy per
    # lane, and every level one contiguous (lanes, width) plane.  Entries
    # past a lane's words or depth stay uninitialised: they land in padding
    # (masked by the caller) or in levels past a lane's depth, where the
    # lane never turns.
    planes = np.empty((max_depth, lanes, width), dtype=np.uint64)
    for lane, words in enumerate(num_words.tolist()):
        if words:
            planes[: depth[lane], lane, :words] = (
                rngs[lane].bit_generator.random_raw(depth[lane] * words)
            ).reshape(depth[lane], words)

    # The drawn integer is k = T xor W, W the raw bits: uniform because W
    # is.  B is the XOR of the prefix ORs P_l over the levels after which
    # T's bit turns (see the module docstring); P_l overwrites level l.
    first = True
    prefix = planes[0]
    for level, turn in enumerate(schedule.turns):
        if level:
            prefix = np.bitwise_or(prefix, planes[level], out=planes[level])
        if turn is None:
            continue
        if first:
            if turn is True:
                np.copyto(below, prefix)
            else:
                np.bitwise_and(prefix, turn, out=below)
            first = False
        elif turn is True:
            below ^= prefix
        else:
            below ^= prefix & turn
    if first:
        below.fill(0)

    # Exact lanes are finished: a tie through T's lowest set bit means
    # k >= T.  The rest all read _PLANE_DEPTH levels, so prefix is their
    # P_last: they are still tied where it is 0, and settle k's low bits
    # against T's, element by element.
    if schedule.ties:
        # Exact lanes and every bit past a lane's length are settled too.
        if schedule.exact is not None:
            prefix[schedule.exact] = _ALL_ONES
        spare, rows, cols, keep = _row_padding(
            np.asarray(lengths, dtype=np.int64).tobytes(), width
        )
        if spare is not None:
            prefix[spare] = _ALL_ONES
        if rows.size:
            prefix[rows, cols] |= np.invert(keep)
        _settle_ties(prefix, below, schedule.low_thresholds, rngs)
    return below


def _settle_ties(
    prefix: np.ndarray,
    below: np.ndarray,
    low_thresholds: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> None:
    """Set ``below``'s bits for the elements still tied (zero bits of
    ``prefix``): one raw word each, in element order per lane, compared by
    its top ``_LOW_BITS`` bits with ``T``'s low bits."""
    # Flat indices throughout: 2-D and non-bool nonzero cost several times
    # a flat one over bools.
    flat = np.flatnonzero(prefix != _ALL_ONES)
    if not flat.size:
        return
    tied = np.invert(prefix.reshape(-1)[flat])
    bits = np.unpackbits(tied.view(np.uint8), bitorder="little")
    hits = np.flatnonzero(bits.view(np.bool_))
    lane_of = flat[hits >> 6] // prefix.shape[1]
    counts = np.bincount(lane_of, minlength=len(rngs)).tolist()
    draws = np.concatenate(
        [
            rngs[lane].bit_generator.random_raw(count)
            for lane, count in enumerate(counts)
            if count
        ]
    )
    bits[hits] = (draws >> _LOW_SHIFT) < low_thresholds[lane_of]
    # Flat word indices are distinct, so a fancy |= is safe.
    below.reshape(-1)[flat] |= np.packbits(bits, bitorder="little").view(
        np.uint64
    )


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
    received_weight: int | None = None,
    local_weight: int | None = None,
    rng: np.random.Generator | None = None,
    *,
    draw: np.ndarray | None = None,
) -> PackedBits:
    """Packed-word :func:`transient_vector`: ``r = ¬v* ⊕ B``, 64 bits per op.

    It is the one-lane :func:`transient_vector_batch`, so the result is
    bit-for-bit equal to the unpacked reference and to a lane of the batch
    under a shared seed.  ``B`` depends on ``v*``'s length, not its values,
    so the draw can run before reception: pass it as ``draw``, ``v*``'s
    words of ``B`` (overwritten with ``r``), instead of the weights and
    ``rng``.
    """
    lane = PackedBitsBatch._trusted(
        local_bits.words[None, :], np.array([len(local_bits)], dtype=np.int64)
    )
    if draw is not None:
        return transient_vector_batch(lane, draw=draw[None, :]).row(0)
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
    received_weights: int | np.ndarray | None = None,
    local_weights: int | np.ndarray | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
    *,
    draw: np.ndarray | None = None,
) -> PackedBitsBatch:
    """Lane-stacked :func:`transient_vector_packed` for a whole synchronous
    step: every lane's words are drawn first, then one word-parallel
    compare runs over the ``(lanes, width)`` matrix.

    ``rngs[i]`` is lane ``i``'s generator (the receiving rank's stream; a
    MergeSign wave's destinations are distinct, and so must the generators
    be).  Each lane reads exactly the raw words a one-lane call of its own
    length and weights reads, whatever the batch's shared width, so batched
    and scalar engines stay bit-for-bit interchangeable under a shared seed.
    Weights may be scalars (every lane at the same hop, the ring schedules)
    or per-lane arrays (the tree reduce, where subtree sizes differ).

    ``draw`` takes ``B`` already drawn, one ``local_bits``-shaped word
    matrix (:func:`repro.sched.executor.draw_transients`), in place of the
    weights and generators; it is overwritten with ``r`` and returned.
    """
    lanes = local_bits.num_lanes
    if draw is None:
        if len(rngs) != lanes:
            raise ValueError("one generator per lane required")
        if len({id(rng) for rng in rngs}) != lanes:
            raise ValueError("lanes must not share a generator")
        received = np.broadcast_to(
            np.asarray(received_weights, dtype=np.int64), (lanes,)
        )
        local_w = np.broadcast_to(
            np.asarray(local_weights, dtype=np.int64), (lanes,)
        )
        draw = _bernoulli_words(
            local_bits.lengths, local_bits.width, received, local_w, rngs
        )
    elif draw.shape != local_bits.words.shape or draw.dtype != np.uint64:
        raise ValueError("draw must match the local words' shape and dtype")
    # r = not(v*) xor B = not(v* xor B), padding re-zeroed.
    np.bitwise_xor(draw, local_bits.words, out=draw)
    np.invert(draw, out=draw)
    _mask_row_padding(draw, local_bits.lengths)
    return PackedBitsBatch._trusted(draw, local_bits.lengths)


def merge_sign_bits_batch(
    received_bits: PackedBitsBatch,
    local_bits: PackedBitsBatch,
    transient: PackedBitsBatch,
) -> PackedBitsBatch:
    """``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` over a whole lane stack.

    One batched word-matrix pass merges every (cycle, position) lane of a
    synchronous step at once — the lockstep engine's per-step workhorse —
    with two temporaries.
    """
    received_bits._check_compatible(local_bits)
    received_bits._check_compatible(transient)
    words = np.bitwise_xor(received_bits.words, local_bits.words)
    words &= transient.words
    words |= np.bitwise_and(received_bits.words, local_bits.words)
    return PackedBitsBatch._trusted(words, received_bits.lengths)


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
