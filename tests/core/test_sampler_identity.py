"""The lane-stacked sampler and merge against frozen copies of their
previous implementation.

``_frozen_*`` below are verbatim copies of ``_bernoulli_words``,
``transient_vector_batch`` and ``merge_sign_bits_batch`` as they stood
before the bit-serial compare became a prefix-OR over the bit planes (with
``PackedBitsBatch.invert``'s padding mask inlined, so library changes
cannot reach them).  Every case runs both on generators with one seed and
asserts equal words *and* equal ``bit_generator.state`` after each call:
the new code must read the same raw words, tie-break draws included, in
the same order.

Weights come from the one-bit compilers themselves (every ring hop, the
torus column phase, the tree's per-lane subtree sizes), plus the ring
pairs ``(a, 1)`` for ``a = 1..15`` on their own.
"""

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.comm.bits import PackedBitsBatch
from repro.core.sign_ops import (
    _bernoulli_words,
    merge_sign_bits_batch,
    transient_vector_batch,
)
from repro.sched.plan import CompileContext, MergeSign

_WORD_BITS = 64
_UNIFORM_BITS = 53
_PLANE_DEPTH = 12
_LOW_BITS = _UNIFORM_BITS - _PLANE_DEPTH
_LOW_SHIFT = np.uint64(_WORD_BITS - _LOW_BITS)
_LOW_MASK = np.uint64((1 << _LOW_BITS) - 1)
_ALL_ONES = np.uint64(2**_WORD_BITS - 1)

LENGTHS = [0, 1, 63, 64, 65, 62_500]


def _frozen_mask_row_padding(words, lengths):
    if not words.size:
        return
    col = np.arange(words.shape[1], dtype=np.int64)
    full = (lengths + _WORD_BITS - 1) // _WORD_BITS
    words[col[None, :] >= full[:, None]] = 0
    tail = lengths % _WORD_BITS
    ragged = np.flatnonzero(tail)
    if ragged.size:
        mask = (np.uint64(1) << tail[ragged].astype(np.uint64)) - 1
        words[ragged, lengths[ragged] // _WORD_BITS] &= mask


def _frozen_bernoulli_words(valid, lengths, received_weights, local_weights, rngs):
    lanes, width = valid.shape
    thresholds = [
        -((-int(b) << _UNIFORM_BITS) // (int(a) + int(b)))
        for a, b in zip(received_weights, local_weights)
    ]
    exact_depth = [
        _UNIFORM_BITS + 1 - (t & -t).bit_length() for t in thresholds
    ]
    depth = [min(levels, _PLANE_DEPTH) for levels in exact_depth]
    max_depth = max(depth, default=0)
    num_words = (lengths + _WORD_BITS - 1) // _WORD_BITS
    planes = np.empty((max_depth, lanes, width), dtype=np.uint64)
    for lane in range(lanes):
        words, lane_depth = int(num_words[lane]), depth[lane]
        if words:
            planes[:lane_depth, lane, :words] = (
                rngs[lane].bit_generator.random_raw(lane_depth * words)
            ).reshape(lane_depth, words)
    threshold_words = np.array(thresholds, dtype=np.uint64)
    levels = np.arange(max_depth)
    shifts = (_UNIFORM_BITS - 1 - levels).astype(np.uint64)
    level_bits = (threshold_words >> shifts[:, None]) & np.uint64(1)
    level_bits[levels[:, None] >= np.array(depth, dtype=np.int64)] = 0
    threshold_masks = (level_bits * _ALL_ONES)[:, :, None]
    tied = valid.copy()
    below = np.zeros((lanes, width), dtype=np.uint64)
    for level in range(max_depth):
        leaving = np.bitwise_and(tied, planes[level], out=planes[level])
        tied ^= leaving
        leaving &= threshold_masks[level]
        below |= leaving
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
        below[lane_idx, word_idx] |= np.packbits(
            bits, axis=1, bitorder="little"
        ).view(np.uint64)[:, 0]
    return below


def _frozen_transient_vector_batch(local_bits, received_weights, local_weights, rngs):
    lanes = local_bits.num_lanes
    received = np.broadcast_to(
        np.asarray(received_weights, dtype=np.int64), (lanes,)
    )
    local_w = np.broadcast_to(np.asarray(local_weights, dtype=np.int64), (lanes,))
    inverted = np.bitwise_not(local_bits.words)
    _frozen_mask_row_padding(inverted, local_bits.lengths)
    draw = _frozen_bernoulli_words(
        inverted | local_bits.words, local_bits.lengths, received, local_w, rngs
    )
    return PackedBitsBatch._trusted(inverted ^ draw, local_bits.lengths)


def _frozen_merge_sign_bits_batch(received_bits, local_bits, transient):
    words = (received_bits.words & local_bits.words) | (
        (received_bits.words ^ local_bits.words) & transient.words
    )
    return PackedBitsBatch._trusted(words, received_bits.lengths)


def _random_batch(lengths, seed):
    rng = np.random.default_rng(seed)
    width = max(lengths, default=0)
    bits = (rng.random((len(lengths), width)) < 0.5).astype(np.uint8)
    return PackedBitsBatch.from_bit_matrix(bits, np.array(lengths, dtype=np.int64))


def _generators(lanes, seed):
    seeds = np.random.SeedSequence(seed).spawn(lanes)
    return (
        [np.random.default_rng(s) for s in seeds],
        [np.random.default_rng(s) for s in seeds],
    )


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def _assert_identical(lengths, received, local, seed, calls=2):
    """Sampler, transient and merge against the frozen copies, ``calls``
    times in a row on the same generators."""
    batch = _random_batch(lengths, seed)
    other = _random_batch(lengths, seed + 1)
    new_rngs, old_rngs = _generators(len(lengths), seed)
    lanes = len(lengths)
    received = np.broadcast_to(np.asarray(received, dtype=np.int64), (lanes,))
    local = np.broadcast_to(np.asarray(local, dtype=np.int64), (lanes,))
    for _ in range(calls):
        valid = np.bitwise_not(batch.words)
        _frozen_mask_row_padding(valid, batch.lengths)
        valid |= batch.words
        expected = _frozen_bernoulli_words(
            valid, batch.lengths, received, local, old_rngs
        )
        drawn = _bernoulli_words(batch.lengths, batch.width, received, local, new_rngs)
        assert drawn.dtype == np.uint64
        # Bits past a lane's length are the caller's to mask.
        _frozen_mask_row_padding(drawn, batch.lengths)
        assert np.array_equal(drawn, expected)
        assert _states(new_rngs) == _states(old_rngs)

        expected = _frozen_transient_vector_batch(batch, received, local, old_rngs)
        transient = transient_vector_batch(batch, received, local, new_rngs)
        assert np.array_equal(transient.words, expected.words)
        assert np.array_equal(transient.lengths, expected.lengths)
        assert _states(new_rngs) == _states(old_rngs)

        merged = merge_sign_bits_batch(other, batch, transient)
        frozen = _frozen_merge_sign_bits_batch(other, batch, expected)
        assert np.array_equal(merged.words, frozen.words)
        assert np.array_equal(merged.lengths, frozen.lengths)


def _compiled_waves(name, build_kwargs, num_workers):
    """Each MergeSign wave's per-lane ``(received, local)`` weights."""
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
    waves = []
    for step in plan.steps:
        if isinstance(step, MergeSign):
            for wave in step.waves:
                waves.append(
                    (
                        [merge.received_weight for merge in wave],
                        [merge.local_weight for merge in wave],
                    )
                )
    return waves


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("a", range(1, 16))
def test_ring_pairs(a, length):
    _assert_identical([length] * 16, a, 1, seed=1000 * a + length % 997)


@pytest.mark.parametrize(
    "name, build_kwargs, num_workers",
    [
        ("ring", {}, 16),
        ("torus", {"rows": 4, "cols": 4}, 16),
        ("torus", {"rows": 2, "cols": 3}, 6),
        ("tree", {"arity": 2}, 7),
        ("tree", {"arity": 3}, 13),
        ("tree", {"arity": 2}, 16),
        ("halving_doubling", {}, 8),
    ],
    ids=["ring16", "torus4x4", "torus2x3", "tree2", "tree3", "tree2x16", "hd8"],
)
@pytest.mark.parametrize("length", [1, 65, 62_500])
def test_compiled_waves(name, build_kwargs, num_workers, length):
    waves = _compiled_waves(name, build_kwargs, num_workers)
    assert waves
    for index, (received, local) in enumerate(waves):
        _assert_identical(
            [length] * len(received), received, local, seed=index, calls=1
        )


def test_torus_column_pairs_share_one_weight_per_wave():
    # The column phase merges whole rows: a = rows folded so far times the
    # row size, b = one row.
    waves = _compiled_waves("torus", {"rows": 4, "cols": 4}, 16)
    column = [
        (received, local) for received, local in waves if set(local) == {4}
    ]
    assert column
    for received, local in column:
        assert len(set(received)) == 1
        _assert_identical([62_500] * len(received), received, local, seed=7)


def test_tree_waves_mix_weights():
    # So test_compiled_waves covers per-lane weights, not only shared ones.
    waves = _compiled_waves("tree", {"arity": 2}, 16)
    assert any(len(set(zip(r, l))) > 1 for r, l in waves)


@pytest.mark.parametrize(
    "lengths",
    [
        LENGTHS,
        [62_500, 0, 65, 62_436, 1, 64, 63, 62_500],
        [0, 0, 0],
        [128, 5],
    ],
    ids=["all-lengths", "ragged", "empty", "short"],
)
@pytest.mark.parametrize(
    "weights",
    [
        ((3, 1), (3, 1)),  # shared dyadic
        ((2, 1), (2, 1)),  # shared, 12 levels and ties
        ("mixed", "mixed"),  # per-lane weights, exact and inexact lanes
    ],
    ids=["dyadic", "third", "mixed"],
)
def test_ragged_lanes_in_one_batch(lengths, weights):
    lanes = len(lengths)
    if weights[0] == "mixed":
        pairs = [(1, 1), (2, 1), (3, 1), (14, 1), (5, 3), (7, 9), (1, 2), (40, 3)]
        received = [pairs[i % len(pairs)][0] for i in range(lanes)]
        local = [pairs[i % len(pairs)][1] for i in range(lanes)]
    else:
        (received, local), _ = weights
    _assert_identical(lengths, received, local, seed=lanes, calls=3)


def test_zero_lanes():
    batch = PackedBitsBatch._trusted(
        np.zeros((0, 0), dtype=np.uint64), np.zeros(0, dtype=np.int64)
    )
    assert transient_vector_batch(batch, 1, 1, []).words.shape == (0, 0)


# ----------------------------------------------------------------------
# Whole rounds: the synchronizer's one transient table per round against a
# frozen per-wave loop, hop by hop in plan order.
# ----------------------------------------------------------------------


def _split_lengths(length, parts):
    return [part.size for part in np.array_split(np.empty(length), parts)]


def _frozen_round(plan, rngs):
    """Each MergeSign wave's ``B`` words, drawn the way the executors drew
    them hop by hop: segment lengths tracked step by step, one
    ``_frozen_bernoulli_words`` call per wave over the receiving ranks'
    generators (``rngs`` indexed by cluster rank)."""
    specs = {spec.name: spec for spec in plan.grids}
    lengths = {}
    grid = None
    words = []
    for step in plan.steps:
        name = type(step).__name__
        if name == "Pack":
            spec = specs[step.grid]
            lengths[step.grid] = [
                _split_lengths(step.stop - step.start, spec.num_segments)
                for _ in spec.lane_ranks
            ]
        elif name == "Restack":
            source = lengths[step.src_grid]
            lengths[step.grid] = [
                _split_lengths(source[lane][seg], step.parts)
                for lane, seg in step.sources
            ]
        elif name == "Unstack":
            source = lengths[step.src_grid]
            for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                lengths[step.grid][dst_lane][dst_seg] = sum(source[lane])
        elif name == "Gather":
            slots = lengths[step.grid]
            moved = [slots[t.src_lane][t.seg] for t in step.transfers]
            for transfer, length in zip(step.transfers, moved):
                slots[transfer.dst_lane][transfer.seg] = length
        elif name == "SendRecv":
            grid = step.grid
        elif name == "MergeSign":
            ranks = specs[grid].lane_ranks
            for wave in step.waves:
                sizes = np.array(
                    [lengths[grid][m.dst_lane][m.seg] for m in wave],
                    dtype=np.int64,
                )
                width = int(-(-sizes.max() // _WORD_BITS))
                valid = np.full((len(wave), width), _ALL_ONES)
                _frozen_mask_row_padding(valid, sizes)
                words.append(
                    (
                        sizes,
                        _frozen_bernoulli_words(
                            valid,
                            sizes,
                            [m.received_weight for m in wave],
                            [m.local_weight for m in wave],
                            [rngs[ranks[m.dst_lane]] for m in wave],
                        ),
                    )
                )
    return words


def _one_bit_plan(name, build_kwargs, num_workers, dimension, survivors=None):
    from repro.faults.recovery import degraded_topology

    entry = get_topology(name)
    topology = entry.build(num_workers, **build_kwargs)
    if survivors is not None:
        topology = degraded_topology(topology, len(survivors))
        entry = get_topology(topology.name)
    return entry.compile_one_bit(
        CompileContext(
            num_workers=topology.num_workers,
            dimension=dimension,
            meta=dict(topology.meta),
            segment_elems=None,
        )
    )


@pytest.mark.parametrize(
    "name, build_kwargs, num_workers, crashed",
    [
        ("ring", {}, 16, ()),
        ("torus", {"rows": 4, "cols": 4}, 16, ()),
        ("torus", {"rows": 2, "cols": 3}, 6, ()),
        ("tree", {"arity": 2}, 7, ()),
        ("tree", {"arity": 3}, 13, ()),
        ("tree", {"arity": 2}, 16, ()),
        ("halving_doubling", {}, 8, ()),
        ("torus", {"rows": 4, "cols": 4}, 16, (1, 6, 11)),
        ("halving_doubling", {}, 8, (0, 5, 6)),
    ],
    ids=[
        "ring16", "torus4x4", "torus2x3", "tree2", "tree3", "tree2x16",
        "hd8", "torus4x4-crashed", "hd8-crashed",
    ],
)
@pytest.mark.parametrize("dimension", [1, 1000, 70_001])
def test_whole_round_table(name, build_kwargs, num_workers, crashed, dimension):
    """Words and generator states equal after each of three rounds; a
    crash-degraded plan runs over the survivors' own generators."""
    from repro.sched.executor import draw_transients

    survivors = [rank for rank in range(num_workers) if rank not in crashed]
    plan = _one_bit_plan(
        name, build_kwargs, num_workers, dimension, survivors if crashed else None
    )
    new_rngs, old_rngs = _generators(num_workers, dimension)
    new_rngs = [new_rngs[rank] for rank in survivors]
    old_rngs = [old_rngs[rank] for rank in survivors]
    assert plan.num_workers == len(survivors)
    for _ in range(3):
        table = draw_transients(plan, new_rngs)
        frozen = _frozen_round(plan, old_rngs)
        assert len(table) == len(frozen) > 0
        for drawn, (sizes, expected) in zip(table, frozen):
            assert drawn.dtype == np.uint64
            drawn = drawn.copy()
            _frozen_mask_row_padding(drawn, sizes)
            assert np.array_equal(drawn[:, : expected.shape[1]], expected)
            assert not drawn[:, expected.shape[1] :].any()
        assert _states(new_rngs) == _states(old_rngs)


def test_whole_round_table_covers_restack_and_per_lane_weights():
    # So test_whole_round_table sees Restack/Unstack grids (torus) and
    # waves whose lanes carry different weights (tree).
    torus = _one_bit_plan("torus", {"rows": 4, "cols": 4}, 16, 1000)
    kinds = {type(step).__name__ for step in torus.steps}
    assert {"Restack", "Unstack"} <= kinds
    tree = _one_bit_plan("tree", {"arity": 2}, 16, 1000)
    assert any(
        len({(m.received_weight, m.local_weight) for m in wave}) > 1
        for step in tree.steps
        if isinstance(step, MergeSign)
        for wave in step.waves
    )
