"""The compensation pass's packer, checked word for word against the oracle.

``MarsitSynchronizer`` folds the pending ``g_t``, adds the updates and packs
the signs of ``c`` in one cache-blocked pass, and both executors consume the
grids it writes.  The cross-engine identity suite therefore cannot see a
packing bug: both engines would read the same wrong words.  These tests hold
the pass's grids to :func:`repro.sched.executor.pack_grids`
(``PackedLaneGrid.from_sign_matrix``) and to per-segment
``PackedBits.from_signs`` of the materialized ``c``, and its buffer to the
unfused arithmetic ``(c - g_t) + g``.
"""

import copy

import numpy as np
import pytest

import repro.core.marsit as marsit
from repro.allreduce import get_topology
from repro.allreduce.ring import split_segments
from repro.comm.bits import PackedBits
from repro.comm.cluster import Cluster
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.sched.executor import pack_grids
from repro.sched.plan import GridSpec, Pack, SyncPlan

# (topology, build kwargs, workers, segment_elems)
PLANS = [
    pytest.param("ring", {}, 5, None, id="ring"),
    pytest.param("torus", {"rows": 4, "cols": 4}, 16, None, id="torus-4x4"),
    pytest.param("torus", {"rows": 2, "cols": 3}, 6, None, id="torus-2x3"),
    pytest.param("tree", {"arity": 2}, 7, None, id="tree"),
    pytest.param("halving_doubling", {}, 8, None, id="halving-doubling"),
    pytest.param("ring", {}, 6, 100, id="segmented-ring-100"),
]


def _synchronizer(name, build, num_workers, dimension, segment_elems=None):
    cluster = Cluster(get_topology(name).build(num_workers, **build))
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=0.05, seed=3, segment_elems=segment_elems),
        num_workers,
        dimension,
    )
    return cluster, sync


def _with_pending(cluster, sync, rng):
    """Run one one-bit round (leaving its ``g_t`` pending) and return the
    compensation it stands for, read from a deep copy so ``sync`` keeps the
    ``g_t`` pending."""
    shape = (sync.num_workers, sync.dimension)
    sync.synchronize(cluster, rng.standard_normal(shape), 1)
    return copy.deepcopy(sync.state).compensation


def _assert_matches_oracle(plan, grids, matrix):
    """``grids`` equal the reference packer's, word for word, and every
    segment equals ``PackedBits.from_signs`` of its slice of ``matrix``."""
    expected = pack_grids(plan, matrix)
    assert grids.keys() == expected.keys()
    specs = {spec.name: spec for spec in plan.grids}
    packs = {step.grid: step for step in plan.steps if isinstance(step, Pack)}
    for name, grid in grids.items():
        assert grid.words.dtype == expected[name].words.dtype
        assert grid.words.tobytes() == expected[name].words.tobytes()
        assert np.array_equal(grid.lengths, expected[name].lengths)
        spec, step = specs[name], packs[name]
        for lane, rank in enumerate(spec.lane_ranks):
            parts = split_segments(
                matrix[rank, step.start : step.stop], spec.num_segments
            )
            for seg, part in enumerate(parts):
                oracle = PackedBits.from_signs(part)
                row = grid.row(lane, seg)
                assert row.length == oracle.length
                assert row.words.tobytes() == oracle.words.tobytes()
                assert not grid.words[lane, seg, row.words.size :].any()


@pytest.mark.parametrize("name, build, num_workers, segment_elems", PLANS)
@pytest.mark.parametrize("dimension", [1, 3, 1000], ids=["D1", "D3", "D1000"])
@pytest.mark.parametrize(
    "tiny_blocks", [False, True], ids=["L2-blocks", "64-col-blocks"]
)
def test_fused_grids_match_reference_packer(
    monkeypatch, name, build, num_workers, segment_elems, dimension, tiny_blocks
):
    if tiny_blocks:
        # One-word blocks: every segment longer than 64 spans several.
        monkeypatch.setattr(marsit, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(dimension)
    cluster, sync = _synchronizer(
        name, build, num_workers, dimension, segment_elems
    )
    before = _with_pending(cluster, sync, rng)
    plan, _ = sync._plan_for(cluster, "one_bit")
    updates = rng.standard_normal((num_workers, dimension))
    grids, _ = sync._compensate(updates, None, plan)
    compensation = sync.state.compensation
    assert compensation.tobytes() == (before + updates).tobytes()
    _assert_matches_oracle(plan, grids, compensation)


def test_segment_spanning_several_default_blocks():
    # Two workers: a default block is 65,536 columns, and each of the two
    # ring segments here is just over three of them.
    num_workers, dimension = 2, 2 * 3 * 65_536 + 77
    rng = np.random.default_rng(11)
    cluster, sync = _synchronizer("ring", {}, num_workers, dimension)
    before = _with_pending(cluster, sync, rng)
    plan, _ = sync._plan_for(cluster, "one_bit")
    updates = rng.standard_normal((num_workers, dimension))
    grids, _ = sync._compensate(updates, None, plan)
    assert sync.state.compensation.tobytes() == (before + updates).tobytes()
    _assert_matches_oracle(plan, grids, sync.state.compensation)


@pytest.mark.parametrize("form", ["rows", "float32", "degraded"])
def test_other_input_forms_pack_the_same_words(monkeypatch, form):
    monkeypatch.setattr(marsit, "_BLOCK_BYTES", 1)
    num_workers, dimension = 5, 700
    rng = np.random.default_rng(12)
    cluster, sync = _synchronizer("ring", {}, num_workers, dimension)
    before = _with_pending(cluster, sync, rng)
    updates = rng.standard_normal((num_workers, dimension))
    rows = None
    if form == "rows":
        given = list(updates)
    elif form == "float32":
        updates = updates.astype(np.float32)
        given = updates
    else:
        # The survivors of a crash; their lanes are cluster ranks 0..3.
        rows = [0, 1, 3, 4]
        given = updates
        cluster = Cluster(get_topology("ring").build(len(rows)))
    plan, _ = sync._plan_for(cluster, "one_bit")
    grids, _ = sync._compensate(given, rows, plan)
    compensation = sync.state.compensation
    # With survivors only, the g_t pending over every row is applied to all
    # of them first; the dead row gets no update.
    live = slice(None) if rows is None else rows
    expected = before.copy()
    expected[live] += updates[live].astype(np.float64)
    assert compensation.tobytes() == expected.tobytes()
    _assert_matches_oracle(plan, grids, compensation[live])


def test_signed_zeros_pack_as_plus_one():
    num_workers, dimension = 4, 300
    cluster, sync = _synchronizer("ring", {}, num_workers, dimension)
    start = np.random.default_rng(13).standard_normal((num_workers, dimension))
    start[:, ::3] = 0.0
    start[:, 1::3] = -0.0
    sync.state.compensation = start
    updates = np.where(start == 0.0, -0.0, 1e-3 * np.sign(start))
    plan, _ = sync._plan_for(cluster, "one_bit")
    grids, _ = sync._compensate(updates, None, plan)
    compensation = sync.state.compensation
    # +0.0 + -0.0 is +0.0 and -0.0 + -0.0 is -0.0: both zeros survive.
    assert not np.signbit(compensation[:, ::3]).any()
    assert np.signbit(compensation[:, 1::3]).all()
    _assert_matches_oracle(plan, grids, compensation)
    bits = np.concatenate(
        [grids["ring"].row(0, seg).to_bits() for seg in range(num_workers)]
    )
    assert bits[::3].all() and bits[1::3].all()


def test_permuted_lanes_and_uncovered_columns():
    num_workers, dimension = 3, 1000
    plan = SyncPlan(
        kind="one_bit",
        topology="ring",
        num_workers=num_workers,
        dimension=dimension,
        grids=(
            GridSpec(name="a", lane_ranks=(2, 0, 1), num_segments=2),
            GridSpec(name="b", lane_ranks=(1, 2, 0), num_segments=3),
        ),
        steps=(
            Pack(grid="b", start=700, stop=1000),
            Pack(grid="a", start=0, stop=500),
        ),
    )
    rng = np.random.default_rng(14)
    cluster, sync = _synchronizer("ring", {}, num_workers, dimension)
    before = _with_pending(cluster, sync, rng)
    updates = rng.standard_normal((num_workers, dimension))
    grids, _ = sync._compensate(updates, None, plan)
    # Columns 500..700 belong to no Pack step and still get line 1.
    assert sync.state.compensation.tobytes() == (before + updates).tobytes()
    _assert_matches_oracle(plan, grids, sync.state.compensation)


def test_overlapping_pack_steps_are_rejected():
    plan = SyncPlan(
        kind="one_bit",
        topology="ring",
        num_workers=2,
        dimension=100,
        grids=(
            GridSpec(name="a", lane_ranks=(0, 1), num_segments=2),
            GridSpec(name="b", lane_ranks=(0, 1), num_segments=2),
        ),
        steps=(
            Pack(grid="a", start=0, stop=60),
            Pack(grid="b", start=50, stop=100),
        ),
    )
    _, sync = _synchronizer("ring", {}, 2, 100)
    with pytest.raises(ValueError, match="overlap"):
        sync._compensate(np.zeros((2, 100)), None, plan)
