"""Direct tests for the lockstep multi-cycle ring phases.

The cycle phases (:func:`repro.allreduce.ring.cycle_reduce_steps` and
:func:`~repro.allreduce.ring.cycle_gather_steps`) are what the ring and
torus compilers are built from; here they run as a sum plan of their own.
"""

import numpy as np
import pytest

from repro.allreduce.codec import FloatCodec, allreduce_sum, signsum_allreduce
from repro.allreduce.ring import cycle_gather_steps, cycle_reduce_steps
from repro.allreduce.torus import compile_torus
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.comm.topology import torus_topology
from repro.sched import ScalarExecutor
from repro.sched.plan import (
    CompileContext,
    GridSpec,
    Output,
    Pack,
    SyncPlan,
    as_sum_plan,
)

CODEC = FloatCodec(np.dtype(np.float64))


def _cycles_plan(num_cycles, size, dimension, gather=True):
    """Reduce-scatter (then all-gather) over ``num_cycles`` lockstep rings
    of ``size`` consecutive ranks, as a float64 sum plan."""
    steps = [Pack(grid="g", start=0, stop=dimension)]
    steps += cycle_reduce_steps("g", num_cycles, size, 1, dimension, "m-rs")
    if gather:
        steps += cycle_gather_steps("g", num_cycles, size, "m-ag")
    lanes = num_cycles * size
    plan = SyncPlan(
        kind="one_bit",
        topology="torus",
        num_workers=lanes,
        dimension=dimension,
        grids=(
            GridSpec(name="g", lane_ranks=tuple(range(lanes)), num_segments=size),
        ),
        steps=tuple(steps),
        outputs=(Output(grid="g", where="gather"),),
    )
    return as_sum_plan(plan, CODEC.op, "")


class TestParallelRing:
    def test_two_rows_reduce_in_lockstep(self, rng):
        cluster = Cluster(torus_topology(2, 3))
        cycles = [[0, 1, 2], [3, 4, 5]]
        vectors = [rng.standard_normal(9) for _ in range(6)]
        executor = ScalarExecutor()
        reduced = executor.run_sum(
            _cycles_plan(2, 3, 9, gather=False), cluster, vectors, CODEC
        )
        gathered = executor.run_sum(_cycles_plan(2, 3, 9), cluster, vectors, CODEC)
        for cycle in cycles:
            expected = np.sum([vectors[r] for r in cycle], axis=0)
            for pos, rank in enumerate(cycle):
                assert np.allclose(gathered[rank], expected, atol=1e-9)
                # Position p ends the reduce phase owning segment p + 1.
                own = (pos + 1) % 3
                segment = slice(3 * own, 3 * own + 3)
                assert np.allclose(
                    reduced[rank][segment], expected[segment], atol=1e-9
                )
        cluster.assert_drained()

    def test_one_shared_array_per_ring(self, rng):
        # Each ring gathers its own segments: its ranks share one read-only
        # result, and the two rings' results are distinct arrays.
        cluster = Cluster(torus_topology(2, 3))
        vectors = [rng.standard_normal(9) for _ in range(6)]
        out = ScalarExecutor().run_sum(
            _cycles_plan(2, 3, 9), cluster, vectors, CODEC
        )
        assert out[0] is out[1] is out[2]
        assert out[3] is out[4] is out[5]
        assert out[0] is not out[3]
        assert not out[0].flags.writeable and not out[3].flags.writeable

    def test_lockstep_charges_one_latency_per_step(self, rng):
        # Two concurrent 3-cycles: still only (3-1) reduce steps of latency.
        cluster = Cluster(torus_topology(2, 3))
        ScalarExecutor().run_sum(
            _cycles_plan(2, 3, 3, gather=False), cluster, [np.zeros(3)] * 6, CODEC
        )
        latency = cluster.cost_model.latency_s
        comm = cluster.timeline.seconds[Phase.COMMUNICATION]
        assert comm == pytest.approx(2 * latency, rel=0.05)

    def test_rejects_unequal_cycle_lengths(self, rng):
        # Torus cycles are the rows and columns of its shape; a shape that
        # does not cover the workers would leave cycles of unequal length.
        with pytest.raises(ValueError):
            compile_torus(
                CompileContext(
                    num_workers=5, dimension=9, meta={"rows": 2, "cols": 3}
                )
            )

    def test_rejects_wrong_segment_count(self, rng):
        # Every worker must cut the same vector length into cycle segments.
        cluster = Cluster(torus_topology(2, 3))
        vectors = [np.zeros(4)] * 5 + [np.zeros(2)]
        with pytest.raises(ValueError):
            allreduce_sum(cluster, vectors, FloatCodec())

    def test_empty_cycles_noop(self):
        cluster = Cluster(torus_topology(2, 3))
        assert ScalarExecutor().run_sum(
            _cycles_plan(0, 3, 9), cluster, np.zeros((0, 9)), CODEC
        ) == []
        assert cluster.total_messages == 0
        assert cluster.timeline.seconds[Phase.COMMUNICATION] == 0


class TestTorusScalarAllgather:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3), (1, 4), (4, 1)])
    def test_all_shapes(self, rows, cols):
        from repro.allreduce.torus import torus_allgather_scalars

        cluster = Cluster(torus_topology(rows, cols))
        values = [float(r) * 2.5 + 1 for r in range(rows * cols)]
        gathered = torus_allgather_scalars(cluster, values)
        assert np.allclose(gathered, values)
        cluster.assert_drained()

    def test_rejects_wrong_count(self):
        from repro.allreduce.torus import torus_allgather_scalars

        cluster = Cluster(torus_topology(2, 2))
        with pytest.raises(ValueError):
            torus_allgather_scalars(cluster, [1.0, 2.0])


class TestSignsumTorus:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 4), (3, 3)])
    def test_matches_numpy(self, rows, cols, rng):
        m = rows * cols
        signs = [
            np.where(rng.standard_normal(40) >= 0, 1.0, -1.0) for _ in range(m)
        ]
        cluster = Cluster(torus_topology(rows, cols))
        results = signsum_allreduce(cluster, signs)
        expected = np.sum(signs, axis=0).astype(np.int64)
        for result in results:
            assert np.array_equal(result, expected)
        cluster.assert_drained()

    def test_expansion_cheaper_than_fp32(self, rng):
        m, d = 8, 800
        signs = [
            np.where(rng.standard_normal(d) >= 0, 1.0, -1.0) for _ in range(m)
        ]
        sign_cluster = Cluster(torus_topology(2, 4))
        signsum_allreduce(sign_cluster, signs, charge_compression=False)
        fp_cluster = Cluster(torus_topology(2, 4))
        allreduce_sum(fp_cluster, signs, FloatCodec())
        assert sign_cluster.total_bytes < fp_cluster.total_bytes

    def test_rejects_non_signs(self, rng):
        cluster = Cluster(torus_topology(2, 2))
        with pytest.raises(ValueError):
            signsum_allreduce(cluster, [np.array([0.5, 1.0])] * 4)
