"""SyncPlan IR unit tests and golden-plan snapshots.

The golden files under ``tests/sched/golden/`` pin the exact compiled plan
(steps, transfers, weights, tags, cost annotations) for one representative
shape per topology.  Any schedule change — intended or not — shows up as a
readable JSON diff.  Refresh intentionally with::

    python -m pytest tests/sched/test_plan.py --update-golden
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.allreduce.codec import SIGN_SUM, FloatCodec, sum_plan
from repro.comm.topology import ring_topology, torus_topology
from repro.sched.plan import (
    MERGE_SIGN,
    Barrier,
    CompileContext,
    Gather,
    GridSpec,
    MergeSign,
    Pack,
    ReduceOp,
    SendRecv,
    SyncPlan,
    Transfer,
    as_sum_plan,
    plan_segment_lengths,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "ring_m5_d103": ("ring", {}, 5, 103, None),
    "segmented_ring_m4_d90_seg40": ("ring", {}, 4, 90, 40),
    "torus_2x3_d101": ("torus", {"rows": 2, "cols": 3}, 6, 101, None),
    "tree_m7_a2_d64": ("tree", {"arity": 2}, 7, 64, None),
    "halving_doubling_m8_d37": ("halving_doubling", {}, 8, 37, None),
}


def _compile(name, build_kwargs, num_workers, dimension, segment_elems):
    topology = get_topology(name).build(num_workers, **build_kwargs)
    return get_topology(name).compile_one_bit(
        CompileContext(
            num_workers=num_workers,
            dimension=dimension,
            meta=dict(topology.meta),
            segment_elems=segment_elems,
        )
    )


class TestPlanHelpers:
    @pytest.mark.parametrize(
        "total,parts", [(10, 3), (103, 5), (3, 4), (0, 2), (64, 64)]
    )
    def test_plan_segment_lengths_matches_array_split(self, total, parts):
        expected = [len(part) for part in np.array_split(np.arange(total), parts)]
        assert plan_segment_lengths(total, parts) == expected

    def test_digest_is_stable_and_content_sensitive(self):
        fp = FloatCodec().op
        a = sum_plan(ring_topology(4), 100, fp)
        b = as_sum_plan(_compile("ring", {}, 4, 100, None), fp, "")
        c = sum_plan(ring_topology(4), 101, fp)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.digest() != sum_plan(ring_topology(4), 100, SIGN_SUM.op).digest()
        assert len(a.digest()) == 12

    def test_validate_rejects_unpaired_sendrecv(self):
        plan = SyncPlan(
            kind="one_bit",
            topology="ring",
            num_workers=2,
            dimension=8,
            grids=(GridSpec(name="g", lane_ranks=(0, 1), num_segments=1),),
            steps=(
                Pack(grid="g", start=0, stop=8),
                SendRecv(
                    grid="g",
                    tag="t",
                    transfers=(Transfer(src_lane=0, dst_lane=1, seg=0),),
                ),
            ),
        )
        with pytest.raises(ValueError, match="MergeSign"):
            plan.validate()

    def test_validate_rejects_duplicate_wave_destinations(self):
        from repro.sched.plan import Merge

        merge = Merge(
            dst_lane=1, src_lane=0, seg=0, received_weight=1, local_weight=1
        )
        plan = SyncPlan(
            kind="one_bit",
            topology="ring",
            num_workers=2,
            dimension=8,
            grids=(GridSpec(name="g", lane_ranks=(0, 1), num_segments=1),),
            steps=(
                SendRecv(
                    grid="g",
                    tag="t",
                    transfers=(Transfer(src_lane=0, dst_lane=1, seg=0),),
                ),
                MergeSign(
                    grid="g",
                    waves=((merge, merge),),
                    compress_elems=None,
                    rng_elems=8,
                    bitop_elems=8,
                ),
            ),
        )
        with pytest.raises(ValueError, match="duplicate destination"):
            plan.validate()

    def test_validate_rejects_unknown_grid(self):
        plan = SyncPlan(
            kind="one_bit",
            topology="ring",
            num_workers=2,
            dimension=8,
            grids=(),
            steps=(Pack(grid="ghost", start=0, stop=8),),
        )
        with pytest.raises(ValueError, match="ghost"):
            plan.validate()

    def test_fused_hop_invariant_holds_for_all_compiled_plans(self):
        for name, build_kwargs, num, dim, seg in GOLDEN_CASES.values():
            plan = _compile(name, build_kwargs, num, dim, seg)
            plan.validate()
            for pos, step in enumerate(plan.steps):
                if isinstance(step, SendRecv):
                    assert isinstance(plan.steps[pos + 1], MergeSign)

    def test_barriers_balance_in_all_compiled_plans(self):
        for name, build_kwargs, num, dim, seg in GOLDEN_CASES.values():
            plan = _compile(name, build_kwargs, num, dim, seg)
            depth = 0
            for step in plan.steps:
                if isinstance(step, Barrier):
                    depth += 1 if step.kind == "begin" else -1
                    assert depth >= 0
            assert depth == 0


class TestSumPlans:
    def test_keeps_the_schedule_and_retypes_the_reduce_hops(self):
        one_bit = _compile("torus", {"rows": 2, "cols": 3}, 6, 101, None)
        op = ReduceOp(kind="sum", codec="float32")
        lowered = as_sum_plan(one_bit, op, "tar-")
        lowered.validate()
        assert lowered.kind == "sum"
        assert lowered.grids == one_bit.grids
        assert len(lowered.steps) == len(one_bit.steps)
        for old, new in zip(one_bit.steps, lowered.steps):
            assert type(old) is type(new)
            if isinstance(new, MergeSign):
                assert new.reduce == op and old.reduce == MERGE_SIGN
                assert new.waves == old.waves
            if isinstance(new, (SendRecv, Gather)):
                assert new.transfers == old.transfers
                assert new.tag == "tar-" + old.tag.removeprefix("m-")
            if isinstance(new, Barrier):
                assert new.compress_elems is None

    def test_reduce_op_is_serialized_only_off_the_one_bit_default(self):
        one_bit = _compile("ring", {}, 5, 103, None)
        assert '"reduce"' not in one_bit.to_json()
        lowered = as_sum_plan(one_bit, SIGN_SUM.op, "")
        reduces = [
            entry["reduce"]
            for entry in lowered.to_json_dict()["steps"]
            if entry["op"] == "MergeSign"
        ]
        assert reduces and all(
            r == {"kind": "sum", "codec": "signsum"} for r in reduces
        )

    def test_sum_plans_compile_once_per_shape_and_op(self):
        fp = FloatCodec().op
        torus = torus_topology(2, 2)
        assert sum_plan(torus, 64, fp) is sum_plan(torus_topology(2, 2), 64, fp)
        assert sum_plan(torus, 64, fp) is not sum_plan(torus, 64, SIGN_SUM.op)


class TestGoldenPlans:
    @pytest.mark.parametrize("case_name", sorted(GOLDEN_CASES))
    def test_plan_matches_golden(self, case_name, update_golden):
        name, build_kwargs, num, dim, seg = GOLDEN_CASES[case_name]
        plan = _compile(name, build_kwargs, num, dim, seg)
        plan.validate()
        # Round-trip through JSON so tuples in the IR compare equal to the
        # lists they deserialize to.
        document = {
            "digest": plan.digest(),
            "plan": json.loads(json.dumps(plan.to_json_dict())),
        }
        path = GOLDEN_DIR / f"{case_name}.json"
        if update_golden:
            path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
            return
        assert path.exists(), (
            f"missing golden snapshot {path}; run "
            "pytest tests/sched/test_plan.py --update-golden"
        )
        recorded = json.loads(path.read_text())
        assert document["digest"] == recorded["digest"], (
            f"plan digest changed for {case_name}: "
            f"{recorded['digest']} -> {document['digest']}; if intended, "
            "refresh with --update-golden"
        )
        assert document["plan"] == recorded["plan"]
