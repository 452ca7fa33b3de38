"""Chaos suite: randomized seeded fault plans against the whole stack.

Three invariants, each across every one-bit topology and both executors
(for the one-bit round and for the sum plans its schedule lowers to):

1. **Determinism** — a seeded :class:`FaultPlan` replays exactly: same
   outputs, same wire counters, same timeline, same ``faults.*`` counters.
2. **Cross-engine identity** — the scalar (per-message) and lane-stacked
   (bulk-exchange) engines see byte-identical faults under one seed, even
   though they interleave their fault queries completely differently.  This
   is the content-keyed-RNG contract of :mod:`repro.faults.inject`.
3. **Graceful degradation** — terminal losses abort cleanly and leave a
   drained cluster; retry-mode losses at realistic rates (≤5%) cost time and
   bytes but not accuracy; a fail-stop crash degrades the topology and the
   run completes on the survivors with an early full-precision resync.

Marked ``slow`` alongside the benchmark suites; deselect with
``-m 'not slow'``.
"""

import numpy as np
import pytest

from repro import quick_train
from repro.allreduce import get_topology, one_bit_topology_names
from repro.allreduce.codec import SIGN_SUM, FloatCodec, sum_plan
from repro.comm.cluster import Cluster
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LinkJitter,
    MessageDrop,
    QuorumLostError,
    Straggler,
    WorkerCrash,
)
from repro.sched import get_executor
from repro.train.strategies import MarsitStrategy

pytestmark = pytest.mark.slow

ROUNDS = 3

# name -> (build_kwargs, num_workers, dimension, config_overrides)
CASES = {
    "ring": ({}, 6, 257, {}),
    "ring-segmented": ({}, 6, 500, {"segment_elems": 64}),
    "torus": ({"rows": 2, "cols": 3}, 6, 101, {}),
    "tree": ({"arity": 2}, 7, 128, {}),
    "halving_doubling": ({}, 8, 96, {}),
}
TOPOLOGY_OF = {
    "ring": "ring",
    "ring-segmented": "ring",
    "torus": "torus",
    "tree": "tree",
    "halving_doubling": "halving_doubling",
}


def _chaos_plan(seed: int) -> FaultPlan:
    """A randomized composite plan: every fault type, parameters from seed."""
    rng = np.random.default_rng(seed)
    return FaultPlan(
        seed=seed,
        events=(
            LinkJitter(sigma=float(rng.uniform(0.05, 0.3))),
            Straggler(
                worker=int(rng.integers(0, 6)),
                factor=float(rng.uniform(1.2, 2.5)),
            ),
            MessageDrop(prob=float(rng.uniform(0.01, 0.05))),
            BitFlip(prob=float(rng.uniform(0.002, 0.01))),
        ),
        max_attempts=3,
    )


def _run(case_name, engine, plan, rounds=ROUNDS, extra_events=()):
    build_kwargs, num_workers, dimension, overrides = CASES[case_name]
    name = TOPOLOGY_OF[case_name]
    topology = get_topology(name).build(num_workers, **build_kwargs)
    cluster = Cluster(topology)
    if extra_events:
        plan = FaultPlan(
            seed=plan.seed,
            events=plan.events + tuple(extra_events),
            max_attempts=plan.max_attempts,
        )
    injector = FaultInjector(plan)
    cluster.attach_faults(injector)
    sync = MarsitSynchronizer(
        MarsitConfig(
            global_lr=0.25,
            seed=42,
            engine=engine,
            full_precision_every=2,
            **overrides,
        ),
        num_workers,
        dimension,
    )
    rng = np.random.default_rng(9)
    outputs = []
    reports = []
    for round_idx in range(1, rounds + 1):
        updates = [rng.standard_normal(dimension) for _ in range(num_workers)]
        report = sync.synchronize(cluster, updates, round_idx)
        outputs.append(np.stack(report.global_updates))
        reports.append(report)
    return cluster, sync, outputs, reports, injector


def test_every_one_bit_topology_is_covered():
    assert set(TOPOLOGY_OF.values()) == set(one_bit_topology_names())


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("plan_seed", [101, 202])
def test_engines_identical_under_faults(case_name, plan_seed):
    plan = _chaos_plan(plan_seed)
    s_cluster, s_sync, s_out, s_rep, s_inj = _run(case_name, "scalar", plan)
    b_cluster, b_sync, b_out, b_rep, b_inj = _run(case_name, "batched", plan)
    for reference, candidate in zip(s_out, b_out):
        assert np.array_equal(reference, candidate)
    assert np.array_equal(
        s_sync.state.compensation, b_sync.state.compensation
    )
    assert b_cluster.total_bytes == s_cluster.total_bytes
    assert b_cluster.total_messages == s_cluster.total_messages
    for key, link in s_cluster.links.items():
        assert b_cluster.links[key].bytes_sent == link.bytes_sent
        assert b_cluster.links[key].messages_sent == link.messages_sent
    assert b_cluster.timeline.seconds == s_cluster.timeline.seconds
    # Both engines must have experienced the *same* faults, not merely
    # equivalent ones.
    assert b_inj.counters == s_inj.counters
    assert s_inj.counters.get("drops", 0) + s_inj.counters.get(
        "flipped_bits", 0
    ) > 0, "chaos plan fired no faults; the test is vacuous"
    s_cluster.assert_drained()
    b_cluster.assert_drained()


SUM_CODECS = {"mean": FloatCodec(), "signsum": SIGN_SUM}


def _run_sum(case_name, codec_name, engine, plan):
    """One sum plan (FP32 or sign sum) of ``case_name``'s topology, run by
    ``engine`` under ``plan``'s faults."""
    build_kwargs, num_workers, dimension, overrides = CASES[case_name]
    topology = get_topology(TOPOLOGY_OF[case_name]).build(
        num_workers, **build_kwargs
    )
    cluster = Cluster(topology)
    injector = FaultInjector(plan)
    cluster.attach_faults(injector)
    codec = SUM_CODECS[codec_name]
    vectors = np.random.default_rng(9).standard_normal((num_workers, dimension))
    if codec_name == "signsum":
        vectors = np.where(vectors >= 0, 1.0, -1.0)
    compiled = sum_plan(
        topology, dimension, codec.op, overrides.get("segment_elems")
    )
    outputs = get_executor(engine).run_sum(compiled, cluster, vectors, codec)
    return cluster, np.stack(outputs), injector, vectors.sum(axis=0)


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("codec_name", sorted(SUM_CODECS))
@pytest.mark.parametrize("plan_seed", [101, 202])
def test_engines_identical_on_sum_plans_under_faults(
    case_name, codec_name, plan_seed
):
    plan = _chaos_plan(plan_seed)
    s_cluster, s_out, s_inj, expected = _run_sum(
        case_name, codec_name, "scalar", plan
    )
    b_cluster, b_out, b_inj, _ = _run_sum(case_name, codec_name, "batched", plan)
    assert np.array_equal(s_out, b_out)
    assert b_cluster.total_bytes == s_cluster.total_bytes
    assert b_cluster.total_messages == s_cluster.total_messages
    assert b_cluster.links.keys() == s_cluster.links.keys()
    for key, link in s_cluster.links.items():
        assert b_cluster.links[key].bytes_sent == link.bytes_sent
    assert b_cluster.timeline.seconds == s_cluster.timeline.seconds
    assert b_inj.counters == s_inj.counters
    # Retry-mode drops cost time and bytes, never the sum.
    if codec_name == "signsum":
        assert (s_out == expected).all()
    else:
        assert np.allclose(s_out, expected, atol=1e-4)
    s_cluster.assert_drained()
    b_cluster.assert_drained()


@pytest.mark.parametrize("codec_name", sorted(SUM_CODECS))
def test_sum_plans_fire_faults(codec_name):
    fired = sum(
        _run_sum(case, codec_name, "scalar", _chaos_plan(101))[2].counters.get(
            "drops", 0
        )
        for case in CASES
    )
    assert fired > 0, "chaos plan fired no faults on sum plans; vacuous"


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("codec_name", sorted(SUM_CODECS))
@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_terminal_loss_in_a_sum_plan_raises(case_name, codec_name, engine):
    # Sum plans move each message through send/recv on both engines, so a
    # terminal drop times the receiver out on either.
    src, dst = _first_link(case_name)
    plan = FaultPlan(
        seed=4,
        events=(MessageDrop(prob=1.0, links=((src, dst),), mode="timeout"),),
    )
    with pytest.raises(LookupError):
        _run_sum(case_name, codec_name, engine, plan)


def _first_link(case_name):
    """A ``(src, dst)`` link the case's sum plan sends on."""
    build_kwargs, num_workers, dimension, overrides = CASES[case_name]
    topology = get_topology(TOPOLOGY_OF[case_name]).build(
        num_workers, **build_kwargs
    )
    cluster = Cluster(topology)
    get_executor("scalar").run_sum(
        sum_plan(topology, dimension, SIGN_SUM.op, overrides.get("segment_elems")),
        cluster,
        np.ones((num_workers, dimension)),
        SIGN_SUM,
    )
    return min(key for key, link in cluster.links.items() if link.messages_sent)


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_seeded_plans_replay_exactly(engine):
    plan = _chaos_plan(77)
    first = _run("ring", engine, plan)
    second = _run("ring", engine, plan)
    for reference, candidate in zip(first[2], second[2]):
        assert np.array_equal(reference, candidate)
    assert first[0].timeline.seconds == second[0].timeline.seconds
    assert first[4].counters == second[4].counters
    # A different seed realizes a different failure history.
    other = _run("ring", engine, _chaos_plan(78))
    assert other[4].counters != first[4].counters


def test_terminal_loss_aborts_cleanly_and_the_next_round_recovers():
    # mode="timeout" is the scalar-engine diagnostic: the receiver times out
    # (LookupError), the caller voids the round with abort_step +
    # discard_pending, and the cluster is spotless for the next round.
    plan = FaultPlan(
        seed=4,
        events=(
            MessageDrop(
                prob=1.0, links=((0, 1),), mode="timeout", last_round=1
            ),
        ),
    )
    build_kwargs, num_workers, dimension, _ = CASES["ring"]
    topology = get_topology("ring").build(num_workers, **build_kwargs)
    cluster = Cluster(topology)
    cluster.attach_faults(FaultInjector(plan))
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=0.25, seed=1, engine="scalar"),
        num_workers,
        dimension,
    )
    rng = np.random.default_rng(0)
    updates = [rng.standard_normal(dimension) for _ in range(num_workers)]
    with pytest.raises(LookupError):
        sync.synchronize(cluster, updates, 1)
    aborted = cluster.abort_step()
    assert aborted, "the failed hop left no step bytes to void"
    assert cluster.discard_pending() > 0
    cluster.assert_drained()
    charged = cluster.timeline.total
    # Round 2 falls outside the drop window and completes consensus.
    report = sync.synchronize(cluster, updates, 2)
    assert len(report.global_updates) == num_workers
    for update in report.global_updates[1:]:
        assert np.array_equal(update, report.global_updates[0])
    assert cluster.timeline.total > charged
    cluster.assert_drained()


@pytest.mark.parametrize("case_name", ["ring", "torus", "tree"])
def test_crash_recovery_completes_on_survivors(case_name):
    crash = WorkerCrash(worker=2, round_idx=2)
    results = {}
    for engine in ("scalar", "batched"):
        cluster, sync, outputs, reports, injector = _run(
            case_name,
            engine,
            FaultPlan(seed=1),
            rounds=4,
            extra_events=(crash,),
        )
        _, num_workers, _, _ = CASES[case_name]
        # The crash round recovers: degraded topology, forced FP resync.
        assert [r.recovered for r in reports] == [False, True, False, False]
        assert reports[1].full_precision
        assert cluster.num_workers == num_workers - 1
        assert sync.active_workers == [
            w for w in range(num_workers) if w != 2
        ]
        assert injector.counters["crashes"] == 1
        assert injector.counters["recoveries"] == 1
        assert injector.counters["forced_resyncs"] == 1
        # Post-crash rounds still reach consensus across *all* M report
        # entries (dead entries carry the consensus update).
        for report in reports[1:]:
            for update in report.global_updates[1:]:
                assert np.array_equal(update, report.global_updates[0])
        # The degraded plan advertises its lineage.
        assert reports[2].plan_digest != reports[0].plan_digest
        cluster.assert_drained()
        results[engine] = (outputs, injector.counters, cluster.timeline.seconds)
    scalar, batched = results["scalar"], results["batched"]
    for reference, candidate in zip(scalar[0], batched[0]):
        assert np.array_equal(reference, candidate)
    assert scalar[1] == batched[1]
    assert scalar[2] == batched[2]


def test_quorum_loss_stops_the_run():
    plan = FaultPlan(
        seed=0,
        events=(
            WorkerCrash(worker=1, round_idx=1),
            WorkerCrash(worker=2, round_idx=1),
        ),
        quorum=0.75,
    )
    build_kwargs, num_workers, dimension, _ = CASES["ring"]
    cluster = Cluster(get_topology("ring").build(num_workers, **build_kwargs))
    cluster.attach_faults(FaultInjector(plan))
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=0.25, seed=1), num_workers, dimension
    )
    rng = np.random.default_rng(0)
    updates = [rng.standard_normal(dimension) for _ in range(num_workers)]
    sync.synchronize(cluster, updates, 0)
    with pytest.raises(QuorumLostError, match="quorum"):
        sync.synchronize(cluster, updates, 1)


def test_strategy_step_reports_the_recovery():
    strategy = MarsitStrategy(
        local_lr=0.05, global_lr=0.01, num_workers=6, dimension=64
    )
    cluster = Cluster(get_topology("ring").build(6))
    cluster.attach_faults(
        FaultInjector(FaultPlan(events=(WorkerCrash(worker=4, round_idx=1),)))
    )
    rng = np.random.default_rng(2)
    grads = [rng.standard_normal(64) for _ in range(6)]

    def fresh():  # each step consumes its input
        return [grad.copy() for grad in grads]

    assert not strategy.step(cluster, fresh(), 0).recovered
    step = strategy.step(cluster, fresh(), 1)
    assert step.recovered
    assert not strategy.step(cluster, fresh(), 2).recovered


def test_training_tolerates_realistic_loss_rates():
    # ≤5% retry-mode drops cost retransmissions and waits, never accuracy
    # beyond noise: the transport is reliable, so the math is unchanged —
    # only the simulated clock and wire totals move.
    clean = quick_train(strategy="marsit", num_workers=4, rounds=20)
    lossy_plan = FaultPlan(seed=13, events=(MessageDrop(prob=0.05),))
    lossy = quick_train(
        strategy="marsit", num_workers=4, rounds=20, faults=lossy_plan
    )
    assert not lossy.diverged
    assert lossy.rounds_run == clean.rounds_run
    assert abs(lossy.final_accuracy - clean.final_accuracy) <= 0.15
    assert lossy.total_comm_bytes > clean.total_comm_bytes
    assert lossy.total_sim_time_s > clean.total_sim_time_s
    summary = lossy.fault_summary
    assert summary["counters"]["drops"] == summary["counters"]["retries"] > 0


def test_training_survives_a_crash_end_to_end():
    plan = FaultPlan(seed=3, events=(WorkerCrash(worker=2, round_idx=5),))
    result = quick_train(
        strategy="marsit", num_workers=6, rounds=15, faults=plan
    )
    assert not result.diverged
    assert result.rounds_run == 15
    summary = result.fault_summary
    assert summary["dead_workers"] == [2]
    assert summary["active_workers"] == [0, 1, 3, 4, 5]
    assert summary["counters"] == {
        "crashes": 1, "forced_resyncs": 1, "recoveries": 1,
    }
    assert result.final_accuracy > 0.5
