"""FaultInjector determinism, remapping, and accounting unit tests.

The injector's contract is *content keying*: every decision is a pure
function of (plan seed, round, kind, tag, original link, occurrence), never
of call order.  That property is what makes the scalar and lane-stacked
engines — which interleave their fault queries completely differently —
agree bit-for-bit; these tests pin it directly.
"""

import hashlib
import math
import types

import numpy as np
import pytest

from repro.comm.bits import PackedBits
from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LinkJitter,
    LinkPartition,
    MessageDrop,
    Straggler,
    WorkerCrash,
    WorkerCrashedError,
)


def _bound(plan: FaultPlan, num_workers: int = 4) -> FaultInjector:
    cluster = Cluster(ring_topology(num_workers))
    injector = FaultInjector(plan)
    cluster.attach_faults(injector)
    return injector


class TestContentKeying:
    PLAN = FaultPlan(seed=5, events=(MessageDrop(prob=0.5),))

    def _decisions(self, order):
        injector = _bound(self.PLAN)
        injector.begin_round(0)
        injector.begin_step()
        results = {}
        for src, dst in order:
            for occ in range(3):
                results[(src, dst, occ)] = injector.on_message(
                    "rs:0", src, dst, 100
                )
        return results

    def test_decisions_are_independent_of_query_order(self):
        forward = self._decisions([(0, 1), (1, 2), (2, 3)])
        backward = self._decisions([(2, 3), (1, 2), (0, 1)])
        assert forward == backward

    def test_decisions_differ_across_rounds_and_seeds(self):
        def sample(seed, round_idx):
            injector = _bound(FaultPlan(seed=seed, events=(MessageDrop(prob=0.5),)))
            injector.begin_round(round_idx)
            injector.begin_step()
            return [
                injector.on_message("rs:0", 0, 1, 100)[0] for _ in range(64)
            ]

        assert sample(5, 0) == sample(5, 0)
        assert sample(5, 0) != sample(5, 1)
        assert sample(5, 0) != sample(6, 0)

    def test_begin_round_resets_occurrence_counters(self):
        injector = _bound(self.PLAN)
        injector.begin_round(0)
        injector.begin_step()
        first = [injector.on_message("rs:0", 0, 1, 100) for _ in range(8)]
        # Re-entering the *same* round is idempotent: counters keep running.
        injector.begin_round(0)
        cont = injector.on_message("rs:0", 0, 1, 100)
        assert first[0] != cont or len(set(first)) == 1
        # A new round restarts the per-(kind, tag, link) occurrence count,
        # and its draws are keyed by the new round index.
        injector.begin_round(1)
        injector.begin_step()
        second = [injector.on_message("rs:0", 0, 1, 100) for _ in range(8)]
        injector2 = _bound(self.PLAN)
        injector2.begin_round(1)
        injector2.begin_step()
        replay = [injector2.on_message("rs:0", 0, 1, 100) for _ in range(8)]
        assert second == replay


class TestDropsAndPartitions:
    def test_retry_mode_always_delivers_within_budget(self):
        plan = FaultPlan(seed=1, events=(MessageDrop(prob=0.9),), max_attempts=3)
        injector = _bound(plan)
        injector.begin_round(0)
        injector.begin_step()
        for _ in range(200):
            extra, deliver = injector.on_message("t", 0, 1, 50)
            assert deliver
            assert extra % 50 == 0
            assert 0 <= extra <= 3 * 50
        assert injector.counters["drops"] == injector.counters["retries"]
        assert injector.counters["retry_bytes"] == 50 * injector.counters["retries"]

    def test_timeout_mode_loses_terminally(self):
        plan = FaultPlan(seed=1, events=(MessageDrop(prob=1.0, mode="timeout"),))
        injector = _bound(plan)
        injector.begin_round(0)
        injector.begin_step()
        extra, deliver = injector.on_message("t", 0, 1, 50)
        assert (extra, deliver) == (0, False)
        assert injector.counters["timeouts"] == 1

    def test_partition_pays_the_full_retry_budget(self):
        plan = FaultPlan(
            seed=1,
            events=(LinkPartition(src=0, dst=1, last_round=0),),
            max_attempts=4,
        )
        injector = _bound(plan)
        injector.begin_round(0)
        injector.begin_step()
        extra, deliver = injector.on_message("t", 0, 1, 10)
        assert (extra, deliver) == (40, True)
        assert injector.counters["partition_hits"] == 1
        # Reverse direction and other links are untouched.
        assert injector.on_message("t", 1, 0, 10) == (0, True)
        # The window closes: round 1 is clean.
        injector.begin_round(1)
        injector.begin_step()
        assert injector.on_message("t", 0, 1, 10) == (0, True)


class TestTimingFaults:
    def test_straggler_scales_the_slowest_link(self):
        cluster = Cluster(ring_topology(4))
        plan = FaultPlan(seed=0, events=(Straggler(worker=2, factor=3.0),))
        injector = FaultInjector(plan)
        cluster.attach_faults(injector)
        injector.begin_round(0)
        injector.begin_step()
        base = cluster._link_transfer_time((0, 1), 1000)
        # A step over a clean link is unchanged; one touching worker 2 pays 3x.
        assert injector.finish_step("t", {(0, 1): 1000}) == pytest.approx(base)
        assert injector.finish_step("t", {(1, 2): 1000}) == pytest.approx(3 * base)

    def test_jitter_is_reproducible_and_multiplicative(self):
        def makespan(seed):
            cluster = Cluster(ring_topology(4))
            injector = FaultInjector(
                FaultPlan(seed=seed, events=(LinkJitter(sigma=0.5),))
            )
            cluster.attach_faults(injector)
            injector.begin_round(0)
            injector.begin_step()
            return [injector.finish_step("t", {(0, 1): 1000}) for _ in range(5)]

        base = Cluster(ring_topology(4))._link_transfer_time((0, 1), 1000)
        first = makespan(3)
        assert first == makespan(3)
        assert first != makespan(4)
        assert all(m > 0 for m in first)
        # Successive steps draw fresh noise (occurrence-keyed).
        assert len(set(first)) > 1
        assert all(m != pytest.approx(base) for m in first)


class TestBitFlips:
    PLAN = FaultPlan(seed=9, events=(BitFlip(prob=0.2, links=((1, 2),)),))

    def test_masks_only_on_matching_links(self):
        injector = _bound(self.PLAN)
        injector.begin_round(0)
        assert injector.flips_active
        assert injector.flip_mask("t", 0, 1, 256) is None
        mask = injector.flip_mask("t", 1, 2, 256)
        assert mask is not None and len(mask) == 256
        assert injector.counters["flipped_bits"] == mask.popcount()
        assert injector.counters["flipped_messages"] == 1

    def test_masks_are_content_keyed(self):
        a = _bound(self.PLAN)
        a.begin_round(0)
        b = _bound(self.PLAN)
        b.begin_round(0)
        # Interleave queries differently; same coordinates, same masks.
        masks_a = [a.flip_mask("t", 1, 2, 64) for _ in range(3)]
        b.flip_mask("other-tag", 1, 2, 64)
        masks_b = [b.flip_mask("t", 1, 2, 64) for _ in range(3)]
        for left, right in zip(masks_a, masks_b):
            assert (left is None) == (right is None)
            if left is not None:
                assert left.equals(right)


class TestCrashesAndRemapping:
    def test_traffic_to_a_crashed_worker_raises(self):
        plan = FaultPlan(seed=0, events=(WorkerCrash(worker=2, round_idx=1),))
        injector = _bound(plan)
        injector.begin_round(0)
        injector.begin_step()
        assert injector.on_message("t", 1, 2, 10) == (0, True)
        injector.begin_round(1)
        injector.begin_step()
        assert injector.take_new_crashes() == (2,)
        assert injector.take_new_crashes() == ()
        assert injector.dead_workers == frozenset({2})
        with pytest.raises(WorkerCrashedError):
            injector.on_message("t", 1, 2, 10)
        with pytest.raises(WorkerCrashedError):
            injector.on_message("t", 2, 3, 10)

    def test_faults_follow_original_ranks_after_rerank(self):
        # Straggle original worker 3; after worker 1 dies and survivors
        # [0, 2, 3] re-rank, original 3 is current rank 2 — its links must
        # still be slow, and original-rank keying must survive the remap.
        plan = FaultPlan(
            seed=0,
            events=(
                Straggler(worker=3, factor=2.0),
                WorkerCrash(worker=1, round_idx=0),
            ),
        )
        cluster = Cluster(ring_topology(4))
        injector = FaultInjector(plan)
        cluster.attach_faults(injector)
        injector.begin_round(0)
        assert injector.take_new_crashes() == (1,)
        cluster.reconfigure(ring_topology(3))
        injector.set_active([0, 2, 3])
        assert injector.dead_workers == frozenset({1})
        # The ring is directed (successor edges): current rank 2 touches
        # exactly (1, 2) and (2, 0).
        slow_links = set(injector._slow)
        assert slow_links == {(1, 2), (2, 0)}
        summary = injector.summary()
        assert summary["dead_workers"] == [1]
        assert summary["active_workers"] == [0, 2, 3]


class FreshGeneratorInjector(FaultInjector):
    """Frozen reference: one freshly built Philox generator per decision.

    A verbatim copy of the earlier ``_keyed_rng`` and float-compare
    ``flip_mask``; the production injector re-keys one generator and
    thresholds raw words instead, and must agree with this bit for bit.
    """

    def _keyed_rng(self, kind, tag, origin, occ):
        token = repr((self.plan.seed, self._round, kind, tag, origin, occ))
        digest = hashlib.blake2b(token.encode("ascii"), digest_size=16).digest()
        key = np.frombuffer(digest, dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def flip_mask(self, tag, src, dst, length):
        prob = self._flip.get((src, dst))
        if prob is None or length == 0:
            return None
        origin = (self._physical[src], self._physical[dst])
        occ = self._next_occurrence(("flip", tag, origin))
        rng = self._keyed_rng("flip", tag, origin, occ)
        bits = rng.random(length) < prob
        flipped = int(bits.sum())
        if not flipped:
            return None
        self._count("flipped_messages")
        self._count("flipped_bits", flipped)
        return PackedBits.from_bits(bits)


def _decision_trace(injector_cls, plan, flip_prob=None, rounds=3):
    """Interleave drop, jitter and flip decisions within every step.

    ``flip_prob`` overrides every link's per-round flip probability, to
    reach values (such as 1.0) that a :class:`BitFlip` event cannot.
    """
    cluster = Cluster(ring_topology(6))
    injector = injector_cls(plan)
    cluster.attach_faults(injector)
    links = sorted(cluster.links)
    trace = []
    for round_idx in range(rounds):
        injector.begin_round(round_idx)
        if flip_prob is not None:
            injector._flip = dict.fromkeys(links, flip_prob)
        for step in range(3):
            tag = f"rs:{step}"
            injector.begin_step()
            step_bytes = {}
            for src, dst in links:
                for _ in range(2):
                    trace.append(injector.on_message(tag, src, dst, 64))
                    mask = injector.flip_mask(tag, src, dst, 257 + step)
                    trace.append(None if mask is None else mask.to_bits().tobytes())
                step_bytes[(src, dst)] = 128
                if src % 2:
                    trace.append(injector.finish_step(tag, {(src, dst): 128}))
            trace.append(injector.finish_step(tag, step_bytes))
    return trace, injector.counters


class TestFrozenReference:
    """The re-keyed generator reproduces the fresh-generator decisions."""

    PLANS = {
        "retry-drops": FaultPlan(
            seed=3, events=(MessageDrop(prob=0.6),), max_attempts=5
        ),
        "timeout-drops": FaultPlan(
            seed=4,
            events=(
                MessageDrop(prob=0.3),
                MessageDrop(prob=0.5, mode="timeout", links=((1, 2), (4, 5))),
            ),
        ),
        "jitter-straggler-partition": FaultPlan(
            seed=5,
            events=(
                LinkJitter(sigma=0.4),
                LinkJitter(sigma=0.1, links=((0, 1),)),
                Straggler(worker=3, factor=2.5),
                LinkPartition(src=2, dst=3, first_round=1, last_round=1),
            ),
        ),
        "everything": FaultPlan(
            seed=6,
            events=(
                LinkJitter(sigma=0.25),
                Straggler(worker=1, factor=1.5),
                MessageDrop(prob=0.2),
                MessageDrop(prob=0.4, mode="timeout", links=((5, 0),)),
                BitFlip(prob=0.05),
                LinkPartition(src=3, dst=4, last_round=0),
            ),
            max_attempts=3,
        ),
    }

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_decisions_match_fresh_generators(self, plan_name):
        plan = self.PLANS[plan_name]
        reference, ref_counters = _decision_trace(FreshGeneratorInjector, plan)
        candidate, counters = _decision_trace(FaultInjector, plan)
        assert candidate == reference
        assert counters == ref_counters

    @pytest.mark.parametrize("flip_prob", [1.0, 0.5, 1 / 3, 1e-3])
    def test_flip_masks_match_float_compare(self, flip_prob):
        plan = FaultPlan(
            seed=8, events=(MessageDrop(prob=0.3), LinkJitter(sigma=0.2))
        )
        reference, ref_counters = _decision_trace(
            FreshGeneratorInjector, plan, flip_prob
        )
        candidate, counters = _decision_trace(FaultInjector, plan, flip_prob)
        assert candidate == reference
        assert counters == ref_counters
        if flip_prob == 1.0:
            # every bit of every mask: 2 masks x 6 links x (257+258+259) x 3
            assert counters["flipped_bits"] == 2 * 6 * 774 * 3

    def test_overlapping_flip_events_match_float_compare(self):
        # Two events on links (2, 3) and (3, 4) combine to 1 - (1-p1)(1-p2).
        plan = FaultPlan(
            seed=9,
            events=(
                BitFlip(prob=0.1),
                BitFlip(prob=1 / 7, links=((2, 3), (3, 4))),
                MessageDrop(prob=0.3),
            ),
        )
        injector = _bound(plan, 6)
        injector.begin_round(0)
        assert injector._flip[(2, 3)] == 1.0 - (1.0 - 0.1) * (1.0 - 1 / 7)
        reference, ref_counters = _decision_trace(FreshGeneratorInjector, plan)
        candidate, counters = _decision_trace(FaultInjector, plan)
        assert candidate == reference
        assert counters == ref_counters

    @pytest.mark.parametrize("prob", [1.0, 0.5, 1 / 3, 1e-3, 2.0**-53])
    def test_flip_threshold_is_exact_at_the_boundary(self, prob):
        # Raw words whose top 53 bits sit at the integer threshold, where a
        # floor-for-ceil slip would show (no keyed stream hits them).
        threshold = math.ceil(prob * 2.0**53)
        tops = np.clip(
            [0, threshold - 1, threshold, threshold + 1, 2**53 - 1], 0, 2**53 - 1
        ).astype(np.uint64) << np.uint64(11)
        words = np.concatenate([tops, tops | np.uint64(2**11 - 1)])
        raw = types.SimpleNamespace(random_raw=lambda n: words[:n].copy())
        injector = _bound(FaultPlan(seed=1, events=(BitFlip(prob=0.5),)))
        injector.begin_round(0)
        injector._flip[(0, 1)] = prob
        injector._keyed_rng = lambda *coords: types.SimpleNamespace(
            bit_generator=raw
        )
        mask = injector.flip_mask("t", 0, 1, len(words))
        got = np.zeros(len(words), bool) if mask is None else mask.to_bits() == 1
        # Generator.random() is (word >> 11) * 2**-53.
        expected = (words >> np.uint64(11)) * (1.0 / 2.0**53) < prob
        assert np.array_equal(got, expected)

    def test_injectors_do_not_share_a_generator(self):
        plan = self.PLANS["everything"]
        a, b = _bound(plan, 6), _bound(plan, 6)
        assert a._rng is not b._rng
        assert a._rng.bit_generator is not b._rng.bit_generator
        # Hold a's generator across one of b's decisions: a shared
        # generator would be re-keyed underneath it.
        a.begin_round(0)
        b.begin_round(0)
        held = a._keyed_rng("jitter", "x", (0, 1), 0)
        first = held.standard_normal()
        assert b.flip_mask("x", 0, 1, 4096) is not None
        second = held.standard_normal()
        fresh = FreshGeneratorInjector(plan)._keyed_rng("jitter", "x", (0, 1), 0)
        assert [first, second] == [fresh.standard_normal(), fresh.standard_normal()]
