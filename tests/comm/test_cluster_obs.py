"""Cluster observability wiring plus the accounting regression fixes."""

import typing

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.comm.topology import ring_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LinkJitter,
    MessageDrop,
    WorkerCrash,
)
from repro.obs import Observability
from repro.obs.export import jsonl_lines
from repro.obs.tracer import NULL_OBS


class TestResetAccountingRegression:
    def test_reset_raises_inside_open_step(self):
        cluster = Cluster(ring_topology(3))
        cluster.begin_step()
        cluster.send(0, 1, b"xy", tag="t")
        with pytest.raises(RuntimeError, match="open step"):
            cluster.reset_accounting()
        # The step is still usable after the refused reset.
        assert cluster.end_step() > 0.0

    def test_reset_clears_step_state(self):
        cluster = Cluster(ring_topology(3))
        cluster.begin_step()
        cluster.send(0, 1, b"xy", tag="t")
        cluster.end_step()
        cluster.recv(1, 0, tag="t")
        # end_step leaves the last step's byte map behind; reset must not.
        assert cluster._step_bytes
        cluster.reset_accounting()
        assert cluster._step_bytes == {}
        assert cluster._step_messages == 0
        assert cluster.total_bytes == 0
        assert cluster.timeline.total == 0.0

    def test_reset_then_fresh_step_accounts_only_new_traffic(self):
        cluster = Cluster(ring_topology(3))
        cluster.begin_step()
        cluster.send(0, 1, b"before", tag="a")
        cluster.end_step()
        cluster.recv(1, 0, tag="a")
        cluster.reset_accounting()
        cluster.begin_step()
        cluster.send(1, 2, b"xy", tag="b")
        elapsed = cluster.end_step()
        cluster.recv(2, 1, tag="b")
        model = cluster.cost_model
        assert elapsed == model.latency_s + 2 / model.bandwidth_Bps


class TestExchangeAnnotationRegression:
    def test_get_type_hints_resolves(self):
        # "Sequence[...]" used to be an unresolvable string annotation.
        hints = typing.get_type_hints(Cluster.exchange)
        assert "transfers" in hints
        assert hints["return"] is float


class TestObservabilityAttachment:
    def test_default_is_shared_null_bundle(self):
        cluster = Cluster(ring_topology(2))
        assert cluster.obs is NULL_OBS
        assert cluster._obs_on is False

    def test_constructor_and_setter_attach(self):
        obs = Observability.tracing()
        cluster = Cluster(ring_topology(2), obs=obs)
        assert cluster.obs is obs and cluster._obs_on is True
        cluster.attach_observability(Observability.disabled())
        assert cluster._obs_on is False

    def test_charge_feeds_tracer(self):
        obs = Observability.tracing()
        cluster = Cluster(ring_topology(2), obs=obs)
        cluster.charge(Phase.COMPUTATION, 0.5)
        assert obs.tracer.now == 0.5
        assert obs.tracer.unattributed == {"computation": 0.5}

    def test_step_records_hop_span_and_wire_metrics(self):
        obs = Observability.tracing()
        cluster = Cluster(ring_topology(3), obs=obs)
        cluster.begin_step()
        cluster.send(0, 1, b"abcd", tag="t")
        cluster.send(1, 2, b"ab", tag="t")
        elapsed = cluster.end_step(tag="step:0")
        cluster.recv(1, 0, tag="t")
        cluster.recv(2, 1, tag="t")
        (hop,) = obs.tracer.spans
        assert hop.name == "hop"
        assert hop.args == {
            "tag": "step:0", "bytes": 6, "messages": 2, "links": 2,
        }
        assert hop.duration_s == elapsed
        metrics = obs.metrics
        assert metrics.get("wire.link_bytes", link="0->1").value == 4
        assert metrics.get("wire.link_bytes", link="1->2").value == 2
        assert metrics.get("wire.steps").value == 1
        assert metrics.get("wire.step_messages").value == 2
        assert metrics.get("wire.step_makespan_s").count == 1
        # Mailbox depth was sampled before the recvs drained it.
        assert metrics.get("cluster.mailbox_depth").value == 2

    def test_exchange_records_identical_metrics_as_stepped_path(self):
        def run(use_exchange: bool):
            obs = Observability.tracing()
            cluster = Cluster(ring_topology(3), obs=obs)
            if use_exchange:
                cluster.exchange([(0, 1, 4), (1, 2, 2)], tag="step:0")
            else:
                cluster.begin_step()
                cluster.send(0, 1, b"abcd", tag="t")
                cluster.send(1, 2, b"ab", tag="t")
                cluster.end_step(tag="step:0")
                cluster.recv(1, 0, tag="t")
                cluster.recv(2, 1, tag="t")
            snap = obs.metrics.snapshot()
            return {k: v for k, v in snap.items() if k.startswith("wire.")}

        assert run(True) == run(False)

    def test_empty_step_records_nothing(self):
        obs = Observability.tracing()
        cluster = Cluster(ring_topology(2), obs=obs)
        cluster.begin_step()
        assert cluster.end_step() == 0.0
        assert cluster.exchange([]) == 0.0
        assert obs.tracer.spans == []


class UncachedCluster(Cluster):
    """Frozen reference: resolves every wire-metric handle on every step."""

    def _record_step_obs(self, tag, step_bytes, messages, elapsed):
        obs = self.obs
        total = sum(step_bytes.values())
        obs.tracer.record_step(
            "hop",
            Phase.COMMUNICATION,
            elapsed,
            tag=tag,
            bytes=total,
            messages=messages,
            links=len(step_bytes),
        )
        metrics = obs.metrics
        if metrics is None:
            return
        for (src, dst), nbytes in step_bytes.items():
            metrics.counter("wire.link_bytes", link=f"{src}->{dst}").inc(nbytes)
        metrics.counter("wire.step_bytes").inc(total)
        metrics.counter("wire.step_messages").inc(messages)
        metrics.counter("wire.steps").inc()
        metrics.histogram("wire.step_makespan_s").observe(elapsed)
        metrics.gauge("cluster.mailbox_depth").set(
            sum(worker.pending() for worker in self.workers)
        )


class UncachedInjector(FaultInjector):
    """Frozen reference: resolves each ``faults.*`` counter per increment."""

    def _count(self, name, value=1, metric=True):
        self.counters[name] = self.counters.get(name, 0) + value
        if metric and self._cluster is not None and self._cluster._obs_on:
            registry = self._cluster.obs.metrics
            if registry is not None:
                registry.counter(f"faults.{name}").inc(value)


class TestCachedWireHandles:
    """Cached metric handles leave every snapshot and export unchanged."""

    PLAN = FaultPlan(
        seed=3,
        events=(
            LinkJitter(sigma=0.2),
            MessageDrop(prob=0.1),
            BitFlip(prob=0.01),
            WorkerCrash(worker=2, round_idx=4),
        ),
    )

    def _episode(self, cluster_cls, injector_cls, engine):
        """Five rounds; a fresh bundle at round 3, a crash at round 4."""
        bundles = [Observability.tracing()]
        cluster = cluster_cls(ring_topology(6), obs=bundles[0])
        cluster.attach_faults(injector_cls(self.PLAN))
        sync = MarsitSynchronizer(
            MarsitConfig(
                global_lr=0.25, seed=1, engine=engine, full_precision_every=3
            ),
            6,
            101,
        )
        rng = np.random.default_rng(0)
        for round_idx in range(1, 6):
            if round_idx in (3, 5):
                bundles.append(Observability.tracing())
                cluster.attach_observability(bundles[-1])
            updates = [rng.standard_normal(101) for _ in range(6)]
            sync.synchronize(cluster, updates, round_idx)
        assert cluster.num_workers == 5, "the crash never re-ranked the ring"
        return [
            (bundle.metrics.snapshot(), jsonl_lines(bundle.tracer, bundle.metrics))
            for bundle in bundles
        ]

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_snapshots_and_exports_match_uncached_reference(self, engine):
        cached = self._episode(Cluster, FaultInjector, engine)
        reference = self._episode(UncachedCluster, UncachedInjector, engine)
        assert len(cached) == 3
        for (snap, lines), (ref_snap, ref_lines) in zip(cached, reference):
            assert list(snap) == list(ref_snap)
            assert snap == ref_snap
            assert lines == ref_lines
        # The post-crash bundle saw only the re-ranked 5-ring's links.
        post_crash = cached[-1][0]
        links = {name for name in post_crash if name.startswith("wire.link")}
        assert links == {f"wire.link_bytes{{link={i}->{(i + 1) % 5}}}" for i in range(5)}

    def test_swapped_registry_gets_fresh_handles(self):
        first, second = Observability.tracing(), Observability.tracing()
        cluster = Cluster(ring_topology(3), obs=first)
        cluster.exchange([(0, 1, 4)], tag="a")
        cluster.attach_observability(second)
        cluster.exchange([(0, 1, 2)], tag="b")
        assert first.metrics.get("wire.link_bytes", link="0->1").value == 4
        assert second.metrics.get("wire.link_bytes", link="0->1").value == 2
        assert first.metrics.get("wire.steps").value == 1
        assert second.metrics.get("wire.steps").value == 1

    def test_idle_link_has_no_counter(self):
        obs = Observability.tracing()
        cluster = Cluster(ring_topology(4), obs=obs)
        for _ in range(3):
            cluster.exchange([(0, 1, 8), (2, 3, 8)], tag="t")
        names = [name for name in obs.metrics.snapshot() if "link_bytes" in name]
        assert names == [
            "wire.link_bytes{link=0->1}", "wire.link_bytes{link=2->3}",
        ]
        assert obs.metrics.get("wire.link_bytes", link="1->2") is None
