"""Bulk :meth:`Cluster.exchange` accounting and bounded worker mailboxes.

``exchange`` must be indistinguishable from the per-message
``begin_step`` / ``send`` / ``recv`` / ``end_step`` path in every counter it
touches: per-link bytes and messages, cluster totals, and the step makespan
charged to the timeline.  ``Worker.take`` must keep the mailbox dict bounded
by in-flight messages even under per-step tags that never repeat.
"""

import numpy as np
import pytest

from repro.comm.cluster import Cluster, SizedPayload, Worker
from repro.comm.timing import Phase
from repro.comm.topology import ring_topology
from repro.faults import FaultInjector, FaultPlan, Straggler


def ring_step_transfers(size: int, nbytes: int) -> list[tuple[int, int, int]]:
    return [(src, (src + 1) % size, nbytes) for src in range(size)]


class TestExchangeAccounting:
    def test_matches_per_message_step_exactly(self):
        reference = Cluster(ring_topology(5))
        payloads = {src: np.arange(src + 1, dtype=np.float64) for src in range(5)}
        reference.begin_step()
        for src, payload in payloads.items():
            reference.send(src, (src + 1) % 5, payload, tag="s")
        expected_elapsed = reference.end_step()
        for src in range(5):
            reference.recv((src + 1) % 5, src, tag="s")

        bulk = Cluster(ring_topology(5))
        elapsed = bulk.exchange(
            [(src, (src + 1) % 5, payload) for src, payload in payloads.items()],
            tag="s",
        )

        assert elapsed == expected_elapsed
        assert bulk.total_bytes == reference.total_bytes
        assert bulk.total_messages == reference.total_messages
        for key, link in reference.links.items():
            assert bulk.links[key].bytes_sent == link.bytes_sent
            assert bulk.links[key].messages_sent == link.messages_sent
        assert bulk.timeline.seconds == reference.timeline.seconds

    def test_int_payload_is_precomputed_wire_size(self):
        cluster = Cluster(ring_topology(4))
        cluster.exchange(ring_step_transfers(4, 13))
        assert cluster.total_bytes == 4 * 13
        assert cluster.total_messages == 4
        assert all(link.bytes_sent == 13 for link in cluster.links.values())

    def test_non_int_payloads_are_sized(self):
        cluster = Cluster(ring_topology(3))
        cluster.exchange(
            [
                (0, 1, np.zeros(4, dtype=np.float64)),
                (1, 2, SizedPayload(value="irrelevant", nbytes=5)),
                (2, 0, None),
            ]
        )
        assert cluster.links[(0, 1)].bytes_sent == 32
        assert cluster.links[(1, 2)].bytes_sent == 5
        assert cluster.links[(2, 0)].bytes_sent == 0
        assert cluster.total_bytes == 37

    def test_makespan_is_slowest_link(self):
        cluster = Cluster(ring_topology(3))
        injector = FaultInjector(
            FaultPlan(events=(Straggler(worker=2, factor=2.0),))
        )
        cluster.attach_faults(injector)
        injector.begin_round(0)
        elapsed = cluster.exchange(ring_step_transfers(3, 1000))
        # Links 1->2 and 2->0 touch the straggler; the step waits for them.
        assert elapsed == 2.0 * cluster._link_transfer_time((2, 0), 1000)
        assert cluster.timeline.seconds[Phase.COMMUNICATION] == elapsed

    def test_empty_exchange_is_free(self):
        cluster = Cluster(ring_topology(3))
        assert cluster.exchange([]) == 0.0
        assert cluster.total_messages == 0
        assert cluster.timeline.total == 0.0

    def test_mailboxes_untouched(self):
        cluster = Cluster(ring_topology(3))
        cluster.exchange(ring_step_transfers(3, 8))
        assert all(worker.pending() == 0 for worker in cluster.workers)
        cluster.assert_drained()

    def test_rejects_off_topology_and_negative_and_open_step(self):
        cluster = Cluster(ring_topology(4))
        with pytest.raises(ValueError, match="no link"):
            cluster.exchange([(0, 2, 1)])
        with pytest.raises(ValueError, match="non-negative"):
            cluster.exchange([(0, 1, -1)])
        cluster.begin_step()
        with pytest.raises(RuntimeError, match="inside an open step"):
            cluster.exchange([(0, 1, 1)])


class TestMailboxBounded:
    def test_take_prunes_drained_queues(self):
        cluster = Cluster(ring_topology(2))
        for step in range(100):
            cluster.send(0, 1, step, tag=f"step:{step}")
            assert cluster.recv(1, 0, tag=f"step:{step}") == step
        # Per-step tags never repeat; without pruning this dict holds one
        # dead entry per step forever.
        assert len(cluster.workers[1].mailbox) == 0

    def test_mailbox_bounded_by_in_flight_messages(self):
        cluster = Cluster(ring_topology(2))
        for step in range(50):
            cluster.send(0, 1, step, tag=f"a:{step}")
            cluster.send(0, 1, step, tag=f"b:{step}")
            cluster.recv(1, 0, tag=f"a:{step}")
        assert len(cluster.workers[1].mailbox) == 50
        assert cluster.workers[1].pending() == 50

    def test_fifo_order_preserved_within_key(self):
        worker = Worker(rank=0)
        cluster = Cluster(ring_topology(2))
        for value in (1, 2, 3):
            cluster.send(0, 1, value, tag="t")
        assert [cluster.recv(1, 0, tag="t") for _ in range(3)] == [1, 2, 3]
        assert len(cluster.workers[1].mailbox) == 0
        assert worker.pending() == 0

    def test_miss_does_not_insert_queue(self):
        worker = Worker(rank=3)
        with pytest.raises(LookupError, match="no pending message"):
            worker.take(0, tag="ghost")
        assert len(worker.mailbox) == 0
