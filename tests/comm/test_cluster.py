"""Tests for the simulated cluster: messaging, accounting, stepping."""

import numpy as np
import pytest

from repro.comm.bits import PackedBits
from repro.comm.cluster import Cluster, SizedPayload, payload_nbytes
from repro.comm.timing import CostModel, Phase
from repro.comm.topology import ring_topology


@pytest.fixture
def cluster():
    return Cluster(ring_topology(3))


class TestPayloadNbytes:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_packed_bits(self):
        assert payload_nbytes(PackedBits.from_bits(np.zeros(9, dtype=np.uint8))) == 2

    def test_scalar(self):
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(7) == 8

    def test_containers(self):
        assert payload_nbytes([np.zeros(2, dtype=np.float64), 1.0]) == 24
        assert payload_nbytes({"a": 1.0, "b": 2.0}) == 16

    def test_sized_payload(self):
        sized = SizedPayload(value=np.zeros(100, dtype=np.int64), nbytes=13)
        assert payload_nbytes(sized) == 13

    def test_sized_payload_rejects_negative(self):
        with pytest.raises(ValueError):
            SizedPayload(value=None, nbytes=-1)

    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_compression_payload_duck_typing(self):
        from repro.compression.base import ScaledSignPayload

        signs = PackedBits.from_signs(np.ones(40))
        payload = ScaledSignPayload(bits=signs, scale=1.0)
        assert payload_nbytes(payload) == 5 + 4  # sign bits + one fp32 scale

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestMessaging:
    def test_send_recv_roundtrip(self, cluster):
        cluster.send(0, 1, np.arange(3.0))
        received = cluster.recv(1, 0)
        assert np.array_equal(received, [0.0, 1.0, 2.0])

    def test_fifo_per_src_tag(self, cluster):
        cluster.send(0, 1, "first" if False else 1.0)
        cluster.send(0, 1, 2.0)
        assert cluster.recv(1, 0) == 1.0
        assert cluster.recv(1, 0) == 2.0

    def test_tags_isolate_queues(self, cluster):
        cluster.send(0, 1, 1.0, tag="a")
        cluster.send(0, 1, 2.0, tag="b")
        assert cluster.recv(1, 0, tag="b") == 2.0
        assert cluster.recv(1, 0, tag="a") == 1.0

    def test_off_topology_send_raises(self, cluster):
        with pytest.raises(ValueError):
            cluster.send(0, 2, 1.0)  # ring 3: 0 -> 2 is not an edge

    def test_missing_recv_raises_in_strict_mode(self, cluster):
        with pytest.raises(LookupError):
            cluster.recv(1, 0)

    def test_lenient_mode_returns_none(self):
        cluster = Cluster(ring_topology(3), strict=False)
        assert cluster.recv(1, 0) is None

    def test_assert_drained(self, cluster):
        cluster.send(0, 1, 1.0)
        with pytest.raises(AssertionError):
            cluster.assert_drained()
        cluster.recv(1, 0)
        cluster.assert_drained()


class TestAccounting:
    def test_total_bytes_and_messages(self, cluster):
        cluster.send(0, 1, np.zeros(4, dtype=np.float32))
        cluster.send(1, 2, np.zeros(2, dtype=np.float64))
        assert cluster.total_bytes == 32
        assert cluster.total_messages == 2

    def test_per_link_accounting(self, cluster):
        cluster.send(0, 1, np.zeros(4, dtype=np.float32))
        assert cluster.links[(0, 1)].bytes_sent == 16
        assert cluster.links[(0, 1)].messages_sent == 1
        assert cluster.links[(1, 2)].bytes_sent == 0

    def test_reset_accounting_keeps_mailboxes(self, cluster):
        cluster.send(0, 1, 1.0)
        cluster.reset_accounting()
        assert cluster.total_bytes == 0
        assert cluster.recv(1, 0) == 1.0  # message survived the reset


class TestStepping:
    def test_step_time_is_makespan(self):
        model = CostModel(latency_s=1e-3, bandwidth_Bps=1e3)
        cluster = Cluster(ring_topology(3), cost_model=model)
        cluster.begin_step()
        cluster.send(0, 1, np.zeros(100, dtype=np.uint8))  # 100 B
        cluster.send(1, 2, np.zeros(300, dtype=np.uint8))  # 300 B <- slowest
        elapsed = cluster.end_step()
        assert elapsed == pytest.approx(1e-3 + 0.3)
        assert cluster.timeline.seconds[Phase.COMMUNICATION] == pytest.approx(elapsed)
        cluster.recv(1, 0)
        cluster.recv(2, 1)

    def test_empty_step_is_free(self, cluster):
        cluster.begin_step()
        assert cluster.end_step() == 0.0

    def test_nested_step_raises(self, cluster):
        cluster.begin_step()
        with pytest.raises(RuntimeError):
            cluster.begin_step()

    def test_end_without_begin_raises(self, cluster):
        with pytest.raises(RuntimeError):
            cluster.end_step()

    def test_charge_other_phases(self, cluster):
        cluster.charge(Phase.COMPUTATION, 0.5)
        cluster.charge(Phase.COMPRESSION, 0.25)
        assert cluster.timeline.seconds[Phase.COMPUTATION] == 0.5
        assert cluster.timeline.seconds[Phase.COMPRESSION] == 0.25
        assert cluster.timeline.total == 0.75
