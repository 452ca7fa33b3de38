"""Tests for topology constructors and invariants."""

import pytest

from repro.comm.topology import (
    Topology,
    fully_connected_topology,
    ring_topology,
    star_topology,
    torus_topology,
    tree_topology,
)


class TestRing:
    def test_successor_predecessor(self):
        topo = ring_topology(5)
        assert topo.successor(0) == 1
        assert topo.successor(4) == 0
        assert topo.predecessor(0) == 4

    def test_single_worker_has_no_edges(self):
        topo = ring_topology(1)
        assert topo.num_workers == 1
        assert len(topo.edges) == 0

    def test_bidirectional_adds_reverse_links(self):
        topo = ring_topology(4, bidirectional=True)
        assert topo.has_edge(1, 0) and topo.has_edge(0, 1)

    def test_unidirectional_lacks_reverse(self):
        topo = ring_topology(4)
        assert topo.has_edge(0, 1) and not topo.has_edge(1, 0)

    def test_validate_passes(self):
        ring_topology(3).validate()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ring_topology(0)


class TestTorus:
    def test_shape_and_edges(self):
        topo = torus_topology(2, 3)
        assert topo.num_workers == 6
        # rank 0 = (0,0): row edge to (0,1)=1, col edge to (1,0)=3
        assert topo.has_edge(0, 1)
        assert topo.has_edge(0, 3)

    def test_row_wraparound(self):
        topo = torus_topology(2, 3)
        assert topo.has_edge(2, 0)  # (0,2) -> (0,0)

    def test_column_wraparound(self):
        topo = torus_topology(2, 3)
        assert topo.has_edge(3, 0)  # (1,0) -> (0,0)

    def test_degenerate_1xn(self):
        topo = torus_topology(1, 4)
        topo.validate()
        assert topo.num_workers == 4

    def test_meta_records_shape(self):
        topo = torus_topology(3, 2)
        assert topo.meta == {"rows": 3, "cols": 2}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            torus_topology(0, 3)


class TestStar:
    def test_all_leaves_link_server(self):
        topo = star_topology(4, server=0)
        for rank in (1, 2, 3):
            assert topo.has_edge(rank, 0)
            assert topo.has_edge(0, rank)
        assert not topo.has_edge(1, 2)

    def test_server_rank_recorded(self):
        assert star_topology(3, server=2).meta["server"] == 2

    def test_rejects_out_of_range_server(self):
        with pytest.raises(ValueError):
            star_topology(3, server=5)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            star_topology(1)


class TestTree:
    def test_binary_tree_parents(self):
        topo = tree_topology(7, arity=2)
        assert topo.has_edge(1, 0) and topo.has_edge(2, 0)
        assert topo.has_edge(3, 1) and topo.has_edge(6, 2)

    def test_single_node(self):
        tree_topology(1).validate()

    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            tree_topology(3, arity=0)


class TestFullyConnected:
    def test_complete(self):
        topo = fully_connected_topology(4)
        assert len(topo.edges) == 12

    def test_successor_raises_with_many_neighbors(self):
        with pytest.raises(ValueError):
            fully_connected_topology(3).successor(0)


class TestValidate:
    def test_rejects_noncontiguous_ranks(self):
        # An edge to rank 2 in a two-worker topology: ranks are {0, 1, 2}.
        with pytest.raises(ValueError, match="contiguous"):
            Topology(2, ((0, 2),), "bad").validate()

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="contiguous"):
            Topology(2, ((0, 1), (-1, 0)), "bad").validate()

    def test_rejects_disconnected(self):
        # Two 2-rings that share no link.
        edges = ((0, 1), (1, 0), (2, 3), (3, 2))
        with pytest.raises(ValueError, match="connected"):
            Topology(4, edges, "bad").validate()

    def test_rejects_isolated_rank(self):
        with pytest.raises(ValueError, match="connected"):
            Topology(3, ((0, 1),), "bad").validate()

    def test_weak_connectivity_suffices(self):
        # A directed path is weakly connected: every rank reached ignoring
        # link direction.
        Topology(3, ((0, 1), (2, 1)), "path").validate()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Topology(0, (), "empty").validate()

    def test_duplicate_edges_collapse_in_source_order(self):
        topo = Topology(3, ((1, 2), (0, 1), (1, 0), (0, 1), (2, 0)), "dup")
        assert topo.edges == ((0, 1), (1, 2), (1, 0), (2, 0))
        assert topo.neighbors_out(1) == [0, 2]
        assert topo.neighbors_in(0) == [1, 2]
