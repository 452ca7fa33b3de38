"""The topology registry runs one collective per job.

Every topology with a SyncPlan compiler registers the same mean and the
same sign sum, which read the family from the cluster's topology; only the
star keeps hand-written ones.  The ring-only variants check their topology
themselves.
"""

import numpy as np
import pytest

from repro.allreduce import (
    allreduce_mean,
    cascading_ring_allreduce,
    get_topology,
    one_bit_topology_names,
    segmented_ring_allreduce,
    signsum_allreduce,
)
from repro.comm.cluster import Cluster
from repro.comm.topology import torus_topology
from repro.compression.ssdm import SSDMCompressor


@pytest.mark.parametrize("name", one_bit_topology_names())
def test_compiled_topologies_register_the_generic_collectives(name):
    entry = get_topology(name)
    assert entry.mean_allreduce is allreduce_mean
    assert entry.signsum_allreduce is signsum_allreduce


def test_ring_only_collectives_reject_a_torus(rng):
    cluster = Cluster(torus_topology(2, 2))
    vectors = [rng.standard_normal(8) for _ in range(4)]
    message = "requires a ring topology, got 'torus'"
    with pytest.raises(ValueError, match=message):
        segmented_ring_allreduce(cluster, vectors, segment_elems=4)
    rngs = [np.random.default_rng(i) for i in range(4)]
    with pytest.raises(ValueError, match=message):
        cascading_ring_allreduce(cluster, vectors, SSDMCompressor(), rngs)
    assert cluster.total_messages == 0
