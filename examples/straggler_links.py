"""Straggler study: one slow worker under ring vs torus vs PS.

A synchronous step is only as fast as its slowest link, so a worker whose
links run ten times slower stalls every step it takes part in.  This
example times one PSGD round under each topology with a
:class:`~repro.faults.plan.Straggler` on worker 1.  In a ring or a 2D torus
every worker sends in every step, and in a PS star the worker uploads to
the server and receives its broadcast, so no topology routes around a slow
worker: with bandwidth-bound steps, each round runs about ten times
slower.

Usage::

    python examples/straggler_links.py
"""

import numpy as np

from repro.allreduce import allreduce_mean
from repro.allreduce.ps import ps_allreduce
from repro.bench import format_table
from repro.comm.cluster import Cluster
from repro.comm.timing import CostModel
from repro.comm.topology import ring_topology, star_topology, torus_topology
from repro.faults import FaultInjector, FaultPlan, Straggler

M = 8
DIMENSION = 200_000
SLOW_WORKER = 1
SLOWDOWN = 10.0
TOPOLOGIES = {
    "ring": lambda: ring_topology(M),
    "torus": lambda: torus_topology(2, 4),
    "star": lambda: star_topology(M, server=0),
}


def _one_round(topology_name, straggler):
    model = CostModel(latency_s=5e-6, bandwidth_Bps=1.25e8)
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(DIMENSION) for _ in range(M)]
    cluster = Cluster(TOPOLOGIES[topology_name](), cost_model=model)
    if straggler:
        slow = Straggler(worker=SLOW_WORKER, factor=SLOWDOWN)
        injector = FaultInjector(FaultPlan(events=(slow,)))
        cluster.attach_faults(injector)
        injector.begin_round(0)
    if topology_name == "star":
        ps_allreduce(
            cluster,
            [np.asarray(v, dtype=np.float32) for v in vectors],
            aggregate=lambda xs: np.mean(xs, axis=0),
            concurrent_uploads=True,
        )
    else:
        allreduce_mean(cluster, vectors)
    return 1e3 * cluster.timeline.total


def main() -> None:
    rows = []
    for topology in TOPOLOGIES:
        for straggler, label in (
            (False, "healthy"),
            (True, f"worker {SLOW_WORKER} {SLOWDOWN:g}x slower"),
        ):
            elapsed = _one_round(topology, straggler)
            rows.append([topology, label, f"{elapsed:.3f}"])
    print(format_table(["topology", "condition", "one round (ms)"], rows))
    print(
        "\nThe ring pays the slow worker on every one of its 2(M-1) steps, "
        "the torus on every one of its 2(rows + cols - 2) steps, and the PS "
        "star on its upload and on the broadcast."
    )


if __name__ == "__main__":
    main()
