"""Figure 1a: one iteration's time under each synchronization approach.

The paper (MNIST/AlexNet, M = 3) compares the length of one training
iteration under: non-compressed PS, non-compressed RAR, SSDM under PS, SSDM
under MAR (bit-length expansion), and cascading compression.  We add Marsit
(the paper's Figure 5 shows its bars).  Expected shape:

- RAR beats PS without compression (2(M-1)D vs 2MD on a congested server);
- SSDM-under-MAR spends *longer* in transmission than SSDM-under-PS because
  partial sign sums widen every hop (Section 3.1);
- cascading pays a large serialized compression period (Section 3.2.1);
- Marsit's communication is the smallest and its compression overhead minor.

The bench runs each scheme's collective once on an AlexNet-scaled gradient
through the simulated cluster and reports the alpha-beta model's per-phase
times.  Absolute values are model constants; the ordering is the result.
"""

import numpy as np

from repro.allreduce import allreduce_mean, signsum_allreduce
from repro.allreduce.cascading import cascading_ring_allreduce
from repro.allreduce.ps import ps_allreduce
from repro.bench import format_table, save_report
from repro.comm.cluster import Cluster, SizedPayload
from repro.comm.timing import Phase
from repro.comm.topology import ring_topology, star_topology
from repro.compression.ssdm import SSDMCompressor
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from benchmarks.conftest import run_once

M = 3
DIMENSION = 1_000_000  # AlexNet-scale gradient (paper: 23M; scaled down)
FLOPS_PER_ITERATION = 2e9  # forward+backward at the bench batch size


def _phase_times(cluster):
    seconds = cluster.timeline.seconds
    return {
        "computation": seconds[Phase.COMPUTATION],
        "compression": seconds[Phase.COMPRESSION],
        "communication": seconds[Phase.COMMUNICATION],
    }


def _charge_computation(cluster):
    cluster.charge(
        Phase.COMPUTATION, cluster.cost_model.compute_time(FLOPS_PER_ITERATION)
    )


def _fp32_ps(vectors):
    cluster = Cluster(star_topology(M + 1, server=0))
    _charge_computation(cluster)
    payloads = [np.zeros(0, dtype=np.float32)] + [
        np.asarray(v, dtype=np.float32) for v in vectors
    ]
    ps_allreduce(
        cluster, payloads,
        aggregate=lambda xs: np.mean([x for x in xs if x.size], axis=0),
        concurrent_uploads=True,
    )
    return cluster


def _fp32_rar(vectors):
    cluster = Cluster(ring_topology(M))
    _charge_computation(cluster)
    allreduce_mean(cluster, vectors)
    return cluster


def _ssdm_ps(vectors, rng):
    cluster = Cluster(star_topology(M + 1, server=0))
    _charge_computation(cluster)
    compressor = SSDMCompressor()
    cluster.charge(
        Phase.COMPRESSION, cluster.cost_model.compress_time(DIMENSION)
    )
    payloads = [SizedPayload(value=None, nbytes=0)] + [
        compressor.compress(v, rng=rng) for v in vectors
    ]

    def aggregate(items):
        # Server broadcasts the aggregate's sign (1 bit/elem) plus norms —
        # the sign-descent update SSDM actually applies.
        decoded = [item.decode() for item in items if item.nbytes]
        return SizedPayload(
            value=np.mean(decoded, axis=0),
            nbytes=(DIMENSION + 7) // 8 + 4 * M,
        )

    ps_allreduce(cluster, payloads, aggregate=aggregate, concurrent_uploads=True)
    cluster.charge(
        Phase.COMPRESSION, cluster.cost_model.decompress_time(DIMENSION)
    )
    return cluster


def _ssdm_mar(vectors, rng):
    cluster = Cluster(ring_topology(M))
    _charge_computation(cluster)
    signs = [np.where(v >= 0, 1.0, -1.0) for v in vectors]
    signsum_allreduce(cluster, signs)
    return cluster


def _cascading(vectors, rng):
    cluster = Cluster(ring_topology(M))
    _charge_computation(cluster)
    rngs = [np.random.default_rng(i) for i in range(M)]
    cascading_ring_allreduce(cluster, vectors, SSDMCompressor(), rngs)
    return cluster


def _marsit(vectors):
    cluster = Cluster(ring_topology(M))
    _charge_computation(cluster)
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=0.01, verify_consensus=False), M, DIMENSION
    )
    sync.synchronize(cluster, vectors, round_idx=1)
    return cluster


def _run_experiment():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(DIMENSION) for _ in range(M)]
    schemes = {
        "fp32 (PS)": _fp32_ps(vectors),
        "fp32 (RAR)": _fp32_rar(vectors),
        "ssdm (PS)": _ssdm_ps(vectors, rng),
        "ssdm (MAR)": _ssdm_mar(vectors, rng),
        "cascading (MAR)": _cascading(vectors, rng),
        "marsit (RAR)": _marsit(vectors),
    }
    breakdowns = {name: _phase_times(c) for name, c in schemes.items()}
    rows = [
        [
            name,
            f"{1e3 * b['computation']:.2f}",
            f"{1e3 * b['compression']:.2f}",
            f"{1e3 * b['communication']:.2f}",
            f"{1e3 * sum(b.values()):.2f}",
        ]
        for name, b in breakdowns.items()
    ]
    report = format_table(
        ["scheme", "compute (ms)", "compress (ms)", "comm (ms)", "total (ms)"],
        rows,
    )
    save_report(
        "fig1a_iteration_time",
        f"Figure 1a reproduction (M={M}, D={DIMENSION:,})\n" + report,
    )
    return breakdowns


def test_fig1a_iteration_time(benchmark):
    b = run_once(benchmark, _run_experiment)

    total = {name: sum(phases.values()) for name, phases in b.items()}
    comm = {name: phases["communication"] for name, phases in b.items()}

    # Non-compressed: RAR beats PS (server congestion).
    assert total["fp32 (RAR)"] < total["fp32 (PS)"]
    # Bit-length expansion: SSDM under MAR transmits longer than under PS.
    assert comm["ssdm (MAR)"] > comm["ssdm (PS)"]
    # Cascading pays a serialized codec period larger than Marsit's.
    assert b["cascading (MAR)"]["compression"] > b["marsit (RAR)"]["compression"]
    # Marsit has the least communication of all schemes.
    assert comm["marsit (RAR)"] == min(comm.values())
    # And the lowest total among the compressed MAR schemes.
    assert total["marsit (RAR)"] < total["cascading (MAR)"]
    assert total["marsit (RAR)"] < total["ssdm (MAR)"]
