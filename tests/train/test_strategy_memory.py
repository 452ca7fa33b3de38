"""What each Table-2 scheme keeps and allocates per round, in (M, D) arrays.

A strategy writes its messages over the gradient matrix it is handed, so
after its first round it holds exactly its state: the momentum buffer
(signSGD, EF-signSGD, SSDM, PowerSGD), EF-signSGD's and PowerSGD's
residuals, Marsit's compensation.  PSGD's global optimizer keeps D-vectors
only.  A steady round allocates less than one (M, D) array on top,
Marsit's metrics gauges included.  PowerSGD runs at a padded D (223 x 225
> 50,000) and a square one (223 x 223), since its residual rows carry the
padding.
Measured with tracemalloc, which counts numpy's buffers byte for byte.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.comm.cluster import Cluster
from repro.obs import Observability
from repro.train.strategies import (
    EFSignSGDStrategy,
    MarsitStrategy,
    PowerSGDStrategy,
    PSGDStrategy,
    SignSGDMajorityStrategy,
    SSDMStrategy,
)

M, D = 4, 50_000

#: name -> (factory, (M, D) state arrays held after the first round).
SCHEMES = {
    "psgd": (lambda: PSGDStrategy(lr=0.05, num_workers=M), 0),
    "signsgd": (lambda: SignSGDMajorityStrategy(lr=0.002, num_workers=M), 1),
    "ef-signsgd": (lambda: EFSignSGDStrategy(lr=0.05, num_workers=M), 2),
    "ssdm": (lambda: SSDMStrategy(lr=0.03, num_workers=M, seed=1), 1),
    "marsit-k": (
        lambda: MarsitStrategy(
            local_lr=0.05,
            global_lr=8e-3,
            num_workers=M,
            dimension=D,
            full_precision_every=25,
            base_optimizer="sgd",
            seed=1,
        ),
        1,
    ),
    "powersgd": (lambda: PowerSGDStrategy(lr=0.05, num_workers=M, seed=1), 2),
}
SCHEMES["powersgd-square"] = SCHEMES["powersgd"]

#: name -> gradient length, where it is not D.
DIMENSIONS = {"powersgd-square": 223**2}

TOPOLOGIES = {"ring": {}, "torus": {"rows": 2, "cols": 2}}


def _cluster(topology):
    cluster = Cluster(get_topology(topology).build(M, **TOPOLOGIES[topology]))
    cluster.attach_observability(Observability.metrics_only())
    return cluster


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _current() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_holds_its_state_and_allocates_under_one_matrix(
    scheme, topology, traced
):
    make, state_arrays = SCHEMES[scheme]
    dimension = DIMENSIONS.get(scheme, D)
    matrix_bytes = M * dimension * 8
    rng = np.random.default_rng(0)
    # A throwaway run fills any module-level cache first.
    make().step(_cluster(topology), rng.standard_normal((M, dimension)), 1)
    cluster = _cluster(topology)
    # The gradient matrices live through every measurement.
    grads = [rng.standard_normal((M, dimension)) for _ in range(4)]

    before = _current()
    strategy = make()
    result = strategy.step(cluster, grads[0], 1)
    del result
    held = (_current() - before) / matrix_bytes
    # Its state arrays, plus a few D-vectors (PSGD's two, EF's scratch).
    assert state_arrays <= held < state_arrays + 0.75, held

    for round_idx in range(2, 5):
        start = _current()
        tracemalloc.reset_peak()
        result = strategy.step(cluster, grads[round_idx - 1], round_idx)
        peak = (tracemalloc.get_traced_memory()[1] - start) / matrix_bytes
        del result
        assert peak < 1.0, (round_idx, peak)
    if scheme == "marsit-k":
        assert cluster.obs.metrics.get("marsit.comp_norm") is not None
