"""Marsit reproduction: sign-bit synchronization for multi-hop all-reduce.

Reproduction of Wu et al., "Sign Bit is Enough: A Learning Synchronization
Framework for Multi-hop All-reduce with Ultimate Compression" (DAC 2022),
as a self-contained simulation stack:

- :mod:`repro.core` — Marsit itself (the ``⊙`` merge, Algorithm 1/2).
- :mod:`repro.comm` — bit codecs, topologies, simulated cluster, timing.
- :mod:`repro.allreduce` — ring/torus/PS/tree/gossip collectives.
- :mod:`repro.compression` — SSDM/EF/mean-abs sign/top-k compressors.
- :mod:`repro.nn` — a from-scratch numpy NN framework + model zoo.
- :mod:`repro.data` — synthetic stand-ins for the paper's datasets.
- :mod:`repro.train` — the M-worker distributed trainer and strategies.
- :mod:`repro.theory` — bound evaluators and empirical deviation metrics.

Quickstart::

    from repro import quick_train
    result = quick_train(strategy="marsit", num_workers=8, rounds=100)
    print(result.final_accuracy)
"""

from repro.core import MarsitConfig, MarsitSynchronizer
from repro.train import (
    CascadingSSDMStrategy,
    DistributedTrainer,
    EFSignSGDStrategy,
    MarsitStrategy,
    PSGDStrategy,
    SSDMStrategy,
    SignSGDMajorityStrategy,
    TrainConfig,
    TrainResult,
)

__version__ = "1.0.0"

__all__ = [
    "CascadingSSDMStrategy",
    "DistributedTrainer",
    "EFSignSGDStrategy",
    "MarsitConfig",
    "MarsitStrategy",
    "MarsitSynchronizer",
    "PSGDStrategy",
    "SSDMStrategy",
    "SignSGDMajorityStrategy",
    "TrainConfig",
    "TrainResult",
    "__version__",
    "quick_train",
]


def quick_train(
    strategy: str = "marsit",
    num_workers: int = 4,
    rounds: int = 100,
    topology: str = "ring",
    seed: int = 0,
    observability=None,
    callbacks=None,
    faults=None,
) -> TrainResult:
    """One-call demo: train an MLP on MNIST-like data with a named scheme.

    Args:
        strategy: one of ``psgd``, ``signsgd``, ``ef-signsgd``, ``ssdm``,
            ``cascading``, ``marsit``, ``marsit-k`` (K = 25).
        topology: any registered topology name (``ring``, ``torus``,
            ``tree``, ``halving_doubling``, ...); torus requires a square M,
            halving-doubling a power-of-two M.
        observability: optional :class:`repro.obs.Observability` attached to
            the cluster (span tracer and/or metrics registry).
        callbacks: optional sequence of :class:`repro.obs.TrainerCallback`.
        faults: optional :class:`repro.faults.FaultPlan` injected into the
            cluster (jitter, stragglers, drops, bit-flips, crashes).

    Returns:
        The :class:`repro.train.TrainResult` with accuracy/time/bytes
        history.
    """
    import numpy as np

    from repro.data import mnist_like, train_test_split
    from repro.nn.zoo import mlp

    data = mnist_like(num_samples=1200, size=8, noise=0.6, seed=seed)
    train_set, test_set = train_test_split(data, 0.25, seed=seed)

    def factory():
        return mlp(64, hidden=(32,), num_classes=10, seed=7)

    dimension = factory().num_parameters()
    builders = {
        "psgd": lambda: PSGDStrategy(lr=0.05, num_workers=num_workers),
        "signsgd": lambda: SignSGDMajorityStrategy(
            lr=0.002, num_workers=num_workers
        ),
        "ef-signsgd": lambda: EFSignSGDStrategy(lr=0.05, num_workers=num_workers),
        "ssdm": lambda: SSDMStrategy(
            lr=0.1 / np.sqrt(dimension), num_workers=num_workers
        ),
        "cascading": lambda: CascadingSSDMStrategy(lr=0.05, num_workers=num_workers),
        "marsit": lambda: MarsitStrategy(
            local_lr=0.05,
            global_lr=4e-3,
            num_workers=num_workers,
            dimension=dimension,
        ),
        "marsit-k": lambda: MarsitStrategy(
            local_lr=0.05,
            global_lr=8e-3,
            num_workers=num_workers,
            dimension=dimension,
            full_precision_every=25,
        ),
    }
    if strategy not in builders:
        raise ValueError(f"unknown strategy {strategy!r}; one of {sorted(builders)}")
    torus_shape = None
    if topology == "torus":
        side = int(num_workers**0.5)
        if side * side != num_workers:
            raise ValueError("torus quickstart needs a square worker count")
        torus_shape = (side, side)
    config = TrainConfig(
        num_workers=num_workers,
        rounds=rounds,
        batch_size=32,
        topology=topology,
        torus_shape=torus_shape,
        eval_every=max(1, rounds // 10),
        seed=seed,
        faults=faults,
    )
    trainer = DistributedTrainer(
        factory,
        train_set,
        test_set,
        builders[strategy](),
        config,
        callbacks=callbacks,
        observability=observability,
    )
    return trainer.run()
