"""The five paper workloads at simulation scale, with tuned strategies.

Table 2 trains five model/dataset pairs under six synchronization schemes;
these specs pin down the stand-in configuration for each pair and build the
strategies with hyperparameters tuned for the simulation scale.

Marsit's global stepsize ``eta_s`` is *calibrated*, not hand-tuned: it is set
to the per-element RMS of the local update stream ``eta_l * u`` measured on a
few pilot batches (:func:`calibrate_global_lr`) — the practical analogue of
Theorem 1's ``eta_s = 1/sqrt(TD)`` scale matching.  The same calibrated value
is used for the signSGD-family per-sign stepsizes so every one-bit scheme
takes comparably sized steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compression.signsgd import MeanAbsSignCompressor
from repro.core.local import LocalOptimizer
from repro.data import (
    ArrayDataset,
    cifar10_like,
    imagenet_like,
    imdb_like,
    mnist_like,
    train_test_split,
)
from repro.data.sharding import WorkerBatchIterator
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.zoo import (
    alexnet_mini,
    distilbert_mini,
    resnet18_mini,
    resnet20,
    resnet50_mini,
)
from repro.train.strategies import (
    CascadingSSDMStrategy,
    EFSignSGDStrategy,
    MarsitStrategy,
    PSGDStrategy,
    SSDMStrategy,
    SignSGDMajorityStrategy,
    SyncStrategy,
)

__all__ = [
    "WORKLOADS",
    "WorkloadSpec",
    "build_strategy",
    "calibrate_global_lr",
    "strategy_names",
]

STRATEGY_NAMES = (
    "psgd",
    "signsgd",
    "ef-signsgd",
    "ssdm",
    "marsit-k",
    "marsit",
)


def strategy_names() -> tuple[str, ...]:
    """The six Table 2 columns, in paper order."""
    return STRATEGY_NAMES


def calibrate_global_lr(
    model_factory: Callable[[], Module],
    train_set: ArrayDataset,
    batch_size: int,
    local_lr: float,
    momentum: float = 0.9,
    pilot_steps: int = 24,
    measure_last: int = 12,
    seed: int = 123,
) -> float:
    """Steady-state per-element RMS of the local update stream ``eta_l * u``.

    Runs a short single-worker momentum-SGD pilot on a throwaway replica —
    gradients at a random init are 10-50x larger than after a few steps, so
    the transient must be skipped — and returns the mean RMS of the applied
    update over the last ``measure_last`` steps.  This is the scale ``eta_s``
    must match for sign steps to track local updates (Theorem 1's
    ``eta_s = 1/sqrt(TD)`` plays the same role; see MarsitStrategy's note).
    """
    model = model_factory()
    loss_fn = CrossEntropyLoss()
    iterator = WorkerBatchIterator(
        train_set, min(batch_size, len(train_set)), seed=seed
    )
    optimizer = LocalOptimizer(1, "momentum", momentum=momentum)
    rms_values = []
    for step in range(pilot_steps):
        x, y = iterator.next_batch()
        model.zero_grad()
        loss_fn(model(x), y)
        model.backward(loss_fn.backward())
        update = optimizer.step(0, model.flatten_grads(), scale=local_lr)
        model.add_flat_update(update, scale=-1.0)
        if step >= pilot_steps - measure_last:
            rms_values.append(float(np.sqrt((update**2).mean())))
    return float(np.mean(rms_values))


@dataclass
class WorkloadSpec:
    """One model/dataset pair of Table 2.

    Attributes:
        key: short identifier (also the bench parameter name).
        title: "Model / Dataset" as printed in the paper's table.
        make_data: () -> (train, test).
        model_factory: () -> identical model replica.
        batch_size: per-worker batch size.
        rounds: default synchronization budget for the accuracy benches.
        local_lr: base learning rate (paper: 0.1 ImageNet, 0.03 CIFAR).
        base_optimizer: ``momentum`` for images, ``adam`` for sentiment.
        full_precision_every: the Marsit-K cadence (paper: 100).
    """

    key: str
    title: str
    make_data: Callable[[], tuple[ArrayDataset, ArrayDataset]]
    model_factory: Callable[[], Module]
    batch_size: int
    rounds: int
    local_lr: float
    base_optimizer: str = "momentum"
    full_precision_every: int = 25
    marsit_lr_mult: float = 2.0

    def dimension(self) -> int:
        return self.model_factory().num_parameters()


def _data_mnist() -> tuple[ArrayDataset, ArrayDataset]:
    return train_test_split(
        mnist_like(num_samples=1800, size=8, noise=0.6, seed=0), 0.25, seed=1
    )


def _data_cifar() -> tuple[ArrayDataset, ArrayDataset]:
    return train_test_split(
        cifar10_like(num_samples=1600, size=16, noise=1.0, seed=1), 0.25, seed=1
    )


def _data_cifar_small() -> tuple[ArrayDataset, ArrayDataset]:
    # Reduced resolution for the 0.27M-parameter ResNet-20 (conv cost).
    return train_test_split(
        cifar10_like(num_samples=1200, size=12, noise=1.0, seed=1), 0.25, seed=1
    )


def _data_imagenet() -> tuple[ArrayDataset, ArrayDataset]:
    return train_test_split(
        imagenet_like(num_samples=2000, size=16, num_classes=20, noise=1.1, seed=2),
        0.25,
        seed=1,
    )


def _data_imdb() -> tuple[ArrayDataset, ArrayDataset]:
    return train_test_split(
        imdb_like(num_samples=2000, seq_len=16, seed=3), 0.25, seed=1
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    "mnist-alexnet": WorkloadSpec(
        key="mnist-alexnet",
        title="AlexNet / MNIST",
        make_data=_data_mnist,
        model_factory=lambda: alexnet_mini(
            in_channels=1, image_size=8, num_classes=10, width=4, seed=7
        ),
        batch_size=16,
        rounds=150,
        local_lr=0.03,
    ),
    "cifar10-alexnet": WorkloadSpec(
        key="cifar10-alexnet",
        title="AlexNet / CIFAR-10",
        make_data=_data_cifar,
        model_factory=lambda: alexnet_mini(
            in_channels=3, image_size=16, num_classes=10, width=8, seed=7
        ),
        batch_size=16,
        rounds=150,
        local_lr=0.03,
    ),
    "cifar10-resnet20": WorkloadSpec(
        key="cifar10-resnet20",
        title="ResNet-20 / CIFAR-10",
        make_data=_data_cifar_small,
        model_factory=lambda: resnet20(
            in_channels=3, image_size=12, num_classes=10, seed=7
        ),
        batch_size=8,
        rounds=80,
        local_lr=0.03,
    ),
    "imagenet-resnet18": WorkloadSpec(
        key="imagenet-resnet18",
        title="ResNet-18 / ImageNet",
        make_data=_data_imagenet,
        model_factory=lambda: resnet18_mini(
            in_channels=3, image_size=16, num_classes=20, seed=7
        ),
        batch_size=16,
        rounds=120,
        local_lr=0.1,
    ),
    "imagenet-resnet50": WorkloadSpec(
        key="imagenet-resnet50",
        title="ResNet-50 / ImageNet",
        make_data=_data_imagenet,
        model_factory=lambda: resnet50_mini(
            in_channels=3, image_size=16, num_classes=20, seed=7
        ),
        batch_size=16,
        rounds=200,
        local_lr=0.1,
        marsit_lr_mult=4.0,
    ),
    "imdb-distilbert": WorkloadSpec(
        key="imdb-distilbert",
        title="DistilBERT / IMDb",
        make_data=_data_imdb,
        model_factory=lambda: distilbert_mini(
            vocab_size=128, max_len=16, dim=32, num_heads=4,
            num_layers=2, ffn_dim=64, num_classes=2, seed=7,
        ),
        batch_size=16,
        rounds=120,
        local_lr=5e-4,
        base_optimizer="adam",
    ),
}


def build_strategy(
    name: str,
    spec: WorkloadSpec,
    num_workers: int,
    train_set: ArrayDataset,
    seed: int = 0,
) -> SyncStrategy:
    """Instantiate a named strategy tuned for a workload.

    ``name`` is one of :func:`strategy_names` plus ``cascading``.
    """
    dimension = spec.dimension()
    momentum = 0.9 if spec.base_optimizer == "momentum" else 0.0
    if spec.base_optimizer == "adam":
        # Adam preconditioning makes per-element steps ~ local_lr uniformly.
        sign_step = spec.local_lr
    else:
        sign_step = calibrate_global_lr(
            spec.model_factory,
            train_set,
            spec.batch_size,
            spec.local_lr,
            momentum=momentum,
        )
    # Marsit runs Algorithm 2 literally (SGD inside the compression loop) on
    # the image tasks: feeding a momentum buffer into the one-bit path
    # inflates the compensation vector ~1/(1-mu)x and the periodic
    # full-precision "dump" then destabilizes training (see EXPERIMENTS.md).
    # Adam's normalized steps track eta_s well, so the sentiment task keeps
    # its Adam base.
    marsit_base = "sgd" if spec.base_optimizer == "momentum" else spec.base_optimizer
    if marsit_base == "adam":
        marsit_step = spec.local_lr
    else:
        marsit_step = calibrate_global_lr(
            spec.model_factory, train_set, spec.batch_size, spec.local_lr,
            momentum=0.0,
        )
    if name == "psgd":
        return PSGDStrategy(
            lr=spec.local_lr,
            num_workers=num_workers,
            base_optimizer=spec.base_optimizer,
        )
    if name == "signsgd":
        return SignSGDMajorityStrategy(
            lr=sign_step,
            num_workers=num_workers,
            momentum=momentum,
            base_optimizer=spec.base_optimizer,
        )
    if name == "ef-signsgd":
        return EFSignSGDStrategy(
            lr=spec.local_lr,
            num_workers=num_workers,
            momentum=momentum,
            base_optimizer=spec.base_optimizer,
        )
    if name == "ssdm":
        return SSDMStrategy(
            lr=sign_step,
            num_workers=num_workers,
            momentum=momentum,
            base_optimizer=spec.base_optimizer,
            block_size=16,
            seed=seed,
        )
    if name == "cascading":
        return CascadingSSDMStrategy(
            lr=spec.local_lr,
            num_workers=num_workers,
            seed=seed,
            compressor=MeanAbsSignCompressor(),
            normalize=False,
            momentum=momentum,
        )
    if name == "marsit":
        return MarsitStrategy(
            local_lr=spec.local_lr,
            global_lr=spec.marsit_lr_mult * marsit_step,
            num_workers=num_workers,
            dimension=dimension,
            base_optimizer=marsit_base,
            seed=seed,
        )
    if name == "marsit-k":
        return MarsitStrategy(
            local_lr=spec.local_lr,
            global_lr=spec.marsit_lr_mult * marsit_step,
            num_workers=num_workers,
            dimension=dimension,
            full_precision_every=spec.full_precision_every,
            base_optimizer=marsit_base,
            seed=seed,
        )
    raise ValueError(f"unknown strategy {name!r}")
