"""Write your own synchronization strategy: top-k with error feedback.

The library's trainer only needs a ``SyncStrategy`` with one method, so new
schemes compose from the existing pieces.  This example builds a top-k
sparsification strategy with per-worker error feedback (the classic
"memory" fix for biased compressors), runs it against Marsit, and prints
the accuracy/traffic trade-off.  Its momentum buffers and residuals are
the per-worker state of :mod:`repro.core.local`, which the built-in
schemes use too.

Under MAR, sparse supports grow as they merge (see
``benchmarks/bench_related_work.py``), so this strategy gathers the sparse
messages PS-style conceptually: each worker's (indices, values) payload is
charged on the wire and the mean of the decoded vectors is the update.

Usage::

    python examples/custom_strategy.py
"""

import numpy as np

from repro.bench import WORKLOADS, build_strategy, format_table
from repro.comm.cluster import Cluster
from repro.compression.topk import TopKCompressor
from repro.core.local import ErrorFeedback, LocalOptimizer
from repro.train import DistributedTrainer, TrainConfig
from repro.train.strategies import StepResult, SyncStrategy


class TopKErrorFeedbackStrategy(SyncStrategy):
    """Keep the k largest coordinates of (gradient + carried error)."""

    name = "topk-ef"

    def __init__(self, lr: float, num_workers: int, k_fraction: float = 0.05,
                 momentum: float = 0.9) -> None:
        self.lr = lr
        self.num_workers = num_workers
        self.k_fraction = k_fraction
        # Per-worker momentum buffers and error-feedback residuals: one
        # (num_workers, D) array each, allocated on the first step.
        self._local = LocalOptimizer(num_workers, "momentum", momentum=momentum)
        self._feedback = ErrorFeedback(num_workers)

    def step(self, cluster: Cluster, grads, round_idx: int) -> StepResult:
        dimension = grads[0].size
        k = max(1, int(self.k_fraction * dimension))
        compressor = TopKCompressor(k=k)
        decoded = []
        total_bytes = 0
        for worker, grad in enumerate(grads):
            # Written over ``grad``: a strategy consumes the gradients.
            direction = self._local.step(worker, grad)
            direction *= self.lr
            corrected = self._feedback.carry(worker, direction)
            payload = compressor.compress(corrected)
            total_bytes += payload.nbytes
            dense = payload.decode()
            self._feedback.settle(worker, dense)
            decoded.append(dense)
        # Charge the sparse payloads on a ring circulation (gather-style).
        for hop in range(cluster.num_workers - 1):
            cluster.begin_step()
            for rank in range(cluster.num_workers):
                cluster.send(
                    rank,
                    (rank + 1) % cluster.num_workers,
                    np.zeros(total_bytes // cluster.num_workers // 8),
                    tag=f"topk{hop}",
                )
            for rank in range(cluster.num_workers):
                cluster.recv(
                    rank, (rank - 1) % cluster.num_workers, tag=f"topk{hop}"
                )
            cluster.end_step()
        update = np.mean(decoded, axis=0)
        return StepResult(
            updates=[update.copy() for _ in range(self.num_workers)],
            bits_per_element=64.0 * self.k_fraction,
        )


def main() -> None:
    spec = WORKLOADS["cifar10-alexnet"]
    train_set, test_set = spec.make_data()
    num_workers, rounds = 4, 150
    rows = []
    strategies = {
        "topk-ef (5%)": TopKErrorFeedbackStrategy(
            lr=spec.local_lr, num_workers=num_workers, k_fraction=0.05
        ),
        "marsit": build_strategy("marsit", spec, num_workers, train_set),
        "psgd": build_strategy("psgd", spec, num_workers, train_set),
    }
    for name, strategy in strategies.items():
        config = TrainConfig(
            num_workers=num_workers, rounds=rounds,
            batch_size=spec.batch_size, topology="ring", eval_every=25,
            seed=0,
        )
        result = DistributedTrainer(
            spec.model_factory, train_set, test_set, strategy, config
        ).run()
        rows.append(
            [name, f"{100 * result.best_accuracy():.2f}",
             f"{result.total_comm_bytes / 1e6:.3f}",
             f"{result.avg_bits_per_element:.2f}"]
        )
        print(f"done: {name}")
    print()
    print(format_table(["scheme", "best acc (%)", "comm (MB)", "bits/elem"],
                       rows))


if __name__ == "__main__":
    main()
