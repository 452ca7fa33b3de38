"""Ablations of Marsit's design choices (DESIGN.md section 5).

1. **The ``⊙`` merge vs per-hop majority.**  Resolving hop disagreements
   deterministically toward the received bit (the natural biased
   alternative) systematically over-weights early ring positions; the
   stochastic transient keeps the aggregate an unbiased sample of the mean
   sign.  Measured as the bias of the final bit probability against the
   true +1 fraction.

2. **Global compensation on/off, across eta_s scales.**  A reproduction
   finding: compensation is load-bearing exactly in the theory's regime.
   When ``eta_s`` *undershoots* the per-element update scale (Theorem 1's
   ``1/sqrt(TD)`` is tiny), the compensation vector carries the un-applied
   mass forward and clearly improves accuracy; when ``eta_s`` is tuned
   *above* that scale, the overshoot residual anti-correlates consecutive
   signs and compensation hurts.  The bench measures both regimes.

3. **Elias coding of sign sums.**  Entropy-coding the SSDM-under-MAR
   integer sums (zigzag + Elias gamma) shrinks the expansion but stays well
   above Marsit's flat 1 bit/element.
"""

import numpy as np

from repro.bench import WORKLOADS, calibrate_global_lr, format_table, save_report
from repro.allreduce.codec import elias_sum_bits
from repro.comm.bits import signed_int_bit_width
from repro.core.marsit import MarsitConfig
from repro.core.sign_ops import merge_sign_bits, transient_vector
from repro.train import DistributedTrainer, MarsitStrategy, TrainConfig
from benchmarks.conftest import run_once

M = 4


def _merge_bias(use_transient, trials=300, n=4000, seed=0):
    """|E[final bit] - true mean| for the ⊙ vs take-received resolution."""
    rng = np.random.default_rng(seed)
    worker_bits = [
        (rng.random(n) < p).astype(np.uint8) for p in (0.8, 0.6, 0.4, 0.2)
    ]
    target = np.mean(worker_bits, axis=0)
    totals = np.zeros(n)
    for trial in range(trials):
        trial_rng = np.random.default_rng(100 + trial)
        merged = worker_bits[0]
        for hop in range(1, len(worker_bits)):
            local = worker_bits[hop]
            if use_transient:
                transient = transient_vector(local, hop, 1, trial_rng)
            else:
                # Biased alternative: disagreements resolve to the received
                # bit (transient = received), i.e. merged OR-AND reduces to
                # keeping the incoming value.
                transient = merged
            merged = merge_sign_bits(merged, local, transient)
        totals += merged
    return float(np.abs(totals / trials - target).mean())


def _compensation_ablation():
    spec = WORKLOADS["imagenet-resnet50"]
    train_set, test_set = spec.make_data()
    step = calibrate_global_lr(
        spec.model_factory, train_set, spec.batch_size, spec.local_lr,
        momentum=0.0,
    )
    accuracies = {}
    for mult in (0.25, 1.0):
        for use_compensation in (True, False):
            global_lr = mult * step
            strategy = MarsitStrategy(
                local_lr=spec.local_lr, global_lr=global_lr, num_workers=M,
                dimension=spec.dimension(), base_optimizer="sgd", seed=0,
            )
            strategy._optimizer.synchronizer.config = MarsitConfig(
                global_lr=global_lr, seed=0,
                use_compensation=use_compensation, verify_consensus=False,
            )
            config = TrainConfig(
                num_workers=M, rounds=100, batch_size=spec.batch_size,
                topology="ring", eval_every=20, seed=0,
            )
            result = DistributedTrainer(
                spec.model_factory, train_set, test_set, strategy, config
            ).run()
            accuracies[(mult, use_compensation)] = result.best_accuracy()
    return accuracies


def _elias_bits_per_element(num_workers=8, dimension=20_000, seed=0):
    """Average wire bits/element for one reduce hop carrying sums over M."""
    rng = np.random.default_rng(seed)
    signs = np.where(
        rng.standard_normal((num_workers, dimension)) >= 0, 1, -1
    )
    sums = signs.sum(axis=0)  # in {-M..M}, step 2
    elias_bits = elias_sum_bits(sums, num_workers)
    fixed_bits = signed_int_bit_width(num_workers) * dimension
    return elias_bits / dimension, fixed_bits / dimension


def _run_experiment():
    transient_bias = _merge_bias(use_transient=True)
    received_bias = _merge_bias(use_transient=False)
    compensation = _compensation_ablation()
    elias_bits, fixed_bits = _elias_bits_per_element()

    rows = [
        ["merge bias (⊙ stochastic)", f"{transient_bias:.4f}"],
        ["merge bias (take-received)", f"{received_bias:.4f}"],
        ["acc @ small eta_s, comp ON", f"{100 * compensation[(0.25, True)]:.2f}%"],
        ["acc @ small eta_s, comp OFF", f"{100 * compensation[(0.25, False)]:.2f}%"],
        ["acc @ tuned eta_s, comp ON", f"{100 * compensation[(1.0, True)]:.2f}%"],
        ["acc @ tuned eta_s, comp OFF", f"{100 * compensation[(1.0, False)]:.2f}%"],
        ["sign-sum bits/elem (fixed width, M=8)", f"{fixed_bits:.2f}"],
        ["sign-sum bits/elem (Elias gamma, M=8)", f"{elias_bits:.2f}"],
        ["Marsit bits/elem", "1.00"],
    ]
    report = format_table(["ablation", "value"], rows)
    save_report("ablation_marsit_parts", "Marsit design ablations\n" + report)
    return {
        "transient_bias": transient_bias,
        "received_bias": received_bias,
        "compensation": compensation,
        "elias_bits": elias_bits,
        "fixed_bits": fixed_bits,
    }


def test_ablations(benchmark):
    out = run_once(benchmark, _run_experiment)

    # 1. The stochastic transient is (near-)unbiased; the deterministic
    #    alternative shows an order-of-magnitude larger systematic bias.
    assert out["transient_bias"] < 0.05
    assert out["received_bias"] > 3 * out["transient_bias"]

    # 2. Compensation is load-bearing in the theory's small-eta_s regime
    #    (the paper's 1/sqrt(TD) scale), where sign steps undershoot.
    comp = out["compensation"]
    assert comp[(0.25, True)] > comp[(0.25, False)] + 0.03

    # 3. Elias coding compresses the expansion but cannot reach one bit.
    assert out["elias_bits"] < out["fixed_bits"]
    assert out["elias_bits"] > 1.5
