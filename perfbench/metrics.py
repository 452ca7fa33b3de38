"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.  ``bound`` is the share of the parent commit's median
by which an end-to-end metric may get worse before a change counts as a
regression.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["END_TO_END", "INFO", "PER_LAYER", "Metric"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("rounds_per_s", "1/s", "higher", 0.24),
    Metric("round_ms_p50", "ms", "lower", 0.24),
    Metric("round_ms_p90", "ms", "lower", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("sim_ms_per_round", "sim_ms/round", "lower", 0.1),
    Metric("wire_bytes_per_round", "B/round", "lower", 0.05),
    Metric("quality", "ratio", "higher", 0.1),
)

#: Printed beside the end-to-end metrics but not part of the JSON result:
#: each is zero or undefined on some workload.
INFO = (
    Metric("error_rate", "ratio", "lower"),
    Metric("final_train_loss", "nats", "lower"),
    Metric("final_test_acc", "ratio", "higher"),
    Metric("sign_match_rate", "ratio", "higher"),
)

_MS = "ms/round"
_COUNT = "count/round"
_SIM = "sim_ms/round"

PER_LAYER = (
    Metric("nn.forward_ms", _MS, "lower"),
    Metric("nn.backward_ms", _MS, "lower"),
    Metric("data.batch_ms", _MS, "lower"),
    Metric("train.eval_ms", _MS, "lower"),
    Metric("train.apply_ms", _MS, "lower"),
    Metric("train.strategy_ms", _MS, "lower"),
    Metric("core.sync_self_ms", _MS, "lower"),
    Metric("core.transform_ms", _MS, "lower"),
    Metric("core.alloc_mb_per_round", "MB/round", "lower"),
    Metric("core.transient_ms", _MS, "lower"),
    Metric("core.merge_ms", _MS, "lower"),
    Metric("core.transient_elems_per_round", _COUNT, "lower"),
    Metric("sched.one_bit_self_ms", _MS, "lower"),
    Metric("sched.fp_self_ms", _MS, "lower"),
    Metric("sched.plan_steps_per_round", _COUNT, "lower"),
    Metric("sched.plan_compiles", "count/episode", "lower"),
    Metric("comm.pack_ms", _MS, "lower"),
    Metric("comm.unpack_ms", _MS, "lower"),
    Metric("comm.exchange_ms", _MS, "lower"),
    Metric("comm.exchange_calls_per_round", _COUNT, "lower"),
    Metric("comm.messages_per_round", _COUNT, "lower"),
    Metric("allreduce.mean_ms", _MS, "lower"),
    Metric("allreduce.signsum_ms", _MS, "lower"),
    Metric("allreduce.allgather_ms", _MS, "lower"),
    Metric("allreduce.mean_calls_per_round", _COUNT, "lower"),
    Metric("allreduce.signsum_calls_per_round", _COUNT, "lower"),
    Metric("allreduce.allgather_calls_per_round", _COUNT, "lower"),
    Metric("compression.compress_ms", _MS, "lower"),
    Metric("faults.hook_ms", _MS, "lower"),
    Metric("faults.retries_per_round", _COUNT, "lower"),
    Metric("faults.flipped_bits_per_round", _COUNT, "lower"),
    Metric("obs.metrics_overhead_pct", "%", "lower"),
    Metric("sim.compute_ms_per_round", _SIM, "lower"),
    Metric("sim.comm_ms_per_round", _SIM, "lower"),
    Metric("sim.compression_ms_per_round", _SIM, "lower"),
    Metric("bench.unattributed_ms", _MS, "lower"),
    Metric("bench.trace_overhead_pct", "%", "lower"),
)
