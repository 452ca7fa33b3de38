"""Packed-word kernel microbenchmark: old-vs-new sign-pipeline throughput.

Measures the PR-over-seed speedups of the 64-elements-per-op fast path:

- ``hop_merge`` — one Marsit hop (transient draw + ``⊙`` merge).  Old: the
  seed's unpack -> float64 element-wise draw -> uint8 merge -> repack
  round-trip, frozen inline (:func:`_seed_hop`) so later library speedups
  cannot leak into the reference.  New: ``transient_vector_packed`` +
  ``merge_sign_bits_packed`` on ``uint64`` words, no unpacking.
- ``pack_unpack`` — signs -> packed -> signs round-trip
  (:class:`BitVector` vs :class:`PackedBits`).
- ``elias_gamma`` / ``elias_delta`` — encode + decode of zigzagged sign-sum
  integers: per-bit reference writers/readers vs the vectorized
  prefix-sum codecs.

Every kernel's packed output is checked bit-identical to the library's
unpacked reference before timing (for ``hop_merge``: ``transient_vector`` +
``merge_sign_bits`` under the same seed; the frozen seed hop draws another
stream and is only timed).  Results go to
``benchmarks/results/packed_kernels.txt`` and machine-readable
``BENCH_packed_kernels.json`` at the repo root; only full mode writes them,
so the tier-1 smoke run prints its table and leaves the committed full-size
numbers alone.

Run the full benchmark (1M elements, asserts the ISSUE speedup floors)::

    PYTHONPATH=src python benchmarks/bench_packed_kernels.py

or the seconds-long smoke mode the test suite wires in::

    PYTHONPATH=src python benchmarks/bench_packed_kernels.py --check
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np
import pytest

from repro.bench import format_table, save_report
from repro.comm.bits import (
    BitVector,
    PackedBits,
    elias_delta_decode,
    elias_delta_decode_reference,
    elias_delta_encode,
    elias_delta_encode_reference,
    elias_gamma_decode,
    elias_gamma_decode_reference,
    elias_gamma_encode,
    elias_gamma_encode_reference,
    zigzag_encode,
)
from repro.core.sign_ops import (
    merge_sign_bits,
    merge_sign_bits_packed,
    transient_vector,
    transient_vector_packed,
)

FULL_ELEMS = 1_000_000
CHECK_ELEMS = 50_000
# ISSUE acceptance floors, asserted in full mode only.
MIN_MERGE_SPEEDUP = 5.0
MIN_ELIAS_SPEEDUP = 10.0

_JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_packed_kernels.json"


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(name, old_fn, new_fn, old_repeats, new_repeats, results):
    results[name] = {
        "old_s": _best_seconds(old_fn, old_repeats),
        "new_s": _best_seconds(new_fn, new_repeats),
    }
    results[name]["speedup"] = results[name]["old_s"] / max(
        results[name]["new_s"], 1e-12
    )


def _seed_validate(bits: np.ndarray) -> np.ndarray:
    """The seed's ``_validate_bits``: an ``np.isin`` scan and a uint8 copy."""
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must contain only 0/1 values")
    return bits.astype(np.uint8)


def _seed_hop(
    received_wire: BitVector,
    local_bits: np.ndarray,
    received_weight: int,
    local_weight: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The seed's per-hop work, frozen: unpack the wire payload, draw one
    float64 uniform per element, merge element-wise on uint8, repack."""
    received = received_wire.to_bits()
    local = _seed_validate(local_bits)
    keep_local = local_weight / (received_weight + local_weight)
    uniforms = rng.random(local.size)
    probs = np.where(local == 1, keep_local, 1.0 - keep_local)
    transient = (uniforms < probs).astype(np.uint8)
    received, local, transient = (
        _seed_validate(array) for array in (received, local, transient)
    )
    merged = (received & local) | ((received ^ local) & transient)
    BitVector.from_bits(merged)
    return merged


def run_kernels(num_elems: int, reference_repeats: int = 1,
                fast_repeats: int = 3) -> dict:
    """Time all four kernels at ``num_elems`` elements; verify bit-identity."""
    rng = np.random.default_rng(7)
    received_bits = (rng.random(num_elems) < 0.5).astype(np.uint8)
    local_bits = (rng.random(num_elems) < 0.5).astype(np.uint8)
    received_wire = BitVector.from_bits(received_bits)
    received_packed = PackedBits.from_bits(received_bits)
    local_packed = PackedBits.from_bits(local_bits)

    def old_hop() -> np.ndarray:
        return _seed_hop(
            received_wire, local_bits, received_weight=3, local_weight=1,
            rng=np.random.default_rng(11),
        )

    def reference_hop() -> np.ndarray:
        transient = transient_vector(
            local_bits, received_weight=3, local_weight=1,
            rng=np.random.default_rng(11),
        )
        return merge_sign_bits(received_wire.to_bits(), local_bits, transient)

    def new_hop() -> PackedBits:
        transient = transient_vector_packed(
            local_packed, received_weight=3, local_weight=1,
            rng=np.random.default_rng(11),
        )
        return merge_sign_bits_packed(received_packed, local_packed, transient)

    if not np.array_equal(new_hop().to_bits(), reference_hop()):
        raise AssertionError("packed hop merge diverged from reference")

    signs = np.where(rng.random(num_elems) < 0.5, 1.0, -1.0)
    if not np.array_equal(
        PackedBits.from_signs(signs).to_signs(),
        BitVector.from_signs(signs).to_signs(),
    ):
        raise AssertionError("packed sign round-trip diverged from reference")

    # Zigzagged sign-sums: the SSDM-under-MAR Elias workload (small values
    # dominate, exactly where gamma/delta codes are short).
    sums = rng.integers(-8, 9, num_elems)
    values = zigzag_encode(sums)
    gamma_ref = elias_gamma_encode_reference(values)
    gamma_new = elias_gamma_encode(values)
    if gamma_ref != gamma_new:
        raise AssertionError("vectorized gamma encode diverged from reference")
    if not np.array_equal(elias_gamma_decode(gamma_new[0], num_elems), values):
        raise AssertionError("vectorized gamma decode diverged from reference")
    delta_ref = elias_delta_encode_reference(values)
    delta_new = elias_delta_encode(values)
    if delta_ref != delta_new:
        raise AssertionError("vectorized delta encode diverged from reference")
    if not np.array_equal(elias_delta_decode(delta_new[0], num_elems), values):
        raise AssertionError("vectorized delta decode diverged from reference")

    results: dict = {}
    _measure("hop_merge", old_hop, new_hop, fast_repeats, fast_repeats, results)
    _measure(
        "pack_unpack",
        lambda: BitVector.from_signs(signs).to_signs(),
        lambda: PackedBits.from_signs(signs).to_signs(),
        fast_repeats,
        fast_repeats,
        results,
    )
    _measure(
        "elias_gamma",
        lambda: elias_gamma_decode_reference(
            elias_gamma_encode_reference(values)[0], num_elems
        ),
        lambda: elias_gamma_decode(elias_gamma_encode(values)[0], num_elems),
        reference_repeats,
        fast_repeats,
        results,
    )
    _measure(
        "elias_delta",
        lambda: elias_delta_decode_reference(
            elias_delta_encode_reference(values)[0], num_elems
        ),
        lambda: elias_delta_decode(elias_delta_encode(values)[0], num_elems),
        reference_repeats,
        fast_repeats,
        results,
    )
    return results


def _write_json(num_elems: int, kernels: dict) -> None:
    payload = {"full": {"elements": num_elems, "kernels": kernels}}
    try:
        _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass  # read-only checkout: the printed table is still the output


def _report(mode: str, num_elems: int, kernels: dict) -> str:
    rows = [
        [
            name,
            f"{entry['old_s'] * 1e3:.2f}",
            f"{entry['new_s'] * 1e3:.2f}",
            f"{entry['speedup']:.1f}x",
        ]
        for name, entry in kernels.items()
    ]
    table = format_table(["kernel", "old ms", "new ms", "speedup"], rows)
    return (
        f"Packed-word kernel throughput ({mode}, {num_elems} elements)\n"
        + table
    )


def run_mode(mode: str) -> dict:
    """Run ``'full'`` mode (persist JSON + text) or ``'check'`` (print only)."""
    if mode == "full":
        kernels = run_kernels(FULL_ELEMS, reference_repeats=1, fast_repeats=3)
    else:
        kernels = run_kernels(CHECK_ELEMS, reference_repeats=1, fast_repeats=2)
    if mode == "full":
        _write_json(FULL_ELEMS, kernels)
        save_report("packed_kernels", _report(mode, FULL_ELEMS, kernels))
    else:
        print(_report(mode, CHECK_ELEMS, kernels))
    return kernels


@pytest.mark.slow
def test_packed_kernels(benchmark):
    from benchmarks.conftest import run_once

    kernels = run_once(benchmark, lambda: run_mode("full"))
    assert kernels["hop_merge"]["speedup"] >= MIN_MERGE_SPEEDUP
    assert kernels["elias_gamma"]["speedup"] >= MIN_ELIAS_SPEEDUP


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="seconds-long smoke mode (small input, no speedup asserts)",
    )
    args = parser.parse_args()
    if args.check:
        run_mode("check")
        return
    kernels = run_mode("full")
    assert kernels["hop_merge"]["speedup"] >= MIN_MERGE_SPEEDUP, kernels
    assert kernels["elias_gamma"]["speedup"] >= MIN_ELIAS_SPEEDUP, kernels


if __name__ == "__main__":
    main()
