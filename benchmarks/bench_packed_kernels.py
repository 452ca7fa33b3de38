"""Packed-word kernel microbenchmark: old-vs-new sign-pipeline throughput.

Measures the PR-over-seed speedups of the 64-elements-per-op fast path:

- ``hop_merge`` — one Marsit hop (transient draw + ``⊙`` merge).  Old: the
  seed's unpack -> float64 element-wise draw -> uint8 merge -> repack
  round-trip, frozen inline (:func:`_seed_hop`) so later library speedups
  cannot leak into the reference.  New: ``transient_vector_packed`` +
  ``merge_sign_bits_packed`` on ``uint64`` words, no unpacking.
- ``pack_unpack`` — signs -> packed -> signs round-trip: the seed's
  byte-level ``np.packbits``/``np.unpackbits`` round trip, frozen inline
  (:func:`_seed_pack_unpack`), vs :class:`PackedBits`.
- ``elias_gamma`` — the wire size of zigzagged sign-sum integers: the
  seed's per-bit gamma writer, frozen inline (:func:`_seed_gamma_encode`),
  vs :func:`~repro.comm.bits.elias_gamma_bits`, which sums code lengths
  without building the stream.

Every kernel's output is checked against its reference before timing (for
``hop_merge``: ``transient_vector`` + ``merge_sign_bits`` under the same
seed, the frozen seed hop drawing another stream and being only timed; for
``elias_gamma``: equal bit counts).  Results go to
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
from repro.comm.bits import PackedBits, elias_gamma_bits, zigzag_encode
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


def _seed_unpack(wire: np.ndarray, length: int) -> np.ndarray:
    """The seed's byte-level unpack: LSB-first bits, trimmed and copied."""
    return np.unpackbits(wire, bitorder="little")[:length].copy()


def _seed_pack(bits: np.ndarray) -> bytes:
    """The seed's byte-level pack: LSB-first, eight bits per byte."""
    packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return packed.tobytes()


def _seed_pack_unpack(signs: np.ndarray) -> np.ndarray:
    """The seed's sign round trip: pack ``>= 0`` bytewise, unpack to floats."""
    wire = np.frombuffer(_seed_pack((signs >= 0).astype(np.uint8)), np.uint8)
    return _seed_unpack(wire, signs.size).astype(np.float64) * 2.0 - 1.0


def _seed_gamma_encode(values: np.ndarray) -> tuple[bytes, int]:
    """The seed's per-bit Elias-gamma writer, frozen: ``n`` zeros, then the
    value's ``n + 1`` bits MSB-first, one list append per bit."""
    bits: list[int] = []
    for raw in values:
        value = int(raw)
        if value < 1:
            raise ValueError("Elias gamma encodes positive integers only")
        n = value.bit_length() - 1
        for _ in range(n):
            bits.append(0)
        for shift in range(n, -1, -1):
            bits.append((value >> shift) & 1)
    payload = np.packbits(np.array(bits, dtype=np.uint8), bitorder="big")
    return payload.tobytes(), len(bits)


def _seed_hop(
    received_wire: np.ndarray,
    local_bits: np.ndarray,
    received_weight: int,
    local_weight: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The seed's per-hop work, frozen: unpack the wire payload, draw one
    float64 uniform per element, merge element-wise on uint8, repack."""
    received = _seed_unpack(received_wire, local_bits.size)
    local = _seed_validate(local_bits)
    keep_local = local_weight / (received_weight + local_weight)
    uniforms = rng.random(local.size)
    probs = np.where(local == 1, keep_local, 1.0 - keep_local)
    transient = (uniforms < probs).astype(np.uint8)
    received, local, transient = (
        _seed_validate(array) for array in (received, local, transient)
    )
    merged = (received & local) | ((received ^ local) & transient)
    _seed_pack(merged)
    return merged


def run_kernels(num_elems: int, reference_repeats: int = 1,
                fast_repeats: int = 3) -> dict:
    """Time all three kernels at ``num_elems`` elements; verify outputs."""
    rng = np.random.default_rng(7)
    received_bits = (rng.random(num_elems) < 0.5).astype(np.uint8)
    local_bits = (rng.random(num_elems) < 0.5).astype(np.uint8)
    received_wire = np.frombuffer(_seed_pack(received_bits), np.uint8)
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
        return merge_sign_bits(received_bits, local_bits, transient)

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
        _seed_pack_unpack(signs),
    ):
        raise AssertionError("packed sign round-trip diverged from reference")

    # Zigzagged sign-sums: the SSDM-under-MAR Elias workload (small values
    # dominate, exactly where gamma codes are short).
    sums = rng.integers(-8, 9, num_elems)
    values = zigzag_encode(sums)
    if _seed_gamma_encode(values)[1] != elias_gamma_bits(values):
        raise AssertionError("gamma code length diverged from the bit writer")

    results: dict = {}
    _measure("hop_merge", old_hop, new_hop, fast_repeats, fast_repeats, results)
    _measure(
        "pack_unpack",
        lambda: _seed_pack_unpack(signs),
        lambda: PackedBits.from_signs(signs).to_signs(),
        fast_repeats,
        fast_repeats,
        results,
    )
    _measure(
        "elias_gamma",
        lambda: _seed_gamma_encode(values),
        lambda: elias_gamma_bits(values),
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
