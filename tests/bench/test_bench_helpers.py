"""Tests for the bench harness: reporting and calibration."""

import numpy as np
import pytest

from repro.bench import WORKLOADS, calibrate_global_lr, format_table
from repro.bench.reporting import print_series, save_report


class TestFormatTable:
    def test_structure(self):
        text = format_table(["a", "bbb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("a")
        # the rule line spans both padded columns: width 4 + sep 2 + width 3
        assert lines[1] == "----  ---"
        # second column starts at a fixed offset on every row
        assert lines[2][:6] == "x     "
        assert lines[3][:6] == "yyyy  "

    def test_handles_numbers_and_strings(self):
        text = format_table(["k", "v"], [[1, 2.5], ["x", None]])
        assert "None" in text

    def test_empty_rows(self):
        text = format_table(["only", "header"], [])
        assert "only" in text


class TestSaveReport:
    def test_writes_file(self, tmp_path):
        save_report("unit", "hello table", directory=str(tmp_path))
        assert (tmp_path / "unit.txt").read_text() == "hello table\n"

    def test_print_series_runs(self, capsys):
        print_series("t", "x", {"s": [(1.0, 2.0), (3.0, 4.0)]})
        out = capsys.readouterr().out
        assert "(1,2)" in out and "(3,4)" in out


class TestCalibration:
    def test_positive_and_scales_with_lr(self):
        spec = WORKLOADS["mnist-alexnet"]
        train_set, _ = spec.make_data()
        small = calibrate_global_lr(
            spec.model_factory, train_set, 16, 0.01, pilot_steps=8,
            measure_last=4,
        )
        large = calibrate_global_lr(
            spec.model_factory, train_set, 16, 0.1, pilot_steps=8,
            measure_last=4,
        )
        assert 0 < small < large

    def test_momentum_increases_scale(self):
        spec = WORKLOADS["mnist-alexnet"]
        train_set, _ = spec.make_data()
        plain = calibrate_global_lr(
            spec.model_factory, train_set, 16, 0.03, momentum=0.0,
            pilot_steps=10, measure_last=5,
        )
        heavy = calibrate_global_lr(
            spec.model_factory, train_set, 16, 0.03, momentum=0.9,
            pilot_steps=10, measure_last=5,
        )
        assert heavy > plain

    def test_far_below_initial_gradient_scale(self):
        # The reason for the warmed pilot: the t=0 gradient RMS is an order
        # of magnitude above steady state.
        from repro.data.sharding import WorkerBatchIterator
        from repro.nn.losses import CrossEntropyLoss

        spec = WORKLOADS["cifar10-alexnet"]
        train_set, _ = spec.make_data()
        model = spec.model_factory()
        loss_fn = CrossEntropyLoss()
        x, y = WorkerBatchIterator(train_set, 16, seed=0).next_batch()
        loss_fn(model(x), y)
        model.backward(loss_fn.backward())
        init_scale = spec.local_lr * np.sqrt(
            (model.flatten_grads() ** 2).mean()
        ) * 10
        calibrated = calibrate_global_lr(
            spec.model_factory, train_set, 16, spec.local_lr
        )
        assert calibrated < 0.5 * init_scale


class TestAblationEliasBits:
    def test_elias_sign_sums_sit_between_one_bit_and_fixed_width(self):
        from benchmarks.bench_ablation_marsit_parts import _elias_bits_per_element

        elias_bits, fixed_bits = _elias_bits_per_element()
        # The bench's own assertions, and the M=8 figures it records in
        # benchmarks/results/ablation_marsit_parts.txt (3.04 vs 5.00).
        assert elias_bits < fixed_bits
        assert elias_bits > 1.5
        assert (round(elias_bits, 2), fixed_bits) == (3.04, 5.0)
