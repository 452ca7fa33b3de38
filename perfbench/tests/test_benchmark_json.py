"""BENCHMARK.json agrees with the benchmark code and stays within its limits."""

import json
import re

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

from .conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_command_and_paths(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_workloads_match_the_code(spec):
    listed = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    assert 2 <= len(listed) == len(spec["workloads"])
    for name, why in listed.items():
        assert why == WORKLOADS[name].why
    for workload in WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_metrics_match_the_code(spec):
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_names_units_and_bounds_within_limits(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
