"""The traced run: restoring wrapped callables, self times, Chrome export."""

import json

import pytest

from perfbench import spans
from perfbench.spans import Recorder, layer_times, self_times
from perfbench.workloads import WORKLOADS, RoundClock

MISSING = object()


def _snapshot():
    from repro.allreduce import get_topology, topology_names

    attrs = {
        (owner, attr): vars(owner).get(attr, MISSING)
        for owner, attr, *_ in spans._wrap_points()
    }
    entries = {name: get_topology(name) for name in topology_names()}
    return attrs, entries


def _assert_restored(attrs, entries):
    from repro.allreduce import get_topology, topology_names

    for (owner, attr), original in attrs.items():
        assert vars(owner).get(attr, MISSING) is original, (owner, attr)
    assert set(topology_names()) == set(entries)
    for name, entry in entries.items():
        assert get_topology(name) is entry


def test_install_wraps_and_restore_puts_back_every_original():
    from repro.allreduce import get_topology

    attrs, entries = _snapshot()
    with Recorder():
        for (owner, attr), original in attrs.items():
            assert vars(owner).get(attr, MISSING) is not original, (owner, attr)
        for name, entry in entries.items():
            assert get_topology(name) is not entry
    _assert_restored(attrs, entries)


def test_restore_after_an_exception():
    attrs, entries = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Recorder():
            1 / 0
    _assert_restored(attrs, entries)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    recorder = Recorder()
    clock = RoundClock(recorder)
    with recorder:
        episode = WORKLOADS[request.param].run(3, clock, smoke=True)
    return request.param, recorder, clock, episode


def test_traced_outputs_match_untraced(traced):
    name, _, _, episode = traced
    plain = WORKLOADS[name].run(3, RoundClock(), smoke=True)
    assert episode.failures == []
    assert episode.fingerprint() == plain.fingerprint()


def test_self_times_are_non_negative_and_partition_the_round(traced):
    _, recorder, clock, _ = traced
    assert min(self_times(recorder)) >= -1e-12
    totals, round_s, rounds = layer_times(recorder)
    assert rounds > 0
    assert all(seconds >= -1e-12 for seconds in totals.values())
    assert sum(totals.values()) == pytest.approx(round_s, rel=1e-9, abs=1e-12)
    assert round_s == pytest.approx(sum(clock.round_s), rel=0.05)


def test_every_span_name_maps_to_a_layer_metric(traced):
    _, recorder, _, _ = traced
    assert set(recorder.names) <= set(spans.SPAN_METRICS) | {spans.CHECK}


def test_nested_module_calls_collapse_into_one_span():
    recorder = Recorder()
    clock = RoundClock(recorder)
    with recorder:
        WORKLOADS["train-mlp-ring"].run(3, clock, smoke=True, rounds=3)
    forward = [
        index
        for index, name in enumerate(recorder.names)
        if name == "nn.forward" and recorder.rounds[index] is not None
    ]
    # Two timed rounds, 16 workers, one model call and one loss call each.
    assert len(forward) == 2 * 16 * 2


def test_chrome_trace_is_valid_trace_event_json(traced, tmp_path):
    _, recorder, _, _ = traced
    path = tmp_path / "trace.json"
    spans.write_chrome_trace(recorder, path)
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(recorder.names)
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        assert -1 <= event["args"]["parent"] < len(events)


def test_alloc_pass_records_one_peak_per_synchronize():
    peaks = []
    with spans.measure_sync_alloc(peaks):
        WORKLOADS["sync-1m-ring"].run(3, RoundClock(), smoke=True, rounds=2)
    assert len(peaks) == 2 and min(peaks) > 0
