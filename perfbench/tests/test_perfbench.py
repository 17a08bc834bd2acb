"""Tests for the benchmark's own code: inputs, self time, names, failure counting."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs as gen
from perfbench import run, stats
from perfbench.run import compare_rounds, result_metrics
from perfbench.tracing import Recorder, install, per_layer_metrics, self_times
from perfbench.workloads import WORKLOADS, Meter, OpRecord, StructSpec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_generators_repeat_for_a_seed_and_move_with_it():
    assert gen.records_digest(gen.make_tickets(3, 200)) == gen.records_digest(gen.make_tickets(3, 200))
    assert gen.records_digest(gen.make_tickets(3, 200)) != gen.records_digest(gen.make_tickets(4, 200))
    assert gen.records_digest(gen.make_table(3, 200)) == gen.records_digest(gen.make_table(3, 200))
    assert gen.records_digest(gen.make_table(3, 200)) != gen.records_digest(gen.make_table(4, 200))
    trace = gen.make_arrivals(3, 8, 4, 100.0, 40, 6)
    assert trace == gen.make_arrivals(3, 8, 4, 100.0, 40, 6)
    assert trace != gen.make_arrivals(4, 8, 4, 100.0, 40, 6)
    assert gen.make_mutations(3, 8, 200, 5, 4) == gen.make_mutations(3, 8, 200, 5, 4)
    assert gen.trial_seeds(3, 5) == gen.trial_seeds(3, 5) != gen.trial_seeds(4, 5)


def test_every_instruction_variant_resolves_to_its_intent():
    registry = gen.ticket_registry()
    for key, (_, variants) in gen.INTENTS.items():
        for variant in variants:
            assert registry.resolve(variant).key == key


def test_appended_tickets_continue_the_uid_sequence():
    base = gen.make_tickets(1, 10, prefix="s")
    more = gen.make_tickets(1, 5, prefix="s", start=10)
    assert [r.uid for r in base + more] == [f"s-{i}" for i in range(15)]


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); b holds c [60, 70).
    start = np.array([0, 10, 50, 60])
    end = np.array([100, 40, 90, 70])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [30, 30, 30, 10]
    assert self_times(start, end, parent).sum() == 100


def test_wrappers_record_spans_and_are_removed():
    from repro.utils import hashing, text
    from repro.llm import simulated

    original = hashing.stable_hash
    recorder = Recorder()
    installation = install(recorder)
    try:
        assert simulated.stable_hash is not original  # rebound where imported by name
        text.tokenize("outside any operation")  # not recorded
        with recorder.root(0):
            text.tokenize("a b")
            hashing.stable_digest("x")
    finally:
        installation.uninstall()
    assert hashing.stable_hash is original and simulated.stable_hash is original
    names = [recorder.names[i] for i in recorder.name]
    assert names == ["other", "repro.utils.text.tokenize", "repro.utils.hashing.stable_digest"]
    assert list(recorder.parent) == [-1, 0, 0]


def test_benchmark_json_names_and_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in names + end_to_end + per_layer:
        assert NAME.match(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert set(names) == set(WORKLOADS)
    assert "setup_s" in end_to_end
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    from collections import defaultdict

    report = {
        "counts": defaultdict(float),
        "layer_self_s": defaultdict(float),
        "name_calls": lambda name: 0.0,
        "name_self_s": lambda name: 0.0,
        "group_self_s": lambda group: 0.0,
        "group_calls": lambda group: 0.0,
        "total_s": 1.0,
        "spans": 0,
    }
    assert per_layer == list(per_layer_metrics(report, 1.0))


def test_result_metrics_take_units_from_benchmark_json_and_refuse_other_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {m["name"]: 1.0 for m in spec}
    out = result_metrics(values, "end_to_end")
    assert out == {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec}
    with pytest.raises(SystemExit):
        result_metrics({**values, "unlisted": 1.0}, "end_to_end")
    values.pop("setup_s")
    with pytest.raises(SystemExit):
        result_metrics(values, "end_to_end")


def test_reference_seed_digest_is_checked_whatever_seed_runs(monkeypatch):
    workload = WORKLOADS["research"]
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())["research"]
    assert run.digest_mismatches(workload, 999, "unrecorded") == []
    assert run.digest_mismatches(workload, 3, recorded["3"]) == []
    assert run.digest_mismatches(workload, 3, "changed")
    # A generator change shows on the reference seed even for an unrecorded seed.
    real_inputs = workload.inputs
    monkeypatch.setattr(workload, "inputs", lambda seed: {**real_inputs(seed), "input_digest": "x"})
    assert run.digest_mismatches(workload, 999, "unrecorded")


def test_speed_probes_run_between_operations_at_most_every_interval():
    meter = Meter()
    record, _ = meter.op("q", lambda: None)
    meter.op("q", lambda: None)
    assert len(meter.probes) == 1  # the second op came within PROBE_EVERY_S
    assert record.host_s < meter.probes[0][1]  # the probe is not in the op's time


def test_each_operation_is_scaled_by_the_probes_near_it():
    from perfbench.workloads import PROBE_NOMINAL_S

    meter = Meter()
    meter.ops = [OpRecord("q", started=t) for t in (0.0, 10.0, 30.0)]
    nominal = PROBE_NOMINAL_S
    meter.probes = [(-0.5, nominal), (0.5, 3 * nominal), (0.9, 2 * nominal), (10.2, nominal / 2)]
    # op 0: median of its three probes; op 1: its one probe; op 2: the nearest.
    assert meter.slowdowns() == [2.0, 0.5, 0.5]


def test_a_wrong_answer_in_a_later_round_counts_as_failed():
    first = [OpRecord("q", digest="a", virtual_s=1.0), OpRecord("q", digest="b", virtual_s=2.0)]
    later = Meter()
    later.ops = [OpRecord("q", digest="a", virtual_s=1.0), OpRecord("q", digest="x", virtual_s=2.0)]
    assert compare_rounds(first, later, "d", "d") == 1
    assert later.ops[1].errors and not later.ops[0].errors
    changed_inputs = Meter()
    changed_inputs.ops = [OpRecord("q", digest="a", virtual_s=1.0)]
    assert compare_rounds(first[:1], changed_inputs, "d", "e") == 1


def test_structured_check_catches_an_injected_wrong_result():
    workload = WORKLOADS["structured"]
    rows = gen.make_table(5, 2000)
    spec = StructSpec("pyfilter-where", 4, "north", "email", "open", 0)
    expected, _ = workload.reference(spec, rows)
    assert expected

    class Result:
        def __init__(self, records):
            self.records = records
            self.operator_stats = []

    from repro.data.records import DataRecord

    good = Result([DataRecord(fields, uid=uid) for uid, fields in expected])
    op = OpRecord("pyfilter-where@4")
    workload.check(spec, rows, {r.uid: r for r in rows}, good, op)
    assert not op.errors
    bad = Result(good.records[:-1])
    op = OpRecord("pyfilter-where@4")
    workload.check(spec, rows, {r.uid: r for r in rows}, bad, op)
    assert op.errors


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.percentile([1.0, 2.0, 3.0] * 4, 50.0) == stats.percentile([1.0, 2.0, 3.0], 50.0)
