"""Columnar RecordBatch and vectorized predicate evaluation.

The contract under test: for every predicate and every record population,
``struct_filter_mask`` keeps exactly the rows row-at-a-time evaluation
keeps — the vectorized fast path and the per-row fallback may differ in
speed, never in answers.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np
import pytest

from repro.data.records import DataRecord, reset_uid_counter
from repro.errors import SQLExecutionError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.sem.batch import (
    RecordBatch,
    _exact_float_column,
    struct_filter_mask,
)
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.structql import compile_predicate, predicate_holds


def _records(rows: list[dict]) -> list[DataRecord]:
    return [DataRecord(fields=row, uid=f"rb-{index:03d}") for index, row in enumerate(rows)]


MIXED = _records(
    [
        {"priority": 1, "amount": 10.0, "name": "acme", "flag": True},
        {"priority": 4, "amount": 0.5, "name": "globex", "flag": False},
        {"priority": None, "amount": 99.9, "name": None, "flag": None},
        {"amount": 7.0, "name": "stark"},  # priority/flag missing
        {"priority": 3, "amount": None, "name": "acme", "flag": True},
        {"priority": 2, "amount": 2**60, "name": "wayne", "flag": False},
    ]
)


# ---------------------------------------------------------------------------
# Batch structure
# ---------------------------------------------------------------------------


class TestRecordBatch:
    def test_len_and_iter_preserve_order(self):
        batch = RecordBatch(MIXED)
        assert len(batch) == len(MIXED)
        assert list(batch) == MIXED

    def test_column_reads_missing_as_none_and_caches(self):
        batch = RecordBatch(MIXED)
        column = batch.column("priority")
        assert list(column) == [1, 4, None, None, 3, 2]
        assert batch.column("priority") is column

    def test_validity_tracks_presence(self):
        batch = RecordBatch(MIXED)
        assert list(batch.validity("priority")) == [True, True, False, False, True, True]
        assert list(batch.validity("amount")) == [True, True, True, True, False, True]

    def test_take_shares_record_objects(self):
        batch = RecordBatch(MIXED)
        mask = np.array([True, False, True, False, False, False])
        kept = batch.take(mask)
        assert kept.records == [MIXED[0], MIXED[2]]
        assert kept.records[0] is MIXED[0]


# ---------------------------------------------------------------------------
# Vectorized predicates agree with row-at-a-time evaluation
# ---------------------------------------------------------------------------

PREDICATES = [
    "priority >= 2",
    "priority = 4",
    "4 = priority",
    "2 < priority",
    "priority <> 1",
    "priority != 1",
    "priority <= 3 AND amount > 1.0",
    "priority = 4 OR amount < 1.0",
    "NOT (priority >= 2)",
    "priority IS NULL",
    "priority IS NOT NULL",
    "priority BETWEEN 2 AND 3",
    "priority NOT BETWEEN 2 AND 3",
    "priority BETWEEN 2 AND NULL",
    "priority IN (1, 3)",
    "priority NOT IN (1, 3)",
    "priority IN (1, NULL)",
    "name = 'acme'",            # string compare: exact scalar loop
    "name < 'globex'",          # string ordering: exact scalar loop
    "name LIKE 'a%'",           # no vector path: per-row fallback
    "flag",                     # bare boolean column
    "amount = 1152921504606846976",  # beyond float64-exact: scalar loop
    "priority = NULL",
    "length(name) > 4",         # scalar function: per-row fallback
    "priority < 3",
    "name <= 'globex'",
    "name >= 'globex'",
    "priority = amount",        # column-to-column: per-row fallback
    "priority + 1 = 2",         # arithmetic leaf: per-row fallback
    "priority + 1 IS NULL",
    "priority + 1 BETWEEN 1 AND 2",
    "priority + 1 IN (1, 2)",
    "name BETWEEN 'a' AND 'z'",  # non-numeric bounds: per-row fallback
]


@pytest.mark.parametrize("condition", PREDICATES)
def test_mask_matches_row_semantics(condition):
    batch = RecordBatch(MIXED)
    mask = struct_filter_mask(compile_predicate(condition), batch)
    expected = [predicate_holds(condition, record.fields) for record in MIXED]
    assert list(mask) == expected, condition


def test_numeric_truthiness_falls_back_to_executor():
    # A bare numeric column is not a boolean TRUE: the executor returns the
    # value itself and WHERE keeps only exact TRUE, so every numeric row
    # drops.  The vector path must defer to the executor, not coerce.
    batch = RecordBatch(MIXED)
    mask = struct_filter_mask(compile_predicate("priority"), batch)
    expected = [predicate_holds("priority", record.fields) for record in MIXED]
    assert list(mask) == expected == [False] * len(MIXED)


class TestExactFloatColumn:
    def test_rejects_bool_literal(self):
        batch = RecordBatch(MIXED)
        column, valid = batch.column("priority"), batch.validity("priority")
        assert _exact_float_column(column, valid, True) is None
        assert _exact_float_column(column, valid, "x") is None

    def test_rejects_huge_int_literal_and_values(self):
        batch = RecordBatch(MIXED)
        column, valid = batch.column("priority"), batch.validity("priority")
        assert _exact_float_column(column, valid, 2**60) is None
        # The "amount" column contains a 2**60 value.
        assert (
            _exact_float_column(batch.column("amount"), batch.validity("amount"), 1)
            is None
        )

    def test_rejects_non_numeric_values(self):
        batch = RecordBatch(MIXED)
        assert (
            _exact_float_column(batch.column("name"), batch.validity("name"), 1)
            is None
        )

    def test_accepts_mixed_int_float_with_nan_nulls(self):
        batch = RecordBatch(MIXED)
        floats = _exact_float_column(
            batch.column("priority"), batch.validity("priority"), 2
        )
        assert floats is not None
        assert floats[0] == 1.0 and np.isnan(floats[2])


# ---------------------------------------------------------------------------
# Columnar engine mode is an invisible fast path
# ---------------------------------------------------------------------------


def _run_qa_plan(columnar: bool):
    reset_uid_counter()
    bundle = build_corpus(CorpusSpec(seed=9, n_records=20))
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=9)
    config = QueryProcessorConfig(
        llm=llm, optimize=False, seed=9, columnar=columnar
    )
    result = (
        Dataset.from_source(bundle.source())
        .where("priority >= 2")
        .sem_filter(instruction_for("qa.flag_urgent"))
        .filter(lambda r: r.get("priority", 0) <= 3, description="le3")
        .limit(5)
        .run(config)
    )
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records], (
        result.total_cost_usd,
        result.total_time_s,
    )


def test_columnar_escape_hatch_is_bit_identical():
    columnar_records, columnar_totals = _run_qa_plan(columnar=True)
    row_records, row_totals = _run_qa_plan(columnar=False)
    assert columnar_records == row_records
    assert columnar_totals == row_totals


# ---------------------------------------------------------------------------
# Vectorized project / py_map: bit-identical to row-mode derive
# ---------------------------------------------------------------------------


def _mixed_shape_records():
    """Records with two distinct field shapes (exercises the shape cache)."""
    records = []
    for i in range(6):
        fields = {"a": i, "b": f"s{i}", "c": float(i)}
        if i % 2:
            fields["extra"] = i * 10
        record = DataRecord(fields, uid=f"r{i}")
        record.annotations["tag"] = i
        record.source_id = "mixed"
        records.append(record)
    return records


def _identical(left: DataRecord, right: DataRecord) -> bool:
    return (
        left.uid == right.uid
        and left.fields == right.fields
        and left.annotations == right.annotations
        and left.source_id == right.source_id
        and left.parent_uids == right.parent_uids
    )


def test_project_batch_matches_row_mode_derive():
    from repro.sem.batch import project_batch

    records = _mixed_shape_records()
    fields = ["a", "c"]
    out = project_batch(RecordBatch(records), fields)
    wanted = set(fields)
    for record, got in zip(records, out.records):
        drop = [name for name in record.fields if name not in wanted]
        expected = record.derive({}, drop=drop)
        assert _identical(expected, got)


def test_project_batch_shares_projected_columns():
    from repro.sem.batch import project_batch

    batch = RecordBatch(_mixed_shape_records())
    batch.column("a")  # warm the input cache
    out = project_batch(batch, ["a", "b"])
    # Projection never rewrites values: columns are shared, not copied.
    assert out._columns["a"] is batch._columns["a"]
    assert out._validity["b"] is batch._validity["b"]
    assert list(out.column("a")) == [r.fields["a"] for r in out.records]


def test_py_map_batch_matches_row_mode_derive():
    from repro.sem.batch import py_map_batch

    def fn(record):
        new = {"doubled": record.fields["a"] * 2}
        if "extra" in record.fields:
            new["b"] = "overwritten"  # touch an existing field too
        return new

    records = _mixed_shape_records()
    out = py_map_batch(RecordBatch(records), fn)
    for record, got in zip(records, out.records):
        expected = record.derive(fn(record))
        assert _identical(expected, got)


def test_py_map_batch_pre_seeded_columns_match_lazy():
    from repro.sem.batch import py_map_batch

    def fn(record):
        return {"doubled": record.fields["a"] * 2}

    batch = RecordBatch(_mixed_shape_records())
    batch.column("b")  # warm an untouched input column
    out = py_map_batch(batch, fn)
    # Touched columns were materialized array-at-a-time...
    assert "doubled" in out._columns
    fresh = RecordBatch(list(out.records))
    assert list(out.column("doubled")) == list(fresh.column("doubled"))
    # ...while untouched ones are shared with the input batch's cache.
    assert out._columns["b"] is batch._columns["b"]


def test_py_map_batch_rejects_non_dict_with_row_mode_message():
    from repro.errors import ExecutionError
    from repro.sem.batch import py_map_batch

    with pytest.raises(
        ExecutionError, match="PyMap function must return a dict"
    ):
        py_map_batch(RecordBatch(_mixed_shape_records()), lambda r: 42)


# ---------------------------------------------------------------------------
# Leaf paths: numeric, same-type and the exact scalar loop agree with rows
# ---------------------------------------------------------------------------


class _Level(IntEnum):
    LOW = 1
    HIGH = 3


class _Tag(str):
    """A str subclass: the executor compares it as a different type."""


def _outcome(evaluate):
    """The evaluation's result, or the type and text of the error it raised."""
    try:
        return evaluate()
    except SQLExecutionError as exc:
        return (type(exc), str(exc))


def _row_outcome(condition, records):
    return _outcome(
        lambda: [predicate_holds(condition, record.fields) for record in records]
    )


def _columnar_outcome(condition, records):
    expr = compile_predicate(condition)
    return _outcome(lambda: list(struct_filter_mask(expr, RecordBatch(records))))


LEAF_POPULATIONS = {
    "numpy-floats": [np.float64(1.5), 2.0, None, np.float64(3.0), 1],
    "int-enum": [_Level.LOW, 3, _Level.HIGH, None, 2],
    "bools-in-ints": [1, True, 2, False, None, 0],
    "int-boundary": [2**53, -(2**53), 2**53 + 1, 2**53 - 1, 5, None],
    "nan": [1.0, float("nan"), 3.0, None, 2],
    "str-subclass": [_Tag("acme"), "acme", "globex", None, _Tag("wayne")],
    "str-and-int": ["acme", 3, None, "globex"],
    "bools": [True, False, None, True],
    "strings": ["acme", "globex", None, "wayne", "Acme"],
}

LEAF_CONDITIONS = [
    "v = 1",
    "v <> 1",
    "v < 2",
    "v >= 3",
    "v = 1.5",
    "v > 1.5",
    "v = 9007199254740992",
    "v < 9007199254740992",
    "v = 9007199254740993",
    "v >= 9007199254740991",
    "v = 9007199254740992.0",
    "v <= 9007199254740991",
    "v = 'acme'",
    "v != 'acme'",
    "v < 'globex'",
    "v >= 'b'",
    "v = TRUE",
    "v <> FALSE",
    "v < TRUE",
    "v IN (1, 3)",
    "v NOT IN (1.5, 2)",
    "v IN ('acme', 'wayne', NULL)",
    "v IN (1, 'acme')",
    "v BETWEEN 1 AND 2",
    "v NOT BETWEEN 1.5 AND 3",
    "v BETWEEN 9007199254740991 AND 9007199254740993",
    "v BETWEEN 'a' AND 'h'",
    "v BETWEEN 1 AND 'z'",
    "v",
    "NOT v",
    "v = 1 OR v > 2",
    "NOT (v = 1.5) AND v IS NOT NULL",
]


@pytest.mark.parametrize("population", sorted(LEAF_POPULATIONS))
@pytest.mark.parametrize("condition", LEAF_CONDITIONS)
def test_leaf_paths_match_row_semantics(population, condition):
    records = _records([{"v": value} for value in LEAF_POPULATIONS[population]])
    expected = _row_outcome(condition, records)
    assert _columnar_outcome(condition, records) == expected, (population, condition)


def test_mismatched_ordering_raises_the_row_mode_error():
    records = _records([{"v": value} for value in ["acme", 3, "globex"]])
    row = _row_outcome("v < 'b'", records)
    assert row[0] is SQLExecutionError and "mismatched types" in row[1]
    assert _columnar_outcome("v < 'b'", records) == row


def test_numeric_path_rejects_ints_reaching_two_to_the_53():
    column = np.array([2**53 + 1, 1], dtype=object)
    valid = np.array([True, True])
    # float(2**53 + 1) == 2**53: the float view would call it equal to 2**53.
    assert _exact_float_column(column, valid, 1) is None
    assert _exact_float_column(column[1:], valid[1:], 2**53) is None
    assert _exact_float_column(column[1:], valid[1:], 2**53 - 1) is not None


def test_present_types_ignore_nulls():
    batch = RecordBatch(MIXED)
    assert batch.present_types("priority") == {int}
    assert batch.present_types("amount") == {int, float}
    assert batch.present_types("flag") == {bool}


def _assert_carried_columns_are_fresh(batch: RecordBatch, names):
    fresh = RecordBatch(list(batch.records))
    for name in names:
        assert list(batch._columns[name]) == list(fresh.column(name)), name
        assert list(batch._validity[name]) == list(fresh.validity(name)), name


def test_take_carries_built_columns_equal_to_fresh_ones():
    batch = RecordBatch(MIXED)
    for name in ("priority", "name"):
        batch.validity(name)
    mask = struct_filter_mask(compile_predicate("amount > 1.0"), batch)
    kept = batch.take(mask)
    assert [record.uid for record in kept] == [
        record.uid for record, keep in zip(MIXED, mask) if keep
    ]
    _assert_carried_columns_are_fresh(kept, ("priority", "name", "amount"))
    _assert_carried_columns_are_fresh(batch.head(3), ("priority", "name", "amount"))
    _assert_carried_columns_are_fresh(kept.head(1), ("priority", "name", "amount"))
