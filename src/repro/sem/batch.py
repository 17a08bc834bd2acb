"""Columnar record batches for the streaming executor's hot path.

A :class:`RecordBatch` is a struct-of-arrays view over a list of
:class:`~repro.data.records.DataRecord`: per-field value arrays plus
validity (non-NULL presence) masks, built lazily and cached.  The original
record objects ride along untouched, so any operator that only *selects*
rows (filters, limits) emits the identical objects row mode would — the
bit-identity contract costs nothing.

Vectorized predicate evaluation (:func:`struct_filter_mask`) mirrors the
``repro.sql`` executor's three-valued logic exactly.  Internally a boolean
expression is a pair of masks ``(true, false)`` with NULL = neither.  Each
``column <op> literal`` leaf picks its path from the set of Python types
present in the column (computed once per batch and column, at C speed):

- *numeric*: every present value is a plain ``int``/``float`` and so is
  the literal, with no int at or beyond 2**53 — compare numpy float64
  arrays, which is provably lossless;
- *same-type*: every present value has exactly the literal's type —
  compare the object array directly, which runs the same Python operator
  the executor does;
- *exact scalar loop*: anything else (bools against numbers, numpy
  scalars, subclasses, mixed types) loops the executor's own scalar
  helpers once per batch, so mismatched types raise its
  ``SQLExecutionError``.

A leaf result that is not a Python bool sends the whole predicate to
per-row evaluation.  Row mode and columnar mode can therefore only ever
disagree in which row's error they raise.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Any, Callable, Iterator

import numpy as np

from repro.data.records import DataRecord
from repro.errors import ExecutionError
from repro.sem.structql import evaluate_predicate
from repro.utils.hashing import stable_digest
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sql.executor import _sql_equal, _sql_less, _sql_lte

#: Integers with magnitude below this are exact in float64, so a numpy
#: float compare cannot diverge from Python int comparison.
_EXACT_FLOAT_INT = 2**53

#: Present-value types the numeric path accepts (exact types: no bools,
#: numpy scalars or subclasses).
_NUMERIC_TYPES = frozenset({int, float})


class RecordBatch:
    """A struct-of-arrays view over a run of records."""

    __slots__ = ("records", "_columns", "_validity", "_types")

    def __init__(self, records: list[DataRecord]) -> None:
        self.records = records
        self._columns: dict[str, np.ndarray] = {}
        self._validity: dict[str, np.ndarray] = {}
        self._types: dict[str, frozenset[type]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DataRecord]:
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        """Field values as an object array; missing fields read as None."""
        cached = self._columns.get(name)
        if cached is None:
            values = [record.fields.get(name) for record in self.records]
            cached = np.fromiter(values, dtype=object, count=len(values))
            self._columns[name] = cached
        return cached

    def validity(self, name: str) -> np.ndarray:
        """True where the field is present and not NULL."""
        cached = self._validity.get(name)
        if cached is None:
            flags = [value is not None for value in self.column(name).tolist()]
            cached = np.fromiter(flags, dtype=bool, count=len(flags))
            self._validity[name] = cached
        return cached

    def present_types(self, name: str) -> frozenset[type]:
        """The exact Python types of the field's non-NULL values."""
        cached = self._types.get(name)
        if cached is None:
            cached = frozenset(map(type, self.column(name).tolist())) - {type(None)}
            self._types[name] = cached
        return cached

    def take(self, mask: np.ndarray) -> "RecordBatch":
        """Rows where the boolean array ``mask`` is True, as a new batch
        (records shared).

        Columns and validity masks already built here are carried over,
        sliced by the same mask, so later stages never rebuild them.
        """
        return self._select(list(compress(self.records, mask.tolist())), mask)

    def head(self, n: int) -> "RecordBatch":
        """The first ``n`` rows, carrying the built columns like :meth:`take`."""
        return self._select(self.records[:n], slice(n))

    def _select(self, records: list[DataRecord], index: Any) -> "RecordBatch":
        out = RecordBatch(records)
        out._columns = {name: column[index] for name, column in self._columns.items()}
        out._validity = {name: valid[index] for name, valid in self._validity.items()}
        return out


# ---------------------------------------------------------------------------
# Vectorized field writes (projection / py-map)
# ---------------------------------------------------------------------------
#
# Deriving operators used to funnel every batch through the per-row
# ``DataRecord.derive`` path: one full dict rebuild per record plus a second
# defensive copy inside ``DataRecord.__init__``, and downstream columnar
# consumers then re-scanned the fresh records per field to rebuild column
# caches.  The helpers below produce the same records with the copies
# amortized batch-wide — per-shape drop/sort tuples computed once, a single
# owned dict per output record, and the output batch's column/validity
# caches pre-seeded array-at-a-time (shared with the input where the
# operator provably does not touch the field).  The uid digest stays the
# per-row ``derive`` formula, so outputs are bit-identical to row mode;
# ``process_record`` remains the row-mode escape hatch.


def _fast_child(
    parent: DataRecord, fields: dict[str, Any], suffix: str
) -> DataRecord:
    """Construct a derived record from an owned fields dict, skipping the
    constructor's defensive copy.  Must mirror :meth:`DataRecord.derive`."""
    child = DataRecord.__new__(DataRecord)
    child.uid = f"{parent.uid}.{suffix}"
    child.fields = fields
    child.annotations = dict(parent.annotations)
    child.source_id = parent.source_id
    child.parent_uids = (parent.uid,)
    return child


def project_batch(batch: RecordBatch, fields: "list[str] | tuple[str, ...]") -> RecordBatch:
    """Project each record onto ``fields``, batch-at-a-time.

    The kept/dropped name split is computed once per distinct input field
    shape (homogeneous batches pay it once), and since projection never
    rewrites a value, the output batch *shares* the input's column and
    validity arrays for every projected field — downstream vectorized
    predicates get their columns for free.
    """
    wanted = set(fields)
    shapes: dict[tuple[str, ...], tuple[tuple[str, ...], tuple[str, ...]]] = {}
    output = []
    for record in batch.records:
        names = tuple(record.fields)
        shape = shapes.get(names)
        if shape is None:
            shape = (
                tuple(name for name in names if name in wanted),
                tuple(sorted(name for name in names if name not in wanted)),
            )
            shapes[names] = shape
        kept, dropped = shape
        values = record.fields
        suffix = stable_digest(record.uid, (), dropped)[:6]
        output.append(
            _fast_child(record, {name: values[name] for name in kept}, suffix)
        )
    out = RecordBatch(output)
    for name in fields:
        out._columns[name] = batch.column(name)
        out._validity[name] = batch.validity(name)
    return out


def py_map_batch(batch: RecordBatch, fn: Callable[[DataRecord], dict]) -> RecordBatch:
    """Apply a python map ``fn`` to each record, batch-at-a-time.

    The function itself is inherently per-row; everything around it is
    amortized: sorted new-field-name tuples are cached per shape, output
    records are built from one owned dict each, new-field columns are
    materialized array-at-a-time from the map outputs, and columns for
    fields no map output touches are shared with the input batch.
    """
    size = len(batch.records)
    news: list[dict] = []
    for record in batch.records:
        new_fields = fn(record)
        if not isinstance(new_fields, dict):
            raise ExecutionError(
                f"PyMap function must return a dict of new fields, "
                f"got {type(new_fields).__name__}"
            )
        news.append(new_fields)
    sorted_names: dict[tuple[str, ...], tuple[str, ...]] = {}
    output = []
    for record, new_fields in zip(batch.records, news):
        names = tuple(new_fields)
        added = sorted_names.get(names)
        if added is None:
            added = tuple(sorted(names))
            sorted_names[names] = added
        fields = dict(record.fields)
        fields.update(new_fields)
        suffix = stable_digest(record.uid, added, ())[:6]
        output.append(_fast_child(record, fields, suffix))
    out = RecordBatch(output)
    touched = set()
    for new_fields in news:
        touched.update(new_fields)
    for name in touched:
        values = [
            new_fields[name] if name in new_fields else record.fields.get(name)
            for record, new_fields in zip(batch.records, news)
        ]
        out._columns[name] = np.fromiter(values, dtype=object, count=size)
    for name, column in batch._columns.items():
        if name not in touched:
            out._columns[name] = column
            validity = batch._validity.get(name)
            if validity is not None:
                out._validity[name] = validity
    return out


# ---------------------------------------------------------------------------
# Vectorized predicate evaluation
# ---------------------------------------------------------------------------


class _Fallback(Exception):
    """Raised when a sub-expression has no provably-exact vector path."""


def struct_filter_mask(expr: Expr, batch: RecordBatch) -> np.ndarray:
    """Keep-mask for a compiled predicate: True where it evaluates TRUE.

    Identical to evaluating the predicate row-at-a-time (FALSE and NULL
    both drop the row); unsupported shapes fall back to per-row evaluation
    through the shared ``repro.sql`` executor.
    """
    try:
        true_mask, _ = _vector_eval(expr, batch)
        return true_mask
    except _Fallback:
        return np.fromiter(
            (
                evaluate_predicate(expr, record.fields) is True
                for record in batch.records
            ),
            dtype=bool,
            count=len(batch),
        )


def _vector_eval(expr: Expr, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a boolean expression to ``(true, false)`` masks.

    NULL is represented as neither mask set; the algebra below is exactly
    the executor's: AND is TRUE iff both TRUE and FALSE iff either FALSE,
    OR dually, NOT swaps the masks.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            left_t, left_f = _vector_eval(expr.left, batch)
            right_t, right_f = _vector_eval(expr.right, batch)
            return left_t & right_t, left_f | right_f
        if expr.op == "or":
            left_t, left_f = _vector_eval(expr.left, batch)
            right_t, right_f = _vector_eval(expr.right, batch)
            return left_t | right_t, left_f & right_f
        if expr.op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return _vector_compare(expr, batch)
        raise _Fallback
    if isinstance(expr, UnaryOp) and expr.op == "not":
        true_mask, false_mask = _vector_eval(expr.operand, batch)
        return false_mask, true_mask
    if isinstance(expr, IsNull):
        if not isinstance(expr.operand, ColumnRef):
            raise _Fallback
        valid = batch.validity(expr.operand.name)
        null = ~valid
        return (valid, null) if expr.negated else (null, valid)
    if isinstance(expr, Between):
        # Engine semantics: NULL iff any of the three is NULL, else a bool.
        # The engine short-circuits its two bound checks, so only the
        # provably error-free numeric and same-type paths are vectorized.
        if not isinstance(expr.operand, ColumnRef):
            raise _Fallback
        name = expr.operand.name
        low, high = _literal_value(expr.low), _literal_value(expr.high)
        valid = batch.validity(name)
        if low is None or high is None:
            zeros = np.zeros(len(batch), dtype=bool)
            return zeros, zeros.copy()
        floats = _exact_float_column(
            batch.column(name), valid, low, batch.present_types(name)
        )
        if floats is not None and _float_literal(high):
            true_mask = (floats >= float(low)) & (floats <= float(high)) & valid
        elif type(high) is type(low) and batch.present_types(name) <= {type(low)}:
            present = batch.column(name)[valid]
            true_mask = np.zeros(len(batch), dtype=bool)
            true_mask[valid] = (present >= low) & (present <= high)
        else:
            raise _Fallback
        false_mask = valid & ~true_mask
        return (false_mask, true_mask) if expr.negated else (true_mask, false_mask)
    if isinstance(expr, InList):
        # Engine semantics: NULL iff the operand is NULL, else membership
        # (a NULL list element can never match).
        if not isinstance(expr.operand, ColumnRef):
            raise _Fallback
        valid = batch.validity(expr.operand.name)
        true_mask = np.zeros(len(batch), dtype=bool)
        for option in expr.options:
            value = _literal_value(option)
            if value is None:
                continue
            option_t, _ = _vector_compare_leaf(expr.operand, "=", value, batch)
            true_mask = true_mask | option_t
        false_mask = valid & ~true_mask
        return (false_mask, true_mask) if expr.negated else (true_mask, false_mask)
    if isinstance(expr, ColumnRef):
        if not batch.present_types(expr.name) <= {bool}:
            raise _Fallback  # numeric truthiness: leave it to the executor
        valid = batch.validity(expr.name)
        true_mask = np.zeros(len(batch), dtype=bool)
        true_mask[valid] = batch.column(expr.name)[valid].astype(bool)
        return true_mask, valid & ~true_mask
    raise _Fallback


def _literal_value(expr: Expr) -> Any:
    if not isinstance(expr, Literal):
        raise _Fallback
    return expr.value


def _vector_compare(expr: BinaryOp, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """``column <op> literal`` (either side) with exact scalar semantics."""
    if isinstance(expr.left, ColumnRef):
        return _vector_compare_leaf(expr.left, expr.op, _literal_value(expr.right), batch)
    if isinstance(expr.right, ColumnRef):
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
        op = flipped.get(expr.op, expr.op)
        return _vector_compare_leaf(expr.right, op, _literal_value(expr.left), batch)
    raise _Fallback


#: Elementwise ``column <op> literal`` for the numeric and same-type paths.
_COMPARE: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _vector_compare_leaf(
    column_expr: Expr, op: str, literal: Any, batch: RecordBatch
) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(column_expr, ColumnRef):
        raise _Fallback
    name = column_expr.name
    valid = batch.validity(name)
    size = len(valid)
    if literal is None:  # comparison with NULL is NULL everywhere
        zeros = np.zeros(size, dtype=bool)
        return zeros, zeros.copy()

    column = batch.column(name)
    floats = _exact_float_column(column, valid, literal, batch.present_types(name))
    if floats is not None:
        true_mask = _COMPARE[op](floats, float(literal)) & valid
        return true_mask, valid & ~true_mask

    if batch.present_types(name) <= {type(literal)}:
        true_mask = np.zeros(size, dtype=bool)
        true_mask[valid] = _COMPARE[op](column[valid], literal)
        return true_mask, valid & ~true_mask

    # Exact scalar helpers, looped once per batch over the present values:
    # each row gets the leaf value row mode computes.  Equality never
    # raises; ordering raises on mismatched types exactly like row mode.
    if op == "=":
        scalar: Callable[[Any], Any] = lambda value: _sql_equal(value, literal)
    elif op in ("<>", "!="):
        scalar = lambda value: not _sql_equal(value, literal)
    elif op == "<":
        scalar = lambda value: _sql_less(value, literal)
    elif op == "<=":
        scalar = lambda value: _sql_lte(value, literal)
    elif op == ">":
        scalar = lambda value: _sql_less(literal, value)
    else:
        scalar = lambda value: _sql_lte(literal, value)
    values = column.tolist()
    true_mask = np.zeros(size, dtype=bool)
    false_mask = np.zeros(size, dtype=bool)
    for position in np.flatnonzero(valid).tolist():
        outcome = scalar(values[position])
        if outcome is True:
            true_mask[position] = True
        elif outcome is False:
            false_mask[position] = True
        else:
            # Not a bool (numpy scalars compare to ``np.bool_``): only the
            # executor itself reproduces how AND/OR/NOT and WHERE treat it.
            raise _Fallback
    return true_mask, false_mask


def _float_literal(literal: Any) -> bool:
    """True for a plain int/float literal that float64 holds exactly."""
    if type(literal) is float:
        return True
    return type(literal) is int and abs(literal) < _EXACT_FLOAT_INT


def _exact_float_column(
    column: np.ndarray,
    valid: np.ndarray,
    literal: Any,
    types: frozenset[type] | None = None,
) -> np.ndarray | None:
    """Float64 view of a numeric column, or None when that could lie.

    Requires the literal and every present value (whose exact types are
    ``types``, computed here when not given) to be plain ints or floats —
    no bools, numpy scalars or subclasses — with ints below 2**53 in
    magnitude.  NULL slots carry NaN, which compares False against
    everything — and the callers mask them out anyway.
    """
    if not _float_literal(literal):
        return None
    if types is None:
        types = frozenset(map(type, column[valid].tolist()))
    if not types <= _NUMERIC_TYPES:
        return None
    try:
        present = column[valid].astype(float)
    except OverflowError:  # an int too large for any float
        return None
    if int in types and (np.abs(present) >= _EXACT_FLOAT_INT).any():
        return None
    floats = np.full(len(column), np.nan)
    floats[valid] = present
    return floats
