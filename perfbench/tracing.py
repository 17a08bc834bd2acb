"""Traced runs: wrap each layer's public functions from outside the program.

:func:`install` replaces the public functions and methods listed in
:data:`TARGETS` with wrappers that record one span per call (name, start,
end, parent span, operation index) into a :class:`Recorder`, plus counts
taken at the same boundary by the hooks in :data:`HOOKS`.  Functions that
other modules import by name (``stable_hash`` and friends) are rebound in
every ``repro`` module that holds them.  :func:`uninstall` restores the
originals, so untraced rounds run the program exactly as shipped.

Only calls made inside a benchmark root span (an operation, or system work
between operations) are recorded, so the benchmark's own output checks stay
out of the trace.  Spans stay in flat arrays while the run lasts.  A layer's self time is the
summed duration of its spans minus the part their child spans cover
(:func:`self_times`).  The benchmark opens a root span around every
operation and every piece of system work between operations; root self
time is system code outside the wrapped layers (``other``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns
from types import FunctionType

import numpy as np

#: layer -> [(module, class name or None, attribute names)].
TARGETS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "llm": [
        ("repro.llm.simulated", "SimulatedLLM", (
            "judge_filter", "judge_join", "extract", "classify", "complete",
            "embed", "embed_batch",
        )),
        ("repro.llm.cache", "GenerationCache", ("get", "put", "key")),
        ("repro.llm.embeddings", "EmbeddingModel", ("embed",)),
    ],
    "llm.oracle": [
        ("repro.llm.oracle", "SemanticOracle", ("judge_filter", "judge_join", "extract_value")),
        ("repro.llm.oracle", "IntentRegistry", ("resolve",)),
    ],
    "llm.usage": [
        ("repro.llm.usage", "UsageTracker", ("record", "total", "checkpoint", "since")),
    ],
    "utils.hash": [
        ("repro.utils.hashing", None, ("stable_hash", "stable_uniform", "stable_digest")),
    ],
    "utils.text": [
        ("repro.utils.text", None, (
            "tokenize", "normalize_text", "approx_token_count", "extract_keywords",
            "snippet", "jaccard_similarity",
        )),
    ],
    "data": [
        ("repro.data.records", "DataRecord", ("as_text", "derive", "merge", "root_uids")),
        ("repro.data.sources", "MemorySource", ("iterate", "records", "append", "update")),
    ],
    "optimizer": [
        ("repro.sem.optimizer.optimizer", "Optimizer", ("optimize",)),
        ("repro.sem.optimizer.sampler", "Sampler", (
            "profile_filter", "profile_map", "profile_classify",
        )),
    ],
    "engine": [
        ("repro.sem.execution", "Engine", ("execute",)),
        ("repro.sem.batch", None, ("project_batch", "py_map_batch", "struct_filter_mask")),
    ],
    "sql": [
        ("repro.sql.database", "Database", ("execute", "query", "create_table_from_rows")),
        ("repro.sql.executor", "Executor", ("execute",)),
        ("repro.sql.parser", None, ("parse_sql", "parse_expression")),
        ("repro.sem.structql", None, (
            "compile_predicate", "normalized_condition", "referenced_columns",
            "evaluate_predicate", "predicate_holds", "validate_aggregation",
            "aggregation_sql", "run_aggregation",
        )),
    ],
    "shard": [
        ("repro.sem.shard", "ShardedExecutor", ("execute",)),
        ("repro.sem.shard", None, ("plan_shards", "partition_records", "shard_of")),
    ],
    "materialize": [
        ("repro.sem.materialize", "MaterializationStore", (
            "put", "match", "note_hit", "note_miss", "invalidate_sources",
        )),
        ("repro.sem.materialize", None, ("prefix_fingerprints", "incremental_safe_prefix")),
    ],
    "streaming": [
        ("repro.sem.streaming", "StandingQueryManager", ("register", "pump", "refresh")),
        ("repro.sem.streaming", None, ("diff_records", "fold_changelog")),
    ],
    "serve": [
        ("repro.serve.runtime", "ServingRuntime", (
            "submit", "drain", "register_standing", "pump_standing",
        )),
        ("repro.serve.scheduler", "CrossQueryScheduler", ("run",)),
    ],
    "obs": [
        ("repro.obs.metrics", "MetricsRegistry", ("counter", "histogram")),
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Histogram", ("observe",)),
        ("repro.obs.stats", "StatisticsStore", (
            "observe", "prior", "usable_prior", "ingest_run", "ingest_spans",
            "note_dataset_version",
        )),
    ],
    "core": [
        ("repro.core.runtime", "AnalyticsRuntime", (
            "compute", "search", "answer", "make_context", "program_config",
        )),
        ("repro.core.runtime", "AnswerCache", ("lookup", "put")),
        ("repro.core.operators", None, ("compute", "search", "compile_operator")),
        ("repro.core.context_manager", "ContextManager", ("register", "find_similar", "invalidate")),
        ("repro.core.context", "Context", ("records", "derived", "index", "vector_search", "lookup")),
    ],
    "agents": [
        ("repro.agents.codeagent", "CodeAgent", ("run",)),
        ("repro.agents.sandbox", "Sandbox", ("execute",)),
    ],
}

#: Layer of each span-name prefix group, as reported (sub-layers roll up).
LAYER_OF = {
    "llm": "llm", "llm.oracle": "llm", "llm.usage": "llm",
    "utils.hash": "utils", "utils.text": "utils",
}
REPORTED_LAYERS = (
    "llm", "utils", "data", "optimizer", "engine", "sql", "shard", "materialize",
    "streaming", "serve", "obs", "core", "agents", "other",
)
ROOT = "other"


class Recorder:
    """In-memory span arrays plus boundary counters for one traced round."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.groups: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_index = -1
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.op.append(self.op_index)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def root(self, op_index: int):
        """Context manager for a benchmark root span (one operation)."""
        return _RootSpan(self, op_index)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }


class _RootSpan:
    def __init__(self, recorder: Recorder, op_index: int) -> None:
        self.recorder = recorder
        self.op_index = op_index

    def __enter__(self):
        self.recorder.op_index = self.op_index
        self.index = self.recorder.enter(0)
        return self

    def __exit__(self, *exc_info):
        self.recorder.exit(self.index)
        self.recorder.op_index = -1
        return False


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed duration of its children.

    Children of one span never overlap (the program is single-threaded), so
    their summed duration is the part of the parent's interval they cover.
    """
    duration = (end - start).astype(np.int64)
    covered = np.zeros(len(duration), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


# ---------------------------------------------------------------------------
# Boundary counters
# ---------------------------------------------------------------------------


def _count_usage(counts, args, kwargs, out):
    counts["llm.calls"] += 1
    if args[1].cached:
        counts["llm.cached_calls"] += 1


def _count_cache_get(counts, args, kwargs, out):
    counts["llm.cache_gets"] += 1
    if out[0]:
        counts["llm.cache_hits"] += 1


def _count_engine(counts, args, kwargs, out):
    for stats in out.operator_stats:
        counts["engine.records_in"] += stats.records_in
        if stats.sql_pushdown:
            counts["sql.rows_examined"] += stats.records_scanned
            counts["sql.rows_returned"] += stats.records_out


def _count_shard(counts, args, kwargs, out):
    for segment in args[0].plan.segments:
        counts["shard.records_moved"] += segment.moved_records
        counts["shard.straggler_gap_s"] += segment.straggler_gap_s


def _count_match(counts, args, kwargs, out):
    if out[0] in ("update", "stale"):
        counts["materialize.invalidations"] += 1


def _count_note_hit(counts, args, kwargs, out):
    counts["materialize.hits"] += 1
    counts["materialize.delta_records"] += kwargs.get(
        "delta_records", args[3] if len(args) > 3 else 0
    )


def _count_invalidate(counts, args, kwargs, out):
    counts["materialize.invalidations"] += out


def _count_pump(counts, args, kwargs, out):
    for tick in out:
        if tick.deferred:
            continue
        if tick.skipped:
            counts["streaming.skipped_ticks"] += 1
        else:
            counts["streaming.ticks"] += 1
        counts["streaming.changelog_entries"] += len(tick.changelog)


def _count_drain(counts, args, kwargs, out):
    counts["serve.waves"] += len(out.waves)
    counts["serve.offered_slots"] += out.offered_slots
    counts["serve.filled_slots"] += out.filled_slots
    for job in out.jobs:
        counts["serve.jobs"] += 1
        counts["serve.queue_wait_s"] += job.latency_s - job.standalone_s


def _count_lookup(counts, args, kwargs, out):
    if out is not None:
        counts["core.context_reuse_hits"] += 1


def _count_find_similar(counts, args, kwargs, out):
    if out[0] is not None:
        counts["core.context_reuse_hits"] += 1


def _count_agent(counts, args, kwargs, out):
    counts["agents.steps"] += out.steps_used


def _count_embed(counts, args, kwargs, out):
    counts["llm.embed_texts"] += 1


#: (module, class, attribute) -> counter hook run after each call.
HOOKS = {
    ("repro.llm.usage", "UsageTracker", "record"): _count_usage,
    ("repro.llm.cache", "GenerationCache", "get"): _count_cache_get,
    ("repro.llm.embeddings", "EmbeddingModel", "embed"): _count_embed,
    ("repro.sem.execution", "Engine", "execute"): _count_engine,
    ("repro.sem.shard", "ShardedExecutor", "execute"): _count_shard,
    ("repro.sem.materialize", "MaterializationStore", "match"): _count_match,
    ("repro.sem.materialize", "MaterializationStore", "note_hit"): _count_note_hit,
    ("repro.sem.materialize", "MaterializationStore", "invalidate_sources"): _count_invalidate,
    ("repro.sem.streaming", "StandingQueryManager", "pump"): _count_pump,
    ("repro.serve.runtime", "ServingRuntime", "drain"): _count_drain,
    ("repro.core.runtime", "AnswerCache", "lookup"): _count_lookup,
    ("repro.core.context_manager", "ContextManager", "find_similar"): _count_find_similar,
    ("repro.agents.codeagent", "CodeAgent", "run"): _count_agent,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _wrap(recorder: Recorder, fn, name_id: int, hook):
    enter, exit_ = recorder.enter, recorder.exit
    counts, stack = recorder.counts, recorder.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not stack:  # outside any operation: the benchmark's own checks
            return fn(*args, **kwargs)
        index = enter(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_(index)
        if hook is not None:
            hook(counts, args, kwargs, out)
        return out

    return wrapper


def _count_evictions(recorder: Recorder, fn):
    """Wrap ``GenerationCache.put`` so evictions are read at the boundary."""
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(self, key, value):
        before = self.evictions
        fn(self, key, value)
        counts["llm.cache_evictions"] += self.evictions - before

    return wrapper


class Installation:
    """The wrappers in place; :meth:`uninstall` restores every original."""

    def __init__(self) -> None:
        self.restore: list[tuple[object, str, object]] = []
        #: Module-level wrapper -> original, to catch modules that imported
        #: a wrapper by name while it was installed.
        self.functions: dict[object, object] = {}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()
        for module in _repro_modules():
            for attr, value in list(module.__dict__.items()):
                original = self.functions.get(value) if isinstance(value, FunctionType) else None
                if original is not None:
                    setattr(module, attr, original)
        self.functions.clear()


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: Recorder) -> Installation:
    """Wrap every target for ``recorder``; returns the handle to undo it."""
    installation = Installation()
    modules = _repro_modules()
    for group, targets in TARGETS.items():
        for module_name, class_name, attrs in targets:
            module = importlib.import_module(module_name)
            for attr in attrs:
                hook = HOOKS.get((module_name, class_name, attr))
                if class_name is None:
                    original = getattr(module, attr)
                    name_id = recorder.name_id(f"{module_name}.{attr}", group)
                    wrapper = _wrap(recorder, original, name_id, hook)
                    installation.functions[wrapper] = original
                    for holder in modules + [module]:
                        if holder.__dict__.get(attr) is original:
                            installation.restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
                    continue
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                name_id = recorder.name_id(f"{class_name}.{attr}", group)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(_wrap(recorder, raw.__func__, name_id, hook))
                else:
                    inner = raw
                    if (module_name, class_name, attr) == ("repro.llm.cache", "GenerationCache", "put"):
                        inner = _count_evictions(recorder, raw)
                    wrapped = _wrap(recorder, inner, name_id, hook)
                installation.restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
    return installation


# ---------------------------------------------------------------------------
# Per-layer report
# ---------------------------------------------------------------------------


def layer_report(recorder: Recorder) -> dict:
    """Per-layer self time, span counts and the counters, from one round."""
    arrays = recorder.arrays()
    own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    n_names = len(recorder.names)
    self_by_name = np.bincount(arrays["name"], weights=own, minlength=n_names) / 1e9
    calls_by_name = np.bincount(arrays["name"], minlength=n_names)
    roots = arrays["parent"] < 0
    total_s = float((arrays["end"][roots] - arrays["start"][roots]).sum()) / 1e9

    def group_self(group: str) -> float:
        return float(sum(self_by_name[i] for i, g in enumerate(recorder.groups) if g == group))

    def name_stat(name: str, table) -> float:
        index = recorder._ids.get(name)
        return float(table[index]) if index is not None else 0.0

    layer_self = defaultdict(float)
    for index, group in enumerate(recorder.groups):
        layer_self[LAYER_OF.get(group, group)] += float(self_by_name[index])
    return {
        "total_s": total_s,
        "spans": int(len(own)),
        "layer_self_s": {layer: layer_self.get(layer, 0.0) for layer in REPORTED_LAYERS},
        "group_self_s": group_self,
        "name_self_s": lambda name: name_stat(name, self_by_name),
        "name_calls": lambda name: name_stat(name, calls_by_name),
        "group_calls": lambda group: float(
            sum(calls_by_name[i] for i, g in enumerate(recorder.groups) if g == group)
        ),
        "counts": recorder.counts,
        "arrays": arrays,
    }


def per_layer_metrics(report: dict, overhead_ratio: float) -> dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from one traced round."""
    counts = report["counts"]
    layer = report["layer_self_s"]
    calls = report["name_calls"]
    name_self = report["name_self_s"]
    group_self = report["group_self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    llm_calls = counts["llm.calls"]
    engine_in = counts["engine.records_in"]
    lookups = calls("MaterializationStore.match")
    metric_updates = calls("Counter.inc") + calls("Histogram.observe")
    return {
        "llm.calls": llm_calls,
        "llm.cached_calls": counts["llm.cached_calls"],
        "llm.embed_texts": counts["llm.embed_texts"],
        "llm.self_s": layer["llm"],
        "llm.us_per_call": ratio(layer["llm"] * 1e6, llm_calls),
        "llm.oracle_self_s": group_self("llm.oracle"),
        "llm.usage_self_s": group_self("llm.usage"),
        "llm.cache_hit_ratio": ratio(counts["llm.cache_hits"], counts["llm.cache_gets"]),
        "llm.cache_evictions": counts["llm.cache_evictions"],
        "utils.hash_calls": report["group_calls"]("utils.hash"),
        "utils.hash_self_s": group_self("utils.hash"),
        "utils.text_calls": report["group_calls"]("utils.text"),
        "utils.text_self_s": group_self("utils.text"),
        "data.as_text_calls": calls("DataRecord.as_text"),
        "data.source_appends": calls("MemorySource.append"),
        "data.source_updates": calls("MemorySource.update"),
        "data.update_self_s": name_self("MemorySource.update"),
        "optimizer.self_s": layer["optimizer"],
        "optimizer.sample_calls": sum(
            calls(f"Sampler.{name}")
            for name in ("profile_filter", "profile_map", "profile_classify")
        ),
        "engine.self_s": layer["engine"],
        "engine.records_in": engine_in,
        "engine.us_per_record": ratio(layer["engine"] * 1e6, engine_in),
        "sql.self_s": layer["sql"],
        "sql.rows_examined": counts["sql.rows_examined"],
        "sql.rows_returned": counts["sql.rows_returned"],
        "shard.self_s": layer["shard"],
        "shard.records_moved": counts["shard.records_moved"],
        "shard.straggler_gap_s": counts["shard.straggler_gap_s"],
        "materialize.lookups": lookups,
        "materialize.hit_ratio": ratio(counts["materialize.hits"], lookups),
        "materialize.delta_records": counts["materialize.delta_records"],
        "materialize.invalidations": counts["materialize.invalidations"],
        "materialize.self_s": layer["materialize"],
        "streaming.ticks": counts["streaming.ticks"],
        "streaming.skipped_ticks": counts["streaming.skipped_ticks"],
        "streaming.changelog_entries": counts["streaming.changelog_entries"],
        "streaming.self_s": layer["streaming"],
        "serve.submit_self_s": name_self("ServingRuntime.submit"),
        "serve.drain_self_s": name_self("ServingRuntime.drain"),
        "serve.waves": counts["serve.waves"],
        "serve.batch_fill": ratio(counts["serve.filled_slots"], counts["serve.offered_slots"]),
        "serve.queue_wait_s": ratio(counts["serve.queue_wait_s"], counts["serve.jobs"]),
        "obs.metric_updates": metric_updates,
        "obs.self_s": layer["obs"],
        "obs.stats_ingest_self_s": name_self("StatisticsStore.ingest_run"),
        "core.compute_calls": calls("repro.core.operators.compute"),
        "core.context_reuse_hits": counts["core.context_reuse_hits"],
        "core.self_s": layer["core"],
        "agents.steps": counts["agents.steps"],
        "agents.self_s": layer["agents"],
        "agents.sandbox_self_s": name_self("Sandbox.execute"),
        "other.self_s": layer["other"],
        "bench.traced_s": report["total_s"],
        "bench.spans": float(report["spans"]),
        "bench.substrate_share": ratio(layer["llm"] + layer["utils"], report["total_s"]),
        "bench.trace_overhead_ratio": overhead_ratio,
    }
