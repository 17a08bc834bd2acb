"""Physical operators.

Each physical operator executes one logical operator against a materialized
batch of records, charging the simulated LLM for every semantic call.  The
engine (see :mod:`repro.sem.execution`) wires operators together and
collects statistics.

Operators marked ``streamable`` additionally implement a record-at-a-time
protocol (:meth:`PhysicalOperator.new_state` / ``prepare_batch`` /
``process_record`` / ``finalize``) so the engine can fuse adjacent
streamable operators into one pipelined section: record batches flow
through the fused stages and the virtual clock is charged the section's
critical-path makespan instead of the per-operator sum.  The classic
``execute`` entry point remains the barrier path (``pipeline=False``) and
preserves the original materialize-everything semantics exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.data.records import DataRecord
from repro.data.sources import MemorySource
from repro.errors import BudgetExceededError, ExecutionError, TransientLLMError
from repro.llm.embeddings import cosine_similarity, top_k_similar
from repro.llm.simulated import SimulatedLLM
from repro.sem import logical as L
from repro.sem.batch import (
    RecordBatch,
    project_batch,
    py_map_batch,
    struct_filter_mask,
)
from repro.sem.structql import (
    compile_predicate,
    evaluate_predicate,
    run_aggregation,
)
from repro.utils.hashing import stable_digest

import numpy as np

T = TypeVar("T")

#: Valid per-record degradation modes when a call exhausts its retries.
FAILURE_MODES = ("skip", "fallback", "raise")


@dataclass
class AdaptiveParallelism:
    """Wave-width controller for the pipelined executor (TCP-style).

    Replaces the static ``parallelism`` knob on the streaming path: waves
    start at the configured cap, and a wave that draws rate-limit faults
    halves the width (multiplicative decrease).  Recovery is two-phase:
    clean waves *double* the width back toward the last level that worked
    (fast recovery after a burst passes), then probe one slot at a time
    beyond it every ``widen_after`` consecutive clean waves (additive
    increase).  Each fault also lowers the fast-recovery ceiling just
    below the width that faulted, so a persistent throttle converges to
    the safe width instead of re-probing the cap every round.  A
    fault-free run never leaves the cap, so the controller is invisible
    until the substrate actually throttles.
    """

    cap: int
    min_width: int = 1
    #: Consecutive clean waves required before probing one slot wider.
    widen_after: int = 3
    width: int = 0
    #: Waves that saw at least one rate-limit fault.
    backoffs: int = 0
    widenings: int = 0
    _clean_streak: int = 0
    #: Fast-recovery ceiling: doubling stops here, additive probing beyond.
    _recover_target: int = 0

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"parallelism cap must be >= 1, got {self.cap}")
        self.min_width = max(1, min(self.min_width, self.cap))
        if self.width < 1:
            self.width = self.cap
        if self._recover_target < 1:
            self._recover_target = self.width

    def observe(self, rate_limited: bool) -> None:
        """Feed back one wave's outcome; adjusts :attr:`width`."""
        if rate_limited:
            self._recover_target = max(self.min_width, self.width - 1)
            self.width = max(self.min_width, self.width // 2)
            self.backoffs += 1
            self._clean_streak = 0
            return
        self._clean_streak += 1
        if self.width < self._recover_target:
            self.width = min(self._recover_target, self.width * 2)
            self.widenings += 1
            self._clean_streak = 0
        elif self.width < self.cap and self._clean_streak >= self.widen_after:
            self.width += 1
            self.widenings += 1
            self._clean_streak = 0


@dataclass
class ExecutionContext:
    """Shared state for one plan execution."""

    llm: SimulatedLLM
    parallelism: int = 1
    tag: str = "exec"
    #: What an operator does when a semantic call fails even after the LLM
    #: substrate's retries: "skip" flags the record and moves on, "fallback"
    #: re-asks ``fallback_model`` once (then skips), "raise" propagates.
    on_failure: str = "skip"
    #: Cheaper tier used by the "fallback" mode.
    fallback_model: str | None = None
    #: (record uid, error class name) for every degraded record, in order.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Hard spend cap threaded down from the engine so the budget truncates
    #: the run mid-batch instead of overshooting by a whole operator's cost.
    max_cost_usd: float | None = None
    #: Spend already on the tracker when this execution began; the cap
    #: applies to the delta.
    cost_baseline_usd: float = 0.0
    #: Texts per batched embedding request; 1 = legacy per-record calls.
    embed_batch_size: int = 1
    #: Live wave-width controller (None = static ``parallelism``).
    adaptive: AdaptiveParallelism | None = None

    def wave_width(self) -> int:
        """Concurrency the next wave should be issued at."""
        if self.adaptive is not None:
            return self.adaptive.width
        return self.parallelism

    def check_budget(self) -> None:
        """Raise :class:`BudgetExceededError` once the spend cap is reached."""
        if self.max_cost_usd is None:
            return
        spent = self.llm.tracker.spent_usd - self.cost_baseline_usd
        if spent >= self.max_cost_usd:
            raise BudgetExceededError(
                f"spent ${spent:.4f} of the ${self.max_cost_usd:.4f} cap"
            )

    def guarded(
        self, uid: str, model: str, call: Callable[[str], T]
    ) -> T | None:
        """Run ``call(model)`` under the failure policy; None means degraded."""
        self.check_budget()
        try:
            return call(model)
        except TransientLLMError as exc:
            if self.on_failure == "raise":
                raise
            if (
                self.on_failure == "fallback"
                and self.fallback_model
                and self.fallback_model != model
            ):
                try:
                    return call(self.fallback_model)
                except TransientLLMError as fallback_exc:
                    exc = fallback_exc
            self.failures.append((uid, type(exc).__name__))
            return None


def _embed(text: str, ctx: ExecutionContext, tag: str) -> np.ndarray:
    """One embedding call under the spend cap."""
    ctx.check_budget()
    return ctx.llm.embed(text, tag=tag)


def _embed_texts(texts: list[str], ctx: ExecutionContext, tag: str) -> list[np.ndarray]:
    """Embed ``texts`` one batched request per chunk, or one call per text.

    ``ctx.embed_batch_size > 1`` selects the vectorized path (the pipelined
    executor); 1 keeps the legacy per-record calls and their exact timing.
    The spend cap is checked before every billed request on both paths.
    """
    if ctx.embed_batch_size > 1:
        return ctx.llm.embed_batch(
            texts, tag=tag, batch_size=ctx.embed_batch_size, check=ctx.check_budget
        )
    return [_embed(text, ctx, tag) for text in texts]


class PhysicalOperator(abc.ABC):
    """Executes one logical operator over a batch of records."""

    #: Streamable operators implement the record-at-a-time protocol below
    #: and can be fused into pipelined sections by the engine.
    streamable = False

    #: Vectorized operators additionally implement :meth:`process_batch`
    #: over a columnar :class:`~repro.sem.batch.RecordBatch`; the engine
    #: uses it in place of the per-record loop when columnar mode is on.
    #: Only token-free operators qualify — LLM operators need the
    #: per-record wave machinery (retries, adaptive width, budget cuts).
    vectorized = False

    #: How the sharded executor (:mod:`repro.sem.shard`) may place this
    #: operator: "source" leaves run once at the coordinator; "scatter"
    #: ops run shard-parallel on any partition (record-local); "merge"
    #: ops run shard-parallel with a global order-restoring merge (partial
    #: top-k/limit per shard + global rerank); "shuffle" ops repartition
    #: by their grouping key; "broadcast" ops replicate their right input
    #: to every shard; "gather" ops need the whole input at the
    #: coordinator.  ``None`` means undeclared — the sharding pass refuses
    #: to plan around such an operator instead of guessing.
    exchange: str | None = None

    def __init__(self, logical_op: L.LogicalOperator, model: str | None = None) -> None:
        self.logical_op = logical_op
        self.model = model

    @abc.abstractmethod
    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        """Transform ``records``; must not mutate the input list."""

    # -- streaming protocol (streamable operators only) -----------------

    def new_state(self, ctx: ExecutionContext) -> dict:
        """Fresh per-execution mutable state for the streaming protocol."""
        return {}

    def prepare_batch(
        self, records: list[DataRecord], ctx: ExecutionContext, state: dict
    ) -> None:
        """Batch-level vectorized work (e.g. one embedding request per batch)."""

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        """Stream one record through; may emit zero or more records."""
        raise ExecutionError(f"{self.label()} is not streamable")

    def finalize(self, ctx: ExecutionContext, state: dict) -> list[DataRecord]:
        """Records held back until the stream ends (e.g. top-k winners)."""
        return []

    def sated(self, state: dict) -> bool:
        """True once this operator can never emit more records (early exit)."""
        return False

    def process_batch(
        self, batch: "RecordBatch", ctx: ExecutionContext, state: dict
    ) -> "RecordBatch":
        """Vectorized whole-batch step (``vectorized`` operators only).

        Must be observationally identical to streaming the batch's records
        through :meth:`process_record` one at a time.
        """
        raise ExecutionError(f"{self.label()} is not vectorized")

    def label(self) -> str:
        suffix = f" [{self.model}]" if self.model else ""
        return self.logical_op.label() + suffix


class StreamingOperator(PhysicalOperator):
    """Record-at-a-time operator.

    The default :meth:`execute` reproduces the legacy barrier semantics
    exactly — one parallel section over all records — by driving the
    streaming protocol itself, so barrier and pipelined modes share one
    per-record implementation.
    """

    streamable = True

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        state = self.new_state(ctx)
        self.prepare_batch(records, ctx, state)
        output: list[DataRecord] = []
        with ctx.llm.parallel(ctx.parallelism):
            for record in records:
                output.extend(self.process_record(record, ctx, state))
        output.extend(self.finalize(ctx, state))
        return output

    @abc.abstractmethod
    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        ...


class PhysScan(PhysicalOperator):
    logical_op: L.ScanOp
    exchange = "source"

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        if records:
            raise ExecutionError("scan is a leaf; it takes no input records")
        return list(self.logical_op.source.iterate())


class PhysMaterializedScan(PhysicalOperator):
    """Replay a materialized prefix; merge an appended source delta.

    The stored records are returned as-is (zero LLM cost).  When the source
    grew since materialization, only the appended ``delta_records`` run
    through ``delta_ops`` — the bound prefix operators, scan excluded — and
    the survivors are appended.  This matches a full recompute exactly
    because delta merging is only offered for order-preserving record-local
    prefixes (see :data:`repro.sem.materialize.INCREMENTAL_SAFE_OPS`) and
    appended source records sit at the tail of the scan order.
    """

    #: Surfaced in per-operator stats and the EXPLAIN "Reused" column.
    reused = True

    logical_op: L.MaterializedScanOp
    exchange = "source"

    def __init__(
        self,
        logical_op: L.MaterializedScanOp,
        entry,
        delta_ops=(),
        delta_records=(),
    ) -> None:
        super().__init__(logical_op, None)
        self.entry = entry
        self.delta_ops = list(delta_ops)
        self.delta_records = list(delta_records)

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        if records:
            raise ExecutionError("materialized scan is a leaf; it takes no input records")
        output = list(self.entry.records)
        if self.delta_records:
            delta = list(self.delta_records)
            for op in self.delta_ops:
                delta = op.execute(delta, ctx)
            output.extend(delta)
        return output


class PhysRetrieve(PhysicalOperator):
    """Top-k vector retrieval over the upstream scan's records.

    If the scan's source exposes a prebuilt vector index (a Context with a
    registered index), retrieval delegates to it; otherwise records are
    embedded on the fly (embeddings are cached, so this cost is paid once),
    one batched request per ``ctx.embed_batch_size`` texts on the
    vectorized path.
    """

    logical_op: L.RetrieveOp
    exchange = "gather"

    def __init__(
        self,
        logical_op: L.RetrieveOp,
        model: str | None = None,
        source: object | None = None,
    ) -> None:
        super().__init__(logical_op, model)
        self.source = source

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        op = self.logical_op
        if self.source is not None and hasattr(self.source, "vector_search"):
            hits = self.source.vector_search(op.query, op.k, llm=ctx.llm)
            return [record for record, _ in hits]
        if not records:
            return []
        tag = f"{ctx.tag}:retrieve"
        query_vec = _embed(op.query, ctx, tag)
        matrix = np.stack(
            _embed_texts([record.as_text() for record in records], ctx, tag)
        )
        hits = top_k_similar(query_vec, matrix, op.k)
        return [records[index] for index, _ in hits]


class PhysSemFilter(StreamingOperator):
    logical_op: L.SemFilterOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        model = self.model or op.model
        judgment = ctx.guarded(
            record.uid,
            model,
            lambda m: ctx.llm.judge_filter(
                op.instruction, record, model=m, tag=f"{ctx.tag}:filter"
            ),
        )
        if judgment is not None and judgment.answer:
            return [record]
        return []


class PhysSemMap(StreamingOperator):
    logical_op: L.SemMapOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        model = self.model or op.model
        new_fields = {}
        for schema_field, instruction in op.outputs:
            extraction = ctx.guarded(
                record.uid,
                model,
                lambda m, instruction=instruction: ctx.llm.extract(
                    instruction, record, model=m, tag=f"{ctx.tag}:map"
                ),
            )
            # Degraded extractions surface as None (flagged in ctx.failures),
            # keeping the record and its other fields.
            new_fields[schema_field.name] = (
                schema_field.coerce(extraction.value)
                if extraction is not None
                else None
            )
        return [record.derive(new_fields)]


class PhysSemClassify(StreamingOperator):
    logical_op: L.SemClassifyOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        model = self.model or op.model
        result = ctx.guarded(
            record.uid,
            model,
            lambda m: ctx.llm.classify(
                op.instruction, list(op.options), record,
                model=m, tag=f"{ctx.tag}:classify",
            ),
        )
        value = result.value if result is not None else None
        return [record.derive({op.output_field: value})]


class PhysSemGroupBy(PhysicalOperator):
    """Classify-then-partition implementation of the semantic group-by.

    Split into two independently-callable phases so the sharded executor
    can scatter :meth:`classify_label` across partitions and shuffle each
    label's members to an owner shard for :meth:`build_group`; both phases
    are pure functions of (record, substrate), so the split changes
    nothing about the answers.
    """

    logical_op: L.SemGroupByOp
    exchange = "shuffle"

    def classify_label(
        self, record: DataRecord, ctx: ExecutionContext
    ) -> str | None:
        """Assign ``record`` its group label; None means degraded."""
        op = self.logical_op
        model = self.model or op.model
        result = ctx.guarded(
            record.uid,
            model,
            lambda m: ctx.llm.classify(
                op.instruction, list(op.groups), record,
                model=m, tag=f"{ctx.tag}:groupby",
            ),
        )
        if result is None:
            return None
        return str(result.value)

    def build_group(
        self, group: str, members: list[DataRecord], ctx: ExecutionContext
    ) -> DataRecord:
        """Mint the output record for one non-empty group."""
        from repro.sem.config import DEFAULT_FALLBACK_MODEL

        op = self.logical_op
        model = self.model or op.model
        fields: dict = {"group": group, "count": len(members)}
        if op.summarize:
            joined_text = "\n---\n".join(
                member.as_text() for member in members
            )[:AGG_TEXT_BUDGET]
            completion = ctx.guarded(
                f"group:{group}",
                model or DEFAULT_FALLBACK_MODEL,
                lambda m, group=group, joined_text=joined_text: ctx.llm.complete(
                    f"Summarize the records in group {group!r}: "
                    f"{op.instruction}\n\n{joined_text}",
                    model=m,
                    tag=f"{ctx.tag}:groupby",
                ),
            )
            fields["summary"] = completion.text if completion is not None else None
        member_uids = tuple(member.uid for member in members)
        return DataRecord(
            fields=fields,
            # Deterministic group-record uid: pure function of the
            # label and membership, identical across execution modes.
            uid=f"group:{group}:{stable_digest(member_uids)[:6]}",
            parent_uids=member_uids,
        )

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        op = self.logical_op
        groups: dict[str, list[DataRecord]] = {}
        with ctx.llm.parallel(ctx.parallelism):
            for record in records:
                label = self.classify_label(record, ctx)
                if label is None:
                    continue  # degraded: record is flagged and ungrouped
                groups.setdefault(label, []).append(record)

        output: list[DataRecord] = []
        for group in op.groups:
            members = groups.get(group, [])
            if not members:
                continue
            output.append(self.build_group(group, members, ctx))
        return output


class PhysSemJoinBlocked(PhysicalOperator):
    """Embedding-blocked semantic join.

    Classic blocking applied to LLM joins: pairs are pre-screened by
    embedding similarity and only the most promising candidates are sent
    to the model for judgment.  Cuts the O(n*m) judgment cost at a small
    recall risk (pairs below the similarity floor are never judged).
    """

    logical_op: L.SemJoinOp
    exchange = "broadcast"

    def __init__(
        self,
        logical_op: L.SemJoinOp,
        right_ops: "list[PhysicalOperator]",
        model: str | None = None,
        similarity_floor: float = 0.10,
        max_candidates_per_left: int = 8,
    ) -> None:
        super().__init__(logical_op, model)
        self.right_ops = right_ops
        self.similarity_floor = similarity_floor
        self.max_candidates_per_left = max_candidates_per_left

    def label(self) -> str:
        return super().label() + " (blocked)"

    def prepare_right(self, ctx: ExecutionContext, have_left: bool = True) -> dict:
        """Run the right subplan once; embed it when a probe side exists.

        Coordinator-side in sharded mode: the right records (and their
        embedding matrix) are broadcast to every shard rather than
        recomputed per shard.
        """
        right_records: list[DataRecord] = []
        for op in self.right_ops:
            right_records = op.execute(right_records, ctx)
        state: dict = {"right_records": right_records, "right_matrix": None}
        if have_left and right_records:
            state["right_matrix"] = np.stack(
                _embed_texts(
                    [record.as_text() for record in right_records],
                    ctx, f"{ctx.tag}:join",
                )
            )
        return state

    def join_left(
        self,
        left: DataRecord,
        ctx: ExecutionContext,
        right_state: dict,
        left_vec=None,
    ) -> list[DataRecord]:
        """Judge one left record against its blocked candidates."""
        right_records = right_state["right_records"]
        right_matrix = right_state["right_matrix"]
        model = self.model or self.logical_op.model
        tag = f"{ctx.tag}:join"
        if left_vec is None:
            left_vec = _embed(left.as_text(), ctx, tag)
        hits = top_k_similar(left_vec, right_matrix, self.max_candidates_per_left)
        joined: list[DataRecord] = []
        for index, similarity in hits:
            if similarity < self.similarity_floor:
                break  # hits are sorted descending
            right = right_records[index]
            judgment = ctx.guarded(
                f"{left.uid}|{right.uid}",
                model,
                lambda m, left=left, right=right: ctx.llm.judge_join(
                    self.logical_op.instruction, left, right, model=m, tag=tag
                ),
            )
            if judgment is not None and judgment.answer:
                joined.append(DataRecord.merge(left, right))
        return joined

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        right_state = self.prepare_right(ctx, have_left=bool(records))
        if not records or not right_state["right_records"]:
            return []
        tag = f"{ctx.tag}:join"
        # Vectorized path: one batched request for every left vector before
        # the judgment waves, instead of one embed call inside each slot.
        left_vectors = (
            _embed_texts([left.as_text() for left in records], ctx, tag)
            if ctx.embed_batch_size > 1
            else None
        )
        joined: list[DataRecord] = []
        with ctx.llm.parallel(ctx.parallelism):
            for position, left in enumerate(records):
                joined.extend(
                    self.join_left(
                        left, ctx, right_state,
                        left_vec=(
                            left_vectors[position]
                            if left_vectors is not None
                            else None
                        ),
                    )
                )
        return joined


class PhysSemJoin(PhysicalOperator):
    """Nested-loop semantic join: one judgment per candidate pair."""

    logical_op: L.SemJoinOp
    exchange = "broadcast"

    def __init__(
        self,
        logical_op: L.SemJoinOp,
        right_ops: "list[PhysicalOperator]",
        model: str | None = None,
    ) -> None:
        super().__init__(logical_op, model)
        self.right_ops = right_ops

    def prepare_right(self, ctx: ExecutionContext, have_left: bool = True) -> dict:
        """Run the right subplan once (broadcast side in sharded mode)."""
        right_records: list[DataRecord] = []
        for op in self.right_ops:
            right_records = op.execute(right_records, ctx)
        return {"right_records": right_records}

    def join_left(
        self, left: DataRecord, ctx: ExecutionContext, right_state: dict
    ) -> list[DataRecord]:
        """Judge one left record against every right record."""
        model = self.model or self.logical_op.model
        joined: list[DataRecord] = []
        for right in right_state["right_records"]:
            judgment = ctx.guarded(
                f"{left.uid}|{right.uid}",
                model,
                lambda m, left=left, right=right: ctx.llm.judge_join(
                    self.logical_op.instruction, left, right,
                    model=m, tag=f"{ctx.tag}:join",
                ),
            )
            if judgment is not None and judgment.answer:
                joined.append(DataRecord.merge(left, right))
        return joined

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        right_state = self.prepare_right(ctx)
        joined: list[DataRecord] = []
        with ctx.llm.parallel(ctx.parallelism):
            for left in records:
                joined.extend(self.join_left(left, ctx, right_state))
        return joined


#: Character budget for the concatenated input of a semantic aggregation.
AGG_TEXT_BUDGET = 24_000


class PhysSemAgg(PhysicalOperator):
    logical_op: L.SemAggOp
    exchange = "gather"

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        from repro.sem.config import DEFAULT_FALLBACK_MODEL

        op = self.logical_op
        model = self.model or op.model
        chunks: list[str] = []
        used = 0
        for record in records:
            text = record.as_text()
            if used + len(text) > AGG_TEXT_BUDGET:
                break
            chunks.append(text)
            used += len(text)
        prompt = op.instruction + "\n\n" + "\n---\n".join(chunks)
        completion = ctx.guarded(
            "agg",
            model or DEFAULT_FALLBACK_MODEL,
            lambda m: ctx.llm.complete(prompt, model=m, tag=f"{ctx.tag}:agg"),
        )
        input_uids = tuple(record.uid for record in records)
        result = DataRecord(
            fields={op.output_field: completion.text if completion is not None else None},
            uid=f"agg:{stable_digest(input_uids)[:6]}",
            parent_uids=input_uids,
        )
        return [result]


class PhysSemTopK(StreamingOperator):
    """Embedding-ranked top-k with optional LLM reranking.

    Streams: every record is scored (and, for ``method="llm"``, judged) as
    it arrives, held back, and the top ``k`` are emitted at stream end.
    The relevance judgment partitions candidates; the embedding score
    breaks ties within each partition, then arrival order.
    """

    logical_op: L.SemTopKOp
    exchange = "merge"

    def new_state(self, ctx: ExecutionContext) -> dict:
        return {"scored": {}, "sims": {}, "arrivals": 0}

    def prepare_batch(
        self, records: list[DataRecord], ctx: ExecutionContext, state: dict
    ) -> None:
        if not records:
            return
        tag = f"{ctx.tag}:topk"
        if "query_vec" not in state:
            state["query_vec"] = _embed(self.logical_op.query, ctx, tag)
        vectors = _embed_texts([record.as_text() for record in records], ctx, tag)
        for record, vector in zip(records, vectors):
            state["sims"][record.uid] = cosine_similarity(state["query_vec"], vector)

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        previous = state["scored"].get(record.uid)
        if previous is None:
            similarity = state["sims"].pop(record.uid)
            arrival = state["arrivals"]
            state["arrivals"] += 1
        else:
            # Resubmission after a withdrawn rate-limit failure: replace the
            # degraded judgment, keeping the original score and arrival slot
            # so the ranking matches a fault-free run.
            _, similarity, arrival, _ = previous
        relevant = 1
        if op.method == "llm":
            model = self.model or op.model
            judgment = ctx.guarded(
                record.uid,
                model,
                lambda m: ctx.llm.judge_filter(
                    f"The record is relevant to: {op.query}",
                    record,
                    model=m,
                    tag=f"{ctx.tag}:topk",
                ),
            )
            # A degraded judgment falls back to the embedding score.
            relevant = 1 if (judgment is not None and judgment.answer) else 0
        state["scored"][record.uid] = (relevant, similarity, arrival, record)
        return []

    def finalize(self, ctx: ExecutionContext, state: dict) -> list[DataRecord]:
        ranked = sorted(
            state["scored"].values(), key=lambda item: (-item[0], -item[1], item[2])
        )
        return [record for _, _, _, record in ranked[: self.logical_op.k]]


class PhysPyFilter(StreamingOperator):
    logical_op: L.PyFilterOp
    vectorized = True
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        return [record] if self.logical_op.fn(record) else []

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        return [record for record in records if self.logical_op.fn(record)]

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        fn = self.logical_op.fn
        return RecordBatch([record for record in batch.records if fn(record)])


class PhysPyMap(StreamingOperator):
    logical_op: L.PyMapOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        new_fields = self.logical_op.fn(record)
        if not isinstance(new_fields, dict):
            raise ExecutionError(
                f"PyMap function must return a dict of new fields, "
                f"got {type(new_fields).__name__}"
            )
        return [record.derive(new_fields)]

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        output = []
        for record in records:
            output.extend(self.process_record(record, ctx, {}))
        return output

    vectorized = True

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        return py_map_batch(batch, self.logical_op.fn)


class PhysProject(StreamingOperator):
    logical_op: L.ProjectOp
    vectorized = True
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        wanted = set(self.logical_op.fields)
        drop = [name for name in record.fields if name not in wanted]
        return [record.derive({}, drop=drop)]

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        output = []
        for record in records:
            output.extend(self.process_record(record, ctx, {}))
        return output

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        return project_batch(batch, self.logical_op.fields)


class PhysLimit(StreamingOperator):
    """Limit with early-exit pushdown: once sated, the engine stops pulling
    batches from upstream stages instead of truncating after the fact."""

    logical_op: L.LimitOp
    exchange = "merge"

    def new_state(self, ctx: ExecutionContext) -> dict:
        return {"remaining": self.logical_op.n}

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        if state["remaining"] <= 0:
            return []
        state["remaining"] -= 1
        return [record]

    def sated(self, state: dict) -> bool:
        return state["remaining"] <= 0

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        return records[: self.logical_op.n]

    vectorized = True

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        take = max(0, min(state["remaining"], len(batch)))
        state["remaining"] -= take
        return batch.head(take)


class PhysStructFilter(StreamingOperator):
    """SQL predicate over record fields: keep rows where it is TRUE.

    Row mode evaluates the compiled expression per record through the
    ``repro.sql`` executor; columnar mode evaluates it once per batch with
    vectorized masks (:func:`repro.sem.batch.struct_filter_mask`).  Both
    only *select* rows, so the surviving record objects — and their uids —
    are untouched.
    """

    logical_op: L.StructFilterOp
    vectorized = True
    exchange = "scatter"

    def __init__(self, logical_op: L.StructFilterOp, model: str | None = None) -> None:
        super().__init__(logical_op, model)
        self._expr = compile_predicate(logical_op.condition)

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        return [record] if evaluate_predicate(self._expr, record.fields) is True else []

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        return [
            record
            for record in records
            if evaluate_predicate(self._expr, record.fields) is True
        ]

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        return batch.take(struct_filter_mask(self._expr, batch))


def _struct_agg_records(
    records: list[DataRecord], op: L.StructAggOp
) -> list[DataRecord]:
    """Shared struct-agg body: one fresh record per SQL result row.

    Uids are a pure function of the input lineage and the group key, so
    row mode, columnar mode, and the pushed-down SqlScan all mint
    identical records.
    """
    rows = run_aggregation(
        [record.fields for record in records], op.group_by, op.aggregates
    )
    input_uids = tuple(record.uid for record in records)
    output = []
    for row in rows:
        group_values = tuple(row[name] for name in op.group_by)
        output.append(
            DataRecord(
                fields=dict(row),
                uid=f"structagg:{stable_digest(input_uids, group_values)[:6]}",
                parent_uids=input_uids,
            )
        )
    return output


class PhysStructAgg(PhysicalOperator):
    """Structured GROUP BY / aggregation via the SQL engine (token-free)."""

    logical_op: L.StructAggOp
    exchange = "gather"

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        return _struct_agg_records(records, self.logical_op)


def apply_structured(op: L.LogicalOperator, records: list[DataRecord]) -> list[DataRecord]:
    """Run one pushed-down structured operator over materialized records.

    This is the row-mode SqlScan interpretation loop.  Each case matches
    its row-mode physical operator exactly (same evaluator, same
    ``derive`` calls).
    """
    if isinstance(op, L.StructFilterOp):
        expr = compile_predicate(op.condition)
        return [
            record
            for record in records
            if evaluate_predicate(expr, record.fields) is True
        ]
    if isinstance(op, L.ProjectOp):
        wanted = set(op.fields)
        output = []
        for record in records:
            drop = [name for name in record.fields if name not in wanted]
            output.append(record.derive({}, drop=drop))
        return output
    if isinstance(op, L.LimitOp):
        return records[: op.n]
    if isinstance(op, L.StructAggOp):
        return _struct_agg_records(records, op)
    raise ExecutionError(f"operator {op.label()} cannot run inside a SqlScan")


def _apply_structured_batch(op: L.LogicalOperator, batch: RecordBatch) -> RecordBatch:
    """Columnar twin of :func:`apply_structured` for the selecting and
    projecting operators: the same records, with built columns carried."""
    if isinstance(op, L.StructFilterOp):
        return batch.take(struct_filter_mask(compile_predicate(op.condition), batch))
    if isinstance(op, L.ProjectOp):
        return project_batch(batch, op.fields)
    if isinstance(op, L.LimitOp):
        return batch.head(op.n)
    raise ExecutionError(f"operator {op.label()} cannot run inside a SqlScan")


def _limits_before_projects(
    pushed: tuple[L.LogicalOperator, ...],
) -> list[L.LogicalOperator]:
    """Move each limit ahead of the projections directly before it.

    A projection's uid suffix depends only on the parent uid and the
    dropped field names, so ``project → limit`` and ``limit → project``
    emit identical records; the second derives only the kept ones.
    """
    order: list[L.LogicalOperator] = []
    for op in pushed:
        at = len(order)
        if isinstance(op, L.LimitOp):
            while at and isinstance(order[at - 1], L.ProjectOp):
                at -= 1
        order.insert(at, op)
    return order


class PhysSqlScan(PhysicalOperator):
    """Leaf: scan a source and run its pushed-down structured prefix.

    The SQL engine prunes/projects/pre-aggregates the record set before
    any LLM operator runs.  ``scanned`` records how many source records
    the scan saw, so EXPLAIN can report what was pruned ahead of the first
    LLM operator.  Columnar mode runs the prefix on record batches,
    starting from a :class:`MemorySource`'s version-keyed cached batch so
    repeated scans of an unchanged source reuse its built columns.
    """

    logical_op: L.SqlScanOp
    exchange = "source"

    #: Surfaced in per-operator stats and the EXPLAIN "SQL" column.
    pushed_down = True

    def __init__(self, logical_op: L.SqlScanOp, columnar: bool = False) -> None:
        super().__init__(logical_op, None)
        self.columnar = columnar
        self.scanned = 0
        self._pushed = _limits_before_projects(logical_op.pushed)

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        if records:
            raise ExecutionError("sql scan is a leaf; it takes no input records")
        source = self.logical_op.source
        if not self.columnar:
            current = list(source.iterate())
            self.scanned = len(current)
            for op in self._pushed:
                current = apply_structured(op, current)
            return current
        if isinstance(source, MemorySource):
            batch = source.batch()
        else:
            batch = RecordBatch(list(source.iterate()))
        self.scanned = len(batch)
        for op in self._pushed:
            if isinstance(op, L.StructAggOp):
                return _struct_agg_records(batch.records, op)
            batch = _apply_structured_batch(op, batch)
        # A copy: the batch may be the source's cached one.
        return list(batch.records)
