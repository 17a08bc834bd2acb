"""Execution engine and statistics.

The engine executes a list of bound physical operators leaves-first and
measures, per operator: records in/out, LLM calls, dollars, and simulated
seconds.

Two execution modes:

- **Barrier** (``pipeline=False``): operators run one at a time with a full
  materialization barrier between them, exactly the original semantics —
  total time is the sum of per-operator makespans.
- **Pipelined** (the default): maximal runs of streamable operators are
  fused into sections; fixed-size record batches stream through the fused
  stages, so batch *b* can occupy stage *s* while batch *b+1* is still in
  stage *s-1*.  Each (batch, stage) cell is measured via
  :meth:`SimulatedLLM.measure` and fed to a
  :class:`~repro.utils.clock.PipelineSchedule`; the clock is advanced
  online by the growth of the section's critical-path makespan, so the
  charged time is the pipeline's makespan, not the stage sum.  A sated
  downstream limit stops upstream batches (early-exit pushdown), the spend
  cap truncates mid-batch, and an :class:`AdaptiveParallelism` controller
  narrows waves on rate-limit faults — resubmitting the throttled records
  once at the reduced width — and widens again on success.

Answers from the simulated LLM are a pure function of the input, never of
call order, so both modes produce bit-identical records and dollar cost on
a fault-free run; only the time accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.records import DataRecord
from repro.errors import BudgetExceededError, ExecutionError
from repro.llm.usage import UsageTracker
from repro.sem.batch import RecordBatch
from repro.sem.physical import ExecutionContext, PhysicalOperator
from repro.utils.clock import PipelineSchedule
from repro.utils.formatting import format_table


@dataclass
class OperatorStats:
    """Measured behaviour of one physical operator in one execution.

    In pipelined sections ``time_s`` is the operator's *busy* time (the sum
    of its cell durations); operators overlap, so per-operator times can
    sum to more than the run's critical-path ``total_time_s``.  Records,
    calls, and dollars are exact in both modes.
    """

    label: str
    model: str | None
    records_in: int
    records_out: int
    cost_usd: float
    time_s: float
    llm_calls: int
    cached_calls: int
    #: Attempts that faulted and were retried (or gave up) in this operator.
    retried_calls: int = 0
    #: Records degraded (skipped/flagged) after exhausting the retry policy.
    failed_records: int = 0
    #: Prompt/completion tokens billed to this operator (failed attempts
    #: included — their prefill is real spend).
    input_tokens: int = 0
    output_tokens: int = 0
    #: True when this operator replayed a materialized sub-plan prefix.
    reused: bool = False
    #: True when this operator is a pushed-down SQL section (token-free).
    sql_pushdown: bool = False
    #: Source records a pushed-down scan saw before pruning (0 elsewhere).
    records_scanned: int = 0
    #: Simulated workers this operator ran across (1 = coordinator-only).
    shards: int = 1

    @property
    def selectivity(self) -> float:
        """Output/input ratio (1.0 when the operator saw no input)."""
        if self.records_in == 0:
            return 1.0
        return self.records_out / self.records_in

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of this operator's calls served from the cache."""
        if self.llm_calls == 0:
            return 0.0
        return self.cached_calls / self.llm_calls


@dataclass
class ExecutionResult:
    """Output records plus the full accounting of how they were produced."""

    records: list[DataRecord]
    operator_stats: list[OperatorStats] = field(default_factory=list)
    total_cost_usd: float = 0.0
    total_time_s: float = 0.0
    #: Extra spend attributed to the optimizer's sampling phase.
    optimization_cost_usd: float = 0.0
    optimization_time_s: float = 0.0
    plan_explain: str = ""
    #: True when a spend cap stopped execution before the plan completed;
    #: ``records`` then holds everything produced up to the cut (pipelined
    #: mode salvages fully-processed batches; barrier mode returns the
    #: output of the last finished operator).
    truncated: bool = False
    #: Faulted-and-retried attempts across all operators.
    retried_calls: int = 0
    #: Records degraded under the failure policy, across all operators.
    failed_records: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def field_values(self, name: str) -> list:
        return [record.get(name) for record in self.records]

    def fingerprint(self) -> str:
        """Stable digest of the *answer* this execution produced.

        Covers record uids, field names and values (in record order), the
        total dollar cost, and the truncation flag — everything the
        bit-identical equivalence contract promises is mode-independent.
        Virtual time is deliberately excluded: execution modes are allowed
        to (and should) differ on time, never on the fingerprint.
        """
        from repro.utils.hashing import stable_digest

        rows = [
            (record.uid, tuple(sorted(record.fields.items(), key=lambda kv: kv[0])))
            for record in self.records
        ]
        return stable_digest(rows, round(self.total_cost_usd, 9), self.truncated)

    def summary(self) -> str:
        lines = [
            f"records: {len(self.records)}  cost: ${self.total_cost_usd:.4f}  "
            f"time: {self.total_time_s:.1f}s"
        ]
        if self.retried_calls or self.failed_records:
            lines[0] += (
                f"  retried: {self.retried_calls}  failed records: {self.failed_records}"
            )
        for stats in self.operator_stats:
            extra = ""
            if stats.retried_calls or stats.failed_records:
                extra = (
                    f", {stats.retried_calls} retried, "
                    f"{stats.failed_records} failed records"
                )
            lines.append(
                f"  {stats.label}: {stats.records_in} -> {stats.records_out} "
                f"(${stats.cost_usd:.4f}, {stats.time_s:.1f}s, "
                f"{stats.llm_calls} calls, {stats.cached_calls} cached{extra})"
            )
        return "\n".join(lines)

    def report(self) -> str:
        """Post-run EXPLAIN ANALYZE: the measured per-operator table.

        Unlike :func:`repro.sem.explain.explain_analyze` this needs no
        optimizer report — it renders exactly what was measured: wall time,
        dollars, tokens, cache-hit ratio, retries, and records in/out.
        """
        rows = []
        for stats in self.operator_stats:
            rows.append(
                [
                    stats.label,
                    stats.records_in,
                    stats.records_out,
                    f"{stats.time_s:.1f}",
                    f"{stats.cost_usd:.4f}",
                    stats.total_tokens,
                    stats.llm_calls,
                    f"{stats.cache_hit_ratio * 100:.0f}%",
                    stats.retried_calls,
                    stats.failed_records,
                    "yes" if stats.reused else "-",
                    "yes" if stats.sql_pushdown else "-",
                ]
            )
        table = format_table(
            [
                "Operator", "In", "Out", "Time (s)", "Cost ($)",
                "Tokens", "Calls", "Cache", "Retried", "Failed", "Reused", "SQL",
            ],
            rows,
            title="EXECUTION REPORT",
        )
        footer = (
            f"\ntotals: {len(self.records)} records, "
            f"${self.total_cost_usd:.4f} in {self.total_time_s:.1f}s"
        )
        footer += pushdown_footer(self.operator_stats)
        if self.retried_calls or self.failed_records:
            footer += (
                f"  ({self.retried_calls} retried calls, "
                f"{self.failed_records} failed records)"
            )
        if self.truncated:
            footer += "\nNOTE: execution truncated by the spend cap"
        return table + footer


def pushdown_footer(operator_stats: list[OperatorStats]) -> str:
    """EXPLAIN footer for pushed-down SQL sections (empty when none ran).

    Reports how many records the SQL engine pruned before the first LLM
    operator ever saw the stream — the headline number of the hybrid
    pushdown path.
    """
    scan = next((s for s in operator_stats if s.sql_pushdown), None)
    if scan is None:
        return ""
    pruned = scan.records_scanned - scan.records_out
    return (
        f"\npushdown: {scan.label} pruned {pruned} of {scan.records_scanned} "
        f"records before the first LLM operator ({scan.records_out} passed)"
    )


def _stats_attrs(stats: OperatorStats) -> dict:
    """Span attributes summarizing one operator's measured behaviour."""
    attrs = {
        "records_in": stats.records_in,
        "records_out": stats.records_out,
        "cost_usd": round(stats.cost_usd, 6),
        "tokens": stats.total_tokens,
        "llm_calls": stats.llm_calls,
        "cached_calls": stats.cached_calls,
        "retried_calls": stats.retried_calls,
        "failed_records": stats.failed_records,
    }
    if stats.reused:
        attrs["reused"] = True
    if stats.sql_pushdown:
        attrs["sql_pushdown"] = True
        attrs["records_scanned"] = stats.records_scanned
    if stats.shards > 1:
        attrs["shards"] = stats.shards
    return attrs


class _StageAccount:
    """Running totals for one operator: a pipelined stage, a barrier step,
    or one phase of a sharded exchange."""

    def __init__(self, operator: PhysicalOperator) -> None:
        self.operator = operator
        self.records_in = 0
        self.records_out = 0
        self.cost_usd = 0.0
        self.time_s = 0.0
        self.llm_calls = 0
        self.cached_calls = 0
        self.retried_calls = 0
        self.failed_records = 0
        self.input_tokens = 0
        self.output_tokens = 0

    def absorb(
        self,
        ctx: ExecutionContext,
        checkpoint: int,
        failures_before: int,
        seconds: float,
    ) -> None:
        """Add the usage billed and records degraded since ``checkpoint``."""
        tracker = ctx.llm.tracker
        usage = tracker.since(checkpoint)
        self.cost_usd += usage.cost_usd
        self.llm_calls += usage.calls
        self.input_tokens += usage.input_tokens
        self.output_tokens += usage.output_tokens
        self.cached_calls += sum(
            1 for event in tracker.events[checkpoint:] if event.cached
        )
        self.retried_calls += tracker.failed_calls(checkpoint)
        self.failed_records += len(ctx.failures) - failures_before
        self.time_s += seconds

    def to_stats(self) -> OperatorStats:
        return OperatorStats(
            label=self.operator.label(),
            model=self.operator.model,
            reused=getattr(self.operator, "reused", False),
            sql_pushdown=getattr(self.operator, "pushed_down", False),
            records_scanned=getattr(self.operator, "scanned", 0),
            records_in=self.records_in,
            records_out=self.records_out,
            cost_usd=self.cost_usd,
            time_s=self.time_s,
            llm_calls=self.llm_calls,
            cached_calls=self.cached_calls,
            retried_calls=self.retried_calls,
            failed_records=self.failed_records,
            input_tokens=self.input_tokens,
            output_tokens=self.output_tokens,
        )


@dataclass
class _SectionRun:
    """What one pass of the section executor produced."""

    outputs: list[DataRecord]
    #: Fresh per-stage streaming state (the sharded top-k merge reads it).
    states: list[dict]
    truncated: bool = False
    makespan: float = 0.0
    #: Input index of each output record (deferred runs only).
    positions: list[int] = field(default_factory=list)
    #: ``(stage, start_s, end_s, batch, records)`` per cell, section-relative
    #: (deferred runs only; online runs emit cell spans as they go).
    cells: list[tuple] = field(default_factory=list)


def _kept_indices(
    operator: PhysicalOperator, rows: list[DataRecord], kept: list[DataRecord]
) -> range | list[int]:
    """Input index of each record a vectorized stage emitted.

    Vectorized stages are token-free and either keep their input's length
    (map, project) or return a subsequence of its record objects (filter,
    limit); any other shape would misplace records in the sharded merge.
    """
    if len(kept) == len(rows):
        return range(len(rows))
    indices = []
    cursor = 0
    for record in kept:
        while cursor < len(rows) and rows[cursor] is not record:
            cursor += 1
        if cursor == len(rows):
            raise ExecutionError(
                f"{operator.label()}: a vectorized stage must keep its input "
                "length or emit a subsequence of its input records"
            )
        indices.append(cursor)
        cursor += 1
    return indices


class Engine:
    """Executes a bound operator chain with per-operator accounting."""

    def __init__(
        self,
        ctx: ExecutionContext,
        max_cost_usd: float | None = None,
        pipeline: bool = True,
        batch_size: int | None = None,
        capture=None,
        columnar: bool = False,
        replanner=None,
        stats_plan=None,
        shard_plan=None,
    ) -> None:
        self.ctx = ctx
        self.max_cost_usd = max_cost_usd
        self.pipeline = pipeline
        self.batch_size = batch_size if batch_size is not None else max(2 * ctx.parallelism, 16)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        #: Optional :class:`repro.sem.materialize.CapturePlan`: operator
        #: boundaries to materialize into the store after they complete.
        self.capture = capture
        #: Columnar hot path: vectorized (token-free) stages consume whole
        #: :class:`~repro.sem.batch.RecordBatch`es instead of looping the
        #: per-record protocol, and adjacent vectorized stages hand the
        #: batch along without re-wrapping.  Off = row-at-a-time escape
        #: hatch; records and dollars are bit-identical either way.
        self.columnar = columnar
        #: Optional :class:`repro.sem.optimizer.replan.Replanner` consulted
        #: at every operator/section boundary with the observed cardinality;
        #: when it accepts, the remaining operators are swapped in place.
        self.replanner = replanner
        #: Position-aligned statistics-key metadata from the optimizer
        #: (None entries = unkeyable); attached to operator spans so traces
        #: can be re-ingested into a StatisticsStore offline.
        self.stats_plan = stats_plan
        #: Optional :class:`repro.sem.shard.ShardPlan`: when set, execution
        #: is handed to the scale-out :class:`repro.sem.shard.ShardedExecutor`
        #: (``shards=1`` never builds a plan, so this path stays untouched).
        self.shard_plan = shard_plan

    def execute(self, operators: list[PhysicalOperator]) -> ExecutionResult:
        self._start_run()
        if self.shard_plan is not None:
            from repro.sem.shard import ShardedExecutor

            return ShardedExecutor(self, self.shard_plan).execute(operators)
        llm = self.ctx.llm
        tracer = llm.tracer
        metrics = llm.metrics
        records: list[DataRecord] = []
        stats: list[OperatorStats] = []
        truncated = False

        index = 0
        while index < len(operators):
            if self._cap_reached():
                truncated = True
                break

            section = self._section_at(operators, index)
            if len(section) >= 2:
                label = " | ".join(op.label() for op in section)
                with tracer.span(
                    f"pipeline[{label}]", kind="pipeline-section",
                    stages=len(section),
                ) as section_span:
                    accounts = [_StageAccount(operator) for operator in section]
                    run = self._execute_section(
                        section, records, accounts, section_span
                    )
                records, truncated = run.outputs, run.truncated
                section_stats = [account.to_stats() for account in accounts]
                stats.extend(section_stats)
                if tracer.enabled and self.stats_plan:
                    stage_stats = []
                    for offset, stage in enumerate(section_stats):
                        entry = self._stats_entry(index + offset)
                        if entry is not None:
                            stage_stats.append(
                                {
                                    "stats": dict(entry),
                                    "time_s": stage.time_s,
                                    **_stats_attrs(stage),
                                }
                            )
                    if stage_stats:
                        section_span.attributes["stage_stats"] = stage_stats
                if metrics.enabled:
                    metrics.histogram("engine.section_makespan_s").observe(
                        section_span.duration_s
                    )
                if truncated:
                    break
                self._maybe_capture(index + len(section) - 1, records)
                replanned = self._maybe_replan(
                    operators, index + len(section), len(records)
                )
                if replanned is not None:
                    operators = replanned
                index += len(section)
                continue

            output, op_stats, truncated = self._run_operator(
                operators[index], records, index
            )
            stats.append(op_stats)
            if truncated:
                # The partial output is discarded: records keeps the last
                # finished operator's output.
                break
            records = output
            self._maybe_capture(index, records)
            replanned = self._maybe_replan(operators, index + 1, len(records))
            if replanned is not None:
                operators = replanned
            index += 1

        return self._result(records, stats, truncated)

    def _start_run(self) -> None:
        """Note where this run's spend, time and usage events start."""
        llm = self.ctx.llm
        self.run_start_cost = llm.tracker.spent_usd
        self.run_start_time = llm.clock.elapsed
        self.run_checkpoint = llm.tracker.checkpoint()
        # Thread the spend cap into the context so operators can truncate
        # mid-batch instead of overshooting to the next operator boundary.
        self.ctx.cost_baseline_usd = self.run_start_cost
        if self.max_cost_usd is not None and self.ctx.max_cost_usd is None:
            self.ctx.max_cost_usd = self.max_cost_usd

    def _cap_reached(self) -> bool:
        """Whether the spend cap is used up (checked at operator boundaries)."""
        spent = self.ctx.llm.tracker.spent_usd - self.run_start_cost
        return self.max_cost_usd is not None and spent >= self.max_cost_usd

    def _result(
        self, records: list[DataRecord], stats: list[OperatorStats], truncated: bool
    ) -> ExecutionResult:
        llm = self.ctx.llm
        if llm.metrics.enabled and truncated:
            llm.metrics.counter("engine.truncations").inc()
        return ExecutionResult(
            records=records,
            operator_stats=stats,
            total_cost_usd=llm.tracker.spent_usd - self.run_start_cost,
            total_time_s=llm.clock.elapsed - self.run_start_time,
            truncated=truncated,
            retried_calls=sum(s.retried_calls for s in stats),
            failed_records=sum(s.failed_records for s in stats),
        )

    def _stats_entry(self, position: int | None):
        plan = self.stats_plan
        if not plan or position is None or position >= len(plan):
            return None
        return plan[position]

    def _run_operator(
        self,
        operator: PhysicalOperator,
        records: list[DataRecord],
        position: int | None = None,
    ) -> tuple[list[DataRecord], OperatorStats, bool]:
        """One operator over its whole input, charged on the clock directly.

        Returns (output, stats, truncated).  A spend-cap cut mid-operator
        yields no output, but the spend and calls it burned are accounted.
        ``position`` keys the statistics metadata attached to the span.
        """
        ctx = self.ctx
        llm = ctx.llm
        tracer = llm.tracer
        account = _StageAccount(operator)
        account.records_in = len(records)
        checkpoint = llm.tracker.checkpoint()
        failures_before = len(ctx.failures)
        time_before = llm.clock.elapsed
        output: list[DataRecord] = []
        truncated = False
        with tracer.span(operator.label(), kind="operator") as op_span:
            try:
                output = operator.execute(records, ctx)
            except BudgetExceededError:
                truncated = True
        account.absorb(ctx, checkpoint, failures_before, llm.clock.elapsed - time_before)
        account.records_out = len(output)
        op_stats = account.to_stats()
        if tracer.enabled:
            op_span.attributes.update(_stats_attrs(op_stats))
            entry = self._stats_entry(position)
            if entry is not None:
                op_span.attributes["stats"] = dict(entry)
        if llm.metrics.enabled:
            llm.metrics.histogram("engine.operator_s").observe(op_stats.time_s)
        return output, op_stats, truncated

    def _maybe_replan(
        self,
        operators: list[PhysicalOperator],
        boundary: int,
        observed_rows: int,
    ) -> list[PhysicalOperator] | None:
        """Consult the re-planner at ``boundary``; splice its new suffix in.

        The re-planner owns the decision (divergence threshold, learned
        priors, strict cost improvement) and mutates the optimizer report's
        chain-aligned views — including ``stats_plan``, which this engine
        shares by reference — so post-run ingestion and EXPLAIN stay
        consistent with what actually ran.
        """
        if self.replanner is None or boundary >= len(operators):
            return None
        new_suffix = self.replanner.consider(boundary, observed_rows, operators)
        if new_suffix is None:
            return None
        return operators[:boundary] + new_suffix

    def _maybe_capture(self, position: int, records: list[DataRecord]) -> None:
        """Materialize the boundary after operator ``position`` if eligible.

        Capture is skipped on tainted runs: degraded records (``skip``) or
        fault-driven fallback answers would poison later reuse, and a
        faulted call is the only way either happens — so any failed call
        since the run started vetoes the write.  The stored cost is the
        cumulative spend up to this boundary plus the cost carried from a
        replayed entry, i.e. an honest full-recompute estimate.
        """
        plan = self.capture
        if plan is None or position >= len(plan.fingerprints):
            return
        fingerprint = plan.fingerprints[position]
        if fingerprint is None:
            return
        if self._tainted():
            return
        llm = self.ctx.llm
        plan.store.put(
            fingerprint,
            records,
            source_uids=plan.source_uids,
            source_id=plan.source_id,
            cost_usd=plan.carried_cost_usd + (llm.tracker.spent_usd - self.run_start_cost),
            time_s=plan.carried_time_s + (llm.clock.elapsed - self.run_start_time),
            content_version=plan.content_version,
        )

    def _tainted(self) -> bool:
        """Whether any record degraded or call failed since the run began."""
        return bool(
            self.ctx.failures or self.ctx.llm.tracker.failed_calls(self.run_checkpoint)
        )

    def _section_at(
        self, operators: list[PhysicalOperator], index: int
    ) -> list[PhysicalOperator]:
        """Maximal run of streamable operators starting at ``index``.

        Sections of one operator gain nothing from pipelining and fall back
        to the barrier path (identical wave structure either way).
        """
        if not self.pipeline:
            return operators[index : index + 1]
        end = index
        while end < len(operators) and operators[end].streamable:
            end += 1
        return operators[index : max(end, index + 1)]

    # ------------------------------------------------------------------
    # Pipelined sections
    # ------------------------------------------------------------------

    def _execute_section(
        self,
        section: list[PhysicalOperator],
        input_records: list[DataRecord],
        accounts: list[_StageAccount],
        section_span=None,
        batch_size: int | None = None,
        deferred: bool = False,
    ) -> _SectionRun:
        """Stream ``input_records`` through fused stages in record batches.

        Cells run depth-first per batch and add their usage to ``accounts``
        (one per stage).  Online, the clock advances by the growth of the
        section's pipelined makespan after every cell, and each cell is
        exported as a span at its *scheduled* position (section origin +
        the :class:`PipelineSchedule` placement) on a per-stage track, so a
        trace shows the overlap the makespan accounting charges for.

        ``deferred`` runs one simulated worker of the sharded executor: the
        clock is left alone, the cells and makespan are returned for the
        caller to charge and trace, and every output carries its input
        index.  Only the last stage (a merge finisher) may hold records
        back there; each held record keeps the index it entered with.
        """
        ctx = self.ctx
        tracer = ctx.llm.tracer
        metrics = ctx.llm.metrics
        origin = ctx.llm.clock.elapsed
        size = batch_size or self.batch_size
        run = _SectionRun([], [operator.new_state(ctx) for operator in section])
        states = run.states
        schedule = PipelineSchedule()
        charged = 0.0
        batch_no = 0
        last = len(section) - 1
        #: uid -> input index of the records that reached the last stage.
        entered: dict[str, int] = {}

        def record_cell(stage: int, seconds: float, n_records: int) -> None:
            nonlocal charged
            schedule.record(stage, seconds)
            if metrics.enabled:
                metrics.histogram("engine.cell_s").observe(seconds)
            if deferred:
                run.cells.append((stage, *schedule.last_cell, batch_no, n_records))
                return
            if tracer.enabled:
                start, end = schedule.last_cell
                tracer.add_span(
                    f"{section[stage].label()} b{batch_no}", "cell",
                    origin + start, origin + end,
                    track=f"stage {stage}", parent=section_span,
                    batch=batch_no, stage=stage, records=n_records,
                )
            if schedule.makespan > charged:
                ctx.llm.clock.advance(schedule.makespan - charged)
                charged = schedule.makespan

        def run_stages(batch, positions, first_stage: int) -> None:
            """One batch through stages ``first_stage``..; survivors join
            ``run.outputs`` (and their input indices ``run.positions``).

            In columnar mode ``current`` may be a
            :class:`~repro.sem.batch.RecordBatch` between vectorized
            stages; it is unwrapped back to records at the section exit.
            """
            nonlocal batch_no
            batch_no += 1
            schedule.start_batch()
            current = batch
            for stage in range(first_stage, len(section)):
                if not len(current):
                    break
                n_records = len(current)
                if deferred and stage == last:
                    rows = current.records if isinstance(current, RecordBatch) else current
                    entered.update(zip((record.uid for record in rows), positions))
                try:
                    current, indices, seconds = self._run_cell(
                        section[stage], current, states[stage], accounts[stage],
                        indexed=deferred,
                    )
                except BudgetExceededError as exc:
                    run.truncated = True
                    record_cell(stage, getattr(exc, "cell_seconds", 0.0), n_records)
                    return
                if deferred:
                    positions = [positions[index] for index in indices]
                record_cell(stage, seconds, n_records)
            if isinstance(current, RecordBatch):
                current = current.records
            run.outputs.extend(current)
            if deferred:
                run.positions.extend(positions)

        for start in range(0, len(input_records), size):
            if run.truncated:
                break
            # Early-exit pushdown: a sated stage (a filled limit) means no
            # further input batch can change the output — stop scanning.
            if any(op.sated(state) for op, state in zip(section, states)):
                break
            batch = input_records[start : start + size]
            run_stages(batch, range(start, start + len(batch)), 0)

        # Flush held-back records (e.g. top-k winners) downstream, in stage
        # order so later holdbacks see everything emitted before them.
        if not run.truncated:
            for stage, operator in enumerate(section):
                held = operator.finalize(ctx, states[stage])
                if not held:
                    continue
                accounts[stage].records_out += len(held)
                positions = [entered[record.uid] for record in held] if deferred else None
                run_stages(held, positions, stage + 1)
                if run.truncated:
                    break

        run.makespan = schedule.makespan
        if tracer.enabled and section_span is not None:
            section_span.attributes.update(
                batches=batch_no,
                makespan_s=schedule.makespan,
                records_in=len(input_records),
                records_out=len(run.outputs),
                cost_usd=round(sum(account.cost_usd for account in accounts), 6),
            )
        return run

    def _run_cell(
        self,
        operator: PhysicalOperator,
        batch: list[DataRecord],
        state: dict,
        account: _StageAccount,
        indexed: bool = False,
    ) -> tuple[list[DataRecord], list[int] | None, float]:
        """One batch through one stage: measured, width-adaptive, guarded.

        Returns (emitted records, each one's input index when ``indexed``
        else None, cell seconds).  When the wave drew rate-limit faults
        and the adaptive controller narrowed the width, records whose
        calls exhausted their retries are resubmitted once at the reduced
        width (their failure flags are withdrawn; a second exhaustion
        re-flags them).  On a budget cut the measured seconds ride along on
        the raised error so the caller can still charge them.
        """
        ctx = self.ctx
        tracker: UsageTracker = ctx.llm.tracker
        checkpoint = tracker.checkpoint()
        failures_before = len(ctx.failures)
        account.records_in += len(batch)
        columnar = self.columnar and operator.vectorized
        rows = batch.records if isinstance(batch, RecordBatch) else batch
        emitted: dict[int, list[DataRecord]] = {}
        batch_result: RecordBatch | None = None
        budget_error: BudgetExceededError | None = None

        with ctx.llm.measure() as measured:
            try:
                if columnar:
                    # Vectorized (token-free) stage: one whole-batch step,
                    # no wave machinery.  The RecordBatch flows on to the
                    # next stage without re-wrapping.
                    columns = (
                        batch if isinstance(batch, RecordBatch) else RecordBatch(rows)
                    )
                    operator.prepare_batch(columns.records, ctx, state)
                    batch_result = operator.process_batch(columns, ctx, state)
                else:
                    operator.prepare_batch(rows, ctx, state)
                    pending = list(enumerate(rows))
                    for attempt in range(2):
                        width = ctx.wave_width()
                        if ctx.llm.metrics.enabled:
                            ctx.llm.metrics.histogram("engine.wave_width").observe(width)
                        wave_checkpoint = tracker.checkpoint()
                        wave_failures = len(ctx.failures)
                        with ctx.llm.parallel(width):
                            for position, record in pending:
                                emitted[position] = operator.process_record(
                                    record, ctx, state
                                )
                        rate_limited = any(
                            event.failed and event.error == "rate_limit"
                            for event in tracker.events[wave_checkpoint:]
                        )
                        if ctx.adaptive is not None:
                            ctx.adaptive.observe(rate_limited)
                        throttled_uids = {
                            uid
                            for uid, error in ctx.failures[wave_failures:]
                            if error == "RateLimitError"
                        }
                        if (
                            attempt > 0
                            or not throttled_uids
                            or ctx.adaptive is None
                            or ctx.adaptive.width >= width
                        ):
                            break
                        # Withdraw the throttled records' failure flags and
                        # give them one more pass at the narrowed width.
                        ctx.failures[wave_failures:] = [
                            entry
                            for entry in ctx.failures[wave_failures:]
                            if entry[0] not in throttled_uids
                        ]
                        pending = [
                            (position, record)
                            for position, record in pending
                            if record.uid in throttled_uids
                        ]
            except BudgetExceededError as exc:
                budget_error = exc

        account.absorb(ctx, checkpoint, failures_before, measured.seconds)
        if budget_error is not None:
            budget_error.cell_seconds = measured.seconds
            raise budget_error
        if batch_result is not None:
            account.records_out += len(batch_result)
            indices = (
                _kept_indices(operator, rows, batch_result.records)
                if indexed else None
            )
            return batch_result, indices, measured.seconds
        order = sorted(emitted)
        results = [record for position in order for record in emitted[position]]
        account.records_out += len(results)
        indices = (
            [position for position in order for _ in emitted[position]]
            if indexed else None
        )
        return results, indices, measured.seconds
