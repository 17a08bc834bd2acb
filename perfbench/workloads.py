"""The four workloads, each driven through the public API in one process.

A workload makes one *round*: :meth:`setup` builds its inputs from the seed
and constructs the runtime (timed as ``setup_s``), then :meth:`run` sends
the seeded operation sequence through a :class:`Meter`, which times each
operation on the host clock.  Every round of one seed is the same work, so
the driver compares rounds against each other to prove that answers and
virtual numbers repeat exactly.  Output checks run outside the timed calls.

- ``scan``: semantic plans over a 20k-ticket corpus.  The simulated LLM
  substrate (``llm``, ``utils``) does almost all host work.
- ``structured``: where/project/limit/struct_agg and Python-filter plans
  on a 100k-row table, some at ``shards=4``, a few with a thin semantic
  tail.  Engine, SQL and shard code do the work; the substrate does little.
- ``serve``: eight tenants submit into a ``ServingRuntime`` in drain
  windows while the source takes appends and updates feeding a standing
  query.  The only workload where serving, materialization, streaming and
  metrics run.
- ``research``: fresh-runtime trials of the paper's Table 1-2 queries via
  ``AnalyticsRuntime.compute``/``answer`` and the semantic-tools
  CodeAgent.  The only workload where ``core`` and ``agents`` run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter

from perfbench import inputs as gen
from perfbench import stats
from repro.agents.codeagent import CodeAgent
from repro.agents.filetools import build_file_tools
from repro.agents.policies.semantic_tools import SemanticToolsCodeAgentPolicy
from repro.agents.semtools import build_semantic_tools
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.data.datasets import generate_enron_corpus, generate_legal_corpus
from repro.data.datasets import kramabench as kb
from repro.data.schemas import Field
from repro.data.sources import MemorySource
from repro.obs import MetricsRegistry
from repro.sem.dataset import Dataset
from repro.sem.optimizer.policies import MaxQuality
from repro.sem.streaming import RefreshPolicy, fold_changelog
from repro.serve import TenantSpec
from repro.serve.scheduler import CrossQueryScheduler

#: Rounds every run makes at least, so each run holds rounds to compare;
#: the tail percentile is chosen for this many rounds' operations.
MIN_ROUNDS = 2
#: Set-ups every run times at least (extra ones build and discard a round).
MIN_SETUPS = 3
#: Share of a round's operations run once, untimed, before measuring, so
#: lazy initialisation in the process is not charged to the first round.
WARMUP_SHARE = 0.2
#: Host seconds between speed probes; each probe takes about 3 ms.
PROBE_EVERY_S = 0.2
#: Probe time that defines the reference speed host metrics are scaled to.
PROBE_NOMINAL_S = 0.003
#: An operation's speed is the median of the probes this close to its start.
PROBE_WINDOW_S = 1.0


def speed_probe() -> float:
    """Host seconds a fixed pure-Python integer loop takes now.

    The shared host's speed drifts by a fifth or more within seconds, in
    phases that outlast an operation but not a run.  This loop's time,
    taken between operations, follows those phases (over 20 rounds of
    ``structured`` its median per round correlated 0.87 with the round's
    host time), so the driver scales host metrics by it.  A fast phase can
    cover part of a run only, so each operation is scaled by the probes
    around it rather than by the run's median.
    """
    start = perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - start


class WarmupDone(Exception):
    """Raised by a :class:`Meter` once its operation limit is reached."""


@dataclass
class OpRecord:
    """One operation: host time, virtual outcome, score and check result."""

    kind: str
    started: float = 0.0  # host clock at the start, to find nearby speed probes
    host_s: float = 0.0
    virtual_s: float = 0.0
    cost_usd: float = 0.0
    quality: float = 0.0
    digest: str = ""
    errors: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.errors.append(reason)

    def outcome(self) -> tuple:
        """Everything that must repeat exactly across rounds of one seed."""
        return (self.kind, self.digest, repr(self.virtual_s), repr(self.cost_usd),
                repr(self.quality))


class Meter:
    """Times operations and the system work between them on the host clock."""

    def __init__(self, recorder=None, limit: int | None = None) -> None:
        self.recorder = recorder
        self.limit = limit
        self.ops: list[OpRecord] = []
        self.system_s = 0.0
        #: (host clock, :func:`speed_probe` time), taken untimed between operations.
        self.probes: list[tuple[float, float]] = []
        self._next_probe = 0.0

    def _span(self, index: int):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.root(index)

    def op(self, kind: str, fn):
        """Run one operation; returns ``(record, result or None if it raised)``."""
        if self.limit is not None and len(self.ops) >= self.limit:
            raise WarmupDone
        if perf_counter() >= self._next_probe:
            self.probes.append((perf_counter(), speed_probe()))
            self._next_probe = perf_counter() + PROBE_EVERY_S
        record = OpRecord(kind)
        self.ops.append(record)
        start = record.started = perf_counter()
        try:
            with self._span(len(self.ops) - 1):
                out = fn()
        except Exception as exc:  # an operation that raises is a counted failure
            record.host_s = perf_counter() - start
            record.fail(f"raised {type(exc).__name__}: {exc}")
            return record, None
        record.host_s = perf_counter() - start
        return record, out

    def system(self, fn):
        """Run system work that is not an operation (drains, appends)."""
        start = perf_counter()
        try:
            with self._span(-1):
                return fn()
        finally:
            self.system_s += perf_counter() - start

    @property
    def measured_s(self) -> float:
        return sum(op.host_s for op in self.ops) + self.system_s

    def slowdowns(self) -> list[float]:
        """Per operation: median probe time within :data:`PROBE_WINDOW_S` of
        its start (the nearest probe if none), over :data:`PROBE_NOMINAL_S`."""
        times = [t for t, _ in self.probes]
        out = []
        for op in self.ops:
            near = [s for _, s in self.probes[bisect_left(times, op.started - PROBE_WINDOW_S):
                                              bisect_right(times, op.started + PROBE_WINDOW_S)]]
            if not near:
                near = [min(self.probes, key=lambda p: abs(p[0] - op.started))[1]]
            out.append(statistics.median(near) / PROBE_NOMINAL_S)
        return out


def f1(returned: set, truth: set) -> float:
    if not returned and not truth:
        return 1.0
    hits = len(returned & truth)
    if not hits:
        return 0.0
    precision, recall = hits / len(returned), hits / len(truth)
    return 2 * precision * recall / (precision + recall)


def root_uid(record) -> str:
    """Source-record uid of a (possibly derived) record."""
    return record.uid.split(".", 1)[0].split("*", 1)[0]


class Workload:
    name = ""
    #: Operations in one round (fixed per workload).
    ops_per_round = 0

    def inputs(self, seed: int) -> dict:
        """The seed's generated inputs, with their ``input_digest``; no runtime."""
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        """The seed's inputs plus the runtime that serves them."""
        raise NotImplementedError

    def run(self, state, meter: Meter) -> None:
        raise NotImplementedError

    def slo_rate(self, state, ops: list[OpRecord]) -> float:
        """Closed loop: the rate one client sustains on the virtual clock.

        A closed loop has no arrival traffic to replay, so no SLO ladder is
        searched: this is operations per summed virtual latency.
        """
        return len(ops) / sum(op.virtual_s for op in ops)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _instr(intent: str, variant: int = 0) -> str:
    return gen.INTENTS[intent][1][variant]


@dataclass(frozen=True)
class ScanSpec:
    template: str
    day: int
    a: str  # first flag intent
    b: str  # second flag intent
    variant: int
    param: object


class ScanWorkload(Workload):
    name = "scan"
    tickets = 20_000
    days = 20
    reps = 21
    #: An odd number of equally repeated templates puts the median inside
    #: one template's group of latencies rather than on the edge between two.
    templates = (
        "where-filter-map", "filter-classify", "filter-filter-map",
        "filter-topk", "where-filter-limit",
    )
    ops_per_round = reps * len(templates)
    parallelism = 16

    def specs(self, seed: int) -> list[ScanSpec]:
        rng = gen.rng_for(seed, "scan-specs")
        order = [t for t in self.templates for _ in range(self.reps)]
        rng.shuffle(order)
        # Distinct (day, first filter, instruction variant) per plan: no plan
        # repeats another's leading filter, so generation-cache hits come
        # from genuinely shared keys (samples, second filters), the same
        # share on every seed.
        leads = rng.sample(
            [(day, a, v) for day in range(self.days) for a in gen.FLAG_INTENTS for v in (0, 1)],
            len(order),
        )
        out = []
        for template, (day, a, variant) in zip(order, leads):
            b = rng.choice([i for i in gen.FLAG_INTENTS if i != a])
            param = {
                "where-filter-map": 2,
                "where-filter-limit": gen.CHANNELS[int(rng.random() * len(gen.CHANNELS))],
                "filter-classify": int(rng.random() * 2),
            }.get(template)
            out.append(ScanSpec(template, day, a, b, variant, param))
        return out

    def inputs(self, seed: int) -> dict:
        tickets = gen.make_tickets(seed, self.tickets, days=self.days)
        specs = self.specs(seed)
        return {
            "tickets": tickets,
            "specs": specs,
            "input_digest": gen.digest(gen.records_digest(tickets), specs),
        }

    def setup(self, seed: int) -> dict:
        state = self.inputs(seed)
        by_day: dict[int, list] = {}
        for record in state.pop("tickets"):
            by_day.setdefault(record["day"], []).append(record)
        # MaxQuality keeps the champion model: under the default Balanced
        # policy the model choice flips on 16-record samples, and the mean
        # cost per query then varied by a quarter from seed to seed.
        runtime = AnalyticsRuntime(
            registry=gen.ticket_registry(), seed=seed, parallelism=self.parallelism,
            policy=MaxQuality(),
        )
        state["runtime"] = runtime
        state["sources"] = {
            day: MemorySource(records, gen.TICKET_SCHEMA, source_id=f"day-{day}")
            for day, records in by_day.items()
        }
        return state

    def plan(self, spec: ScanSpec, source):
        ds = Dataset.from_source(source)
        a = _instr(spec.a, spec.variant)
        if spec.template == "where-filter-map":
            return (ds.where(f"priority >= {spec.param}").sem_filter(a)
                    .sem_map(Field("amount", float, "invoice total"), _instr("t.amount", spec.variant)))
        if spec.template == "filter-classify":
            intent, options = (("t.department", gen.DEPARTMENTS), ("t.sentiment", gen.SENTIMENTS))[spec.param]
            return ds.sem_filter(a).sem_classify("label", list(options), _instr(intent, spec.variant))
        if spec.template == "filter-filter-map":
            return (ds.sem_filter(a).sem_filter(_instr(spec.b, 2))
                    .sem_map(Field("customer", str, "account holder"), _instr("t.customer", spec.variant)))
        if spec.template == "filter-topk":
            return ds.sem_filter(a).sem_topk(_instr(spec.b), 10, method="llm")
        return ds.where(f"channel = '{spec.param}'").sem_filter(a).limit(20)

    def score(self, spec: ScanSpec, source, records) -> float:
        """F1 of the returned set, averaged with field exact-match where extracted."""
        rows = source.records()
        truth = {r.uid for r in rows if r.annotations[spec.a]}
        if spec.template == "where-filter-map":
            truth = {r.uid for r in rows if r["priority"] >= spec.param and r.annotations[spec.a]}
        elif spec.template == "filter-filter-map":
            truth = {r.uid for r in rows if r.annotations[spec.a] and r.annotations[spec.b]}
        elif spec.template in ("where-filter-limit", "filter-topk"):
            wanted = {
                r.uid for r in rows
                if r.annotations[spec.a]
                and (spec.template == "filter-topk" and r.annotations[spec.b]
                     or spec.template == "where-filter-limit" and r["channel"] == spec.param)
            }
            returned = [root_uid(r) for r in records]
            return sum(u in wanted for u in returned) / len(returned) if returned else 0.0
        score = f1({root_uid(r) for r in records}, truth)
        field_name, intent = {
            "where-filter-map": ("amount", "t.amount"),
            "filter-filter-map": ("customer", "t.customer"),
        }.get(spec.template) or ("label", ("t.department", "t.sentiment")[spec.param])
        if records:
            exact = sum(r.get(field_name) == r.annotations[intent] for r in records) / len(records)
            score = (score + exact) / 2
        return score

    def run(self, state, meter: Meter) -> None:
        runtime = state["runtime"]
        llm = runtime.llm
        for spec in state["specs"]:
            source = state["sources"][spec.day]
            clock0, cost0 = llm.clock.elapsed, llm.tracker.spent_usd
            op, result = meter.op(spec.template,
                                  lambda: self.plan(spec, source).run(runtime.program_config()))
            if result is None:
                continue
            op.virtual_s = llm.clock.elapsed - clock0
            op.cost_usd = llm.tracker.spent_usd - cost0
            op.digest = result.fingerprint()
            op.quality = self.score(spec, source, result.records)
            if result.truncated:
                op.fail("truncated with no spend cap set")
            if not result.records:
                op.fail("empty result")


# ---------------------------------------------------------------------------
# structured
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructSpec:
    template: str
    shards: int
    region: str
    channel: str
    status: str
    start: int  # first order_id a semantic tail may see


class StructuredWorkload(Workload):
    name = "structured"
    rows = 100_000
    reps = 3
    #: (template, shards): two of seven run at ``shards=4`` (hash).  The
    #: three structured-only plans touch every row (SQL aggregation, a
    #: Python filter, a Python map); the four tails end in a thin semantic
    #: filter over a SQL-pruned slice of exactly ``tail_limit`` rows, so
    #: the median operation has a steady virtual latency (structured
    #: operators charge none).
    templates = (
        ("agg", 1),
        ("pyfilter-where", 4),
        ("pymap-where", 1),
        ("scan-limit-tail", 1),
        ("channel-limit-tail", 1),
        ("where-tail", 1),
        ("where-tail", 4),
    )
    ops_per_round = reps * len(templates)
    parallelism = 16
    tail_limit = 40
    #: Numeric thresholds are fixed and only categorical values are drawn,
    #: so every plan of a template keeps the same selectivity across seeds
    #: (its semantic tail then sees records arrive at the same pace).
    min_qty = 30
    min_price = 100.0
    min_total = 4000.0

    def specs(self, seed: int) -> list[StructSpec]:
        rng = gen.rng_for(seed, "structured-specs")
        order = [t for t in self.templates for _ in range(self.reps)]
        rng.shuffle(order)
        # Each operation gets its own block of order ids, so no semantic
        # tail re-reads rows an earlier one judged (which would be served
        # from the generation cache at zero virtual cost).
        blocks = list(range(len(order)))
        rng.shuffle(blocks)
        return [
            StructSpec(
                template, shards,
                region=gen.REGIONS[int(rng.random() * 4)],
                channel=gen.CHANNELS[int(rng.random() * 4)],
                status=gen.STATUSES[int(rng.random() * 4)],
                start=block * (self.rows // len(order)),
            )
            for (template, shards), block in zip(order, blocks)
        ]

    def inputs(self, seed: int) -> dict:
        rows = gen.make_table(seed, self.rows)
        specs = self.specs(seed)
        return {
            "rows": rows,
            "specs": specs,
            "input_digest": gen.digest(gen.records_digest(rows), specs),
        }

    def setup(self, seed: int) -> dict:
        state = self.inputs(seed)
        rows = state["rows"]
        state["runtime"] = AnalyticsRuntime(
            registry=gen.ticket_registry(), seed=seed, parallelism=self.parallelism,
            policy=MaxQuality(),
        )
        state["by_uid"] = {r.uid: r for r in rows}
        state["source"] = MemorySource(rows, gen.TABLE_SCHEMA, source_id="orders")
        return state

    def plan(self, spec: StructSpec, source):
        ds = Dataset.from_source(source)
        # One tail instruction: the optimizer's profiling sample is the same
        # 16 source rows for every plan, so only the first tail of a round
        # pays for sampling and later ones hit the generation cache.
        tail = _instr("t.urgent")
        t = spec.template
        if t == "scan-limit-tail":
            return (ds.where(f"region = '{spec.region}' AND qty >= {self.min_qty} "
                             f"AND order_id >= {spec.start}")
                    .project(["order_id", "qty", "price", "note"]).limit(self.tail_limit)
                    .sem_filter(tail))
        if t == "agg":
            return ds.where(f"status = '{spec.status}'").struct_agg(
                [("n", "count(*)"), ("units", "sum(qty)"), ("top", "max(price)"),
                 ("low_discount", "min(discount)")],
                group_by=["region", "channel"] if spec.shards > 1 else ["region"],
            )
        if t == "channel-limit-tail":
            return (ds.where(f"channel = '{spec.channel}' AND price > {self.min_price} "
                             f"AND order_id >= {spec.start}")
                    .project(["order_id", "channel", "price", "note"]).limit(self.tail_limit)
                    .sem_filter(tail))
        if t == "where-tail":
            return (ds.where(f"qty >= {self.min_qty} AND region = '{spec.region}' "
                             f"AND status = '{spec.status}' AND order_id >= {spec.start}")
                    .limit(self.tail_limit).sem_filter(tail))
        if t == "pymap-where":
            return (ds.where(f"channel = '{spec.channel}'")
                    .map(lambda r: {"total": r["qty"] * r["price"]}, "line total")
                    .where(f"total > {self.min_total}")
                    .project(["order_id", "total"]))
        return (ds.filter(lambda r: r.get("discount") is None, "no discount")
                .where(f"qty >= {self.min_qty} AND status = '{spec.status}'")
                .project(["order_id", "qty", "status"]))

    def reference(self, spec: StructSpec, rows):
        """Pure-Python evaluation: (records the plan's structured part keeps, agg groups)."""
        t = spec.template
        if t == "scan-limit-tail":
            kept = [r for r in rows if r["region"] == spec.region and r["qty"] >= self.min_qty
                    and r["order_id"] >= spec.start]
            return [(r.uid, {k: r.fields[k] for k in ("order_id", "qty", "price", "note")})
                    for r in kept[: self.tail_limit]], None
        if t == "agg":
            keys = ("region", "channel") if spec.shards > 1 else ("region",)
            groups: dict[tuple, dict] = {}
            for r in rows:
                if r["status"] != spec.status:
                    continue
                g = groups.setdefault(tuple(r[k] for k in keys),
                                      {"n": 0, "units": 0, "top": None, "low_discount": None})
                g["n"] += 1
                g["units"] += r["qty"]
                if g["top"] is None or g["top"] < r["price"]:
                    g["top"] = r["price"]
                d = r.get("discount")
                if d is not None and (g["low_discount"] is None or d < g["low_discount"]):
                    g["low_discount"] = d
            return None, sorted(
                tuple(zip(keys, key)) + tuple(sorted(g.items())) for key, g in groups.items()
            )
        if t == "channel-limit-tail":
            kept = [r for r in rows if r["channel"] == spec.channel and r["price"] > self.min_price
                    and r["order_id"] >= spec.start]
            return [(r.uid, {k: r.fields[k] for k in ("order_id", "channel", "price", "note")})
                    for r in kept[: self.tail_limit]], None
        if t == "where-tail":
            kept = [r for r in rows if r["qty"] >= self.min_qty and r["region"] == spec.region
                    and r["status"] == spec.status and r["order_id"] >= spec.start]
            return [(r.uid, dict(r.fields)) for r in kept[: self.tail_limit]], None
        if t == "pymap-where":
            kept = [r for r in rows if r["qty"] * r["price"] > self.min_total
                    and r["channel"] == spec.channel]
            return [(r.uid, {"order_id": r["order_id"], "total": r["qty"] * r["price"]})
                    for r in kept], None
        kept = [r for r in rows if r.get("discount") is None and r["qty"] >= self.min_qty
                and r["status"] == spec.status]
        return [(r.uid, {k: r.fields[k] for k in ("order_id", "qty", "status")}) for r in kept], None

    def check(self, spec: StructSpec, rows, by_record, result, op: OpRecord) -> None:
        expected, groups = self.reference(spec, rows)
        if groups is not None:
            keys = ("region", "channel") if spec.shards > 1 else ("region",)
            got = sorted(
                tuple((k, r.fields[k]) for k in keys)
                + tuple(sorted((k, v) for k, v in r.fields.items() if k not in keys))
                for r in result.records
            )
            if got != groups:
                op.fail("aggregate differs from the pure-Python evaluation")
            op.quality = 1.0
            return
        by_uid = dict(expected)
        got = [(root_uid(r), r) for r in result.records]
        if spec.template in ("pyfilter-where", "pymap-where"):
            if [(u, dict(r.fields)) for u, r in got] != expected:
                op.fail("records differ from the pure-Python evaluation")
            op.quality = 1.0
            return
        # Semantic tail: the structured slice must be exactly the reference,
        # and the tail may only drop records from it, never alter fields.
        tail_in = next((s.records_in for s in result.operator_stats if s.llm_calls), None)
        if tail_in is not None and tail_in != len(expected):
            op.fail(f"semantic tail saw {tail_in} records, reference slice has {len(expected)}")
        for uid, record in got:
            if by_uid.get(uid) != dict(record.fields):
                op.fail("tail record differs from the reference slice")
                break
        truth = {uid for uid, _ in expected if by_record[uid].annotations["t.urgent"]}
        op.quality = f1({uid for uid, _ in got}, truth)

    def run(self, state, meter: Meter) -> None:
        runtime = state["runtime"]
        llm = runtime.llm
        rows = state["rows"]
        for spec in state["specs"]:
            config = runtime.program_config()
            if spec.shards > 1:
                config = dataclasses.replace(config, shards=spec.shards, partitioner="hash")
            clock0, cost0 = llm.clock.elapsed, llm.tracker.spent_usd
            op, result = meter.op(f"{spec.template}@{spec.shards}",
                                  lambda: self.plan(spec, state["source"]).run(config))
            if result is None:
                continue
            op.virtual_s = llm.clock.elapsed - clock0
            op.cost_usd = llm.tracker.spent_usd - cost0
            op.digest = result.fingerprint()
            if result.truncated:
                op.fail("truncated with no spend cap set")
            self.check(spec, rows, state["by_uid"], result, op)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class ServeWorkload(Workload):
    name = "serve"
    base_tickets = 2_000
    tenants = 8
    windows = 16
    window_s = 1500.0
    submits = 160
    append_size = 20
    update_every = 4
    provider_width = 16
    #: Virtual p90 limit for ``slo_rate_qps``, in simulated seconds.
    slo_limit_s = 600.0
    #: Every submit, plus one standing tick per window after the first.
    ops_per_round = submits + windows - 1
    #: Plans in :meth:`templates`; arrivals name one by index.
    n_templates = 6

    def templates(self, source):
        ds = lambda: Dataset.from_source(source)  # noqa: E731
        return [
            lambda: ds().sem_filter(_instr("t.urgent")),
            lambda: ds().sem_filter(_instr("t.security")),
            lambda: ds().sem_filter(_instr("t.refund")).sem_classify(
                "department", list(gen.DEPARTMENTS), _instr("t.department")),
            lambda: ds().where("priority >= 3").sem_filter(_instr("t.outage")).sem_map(
                Field("amount", float, "invoice total"), _instr("t.amount")),
            lambda: ds().sem_filter(_instr("t.urgent", 1)).sem_map(
                Field("customer", str, "account holder"), _instr("t.customer")),
            lambda: ds().where("channel = 'chat'").sem_filter(_instr("t.refund", 1)),
        ]

    def truth(self, template: int, rows) -> tuple[set, tuple[str, str] | None]:
        """(true uid set, (extracted field, its intent) or None) for a template."""
        flag, pred, extracted = [
            ("t.urgent", None, None),
            ("t.security", None, None),
            ("t.refund", None, ("department", "t.department")),
            ("t.outage", lambda r: r["priority"] >= 3, ("amount", "t.amount")),
            ("t.urgent", None, ("customer", "t.customer")),
            ("t.refund", lambda r: r["channel"] == "chat", None),
        ][template]
        uids = {r.uid for r in rows if r.annotations[flag] and (pred is None or pred(r))}
        return uids, extracted

    def inputs(self, seed: int) -> dict:
        base = gen.make_tickets(seed, self.base_tickets, prefix="s")
        arrivals = gen.make_arrivals(seed, self.tenants, self.windows, self.window_s,
                                     self.submits, self.n_templates)
        mutations = gen.make_mutations(seed, self.windows, self.base_tickets,
                                       self.append_size, self.update_every)
        appends = {
            m.window: gen.make_tickets(seed, m.count, prefix="s",
                                       start=self.base_tickets + m.window * self.append_size)
            for m in mutations if m.kind == "append"
        }
        return {
            "base": base,
            "arrivals": arrivals,
            "mutations": mutations,
            "appends": appends,
            "input_digest": gen.digest(gen.records_digest(base), arrivals, mutations,
                                       [gen.records_digest(v) for _, v in sorted(appends.items())]),
        }

    def setup(self, seed: int) -> dict:
        state = self.inputs(seed)
        source = MemorySource(state.pop("base"), gen.TICKET_SCHEMA, source_id="live-tickets")
        runtime = AnalyticsRuntime(registry=gen.ticket_registry(), seed=seed, metrics=MetricsRegistry())
        serving = runtime.serving(
            tenants=[TenantSpec(f"tenant-{k}") for k in range(self.tenants)],
            provider_width=self.provider_width,
            parallelism=self.provider_width,
            batching=True,
        )
        standing = serving.register_standing(
            "ops", "urgent-feed",
            Dataset.from_source(source).where("priority >= 3").sem_filter(_instr("t.urgent")),
            policy=RefreshPolicy(trigger="count", count=self.append_size),
        )
        # Warm every tenant's working set (its favourite templates) so the
        # measured windows serve steady-state traffic: reads that hit the
        # generation cache and materialization store, deltas from appends,
        # and recomputes after updates.
        templates = self.templates(source)
        for k in range(self.tenants):
            for template in gen.favourite_templates(k, len(templates)):
                serving.submit(f"tenant-{k}", templates[template]())
        serving.drain()
        state.update(runtime=runtime, serving=serving, source=source, standing=standing, windows=[])
        return state

    def run(self, state, meter: Meter) -> None:
        serving, source, standing = state["serving"], state["source"], state["standing"]
        templates = self.templates(source)
        by_window: dict[int, list] = {}
        for arrival in state["arrivals"]:
            by_window.setdefault(arrival.window, []).append(arrival)
        for window in range(self.windows):
            pending = []  # (op, template or None for a tick, truth snapshot)
            ticks_before = len(standing.ticks)
            op, ticks = meter.op("tick", lambda: serving.pump_standing())
            if ticks:
                rows = source.records()
                pending.append((op, None, rows))
                if len(standing.ticks) != ticks_before + 1 or ticks[0].deferred:
                    op.fail("standing tick did not run")
                view = [(r.uid, sorted(r.fields.items())) for r in standing.records]
                folded = [(r.uid, sorted(r.fields.items())) for r in fold_changelog([], standing.changelog)]
                if view != folded:
                    op.fail("standing view differs from its folded changelog")
            elif ticks is not None:
                meter.ops.pop()
                meter.system_s += op.host_s
            for arrival in by_window.get(window, []):
                plan = templates[arrival.template]()
                op, job = meter.op(
                    f"submit-{arrival.template}",
                    lambda: serving.submit(arrival.tenant, plan, arrival_s=arrival.arrival_s),
                )
                if job is not None:
                    pending.append((op, arrival.template, source.records()))
            report = meter.system(serving.drain)
            state["windows"].append(report.jobs)
            if len(report.jobs) != len(pending):
                for op, _, _ in pending:
                    op.fail("drain report does not match admitted operations")
            for (op, template, rows), job in zip(pending, report.jobs):
                op.virtual_s = job.latency_s
                op.cost_usd = job.effective_cost_usd()
                op.digest = job.fingerprint
                if template is None:
                    truth = {r.uid for r in rows if r["priority"] >= 3 and r.annotations["t.urgent"]}
                    op.quality = f1({root_uid(r) for r in job.records}, truth)
                    continue
                truth, extracted = self.truth(template, rows)
                op.quality = f1({root_uid(r) for r in job.records}, truth)
                if extracted and job.records:
                    name, intent = extracted
                    exact = sum(r.get(name) == r.annotations[intent] for r in job.records)
                    op.quality = (op.quality + exact / len(job.records)) / 2
            for mutation in (m for m in state["mutations"] if m.window == window):
                if mutation.kind == "append":
                    meter.system(lambda: source.append(state["appends"][window]))
                else:
                    meter.system(lambda: source.update(
                        f"s-{mutation.uid_index}", {"priority": mutation.priority}))

    def slo_rate(self, state, ops: list[OpRecord]) -> float:
        """Replay each window's admitted jobs at scaled arrival rates.

        Copies of the jobs go through ``CrossQueryScheduler`` without
        re-executing them (no quotas, so the admitted set is unchanged).
        Standing ticks are due at their window's start.  A multiple passes
        when the p90 latency stays under :attr:`slo_limit_s` and the
        provider's busy time over all windows fits in the scaled horizon
        (no growing backlog).
        """
        windows = state["windows"]

        def passes(multiple: float) -> bool:
            latencies, busy = [], 0.0
            for jobs in windows:
                copies = [
                    dataclasses.replace(
                        job,
                        arrival_s=0.0 if job.tag.startswith("standing:") else job.arrival_s / multiple,
                        finish_s=0.0, latency_s=0.0, standalone_s=0.0, rebate_usd=0.0,
                    )
                    for job in jobs
                ]
                report = CrossQueryScheduler(self.provider_width, batching=True).run(copies)
                busy += sum(wave.duration_s for wave in report.waves)
                latencies.extend(report.latencies())
            return (busy <= self.windows * self.window_s / multiple
                    and stats.percentile(latencies, stats.SLO_PERCENTILE) <= self.slo_limit_s)

        best = stats.highest_passing(stats.SLO_LADDER, passes)
        base = sum(len(jobs) for jobs in windows) / (self.windows * self.window_s)
        return (best or 0.0) * base


# ---------------------------------------------------------------------------
# research
# ---------------------------------------------------------------------------

#: Digests of the paper datasets generated in ``src/`` (legal seed 7,
#: enron seed 11).  A change under ``src/`` that alters them changes the
#: workload, and every trial then counts as failed.
LEGAL_DIGEST = "d0335f91f03b8115"
ENRON_DIGEST = "b600fa2d27561350"


class ResearchWorkload(Workload):
    name = "research"
    #: Trials per round by kind.  The CodeAgent trials are 18 of 25, so the
    #: virtual median and p80 tail fall inside their tight group (about 1200
    #: virtual seconds each).  Percentiles that fell among the compute
    #: trials, whose latencies overlap and spread widely, moved by a quarter
    #: from seed to seed.
    kinds = {"legal-answer": 3, "enron-compute": 4, "enron-agent": 18}
    ops_per_round = sum(kinds.values())

    def inputs(self, seed: int) -> dict:
        legal, enron = generate_legal_corpus(), generate_enron_corpus()
        digests = (gen.bundle_digest(legal), gen.bundle_digest(enron))
        seeds = gen.trial_seeds(seed, self.ops_per_round)
        kinds = [kind for kind, count in self.kinds.items() for _ in range(count)]
        gen.rng_for(seed, "trial-order").shuffle(kinds)
        return {
            "legal": legal,
            "enron": enron,
            "bundles_ok": digests == (LEGAL_DIGEST, ENRON_DIGEST),
            "trials": list(zip(kinds, seeds)),
            "input_digest": gen.digest(digests, kinds, seeds),
        }

    def setup(self, seed: int) -> dict:
        return self.inputs(seed)

    def trial(self, kind: str, trial_seed: int, state):
        """Run one trial on a fresh runtime; returns (answer, its LLM substrate)."""
        if kind == "legal-answer":
            bundle = state["legal"]
            runtime = AnalyticsRuntime.for_bundle(bundle, seed=trial_seed)
            context = runtime.make_context(bundle)
            first = runtime.answer(context, kb.QUERY_RATIO)
            again = runtime.answer(context, kb.QUERY_RATIO)
            return (first.answer, again.reused), runtime.llm
        bundle = state["enron"]
        runtime = AnalyticsRuntime.for_bundle(bundle, seed=trial_seed)
        if kind == "enron-compute":
            result = runtime.compute(runtime.make_context(bundle), en.QUERY_RELEVANT)
            return [row.get("filename") for row in (result.answer or []) if isinstance(row, dict)], runtime.llm
        llm = runtime.llm
        tools = build_file_tools(bundle.corpus)
        semantic = build_semantic_tools(bundle.records(), llm)
        for name in semantic.names():
            tools.add(semantic.get(name))
        policy = SemanticToolsCodeAgentPolicy(
            filters=[en.FILTER_MENTIONS, en.FILTER_FIRSTHAND],
            maps=[("summary", en.MAP_SUMMARY), ("sender", en.MAP_SENDER),
                  ("subject", en.MAP_SUBJECT)],
        )
        agent = CodeAgent(llm, tools, policy, seed=trial_seed, name="codeagent-plus", max_steps=8)
        result = agent.run(en.QUERY_RELEVANT)
        return [row.get("key") for row in (result.answer or []) if isinstance(row, dict)], llm

    def run(self, state, meter: Meter) -> None:
        for kind, trial_seed in state["trials"]:
            op, out = meter.op(kind, lambda: self.trial(kind, trial_seed, state))
            if not state["bundles_ok"]:
                op.fail("paper dataset digest changed")
            if out is None:
                continue
            answer, llm = out
            op.virtual_s = llm.clock.elapsed
            op.cost_usd = llm.tracker.spent_usd
            op.digest = gen.digest(answer, repr(op.cost_usd), repr(op.virtual_s))
            if kind == "legal-answer":
                (value, reused) = answer
                truth = state["legal"].ground_truth["ratio"]
                ratio = value.get("ratio") if isinstance(value, dict) else None
                pct_err = 100.0 if not isinstance(ratio, (int, float)) else abs(ratio - truth) / truth * 100
                op.quality = 1.0 - min(1.0, pct_err / 100.0)
                if not reused:
                    op.fail("repeated answer() missed the answer cache")
            else:
                gold = set(state["enron"].ground_truth["relevant_filenames"])
                op.quality = f1(set(answer), gold)


WORKLOADS = {
    workload.name: workload
    for workload in (ScanWorkload(), StructuredWorkload(), ServeWorkload(), ResearchWorkload())
}
