"""Seeded input generators owned by the benchmark.

Every workload input is made here from the workload seed with a plain
``random.Random`` stream, never through ``repro.qa.corpus`` or
``repro.serve.workload``, so an edit under ``src/`` cannot change what a
workload feeds the system.  The ``legal``/``enron`` bundles of the
``research`` workload are the exception: the paper's datasets are generated
in ``src/``, and :func:`bundle_digest` guards them instead.

Sizes, stated against the program's own caches:

- the 20k-ticket ``scan`` corpus gives more distinct (model, instruction,
  record) generation keys than the 100k-entry ``GenerationCache`` holds;
- the ``serve`` source (2k tickets plus appends) keeps every tenant's
  working set inside both the generation cache and the 256-entry
  ``MaterializationStore``;
- the 100k-row ``structured`` table is mostly pruned by SQL before any
  LLM call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry

#: Intent key -> (oracle keywords, instruction variants).  Every variant
#: contains all keywords, so each resolves to its intent; variants differ in
#: normalized text, so each is its own generation-cache key.  Flag intents
#: have a third variant, used only where a flag is a plan's second filter.
INTENTS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "t.urgent": (
        ("ticket", "marked", "urgent"),
        (
            "The ticket is marked urgent.",
            "Is this ticket marked urgent?",
            "Was the ticket marked as urgent by the desk?",
        ),
    ),
    "t.security": (
        ("mentions", "security", "incident"),
        (
            "The ticket mentions a security incident.",
            "Does the text mention any security incident?",
            "The writer mentions a possible security incident.",
        ),
    ),
    "t.refund": (
        ("requests", "refund", "payment"),
        (
            "The customer requests a refund of a payment.",
            "Does the writer request a refund for a payment?",
            "A refund of some payment is what the customer requests.",
        ),
    ),
    "t.outage": (
        ("reports", "service", "outage"),
        (
            "The ticket reports a service outage.",
            "Does the ticket report an outage of a service?",
            "Someone reports that a service had an outage.",
        ),
    ),
    "t.amount": (
        ("total", "invoice", "dollars"),
        (
            "Extract the total invoice amount in dollars.",
            "What is the invoice total in dollars?",
        ),
    ),
    "t.customer": (
        ("name", "account", "holder"),
        ("Extract the name of the account holder.", "Who is the account holder by name?"),
    ),
    "t.department": (
        ("department", "responsible", "handling"),
        (
            "Which department is responsible for handling this ticket?",
            "Name the department responsible for handling the request.",
        ),
    ),
    "t.sentiment": (
        ("customer", "sentiment", "tone"),
        (
            "What is the customer sentiment and tone?",
            "Classify the tone and sentiment of the customer.",
        ),
    ),
}

FLAG_INTENTS = ("t.urgent", "t.security", "t.refund", "t.outage")
DEPARTMENTS = ("engineering", "finance", "support", "legal")
SENTIMENTS = ("negative", "neutral", "positive")
REGIONS = ("north", "south", "east", "west")
CHANNELS = ("email", "phone", "chat", "portal")
CUSTOMERS = (
    "acme", "globex", "initech", "umbrella", "stark", "wayne",
    "hooli", "soylent", "cyberdyne", "tyrell",
)
_TOPICS = (
    "outage", "invoice", "renewal", "login", "latency", "migration",
    "contract", "audit", "backup", "quota", "upgrade", "alert",
)
#: Share of tickets for which each flag intent is true.  Equal shares keep a
#: plan's selectivity (and so its cost) independent of which intents the
#: seed picks for it.
FLAG_RATE = 0.3

TICKET_SCHEMA = Schema(
    [
        Field("title", str, "short ticket title"),
        Field("body", str, "full ticket text"),
        Field("priority", int, "priority 1 (low) to 4 (critical)"),
        Field("region", str, "filing office region"),
        Field("channel", str, "intake channel"),
        Field("day", int, "day the ticket was filed"),
    ],
    name="BenchTicket",
    desc="synthetic support tickets generated by the benchmark",
)


def rng_for(seed: int, *path: object) -> random.Random:
    """An independent ``random.Random`` stream for ``(seed, *path)``."""
    material = repr((seed,) + path).encode("utf-8")
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


def ticket_registry() -> IntentRegistry:
    registry = IntentRegistry()
    for key, (keywords, variants) in INTENTS.items():
        registry.register(key, keywords, variants[0])
    return registry


def _difficulty(rng: random.Random) -> float:
    draw = rng.random()
    if draw > 0.9:  # ~10% genuinely ambiguous (record, intent) pairs
        return round(0.7 + 0.25 * rng.random(), 3)
    return round(0.05 + 0.55 * draw, 3)


def make_tickets(seed: int, n: int, prefix: str = "t", days: int = 20,
                 start: int = 0) -> list[DataRecord]:
    """``n`` tickets with typed fields, ground truth and per-intent difficulty.

    Uids are ``<prefix>-<index>`` (explicit, so generation never draws from
    the global record-uid counter).  ``start`` offsets the index, so
    appended batches continue a corpus without colliding.
    """
    rng = rng_for(seed, "tickets", prefix, start)
    records = []
    for index in range(start, start + n):
        customer = CUSTOMERS[int(rng.random() * len(CUSTOMERS))]
        department = DEPARTMENTS[int(rng.random() * len(DEPARTMENTS))]
        sentiment = SENTIMENTS[int(rng.random() * len(SENTIMENTS))]
        region = REGIONS[int(rng.random() * len(REGIONS))]
        channel = CHANNELS[int(rng.random() * len(CHANNELS))]
        priority = 1 + int(rng.random() * 4)
        amount = round(10.0 + 990.0 * rng.random(), 2)
        topic_a = _TOPICS[int(rng.random() * len(_TOPICS))]
        topic_b = _TOPICS[int(rng.random() * len(_TOPICS))]
        flags = {key: rng.random() < FLAG_RATE for key in FLAG_INTENTS}
        annotations: dict = dict(flags)
        annotations.update(
            {
                "t.amount": amount,
                "t.customer": customer,
                "t.department": department,
                "t.sentiment": sentiment,
            }
        )
        for key in INTENTS:
            annotations[DIFFICULTY_PREFIX + key] = _difficulty(rng)
        body = (
            f"Ticket {index} from {customer} about {topic_a} and {topic_b}, "
            f"filed by {channel} via the {region} office for {department}. "
            f"Priority {priority}. Invoice total ${amount:.2f}."
        )
        records.append(
            DataRecord(
                fields={
                    "title": f"{topic_a}-{index}",
                    "body": body,
                    "priority": priority,
                    "region": region,
                    "channel": channel,
                    "day": index % days,
                },
                uid=f"{prefix}-{index}",
                annotations=annotations,
                source_id=f"bench-{prefix}",
            )
        )
    return records


TABLE_SCHEMA = Schema(
    [
        Field("order_id", int, "order number"),
        Field("region", str, "sales region"),
        Field("channel", str, "sales channel"),
        Field("qty", int, "units ordered"),
        Field("price", float, "unit price in dollars"),
        Field("discount", float, "discount share, NULL when none"),
        Field("status", str, "order status"),
        Field("note", str, "free-text order note"),
    ],
    name="BenchOrder",
    desc="synthetic typed order table generated by the benchmark",
)
STATUSES = ("open", "shipped", "returned", "cancelled")


def make_table(seed: int, n: int) -> list[DataRecord]:
    """``n`` typed order rows; about 1 in 10 discounts is NULL (missing)."""
    rng = rng_for(seed, "table")
    rows = []
    for index in range(n):
        fields = {
            "order_id": index,
            "region": REGIONS[int(rng.random() * len(REGIONS))],
            "channel": CHANNELS[int(rng.random() * len(CHANNELS))],
            "qty": 1 + int(rng.random() * 50),
            "price": round(1.0 + 199.0 * rng.random(), 2),
            "status": STATUSES[int(rng.random() * len(STATUSES))],
        }
        if rng.random() >= 0.1:
            fields["discount"] = round(0.3 * rng.random(), 2)
        urgent = rng.random() < 0.3
        fields["note"] = (
            f"Order {index} for {fields['qty']} units"
            + (" marked urgent by the ticket desk." if urgent else ".")
        )
        rows.append(
            DataRecord(
                fields=fields,
                uid=f"o-{index}",
                annotations={
                    "t.urgent": urgent,
                    DIFFICULTY_PREFIX + "t.urgent": _difficulty(rng),
                },
                source_id="bench-orders",
            )
        )
    return rows


@dataclass(frozen=True)
class Arrival:
    """One ``serve`` submit: ``tenant`` sends template ``template``."""

    window: int
    arrival_s: float  # virtual seconds from the start of its drain window
    tenant: str
    template: int


def favourite_templates(tenant: int, n_templates: int) -> tuple[int, int, int]:
    """The three templates tenant number ``tenant`` cycles through."""
    return tenant % n_templates, (tenant + 1) % n_templates, (tenant + 3) % n_templates


def make_arrivals(seed: int, tenants: int, windows: int, window_s: float,
                  total: int, n_templates: int) -> list[Arrival]:
    """Zipf-skewed arrivals per tenant, cut into drain windows.

    Tenant ``k`` sends a ``1 / (k + 1)`` share of ``total`` submits, one
    at a uniformly jittered time in each of that many equal slices of the
    horizon.  Unlike Poisson arrivals, this keeps both the offered load and
    how often cold queries overlap the same across seeds, which keeps the
    latency tail steady from seed to seed.  Each tenant cycles through three favourite templates, so
    repeats (generation-cache and materialization hits) are common within a
    tenant.
    """
    weights = [1.0 / (k + 1) for k in range(tenants)]
    counts = [round(total * w / sum(weights)) for w in weights]
    counts[0] += total - sum(counts)
    horizon = windows * window_s
    arrivals = []
    for k, count in enumerate(counts):
        rng = rng_for(seed, "arrivals", k)
        favourites = favourite_templates(k, n_templates)
        times = [(i + rng.random()) * horizon / count for i in range(count)]
        for index, t in enumerate(times):
            window = int(t // window_s)
            arrivals.append(
                Arrival(window, round(t - window * window_s, 6), f"tenant-{k}",
                        favourites[index % 3])
            )
    arrivals.sort(key=lambda a: (a.window, a.arrival_s, a.tenant))
    return arrivals


@dataclass(frozen=True)
class Mutation:
    """Source change applied after drain window ``window``."""

    window: int
    kind: str  # "append" | "update"
    count: int = 0  # records appended
    uid_index: int = 0  # record updated
    priority: int = 0  # its new priority


def make_mutations(seed: int, windows: int, base_records: int,
                   append_size: int, update_every: int) -> list[Mutation]:
    """One append per window, and an in-place update every few windows."""
    rng = rng_for(seed, "mutations")
    out = []
    for window in range(windows):
        out.append(Mutation(window, "append", count=append_size))
        if window % update_every == update_every - 1:
            out.append(
                Mutation(
                    window,
                    "update",
                    uid_index=int(rng.random() * base_records),
                    priority=1 + int(rng.random() * 4),
                )
            )
    return out


def trial_seeds(seed: int, n: int) -> list[int]:
    """Seeds for the ``research`` trials."""
    rng = rng_for(seed, "trials")
    return [int(rng.random() * 2**31) for _ in range(n)]


def records_digest(records: list[DataRecord]) -> str:
    """Digest of records' uids, fields and annotations, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr((record.uid, sorted(record.fields.items()),
                       sorted(record.annotations.items()))).encode("utf-8"))
    return h.hexdigest()[:16]


def digest(*parts: object) -> str:
    """Digest of arbitrary reprs (arrival traces, seeds, schedules)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def bundle_digest(bundle) -> str:
    """Digest of a ``DatasetBundle``'s records and ground truth."""
    return digest(records_digest(bundle.records()), sorted(
        (key, repr(value)) for key, value in bundle.ground_truth.items()
    ))
