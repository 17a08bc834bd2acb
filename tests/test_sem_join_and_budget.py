"""Tests for the blocked semantic join and budget-capped execution."""

import pytest

from repro.data.datasets import enron as en
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.errors import ConfigurationError
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset

SCHEMA = Schema([Field("name", str), Field("text", str)])


def _join_registry():
    registry = IntentRegistry()
    registry.register("j.topic", ["records", "same", "topic"])
    return registry


def _side(prefix, topics):
    records = []
    for index, topic in enumerate(topics):
        # Pair-level truth: equality joins compare the two records' values
        # for the resolved intent ("j.topic" here).
        records.append(
            DataRecord(
                {"name": f"{prefix}{index}", "text": f"a document about {topic} " * 3},
                uid=f"{prefix}{index}",
                annotations={
                    "j.topic": topic,
                    DIFFICULTY_PREFIX + "j.topic": 0.05,
                },
            )
        )
    return records


def _run_join(method, seed=0):
    llm = SimulatedLLM(oracle=SemanticOracle(_join_registry()), seed=seed)
    left = Dataset.from_records(_side("l", ["gadgets"] * 4 + ["plants"] * 4), SCHEMA, "left")
    right_topics = ["gadgets"] * 4 + ["sports"] * 6 + ["cooking"] * 6
    right = Dataset.from_records(_side("r", right_topics), SCHEMA, "right")
    joined = left.sem_join(right, "the records discuss the same topic")
    config = QueryProcessorConfig(llm=llm, join_method=method, seed=seed)
    result = joined.run(config)
    return result, llm


def test_nested_join_judges_all_pairs():
    result, llm = _run_join("nested")
    judgments = [event for event in llm.tracker.events if event.tag.endswith(":join")]
    assert len(judgments) == 8 * 16


def test_blocked_join_judges_fewer_pairs():
    result_nested, llm_nested = _run_join("nested")
    result_blocked, llm_blocked = _run_join("blocked")
    nested_judgments = [
        e for e in llm_nested.tracker.events if e.tag.endswith(":join") and e.output_tokens
    ]
    blocked_judgments = [
        e for e in llm_blocked.tracker.events if e.tag.endswith(":join") and e.output_tokens
    ]
    assert len(blocked_judgments) < len(nested_judgments)


def test_nested_join_finds_equal_topic_pairs():
    result, _llm = _run_join("nested")
    # 4 gadget lefts x 4 gadget rights = 16 true pairs; low difficulty
    # keeps noise negligible.
    assert 14 <= len(result.records) <= 18


def test_blocked_join_keeps_high_similarity_matches():
    result, _llm = _run_join("blocked")
    # gadget-left x gadget-right pairs are lexically near-identical, so
    # blocking keeps them and the judge accepts them.
    assert len(result.records) >= 12


def test_join_method_validated():
    llm = SimulatedLLM(seed=0)
    with pytest.raises(ConfigurationError):
        QueryProcessorConfig(llm=llm, join_method="psychic")


# ---------------------------------------------------------------------------
# Budget-capped execution
# ---------------------------------------------------------------------------


def test_budget_cap_truncates_run(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    config = QueryProcessorConfig(
        llm=llm, optimize=False, max_cost_usd=0.02, seed=0
    )
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .run(config)
    )
    assert result.truncated
    # The cap stopped the run mid-batch: only part of the input ever entered
    # the filters, and spend lands within one call's price of the cap rather
    # than overshooting by a whole operator.
    filter_stats = [s for s in result.operator_stats if "Filter" in s.label]
    assert any(s.records_in < 250 for s in filter_stats)
    assert result.total_cost_usd < config.max_cost_usd + 0.01


@pytest.mark.parametrize("pipeline", [True, False])
def test_budget_cap_bounds_embedding_spend(pipeline):
    # Retrieval bills only embeddings and a Python filter bills nothing,
    # so no guarded completion ever checks the cap: the embedding requests
    # themselves must, stopping within one request of it.
    from repro.qa.corpus import CorpusSpec, build_corpus

    bundle = build_corpus(CorpusSpec(seed=13, n_records=200))

    def run(max_cost_usd):
        llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=13)
        config = QueryProcessorConfig(
            llm=llm, optimize=False, seed=13, pipeline=pipeline,
            max_cost_usd=max_cost_usd,
        )
        result = (
            Dataset.from_source(bundle.source())
            .retrieve("login outage", 150)
            .filter(lambda record: True, "keep all")
            .run(config)
        )
        return result, llm

    uncapped, _ = run(None)
    cap = 0.15 * uncapped.total_cost_usd
    capped, llm = run(cap)
    largest = max(event.cost_usd for event in llm.tracker.events)
    assert capped.truncated
    assert capped.total_cost_usd <= cap + largest


def test_budget_cap_absent_runs_fully(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    config = QueryProcessorConfig(llm=llm, optimize=False, seed=0)
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .run(config)
    )
    assert not result.truncated


def test_budget_cap_validation():
    llm = SimulatedLLM(seed=0)
    with pytest.raises(ConfigurationError):
        QueryProcessorConfig(llm=llm, max_cost_usd=0.0)
