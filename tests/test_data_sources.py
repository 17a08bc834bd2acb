"""Tests for data sources."""

import pytest

from repro.data.records import DataRecord
from repro.data.schemas import TEXT_FILE_SCHEMA, Field, Schema
from repro.data.sources import DirectorySource, MemorySource
from repro.errors import DataSourceError


def _records(n=3):
    return [DataRecord({"i": index}) for index in range(n)]


def test_memory_source_iterates_all():
    source = MemorySource(_records(3), Schema([Field("i", int)]))
    assert len(list(source.iterate())) == 3
    assert source.cardinality() == 3


def test_memory_source_stamps_source_id():
    source = MemorySource(_records(1), Schema([Field("i", int)]), source_id="mysrc")
    assert next(iter(source)).source_id == "mysrc"


def test_memory_source_reiterable():
    source = MemorySource(_records(2), Schema([Field("i", int)]))
    assert len(list(source)) == len(list(source)) == 2


def test_directory_source_reads_files(tmp_path):
    (tmp_path / "b.csv").write_text("x,y\n1,2\n", encoding="utf-8")
    (tmp_path / "a.html").write_text("<html></html>", encoding="utf-8")
    source = DirectorySource(tmp_path)
    records = list(source.iterate())
    assert [record["filename"] for record in records] == ["a.html", "b.csv"]
    assert records[0]["format"] == "html"
    assert records[1]["contents"].startswith("x,y")
    assert source.cardinality() == 2
    assert source.schema is TEXT_FILE_SCHEMA


def test_directory_source_missing_dir():
    with pytest.raises(DataSourceError):
        DirectorySource("/nonexistent/path/xyz")


# ---------------------------------------------------------------------------
# MemorySource mutations and the version-keyed batch cache
# ---------------------------------------------------------------------------


def _uid_records(values, prefix="r"):
    return [DataRecord({"i": value}, uid=f"{prefix}{index}") for index, value in enumerate(values)]


def test_update_finds_appended_records_and_keeps_first_match():
    source = MemorySource(_uid_records([0, 1, 2]), Schema([Field("i", int)]))
    source.update("r1", {"i": 10})  # builds the uid index
    source.append([DataRecord({"i": 3}, uid="r3"), DataRecord({"i": 4}, uid="r0")])
    source.update("r3", {"i": 30})
    source.update("r0", {"i": 99})  # duplicate uid: the first record wins
    assert [record["i"] for record in source.iterate()] == [99, 10, 2, 30, 4]


def test_update_of_unknown_uid_raises_the_same_error():
    source = MemorySource(_uid_records([0]), Schema([Field("i", int)]), source_id="src")
    with pytest.raises(DataSourceError) as first:
        source.update("missing", {"i": 1})
    assert str(first.value) == "source 'src' has no record with uid 'missing'"
    assert source.version == 0


def test_batch_is_cached_until_the_source_changes():
    source = MemorySource(_uid_records([0, 1, 2]), Schema([Field("i", int)]))
    batch = source.batch()
    assert source.batch() is batch
    assert list(batch.column("i")) == [0, 1, 2]

    source.append(_uid_records([3], prefix="a"))
    appended = source.batch()
    assert appended is not batch and len(batch) == 3
    assert list(appended.column("i")) == [0, 1, 2, 3]

    source.update("r1", {"i": 11})
    updated = source.batch()
    assert updated is not appended
    assert list(updated.column("i")) == [0, 11, 2, 3]


def test_batch_sees_updates_made_through_a_source_sharing_its_records():
    records = _uid_records([0, 1])
    reader = MemorySource(records, Schema([Field("i", int)]))
    writer = MemorySource(records, Schema([Field("i", int)]))
    assert list(reader.batch().column("i")) == [0, 1]
    writer.update("r0", {"i": 5})
    assert reader.version == 0
    assert list(reader.batch().column("i")) == [5, 1]
