"""Tests for stable hashing."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils import hashing
from repro.utils.hashing import (
    PREFIX_MEMO_MAX,
    HashPrefix,
    hash_prefix,
    stable_digest,
    stable_hash,
    stable_uniform,
)


def test_stable_hash_is_deterministic():
    assert stable_hash("a", 1, True) == stable_hash("a", 1, True)


def test_stable_hash_differs_on_part_boundaries():
    assert stable_hash("ab", "c") != stable_hash("a", "bc")


def test_stable_hash_differs_on_types():
    assert stable_hash(1) != stable_hash("1")


def test_stable_uniform_range():
    values = [stable_uniform("key", i) for i in range(200)]
    assert all(0.0 <= value < 1.0 for value in values)


def test_stable_uniform_spread():
    values = [stable_uniform("spread", i) for i in range(500)]
    low = sum(1 for value in values if value < 0.5)
    assert 180 < low < 320  # roughly balanced


def test_stable_digest_is_hex_and_short():
    digest = stable_digest("x", 42)
    assert len(digest) == 16
    int(digest, 16)  # parses as hex


@given(st.lists(st.text(), min_size=1, max_size=5))
def test_stable_hash_deterministic_property(parts):
    assert stable_hash(*parts) == stable_hash(*parts)


@given(st.text(), st.text())
def test_stable_uniform_bounds_property(a, b):
    assert 0.0 <= stable_uniform(a, b) < 1.0


# ---------------------------------------------------------------------------
# Hashed prefixes
# ---------------------------------------------------------------------------

_AWKWARD_PREFIXES = [
    (),
    ("a\x1fb", "\x1f"),  # the separator inside parts
    ("naïve", "日本語", "emoji 🎉"),
    (0, -1, 2**70),
    (("nested", 1), None, 3.5),
    (True, 1, 1.0),  # equal values, different reprs
    ("",),
]
_AWKWARD_LASTS = ["uid-1", "\x1f", "ü", 7, ("t", None), None, ""]


def _assert_prefix_matches(prefix):
    hashed = hash_prefix(*prefix)
    for last in _AWKWARD_LASTS:
        parts = (*prefix, last)
        assert hashed.hash(last) == stable_hash(*parts)
        assert hashed.uniform(last) == stable_uniform(*parts)
        assert hashed.digest(last) == stable_digest(*parts)
        assert HashPrefix(*prefix).digest(last) == stable_digest(*parts)


def test_hash_prefix_equals_full_hashes_on_awkward_parts():
    for prefix in _AWKWARD_PREFIXES:
        _assert_prefix_matches(prefix)


def test_hash_prefix_keeps_equal_values_of_other_types_apart():
    # 1 == 1.0 == True, but their reprs (and so their hashes) differ.
    for prefix in [(1,), (1.0,), (True,), ((1,),), ((True,),)]:
        assert hash_prefix(*prefix).hash("x") == stable_hash(*prefix, "x")


def test_hash_prefix_same_values_after_memo_cleared_at_bound():
    hashing._prefix_memo.clear()
    first = {i: hash_prefix("bound", i).digest("last") for i in range(PREFIX_MEMO_MAX)}
    assert len(hashing._prefix_memo) == PREFIX_MEMO_MAX
    hash_prefix("bound", "one more")  # clears the full memo, then adds itself
    assert len(hashing._prefix_memo) == 1
    for i, digest in first.items():
        assert hash_prefix("bound", i).digest("last") == digest == stable_digest("bound", i, "last")
    for prefix in _AWKWARD_PREFIXES:
        _assert_prefix_matches(prefix)


@given(st.lists(st.text(), max_size=4), st.text())
def test_hash_prefix_property(prefix, last):
    assert hash_prefix(*prefix).uniform(last) == stable_uniform(*prefix, last)
