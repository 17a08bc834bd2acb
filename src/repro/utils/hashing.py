"""Stable hashing helpers.

Python's built-in :func:`hash` is salted per process, so anything that must
be reproducible across runs (simulated LLM noise, embeddings, trial seeds)
goes through the SHA-256-based helpers in this module instead.

Hot callers hash many keys that share all but their last part (one draw per
record for a fixed model and instruction).  :func:`hash_prefix` hashes the
shared prefix once; finishing it with the last part gives exactly the value
:func:`stable_hash`, :func:`stable_uniform` or :func:`stable_digest` would.
"""

from __future__ import annotations

import hashlib
from typing import Any

_MAX_64 = 2**64
_SEP = "\x1f"


def stable_hash(*parts: Any) -> int:
    """Return a process-independent 64-bit hash of ``parts``.

    Parts are converted with :func:`repr` and joined with an unlikely
    separator, so ``stable_hash("ab", "c") != stable_hash("a", "bc")``.
    """
    payload = _SEP.join(repr(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def stable_uniform(*parts: Any) -> float:
    """Return a deterministic pseudo-uniform float in ``[0, 1)`` for ``parts``.

    Used to make simulated model errors a *fixed property* of a
    (model, task, record) triple: the same cheap model is consistently wrong
    on the same hard records, as real model cascades are.
    """
    return stable_hash(*parts) / _MAX_64


def stable_digest(*parts: Any) -> str:
    """Return a short hex digest of ``parts`` for use in cache keys and ids."""
    payload = _SEP.join(repr(part) for part in parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


class HashPrefix:
    """SHA-256 state over the leading parts of a stable-hash key.

    ``HashPrefix(*prefix).hash(last) == stable_hash(*prefix, last)``, and
    likewise :meth:`uniform` and :meth:`digest` for :func:`stable_uniform`
    and :func:`stable_digest`; only the last part is hashed per call.
    """

    __slots__ = ("_state",)

    def __init__(self, *prefix: Any) -> None:
        payload = "".join(repr(part) + _SEP for part in prefix)
        self._state = hashlib.sha256(payload.encode("utf-8"))

    def _finish(self, last: Any):
        state = self._state.copy()
        state.update(repr(last).encode("utf-8"))
        return state

    def hash(self, last: Any) -> int:
        return int.from_bytes(self._finish(last).digest()[:8], "big")

    def uniform(self, last: Any) -> float:
        return self.hash(last) / _MAX_64

    def digest(self, last: Any) -> str:
        return self._finish(last).hexdigest()[:16]


#: Most prefixes :func:`hash_prefix` keeps; the memo is dropped whole when
#: full.  Process-wide is safe: a value depends on its key alone.
PREFIX_MEMO_MAX = 1024
_prefix_memo: dict[tuple, HashPrefix] = {}


def hash_prefix(*prefix: Any) -> HashPrefix:
    """Return a :class:`HashPrefix` for ``prefix``, memoized when safe.

    Only prefixes of plain ``str`` and ``int`` parts are memoized: equal
    values of other types can have different reprs (``1 == 1.0 == True``),
    and the memo is keyed on equality.
    """
    for part in prefix:
        if type(part) is not str and type(part) is not int:
            return HashPrefix(*prefix)
    hashed = _prefix_memo.get(prefix)
    if hashed is None:
        if len(_prefix_memo) >= PREFIX_MEMO_MAX:
            _prefix_memo.clear()
        hashed = _prefix_memo[prefix] = HashPrefix(*prefix)
    return hashed
