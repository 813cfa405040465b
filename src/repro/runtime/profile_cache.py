"""Content-keyed, in-process memo for fault-free task profiles.

Profiling a task (:func:`repro.runtime.executor.profile_task`) replays the
whole workload step by step in Python — for the paper-scale benchmarks it
dominates the cost of every design-time evaluation (Table I optimization,
hybrid-strategy sizing, batched campaign setup).  The profile, however, is
a pure function of the application and its input, so each process
computes it once: a bounded in-process memo serves every later request in
the same process (one profile per (app, params, input) across a whole
:class:`~repro.api.session.Session`, including all campaign paths).  The
memo ends with its process: it keeps nothing on disk, and the result
warehouse (:mod:`repro.warehouse`) is the package's only on-disk store.

Keys are *content* hashes: SHA-256 over a canonical pickle of the
application's class, its constructor state (``__dict__``) and the task
input.  Two app instances configured identically therefore share one
entry, while any parameter or input change misses.  Cached profiles are
returned as fresh copies, so a cache hit is bit-identical to a
recomputation and callers can never poison the memo by mutating a result.

Opt out entirely with ``REPRO_NO_CACHE=1``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Any

from ..telemetry import counter as _telemetry_counter

#: Cache outcomes by kind, for ``/v1/metrics`` and ``metrics.jsonl``
#: (kinds: memory_hit, miss, store, key_failure for task profiles;
#: derived_hit, derived_miss for the derived tier).
CACHE_EVENTS = _telemetry_counter(
    "repro_profile_cache_events_total",
    "Profile-cache outcomes (memory hits, misses, stores, key failures, derived lookups).",
    labels=("outcome",),
)

#: Environment variable disabling the cache entirely (set to "1").
ENV_NO_CACHE = "REPRO_NO_CACHE"

#: LRU bound of each memo.  Profiles are small (a few thousand ints), so
#: this comfortably covers every registered benchmark plus test workloads.
MAX_MEMORY_ENTRIES = 128

#: The five list fields of a serialized TaskProfile payload.
_PROFILE_FIELDS = ("step_words", "step_cycles", "step_reads", "step_writes", "golden")


def _cache_disabled_by_env() -> bool:
    return os.environ.get(ENV_NO_CACHE, "").strip().lower() in ("1", "true", "yes", "on")


def _remember(memo: OrderedDict[str, Any], key: str, value: Any) -> None:
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > MAX_MEMORY_ENTRIES:
        memo.popitem(last=False)


class ProfileCache:
    """Bounded in-process memo of task-profile payloads and derived values.

    The cache deals in plain payload dicts (lists of ints keyed by
    ``_PROFILE_FIELDS``) rather than :class:`~repro.runtime.executor.TaskProfile`
    objects, so it has no dependency on the executor module.
    """

    def __init__(self) -> None:
        self._memo: OrderedDict[str, dict[str, list[int]]] = OrderedDict()
        self._derived: OrderedDict[str, Any] = OrderedDict()

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether the memo is on (``REPRO_NO_CACHE=1`` turns it off)."""
        return not _cache_disabled_by_env()

    def key_for(self, app: Any, task_input: Any) -> str | None:
        """Content hash identifying (app class, app params, input).

        ``app`` may be any object whose class and instance dict are its
        whole identity: derived values computed from something else pass
        a small frozen key object holding exactly what decides them.
        Returns ``None`` (→ no caching) when the application or input
        cannot be pickled canonically.
        """
        try:
            blob = pickle.dumps(
                (
                    type(app).__module__,
                    type(app).__qualname__,
                    sorted(vars(app).items(), key=lambda item: item[0]),
                    task_input,
                ),
                protocol=5,
            )
        except Exception:
            CACHE_EVENTS.inc(outcome="key_failure")
            return None
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> dict[str, list[int]] | None:
        """Fetch a payload copy, or ``None`` on a miss."""
        if not self.enabled:
            return None
        payload = self._memo.get(key)
        if payload is None:
            CACHE_EVENTS.inc(outcome="miss")
            return None
        self._memo.move_to_end(key)
        CACHE_EVENTS.inc(outcome="memory_hit")
        return self._copy(payload)

    def put(self, key: str, payload: dict[str, list[int]]) -> None:
        """Store a copy of a payload."""
        if not self.enabled:
            return
        _remember(self._memo, key, self._copy(payload))
        CACHE_EVENTS.inc(outcome="store")

    def derived_get(self, key: str) -> Any | None:
        """Fetch an immutable derived value (e.g. an AppCharacterization).

        The derived tier holds small frozen objects computed from cached
        profiles (characterizations) or from a code and a fault model
        (outcome mixtures), each once per process.  Its lookups are
        counted as ``derived_hit`` / ``derived_miss``, apart from the
        profiles' ``memory_hit`` and ``miss``.
        """
        if not self.enabled:
            return None
        value = self._derived.get(key)
        if value is None:
            CACHE_EVENTS.inc(outcome="derived_miss")
            return None
        self._derived.move_to_end(key)
        CACHE_EVENTS.inc(outcome="derived_hit")
        return value

    def derived_put(self, key: str, value: Any) -> None:
        """Store an immutable derived value."""
        if self.enabled:
            _remember(self._derived, key, value)

    def clear(self, disk: bool = False) -> None:
        """Drop both memos.

        ``disk`` is accepted and ignored, since nothing is kept on disk:
        the benchmark harness's set-up still calls ``clear(disk=True)``.
        """
        self._memo.clear()
        self._derived.clear()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _copy(payload: dict[str, list[int]]) -> dict[str, list[int]]:
        return {name: list(payload[name]) for name in _PROFILE_FIELDS}


#: The process-wide cache instance used by ``profile_task``.
_DEFAULT = ProfileCache()


def default_cache() -> ProfileCache:
    """The process-wide profile cache."""
    return _DEFAULT
