"""Content-keyed cache for fault-free task profiles.

Profiling a task (:func:`repro.runtime.executor.profile_task`) replays the
whole workload step by step in Python — for the paper-scale benchmarks it
dominates the cost of every design-time evaluation (Table I optimization,
hybrid-strategy sizing, batched campaign setup).  The profile, however, is
a pure function of the application and its input, so it is computed once
and cached:

* an **in-process memo** serves every later request in the same process
  (one profile per (app, params, input) across a whole
  :class:`~repro.api.session.Session`, including all campaign paths);
* an optional **on-disk store** under ``~/.cache/repro/profiles/``
  (override the root with ``REPRO_CACHE_DIR``) persists profiles across
  processes and sessions, so even the first optimization of a fresh CLI
  invocation is cheap after a warm-up run.

Keys are *content* hashes: SHA-256 over a canonical pickle of the
application's class, its constructor state (``__dict__``) and the task
input.  Two app instances configured identically therefore share one
entry, while any parameter or input change misses — no staleness by
construction.  Cached profiles are returned as fresh copies, so a cache
hit is bit-identical to a recomputation and callers can never poison the
store by mutating a result.

Opt out entirely with ``REPRO_NO_CACHE=1`` (or the CLI ``--no-cache``
flag, or :func:`configure`).  Disk failures (read-only home, corrupt
entries, concurrent writers) silently degrade to recomputation — the
cache is a pure accelerator and never changes results.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..telemetry import counter as _telemetry_counter

#: Environment variable overriding the on-disk cache root.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Cache outcomes by kind, for ``/v1/metrics`` and ``metrics.jsonl``
#: (kinds: memory_hit, disk_hit, miss, store, corrupt, key_failure for
#: task profiles; derived_hit, derived_miss for the derived tier).
CACHE_EVENTS = _telemetry_counter(
    "repro_profile_cache_events_total",
    "Profile-cache outcomes (hits by tier, misses, stores, corrupt entries, derived lookups).",
    labels=("outcome",),
)

#: Environment variable disabling the cache entirely (set to "1").
ENV_NO_CACHE = "REPRO_NO_CACHE"

#: Schema version of the on-disk entries; bump when the payload changes.
DISK_FORMAT_VERSION = 1

#: The five list fields of a serialized TaskProfile payload.
_PROFILE_FIELDS = ("step_words", "step_cycles", "step_reads", "step_writes", "golden")


def default_cache_dir() -> Path:
    """The on-disk cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _cache_disabled_by_env() -> bool:
    return os.environ.get(ENV_NO_CACHE, "").strip().lower() in ("1", "true", "yes", "on")


@dataclass
class CacheStats:
    """Counters describing how the cache behaved (for tests and reports)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    key_failures: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "key_failures": self.key_failures,
            "corrupt": self.corrupt,
        }


@dataclass
class ProfileCache:
    """Two-level (memory + disk) store for task-profile payloads.

    The cache deals in plain payload dicts (lists of ints keyed by
    ``_PROFILE_FIELDS``) rather than :class:`~repro.runtime.executor.TaskProfile`
    objects, so it has no dependency on the executor module.

    Parameters
    ----------
    memory:
        Enable the in-process memo.
    disk:
        Enable the on-disk store (the directory is resolved lazily per
        access, so ``REPRO_CACHE_DIR`` changes take effect immediately).
    max_memory_entries:
        LRU bound of the in-process memo; profiles are small (a few
        thousand ints) so the default comfortably covers every registered
        benchmark plus test workloads.
    """

    memory: bool = True
    disk: bool = True
    max_memory_entries: int = 128
    stats: CacheStats = field(default_factory=CacheStats)
    _memo: OrderedDict[str, dict[str, list[int]]] = field(default_factory=OrderedDict)
    _derived: OrderedDict[str, Any] = field(default_factory=OrderedDict)

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether any storage tier is active (env kill-switch honoured)."""
        if _cache_disabled_by_env():
            return False
        return self.memory or self.disk

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
            self.stats.key_failures += 1
            CACHE_EVENTS.inc(outcome="key_failure")
            return None
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> dict[str, list[int]] | None:
        """Fetch a payload copy, or ``None`` on a miss."""
        if not self.enabled:
            return None
        if self.memory and key in self._memo:
            self._memo.move_to_end(key)
            self.stats.memory_hits += 1
            CACHE_EVENTS.inc(outcome="memory_hit")
            return self._copy(self._memo[key])
        if self.disk:
            payload = self._read_disk(key)
            if payload is not None:
                self.stats.disk_hits += 1
                CACHE_EVENTS.inc(outcome="disk_hit")
                if self.memory:
                    self._remember(key, payload)
                return self._copy(payload)
        self.stats.misses += 1
        CACHE_EVENTS.inc(outcome="miss")
        return None

    def put(self, key: str, payload: dict[str, list[int]]) -> None:
        """Store a payload in every active tier."""
        if not self.enabled:
            return
        payload = self._copy(payload)
        if self.memory:
            self._remember(key, payload)
        if self.disk:
            self._write_disk(key, payload)
        self.stats.stores += 1
        CACHE_EVENTS.inc(outcome="store")

    def derived_get(self, key: str) -> Any | None:
        """Fetch an immutable derived value (e.g. an AppCharacterization).

        The derived tier is memory-only: it holds small frozen objects
        computed from cached profiles (characterizations) or from a code
        and a fault model (outcome mixtures), each once per process.  Its
        lookups are counted as ``derived_hit`` / ``derived_miss``, apart
        from the profile tiers' ``memory_hit`` and ``miss``.
        """
        if not self.enabled or not self.memory:
            return None
        value = self._derived.get(key)
        if value is None:
            CACHE_EVENTS.inc(outcome="derived_miss")
            return None
        self._derived.move_to_end(key)
        self.stats.memory_hits += 1
        CACHE_EVENTS.inc(outcome="derived_hit")
        return value

    def derived_put(self, key: str, value: Any) -> None:
        """Store an immutable derived value in the memory tier."""
        if not self.enabled or not self.memory:
            return
        self._derived[key] = value
        self._derived.move_to_end(key)
        while len(self._derived) > self.max_memory_entries:
            self._derived.popitem(last=False)

    def clear(self, disk: bool = False) -> None:
        """Drop the in-process memos (and optionally the disk store)."""
        self._memo.clear()
        self._derived.clear()
        self.stats = CacheStats()
        if disk:
            directory = self._disk_dir()
            if directory.is_dir():
                for entry in directory.glob("*.json"):
                    try:
                        entry.unlink()
                    except OSError:
                        pass

    # ------------------------------------------------------------------ #
    @staticmethod
    def _copy(payload: dict[str, list[int]]) -> dict[str, list[int]]:
        return {name: list(payload[name]) for name in _PROFILE_FIELDS}

    def _remember(self, key: str, payload: dict[str, list[int]]) -> None:
        self._memo[key] = payload
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_memory_entries:
            self._memo.popitem(last=False)

    def _disk_dir(self) -> Path:
        return default_cache_dir() / "profiles"

    def _disk_path(self, key: str) -> Path:
        return self._disk_dir() / f"{key}.json"

    def _corrupt_entry(self) -> None:
        self.stats.corrupt += 1
        CACHE_EVENTS.inc(outcome="corrupt")

    def _read_disk(self, key: str) -> dict[str, list[int]] | None:
        path = self._disk_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None  # absent (or unreadable) entry: an ordinary miss
        try:
            document = json.loads(text)
        except ValueError:
            self._corrupt_entry()
            return None
        if not isinstance(document, dict) or document.get("version") != DISK_FORMAT_VERSION:
            self._corrupt_entry()
            return None
        payload = document.get("profile")
        if not isinstance(payload, dict):
            self._corrupt_entry()
            return None
        for name in _PROFILE_FIELDS:
            values = payload.get(name)
            # Element-level validation: a truncated or hand-edited entry
            # must degrade to recomputation, never crash or skew numbers.
            if not isinstance(values, list) or any(type(v) is not int for v in values):
                self._corrupt_entry()
                return None
        return {name: payload[name] for name in _PROFILE_FIELDS}

    def _write_disk(self, key: str, payload: dict[str, list[int]]) -> None:
        path = self._disk_path(key)
        document = {"version": DISK_FORMAT_VERSION, "profile": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                dir=path.parent,
                prefix=f".{key[:16]}.",
                suffix=".tmp",
                delete=False,
                encoding="utf-8",
            )
            with handle:
                json.dump(document, handle, separators=(",", ":"))
            os.replace(handle.name, path)
        except OSError:
            # Read-only or racing filesystem: stay a pure accelerator.
            try:
                os.unlink(handle.name)
            except (OSError, UnboundLocalError):
                pass


#: The process-wide cache instance used by ``profile_task``.
_DEFAULT = ProfileCache()


def default_cache() -> ProfileCache:
    """The process-wide profile cache."""
    return _DEFAULT


def configure(
    memory: bool | None = None,
    disk: bool | None = None,
    max_memory_entries: int | None = None,
) -> ProfileCache:
    """Reconfigure the process-wide cache (``None`` keeps a setting)."""
    if memory is not None:
        _DEFAULT.memory = bool(memory)
    if disk is not None:
        _DEFAULT.disk = bool(disk)
    if max_memory_entries is not None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be at least 1")
        _DEFAULT.max_memory_entries = int(max_memory_entries)
    return _DEFAULT


def cache_stats() -> CacheStats:
    """Counters of the process-wide cache."""
    return _DEFAULT.stats
