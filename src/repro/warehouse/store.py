"""The content-addressed on-disk result warehouse.

One flat directory of ``<key>.json`` entries under
``~/.cache/repro/warehouse`` (``REPRO_CACHE_DIR`` relocates the cache
root, ``REPRO_WAREHOUSE_DIR`` the warehouse itself, and
``REPRO_NO_WAREHOUSE=1`` disables it entirely).  It is the package's
only on-disk store.  Each entry is one *unit* of completed work, in one
of two shapes:

* a solo unit is one JSON document: a spec with its records and — for
  design-space kinds — the pickled artifact (optimization result,
  feasible region, Pareto front);
* a seed block of ``execute`` runs is one JSON header line (its base
  spec and the block's row count, labels and column names), a newline,
  then the seeds and float metric columns as raw little-endian bytes,
  laid out only by the block codec the service's results stream shares,
  :func:`~repro.batch.engine.encode_block` / ``decode_block``.

Either way a warm replay reconstructs outcomes bit-identical to a cold
run, and a block replay parses no float.

Durability: writes go to a temp file in the target directory and land
via ``os.replace`` (concurrent writers race benignly — last atomic
rename wins, both wrote the same content), and any unreadable, truncated
or mistyped entry degrades to a miss (→ recomputation) rather than an
error; the next store of that unit replaces it.  The store is a pure
accelerator: it can never change results, only skip recomputing them.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..batch.engine import ColumnBlock, decode_block, encode_block
from ..telemetry import counter as _telemetry_counter
from .keys import fingerprint_digest

#: Environment variable relocating the cache root (default ``~/.cache/repro``).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable overriding the warehouse directory.
ENV_WAREHOUSE_DIR = "REPRO_WAREHOUSE_DIR"

#: Environment variable disabling the warehouse entirely (set to "1").
ENV_NO_WAREHOUSE = "REPRO_NO_WAREHOUSE"

#: Schema version of the on-disk entries; bump when they change.
#: v2: one ``spec`` per entry; batched block units store columns.
#: v3: a block unit is a JSON header line, a newline, then its seeds
#: (``<u8``) and metric columns (``<f8``) as raw bytes.
DISK_FORMAT_VERSION = 3

#: Export field carrying an entry's byte payload, base64-encoded.
EXPORT_PAYLOAD_FIELD = "payload"

#: Warehouse outcomes, for ``/v1/metrics`` and ``metrics.jsonl``
#: (outcomes: hit, miss, store, corrupt, uncacheable, invalidated).
WAREHOUSE_EVENTS = _telemetry_counter(
    "repro_warehouse_events_total",
    "Result-warehouse outcomes (hits, misses, stores, corrupt entries, "
    "uncacheable specs, invalidated entries).",
    labels=("outcome",),
)


def default_warehouse_dir() -> Path:
    """``$REPRO_WAREHOUSE_DIR``, or ``<cache root>/warehouse``.

    The cache root is ``$REPRO_CACHE_DIR``, or ``~/.cache/repro``.
    """
    override = os.environ.get(ENV_WAREHOUSE_DIR)
    if override:
        return Path(override)
    root = os.environ.get(ENV_CACHE_DIR)
    return (Path(root) if root else Path.home() / ".cache" / "repro") / "warehouse"


def _disabled_by_env() -> bool:
    return os.environ.get(ENV_NO_WAREHOUSE, "").strip().lower() in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class WarehouseEntry:
    """One decoded unit: solo ``records`` or a seed ``block`` (``spec`` is its base)."""

    key: str
    kind: str
    engine: str
    fingerprint: str
    spec: dict[str, Any]
    records: tuple[dict[str, Any], ...] = ()
    block: ColumnBlock | None = field(default=None, compare=False, repr=False)
    artifact: Any = field(default=None, compare=False, repr=False)
    created_at: float = 0.0
    nbytes: int = 0

    @property
    def seeds(self) -> np.ndarray | tuple[()]:
        """A block unit's ``uint64`` seed array (an empty tuple for a solo unit)."""
        return self.block.seeds if self.block is not None else ()

    @property
    def specs(self) -> int:
        """Number of specs (runs) the unit answers."""
        return len(self.seeds) or 1

    @property
    def rows(self) -> int:
        """Total metric rows the unit answers."""
        return len(self.seeds) or len(self.records)


def _split(data: bytes) -> tuple[Any, memoryview]:
    """An entry file's JSON document and the bytes after its first newline.

    Raises ``ValueError`` when the document is not JSON.
    """
    end = data.find(b"\n")
    if end < 0:
        return json.loads(data), memoryview(b"")
    return json.loads(data[:end]), memoryview(data)[end + 1 :]


def _parse_entry(data: bytes, key: str) -> WarehouseEntry | None:
    """The entry an entry file's ``data`` holds for ``key``; ``None`` if malformed."""
    try:
        document, payload = _split(data)
    except ValueError:
        return None
    if not isinstance(document, dict) or document.get("version") != DISK_FORMAT_VERSION:
        return None
    if document.get("key") != key:
        return None
    spec, records = document.get("spec"), document.get("records", [])
    fingerprint = document.get("fingerprint")
    is_block = "block" in document
    block = decode_block(document["block"], payload) if is_block else None
    if (
        not isinstance(spec, dict)
        or not isinstance(fingerprint, str)
        or is_block == ("records" in document)  # exactly one payload
        or (is_block and (block is None or "artifact" in document))
        or (not is_block and len(payload) > 0)  # a solo unit is one document
        or not isinstance(records, list)
        or any(not isinstance(row, dict) for row in records)
    ):
        return None
    artifact = None
    encoded = document.get("artifact")
    if encoded is not None:
        if not isinstance(encoded, str):
            return None
        try:
            artifact = pickle.loads(base64.b64decode(encoded.encode("ascii")))
        except Exception:
            return None
    return WarehouseEntry(
        key=key,
        kind=str(document.get("kind", "execute")),
        engine=str(document.get("engine", "behavioural")),
        fingerprint=fingerprint,
        spec=spec,
        records=tuple(records),
        block=block,
        artifact=artifact,
        created_at=float(document.get("created_at") or 0.0),
        nbytes=len(data),
    )


@dataclass
class WarehouseStats:
    """Per-instance counters (process-wide totals live in telemetry)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class ResultWarehouse:
    """Disk-only store of completed experiment units, keyed by content.

    Parameters
    ----------
    directory:
        Entry directory; ``None`` resolves :func:`default_warehouse_dir`
        lazily on every access, so environment changes take effect
        immediately (tests rely on this).
    """

    def __init__(self, directory: os.PathLike | str | None = None) -> None:
        self._directory = Path(directory) if directory is not None else None
        self.stats = WarehouseStats()

    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The entry directory currently in effect."""
        return self._directory if self._directory is not None else default_warehouse_dir()

    @property
    def enabled(self) -> bool:
        """Whether the warehouse is active (env kill-switch honoured)."""
        return not _disabled_by_env()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> WarehouseEntry | None:
        """Fetch one unit, or ``None`` on a miss (corrupt entries miss)."""
        if not self.enabled:
            return None
        entry = self._read(self._path(key), expected_key=key)
        if entry is None:
            self.stats.misses += 1
            WAREHOUSE_EVENTS.inc(outcome="miss")
            return None
        self.stats.hits += 1
        WAREHOUSE_EVENTS.inc(outcome="hit")
        return entry

    def entries(self) -> list[WarehouseEntry]:
        """Every readable unit, oldest first (corrupt files are skipped)."""
        directory = self.directory
        if not directory.is_dir():
            return []
        found = []
        for path in sorted(directory.glob("*.json")):
            entry = self._read(path, expected_key=path.stem)
            if entry is not None:
                found.append(entry)
        return sorted(found, key=lambda entry: (entry.created_at, entry.key))

    def _read(self, path: Path, expected_key: str) -> WarehouseEntry | None:
        try:
            data = path.read_bytes()
        except OSError:
            return None  # absent (or unreadable) entry: an ordinary miss
        entry = _parse_entry(data, expected_key)
        if entry is None:
            self.stats.corrupt += 1
            WAREHOUSE_EVENTS.inc(outcome="corrupt")
        return entry

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def put(
        self,
        key: str,
        spec: dict[str, Any],
        kind: str,
        engine: str,
        records: list[dict[str, Any]] | None = None,
        block: ColumnBlock | None = None,
        artifact: Any = None,
        fingerprint: str | None = None,
    ) -> bool:
        """Store one completed unit; idempotent, never raises on IO errors.

        A solo unit passes ``records`` (and an optional ``artifact``), a
        block unit its ``block``.  Returns whether a new entry landed on
        disk.  A current entry under the same key is left untouched
        (content-addressed entries are immutable); a file there that does
        not read back as one is replaced.  Any failure — unpicklable
        artifact, read-only filesystem — degrades to "not stored".
        """
        if not self.enabled:
            return False
        path = self._path(key)
        try:
            if _parse_entry(path.read_bytes(), key) is not None:
                return False  # content-addressed entries are immutable
        except OSError:
            pass  # absent
        document: dict[str, Any] = {
            "version": DISK_FORMAT_VERSION,
            "key": key,
            "fingerprint": fingerprint if fingerprint is not None else fingerprint_digest(),
            "kind": kind,
            "engine": engine,
            "created_at": time.time(),
            "spec": dict(spec),
        }
        payload = b""
        if block is not None:
            try:
                document["block"], payload = encode_block(block)
            except ValueError:
                return False  # columns that do not match the seeds: not cacheable
        else:
            document["records"] = [dict(row) for row in records or ()]
        if artifact is not None:
            try:
                document["artifact"] = base64.b64encode(
                    pickle.dumps(artifact, protocol=5)
                ).decode("ascii")
            except Exception:
                return False  # an unstorable artifact must not poison the unit
        try:
            header = json.dumps(document, separators=(",", ":")).encode("ascii")
        except (TypeError, ValueError):
            return False  # non-JSON records: the unit is simply not cacheable
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "wb",
                dir=path.parent,
                prefix=f".{key[:16]}.",
                suffix=".tmp",
                delete=False,
            )
            with handle:
                handle.write(header)
                if block is not None:
                    handle.write(b"\n")
                    handle.write(payload)
            os.replace(handle.name, path)
        except OSError:
            # Read-only or racing filesystem: stay a pure accelerator.
            try:
                os.unlink(handle.name)
            except (OSError, UnboundLocalError):
                pass
            return False
        self.stats.stores += 1
        WAREHOUSE_EVENTS.inc(outcome="store")
        return True

    # ------------------------------------------------------------------ #
    # Maintenance (the CLI surface)
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, Any]:
        """Aggregate stats for ``repro-experiments warehouse stats``."""
        entries = self.entries()
        current = fingerprint_digest()
        by_kind: dict[str, int] = {}
        for entry in entries:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        return {
            "directory": str(self.directory),
            "enabled": self.enabled,
            "entries": len(entries),
            "specs": sum(entry.specs for entry in entries),
            "rows": sum(entry.rows for entry in entries),
            "bytes": sum(entry.nbytes for entry in entries),
            "stale": sum(1 for entry in entries if entry.fingerprint != current),
            "by_kind": by_kind,
        }

    def gc(
        self,
        max_age_s: float | None = None,
        stale: bool = False,
        drop_all: bool = False,
    ) -> dict[str, int]:
        """Remove entries: all, stale-fingerprint, and/or older than a bound.

        Unreadable/corrupt files are always collected — they can only ever
        miss.  Returns ``{"scanned": ..., "removed": ...}``.
        """
        directory = self.directory
        if not directory.is_dir():
            return {"scanned": 0, "removed": 0}
        current = fingerprint_digest()
        now = time.time()
        scanned = removed = 0
        for path in sorted(directory.glob("*.json")):
            scanned += 1
            entry = self._read(path, expected_key=path.stem)
            drop = entry is None or drop_all
            if not drop and stale and entry.fingerprint != current:
                drop = True
            if not drop and max_age_s is not None and now - entry.created_at > max_age_s:
                drop = True
            if drop:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                if entry is not None:
                    WAREHOUSE_EVENTS.inc(outcome="invalidated")
        return {"scanned": scanned, "removed": removed}

    def export(self, key_prefix: str | None = None) -> dict[str, Any]:
        """A portable JSON document of (a prefix-filtered subset of) entries.

        Each entry exports as its JSON document; a block entry's byte
        payload rides along base64-encoded under
        :data:`EXPORT_PAYLOAD_FIELD`.  Restoring one writes the document
        without that field, a newline and the decoded payload.
        """
        entries = self.entries()
        if key_prefix:
            entries = [entry for entry in entries if entry.key.startswith(key_prefix)]
        documents = []
        for entry in entries:
            try:
                document, payload = _split(self._path(entry.key).read_bytes())
            except (OSError, ValueError):
                continue  # raced away or corrupted since listing: skip
            if len(payload) > 0:
                document[EXPORT_PAYLOAD_FIELD] = base64.b64encode(payload).decode("ascii")
            documents.append(document)
        return {
            "version": DISK_FORMAT_VERSION,
            "fingerprint": fingerprint_digest(),
            "entries": documents,
        }


#: The process-wide warehouse instance consulted by sessions and workers.
_DEFAULT = ResultWarehouse()


def default_warehouse() -> ResultWarehouse:
    """The process-wide result warehouse."""
    return _DEFAULT
