"""Canonical hashing and code/data fingerprinting for the result warehouse.

A warehouse entry must be addressable by *content*: the same experiment
submitted twice — by the CLI, a client library or raw curl, with spec
fields in any order — must land on the same key, and any change that
could alter the numbers (a spec field, the engine, the package version, a
registry edit) must miss by construction.  Two functions establish that:

* :func:`canonical_json` — strict RFC-8259 serialization with sorted keys
  and no whitespace.  Unlike ``json.dumps`` defaults it **raises** on
  values that have no canonical JSON form (sets, objects, ``NaN``,
  ``Infinity``) instead of stringifying or emitting non-RFC literals;
  silently coercing would let two distinct payloads share a hash.
* :func:`code_fingerprint` — a digest of the package version plus the
  content of every spec-ingredient registry (applications, strategies,
  fault models, scenarios), including each factory's keyword *defaults*.
  The fingerprint is folded into every unit key, so bumping the package,
  registering a different model set, or editing a factory default
  in place invalidates stale entries without any explicit versioning
  dance.  (Names alone are not enough: a spec that omits a parameter
  inherits the factory default, so two builds that differ only in a
  default produce different numbers under identical spec payloads.)

:func:`unit_key` and :func:`block_key` combine both into the extended
canonical hashes the warehouse stores under: SHA-256 over the canonical
JSON of a solo unit's spec dict, or of a batched block's base spec and
ordered seeds, plus the fingerprint digest.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from typing import Any

#: Bumped when the key derivation itself changes shape, so old entries
#: can never be misread as answers to the new scheme.
#: v2: factory keyword defaults joined the fingerprint — an in-place
#: default edit (same registry names) now rotates every key.
#: v3: v2 stores can hold batched rows under behavioural keys (the batch
#: executor used to override a spec's engine), and those entries persist
#: under ``~/.cache/repro/warehouse``.
#: v4: batched ``execute`` specs key on (base spec, seed block) — see
#: :func:`block_key` — and their units store metric columns, not rows.
#: v5: block units store raw bytes after a JSON header line (entry format
#: v3); code of v4 meeting one under its own key would fail to decode it
#: as text, so the keys rotate with the format.
KEY_SCHEMA_VERSION = 5


def canonical_json(payload: Any) -> str:
    """Strict canonical JSON: sorted keys, no whitespace, RFC-only values.

    Raises ``TypeError`` for values without a JSON form and ``ValueError``
    for ``NaN`` / ``Infinity`` — a canonical hash must never be computed
    over a lossy or non-RFC serialization.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_sha256(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def code_fingerprint() -> dict[str, Any]:
    """The code/data identity folded into every warehouse key.

    Captures the package version, the sorted name sets of every registry
    a spec can reference, and the keyword defaults of each parameterized
    factory (strategies, fault models, scenarios).  A registry rename,
    addition or removal, an in-place edit to a factory default, or a
    version bump all change the fingerprint and therefore every key, so
    entries computed by different code can never be served as current
    results.
    """
    from .. import __version__
    from ..api.registry import (
        available_fault_models,
        available_scenarios,
        available_strategies,
        fault_model_defaults,
        scenario_defaults,
        strategy_defaults,
    )
    from ..apps.registry import available_applications

    return {
        "package_version": __version__,
        "key_schema": KEY_SCHEMA_VERSION,
        "registries": {
            "apps": available_applications(),
            "strategies": available_strategies(),
            "fault_models": available_fault_models(),
            "scenarios": available_scenarios(),
        },
        "factory_defaults": {
            "strategies": strategy_defaults(),
            "fault_models": fault_model_defaults(),
            "scenarios": scenario_defaults(),
        },
    }


def fingerprint_digest() -> str:
    """SHA-256 hex digest of :func:`code_fingerprint`."""
    return canonical_sha256(code_fingerprint())


def unit_key(spec: dict[str, Any], fingerprint: str) -> str:
    """Extended canonical hash of the solo warehouse unit of ``spec``."""
    return canonical_sha256({"fingerprint": fingerprint, "spec": spec})


def block_key(base: dict[str, Any], seeds: Sequence[int], fingerprint: str) -> str:
    """Extended canonical hash of one batched seed block.

    ``base`` is the spec dict without its ``seed``; ``seeds`` are ordered.
    Batched rows are composition-invariant, so a block only decides how
    its seeds' rows are stored, never what they are.
    """
    return canonical_sha256({"base": base, "fingerprint": fingerprint, "seeds": list(seeds)})
