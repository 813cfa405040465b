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

:func:`unit_key` combines both into the extended canonical hash the
warehouse stores under: SHA-256 over the canonical JSON of the unit's
spec dicts (order-significant for batched seed groups) plus the
fingerprint digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Bumped when the key derivation itself changes shape, so old entries
#: can never be misread as answers to the new scheme.
#: v2: factory keyword defaults joined the fingerprint — an in-place
#: default edit (same registry names) now rotates every key.
KEY_SCHEMA_VERSION = 2


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


def unit_key(spec_dicts: list[dict[str, Any]], fingerprint: str) -> str:
    """Extended canonical hash of one warehouse unit.

    ``spec_dicts`` is the ordered list of spec payloads the unit covers —
    one entry for a solo spec, the ordered seed block for a batched
    campaign unit.  Batched rows are composition-invariant (each seed
    draws from its own counter-based stream), so a block's rows equal
    its seeds' solo rows; the block only decides how they are stored.
    """
    return canonical_sha256(
        {"fingerprint": fingerprint, "specs": list(spec_dicts)}
    )
