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
JSON of a solo unit's spec dict and the fingerprint digest, or of a
seed block's base spec and the fingerprint followed by the block's
ordered seeds as ``<u8`` bytes.

Every key derivation needs the fingerprint digest, so
:func:`fingerprint_digest` computes it once per registry state: it
reads the fingerprint's sources once, keeps the digest beside a cheap
token built from those same sources, and recomputes only when that
token changes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from ..scenarios.registry import defaults_token, signature_defaults

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
#: v6: a block key hashes its seeds as ``<u8`` bytes after the canonical
#: JSON of its base and fingerprint, instead of a JSON seed list.
KEY_SCHEMA_VERSION = 6


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


def _fingerprint_sources() -> tuple[str, int, list[str], dict[str, Mapping[str, Callable]]]:
    """Everything :func:`code_fingerprint` reads, uninspected.

    The package version, the key schema, the application names and the
    live strategy, fault-model and scenario factory registries.
    """
    from .. import __version__
    from ..api.registry import factory_registries
    from ..apps.registry import available_applications

    return __version__, KEY_SCHEMA_VERSION, available_applications(), factory_registries()


def _fingerprint(
    version: str, schema: int, apps: list[str], registries: dict[str, Mapping[str, Callable]]
) -> dict[str, Any]:
    """The fingerprint of :func:`_fingerprint_sources`' values (a function of them alone)."""
    return {
        "package_version": version,
        "key_schema": schema,
        "registries": {
            "apps": apps,
            **{kind: sorted(factories) for kind, factories in registries.items()},
        },
        "factory_defaults": {
            kind: signature_defaults(factories) for kind, factories in registries.items()
        },
    }


def _token(
    version: str, schema: int, apps: list[str], registries: dict[str, Mapping[str, Callable]]
) -> tuple:
    """A cheap stand-in for :func:`_fingerprint` of the same values.

    Equal tokens give equal fingerprints: it holds the scalars and names
    as they are, and each factory's
    :func:`~repro.scenarios.registry.defaults_token` in place of its
    introspected defaults.
    """
    return (
        version,
        schema,
        tuple(apps),
        tuple(
            (kind, tuple((name, defaults_token(factory)) for name, factory in factories.items()))
            for kind, factories in registries.items()
        ),
    )


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
    return _fingerprint(*_fingerprint_sources())


#: The last (token, digest) pair :func:`fingerprint_digest` computed.
_DIGEST_MEMO: tuple[tuple, str] | None = None


def fingerprint_digest() -> str:
    """SHA-256 hex digest of :func:`code_fingerprint`, once per registry state.

    The digest is kept beside the :func:`_token` of the sources it was
    computed from and recomputed only when the current sources' token
    differs, so a repeated call over plain-function factories costs one
    token build and comparison, not one signature introspection per
    factory and a canonical JSON encoding.  Bumping the version, registering a name,
    or swapping or re-defaulting a factory (even in place) changes the
    token and therefore every key.
    """
    global _DIGEST_MEMO
    sources = _fingerprint_sources()
    token = _token(*sources)
    memo = _DIGEST_MEMO
    if memo is not None and memo[0] == token:
        return memo[1]
    digest = canonical_sha256(_fingerprint(*sources))
    _DIGEST_MEMO = (token, digest)
    return digest


def unit_key(spec: dict[str, Any], fingerprint: str) -> str:
    """Extended canonical hash of the solo warehouse unit of ``spec``."""
    return canonical_sha256({"fingerprint": fingerprint, "spec": spec})


def block_keys(
    base: dict[str, Any], fingerprint: str
) -> Callable[[Sequence[int] | np.ndarray], str]:
    """The extended canonical hash of each seed block of ``execute`` runs of ``base``.

    SHA-256 over the canonical JSON of ``{base, fingerprint}`` followed by
    the ordered seeds as ``<u8`` little-endian bytes.  The prefix is
    hashed once; each key copies that state, so it costs 8 bytes of
    hashing per seed and no JSON.  ``base`` is the spec dict without its
    ``seed``; the seeds may be any integer sequence in ``[0, 2**64)`` (a
    tuple, list, ``range`` or ``uint64`` array give the same key).  The
    JSON document is self-delimiting, so no two (base, fingerprint, seeds)
    triples share the hashed bytes.  Rows are composition-invariant on
    both engines, so a block only decides how its seeds' rows are stored,
    never what they are.
    """
    prefix = hashlib.sha256(
        canonical_json({"base": base, "fingerprint": fingerprint}).encode("utf-8")
    )

    def key(seeds: Sequence[int] | np.ndarray) -> str:
        digest = prefix.copy()
        digest.update(np.ascontiguousarray(seeds, dtype="<u8"))
        return digest.hexdigest()

    return key


def block_key(base: dict[str, Any], seeds: Sequence[int] | np.ndarray, fingerprint: str) -> str:
    """The key of one seed block of ``base``, as :func:`block_keys` gives it."""
    return block_keys(base, fingerprint)(seeds)
