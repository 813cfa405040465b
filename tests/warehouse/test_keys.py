"""Canonical-hash properties: key-order invariance, strictness, fingerprints."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.warehouse.keys import (
    block_key,
    canonical_json,
    canonical_sha256,
    code_fingerprint,
    fingerprint_digest,
    unit_key,
)

#: JSON-clean scalars (NaN/inf excluded — canonical_json must reject those,
#: which TestStrictness covers separately).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)

_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def _reorder(value):
    """Rebuild ``value`` with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {key: _reorder(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


class TestCanonicalization:
    @settings(max_examples=80, deadline=None)
    @given(_payloads)
    def test_hash_invariant_under_key_order(self, payload) -> None:
        # The same experiment submitted with fields in any order must land
        # on the same warehouse key.
        assert canonical_sha256(payload) == canonical_sha256(_reorder(payload))

    @settings(max_examples=40, deadline=None)
    @given(_payloads)
    def test_round_trips_through_json(self, payload) -> None:
        import json

        assert canonical_json(json.loads(canonical_json(payload))) == canonical_json(
            payload
        )

    def test_no_whitespace(self) -> None:
        assert canonical_json({"b": [1, 2], "a": True}) == '{"a":true,"b":[1,2]}'


class TestStrictness:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_floats(self, bad: float) -> None:
        # json.dumps would happily emit the non-RFC literals NaN/Infinity;
        # the canonical form must refuse instead of minting a lossy hash.
        with pytest.raises(ValueError):
            canonical_json({"x": bad})

    @pytest.mark.parametrize("bad", [{1, 2}, object(), b"bytes", complex(1, 2)])
    def test_rejects_non_json_values(self, bad) -> None:
        with pytest.raises(TypeError):
            canonical_json({"x": bad})

    def test_rejects_nested_nan(self) -> None:
        with pytest.raises(ValueError):
            canonical_sha256({"a": {"b": [1.0, math.nan]}})


class TestFingerprint:
    def test_captures_version_schema_and_registries(self) -> None:
        fingerprint = code_fingerprint()
        assert fingerprint["package_version"]
        assert fingerprint["key_schema"] == 5
        assert "adpcm-encode" in fingerprint["registries"]["apps"]
        assert "hybrid-optimal" in fingerprint["registries"]["strategies"]
        assert "markov" in fingerprint["registries"]["scenarios"]

    def test_captures_factory_defaults(self) -> None:
        # A spec that omits strategy_params inherits the factory defaults,
        # so those defaults are part of the result identity.
        defaults = code_fingerprint()["factory_defaults"]
        assert defaults["strategies"]["hybrid-estimating"]["estimator"] == repr("bayes")
        assert "prior_rate_factor" in defaults["strategies"]["hybrid-estimating"]
        assert "level_factors" in defaults["scenarios"]["markov"]

    def test_digest_is_stable_within_a_process(self) -> None:
        assert fingerprint_digest() == fingerprint_digest()

    def test_registry_change_moves_the_digest(self, monkeypatch) -> None:
        baseline = fingerprint_digest()
        import repro.apps.registry as app_registry

        monkeypatch.setattr(
            app_registry,
            "available_applications",
            lambda: ["some-new-benchmark"],
        )
        assert fingerprint_digest() != baseline

    def test_default_edit_moves_the_digest(self, monkeypatch) -> None:
        # Same registry names, different factory default — the exact edit
        # name-only fingerprints would miss, serving stale cached numbers.
        import repro.api.registry as api_registry

        baseline = fingerprint_digest()
        names_before = api_registry.available_strategies()
        original = api_registry._STRATEGIES["hybrid-estimating"]

        def retuned(app, constraints, *, window_cycles=123_456, **params):
            return original(app, constraints, window_cycles=window_cycles, **params)

        monkeypatch.setitem(api_registry._STRATEGIES, "hybrid-estimating", retuned)
        assert api_registry.available_strategies() == names_before
        assert fingerprint_digest() != baseline


class TestUnitKey:
    SPEC = {"app": "adpcm-encode", "seed": 0}

    def test_fingerprint_is_part_of_the_key(self) -> None:
        assert unit_key(self.SPEC, "fp-a") != unit_key(self.SPEC, "fp-b")

    def test_spec_content_is_part_of_the_key(self) -> None:
        other = dict(self.SPEC, seed=1)
        assert unit_key(self.SPEC, "fp") != unit_key(other, "fp")

    def test_key_order_inside_a_spec_is_irrelevant(self) -> None:
        reordered = dict(reversed(list(self.SPEC.items())))
        assert unit_key(self.SPEC, "fp") == unit_key(reordered, "fp")


class TestBlockKey:
    BASE = {"app": "adpcm-encode", "engine": "batched"}

    def test_seed_order_is_part_of_the_key(self) -> None:
        # A block key hashes its ordered seeds, so lookups happen at block
        # granularity (the rows themselves are composition-invariant).
        assert block_key(self.BASE, (0, 1), "fp") != block_key(self.BASE, (1, 0), "fp")

    def test_base_and_fingerprint_are_part_of_the_key(self) -> None:
        other = dict(self.BASE, app="adpcm-decode")
        assert block_key(self.BASE, (0,), "fp") != block_key(other, (0,), "fp")
        assert block_key(self.BASE, (0,), "fp-a") != block_key(self.BASE, (0,), "fp-b")

    def test_seed_container_and_base_key_order_are_irrelevant(self) -> None:
        reordered = dict(reversed(list(self.BASE.items())))
        assert block_key(self.BASE, (4, 2), "fp") == block_key(reordered, [4, 2], "fp")

    def test_a_block_never_shares_a_solo_key(self) -> None:
        solo = dict(self.BASE, seed=3)
        assert block_key(self.BASE, (3,), "fp") != unit_key(solo, "fp")
