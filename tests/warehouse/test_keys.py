"""Canonical-hash properties: key-order invariance, strictness, fingerprints."""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.warehouse.keys import (
    block_key,
    block_keys,
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
        assert fingerprint["key_schema"] == 6
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


    @pytest.fixture
    def scratch_strategies(self, monkeypatch):
        """The strategy registry, on a copy the test may register into."""
        import repro.api.registry as api_registry

        monkeypatch.setattr(api_registry, "_STRATEGIES", dict(api_registry._STRATEGIES))
        return api_registry

    def test_registering_a_name_moves_the_digest(self, scratch_strategies) -> None:
        baseline = fingerprint_digest()
        scratch_strategies.register_strategy("scratch", lambda app, constraints: None)
        assert fingerprint_digest() != baseline
        assert fingerprint_digest() == canonical_sha256(code_fingerprint())

    def test_in_place_default_edits_move_the_digest(self, scratch_strategies) -> None:
        # The same factory object, re-defaulted in place: only its
        # __defaults__ / __kwdefaults__ say that its numbers changed.
        def scratch(app, constraints, window=5, *, decay=0.5):
            raise NotImplementedError

        scratch_strategies.register_strategy("scratch", scratch)
        digests = [fingerprint_digest()]
        scratch.__defaults__ = (6,)
        digests.append(fingerprint_digest())
        scratch.__kwdefaults__["decay"] = 0.25
        digests.append(fingerprint_digest())
        assert len(set(digests)) == 3
        assert digests[-1] == canonical_sha256(code_fingerprint())

    @staticmethod
    def _class_factory():
        class Scratch:
            def __init__(self, app, constraints, window=5):
                raise NotImplementedError

        def edit():
            Scratch.__init__.__defaults__ = (6,)

        return Scratch, edit

    @staticmethod
    def _wrapped_factory():
        def inner(app, constraints, window=5):
            raise NotImplementedError

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            return inner(*args, **kwargs)

        def edit():
            inner.__defaults__ = (6,)

        return wrapper, edit

    @staticmethod
    def _partial_factory():
        def scratch(app, constraints, *, window):
            raise NotImplementedError

        factory = functools.partial(scratch, window=5)

        def edit():
            factory.keywords["window"] = 6

        return factory, edit

    @staticmethod
    def _mutable_default_factory():
        levels = [1, 2]

        def scratch(app, constraints, levels=levels):
            raise NotImplementedError

        def edit():
            levels.append(3)

        return scratch, edit

    @pytest.mark.parametrize(
        "make", ["_class_factory", "_wrapped_factory", "_partial_factory", "_mutable_default_factory"]
    )
    def test_defaults_reached_through_introspection_move_the_digest(
        self, scratch_strategies, make
    ) -> None:
        # inspect.signature follows a class's __init__, a partial's
        # keywords and a wrapper's __wrapped__, and reprs each default
        # value: an in-place edit to any of them must rotate every key.
        factory, edit = getattr(self, make)()
        scratch_strategies.register_strategy("scratch", factory)
        baseline = fingerprint_digest()
        assert fingerprint_digest() == baseline
        edit()
        assert fingerprint_digest() != baseline
        assert fingerprint_digest() == canonical_sha256(code_fingerprint())

    def test_a_repeated_digest_introspects_no_signature(self, monkeypatch) -> None:
        digest = fingerprint_digest()
        calls = []
        signature = inspect.signature

        def counting(*args, **kwargs):
            calls.append(args)
            return signature(*args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        assert fingerprint_digest() == digest
        assert calls == []


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


#: Seeds anywhere in [0, 2**64), with the float and sign-bit edges drawn often.
_SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from((0, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1)),
)


class TestBlockKeyOverBytes:
    """A block key hashes its seeds as ``<u8`` bytes, whatever holds them."""

    BASE = {"app": "adpcm-encode", "engine": "batched"}

    @settings(max_examples=80, deadline=None)
    @given(seeds=st.lists(_SEEDS, min_size=1, max_size=8), data=st.data())
    def test_container_is_irrelevant_but_order_and_every_seed_count(self, seeds, data) -> None:
        key = block_key(self.BASE, tuple(seeds), "fp")
        assert block_key(self.BASE, list(seeds), "fp") == key
        assert block_key(self.BASE, np.array(seeds, dtype=np.uint64), "fp") == key
        permuted = data.draw(st.permutations(seeds))
        if permuted != seeds:
            assert block_key(self.BASE, permuted, "fp") != key
        index = data.draw(st.integers(min_value=0, max_value=len(seeds) - 1))
        other = data.draw(_SEEDS.filter(lambda seed: seed != seeds[index]))
        changed = [*seeds[:index], other, *seeds[index + 1 :]]
        assert block_key(self.BASE, changed, "fp") != key

    @settings(max_examples=40, deadline=None)
    @given(
        start=_SEEDS,
        step=st.integers(min_value=1, max_value=2**62),
        count=st.integers(min_value=1, max_value=6),
        descending=st.booleans(),
    )
    def test_a_range_keys_like_its_seeds(self, start, step, count, descending) -> None:
        if descending:
            seeds = range(start, max(start - count * step, -1), -step)
        else:
            seeds = range(start, min(start + count * step, 2**64), step)
        key = block_key(self.BASE, seeds, "fp")
        assert key == block_key(self.BASE, tuple(seeds), "fp")
        assert key == block_key(self.BASE, np.array(list(seeds), dtype=np.uint64), "fp")


class TestBlockKeysOfOneBase:
    """A walk keys its blocks from one hashed prefix; every key stays as it was."""

    BASE = {"app": "adpcm-encode", "engine": "batched"}

    #: Keys of schema v6 before the prefix was shared, one per seed container.
    PINNED = (
        (
            (0, 2**63 - 1, 2**63, 2**64 - 1),
            "8b6b932315a293702186d872b1c0d33d65c5b3d3d3ae0d74f088614d9b51b021",
        ),
        (
            range(2**63, 2**63 + 4),
            "bb6b486df5ca82ea968bfd4013d74bb5f40936910475befd72f9f678f93782ac",
        ),
        (
            np.array([2**63 + 5, 7], dtype=np.uint64),
            "54431dddfab73464bd283810347cb4cd8e54d6d010d25a0133f6c8ed9b292bd4",
        ),
        ((1,), "3ed9adb3280873a5f81251498593e14fa5aac64a84b4be71c3a8397e6dec3f8c"),
    )

    def test_one_prefix_serves_every_block_byte_identically(self) -> None:
        key = block_keys(self.BASE, "fp")
        # Twice over: keying a block must not advance the shared prefix.
        for _ in range(2):
            for seeds, pinned in self.PINNED:
                assert key(seeds) == block_key(self.BASE, seeds, "fp") == pinned
