"""Tests for the content-keyed task-profile cache.

The cache is a pure accelerator: hits must be bit-identical to
recomputation, campaign and design numbers must not move when it is
enabled or disabled, mutating a returned profile must never poison
later hits, and nothing the cache holds outlives its process.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.optimizer import ChunkSizeOptimizer
from repro.runtime.executor import (
    characterize_app,
    characterize_task,
    profile_app,
    profile_task,
)
from repro.runtime import profile_cache
from repro.runtime.profile_cache import CACHE_EVENTS, ENV_NO_CACHE, default_cache
from repro.warehouse import ENV_CACHE_DIR, ENV_NO_WAREHOUSE

OUTCOMES = ("memory_hit", "miss", "store", "key_failure", "derived_hit", "derived_miss")


def _counts() -> dict[str, float]:
    """The process-wide cache event counters, by outcome."""
    return {outcome: CACHE_EVENTS.value(outcome=outcome) for outcome in OUTCOMES}


def _events_since(before: dict[str, float]) -> dict[str, float]:
    """The outcomes counted since ``before`` was taken, and how often."""
    now = _counts()
    return {name: now[name] - before[name] for name in OUTCOMES if now[name] != before[name]}


class TestProfileCacheHits:
    def test_cache_hit_is_bit_identical(self, small_adpcm_encode):
        task_input = small_adpcm_encode.generate_input(0)
        before = _counts()
        cold = profile_task(small_adpcm_encode, task_input)
        assert _events_since(before) == {"miss": 1, "store": 1}
        warm = profile_task(small_adpcm_encode, task_input)
        assert _events_since(before) == {"miss": 1, "store": 1, "memory_hit": 1}
        assert warm is not cold
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_mutating_a_hit_does_not_poison_the_store(self, small_adpcm_encode):
        task_input = small_adpcm_encode.generate_input(1)
        first = profile_task(small_adpcm_encode, task_input)
        golden_reference = list(first.golden)
        first.golden[0] ^= 0xFFFF
        first.step_words.append(999)
        second = profile_task(small_adpcm_encode, task_input)
        assert second.golden == golden_reference
        assert second.step_words[-1] != 999

    def test_key_separates_params_inputs_and_apps(
        self, small_adpcm_encode, small_adpcm_decode
    ):
        cache = default_cache()
        keys = {
            cache.key_for(small_adpcm_encode, small_adpcm_encode.generate_input(0)),
            cache.key_for(small_adpcm_encode, small_adpcm_encode.generate_input(1)),
            cache.key_for(small_adpcm_decode, small_adpcm_decode.generate_input(0)),
            cache.key_for(type(small_adpcm_encode)(frame_samples=640),
                          small_adpcm_encode.generate_input(0)),
        }
        assert len(keys) == 4

    def test_profile_by_seed_is_a_fresh_copy_of_the_content_entry(
        self, small_adpcm_encode, monkeypatch
    ):
        reference = profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(2))
        first = profile_app(small_adpcm_encode, 2)  # regenerates once, keys by seed
        assert dataclasses.asdict(first) == dataclasses.asdict(reference)
        first.golden[0] ^= 0xFFFF
        first.step_words.append(999)

        def regenerated(self, seed):
            raise AssertionError("a warm profile_app regenerated its input")

        monkeypatch.setattr(type(small_adpcm_encode), "generate_input", regenerated)
        before = _counts()
        second = profile_app(small_adpcm_encode, 2)
        assert dataclasses.asdict(second) == dataclasses.asdict(reference)
        assert second is not first
        # One derived hit (seed -> content key), one content-entry hit.
        assert _events_since(before) == {"derived_hit": 1, "memory_hit": 1}

    def test_profile_by_seed_separates_seeds(self, small_adpcm_encode):
        for seed in (0, 1):
            expected = profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(seed))
            for _ in range(2):
                profile = profile_app(small_adpcm_encode, seed)
                assert dataclasses.asdict(profile) == dataclasses.asdict(expected)

    def test_characterization_and_profile_share_one_input_walk(
        self, small_adpcm_encode, monkeypatch
    ):
        # Strategy sizing characterizes the app and the model build then
        # profiles it: a cold process generates the seed's input once.
        generate = type(small_adpcm_encode).generate_input
        calls = []

        def counted(self, seed):
            calls.append(seed)
            return generate(self, seed)

        monkeypatch.setattr(type(small_adpcm_encode), "generate_input", counted)
        characterization = characterize_app(small_adpcm_encode, 4)
        profile = profile_app(small_adpcm_encode, 4)
        assert calls == [4]
        assert characterization == characterize_task(
            small_adpcm_encode, generate(small_adpcm_encode, 4)
        )
        assert dataclasses.asdict(profile) == dataclasses.asdict(
            profile_task(small_adpcm_encode, generate(small_adpcm_encode, 4))
        )

    def test_same_content_shares_a_key(self, small_adpcm_encode):
        cache = default_cache()
        twin = type(small_adpcm_encode)(frame_samples=320)
        task_input = small_adpcm_encode.generate_input(0)
        assert cache.key_for(small_adpcm_encode, task_input) == cache.key_for(
            twin, task_input
        )

    def test_one_memo_serves_every_session_in_the_process(
        self, small_adpcm_encode, stress_constraints, monkeypatch
    ):
        # With the warehouse off, a second session recomputes its rows
        # from the profiles the first one walked: no seed is walked twice.
        monkeypatch.setenv(ENV_NO_WAREHOUSE, "1")

        def rows():
            session = Session(constraints=stress_constraints)
            base = session.spec(
                small_adpcm_encode, strategy="hybrid", strategy_params={"chunk_words": 32}
            )
            return session.campaign(CampaignSpec(base=base, seeds=range(3))).raw

        cold = rows()
        before = _counts()
        warm = rows()
        assert warm == cold
        # Per seed: its seed pointer, then its content entry.
        assert _events_since(before) == {"derived_hit": 3, "memory_hit": 3}


class TestProfileCacheControls:
    def test_env_kill_switch(self, small_adpcm_encode, monkeypatch):
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        assert not default_cache().enabled
        task_input = small_adpcm_encode.generate_input(0)
        before = _counts()
        profile_task(small_adpcm_encode, task_input)
        profile_task(small_adpcm_encode, task_input)
        assert _events_since(before) == {}

    def test_memory_lru_bound(self, small_adpcm_encode, monkeypatch):
        monkeypatch.setattr(profile_cache, "MAX_MEMORY_ENTRIES", 2)
        cache = default_cache()
        # Each seed stores a profile, a seed pointer and a characterization.
        for seed in range(4):
            characterize_app(small_adpcm_encode, seed)
        assert len(cache._memo) == 2
        assert len(cache._derived) == 2

    def test_memory_lru_evicts_the_least_recently_used(self, small_adpcm_encode, monkeypatch):
        monkeypatch.setattr(profile_cache, "MAX_MEMORY_ENTRIES", 2)
        first, second, third = (small_adpcm_encode.generate_input(seed) for seed in (7, 8, 9))
        profile_task(small_adpcm_encode, first)
        profile_task(small_adpcm_encode, second)
        profile_task(small_adpcm_encode, first)  # a hit refreshes the entry
        profile_task(small_adpcm_encode, third)  # evicts ``second``
        before = _counts()
        profile_task(small_adpcm_encode, first)
        assert _events_since(before) == {"memory_hit": 1}
        profile_task(small_adpcm_encode, second)
        assert _events_since(before) == {"memory_hit": 1, "miss": 1, "store": 1}

    def test_disabled_tiers(self, small_adpcm_encode, monkeypatch):
        # The one switch turns off the derived tier as well as the profiles:
        # seed pointers, characterizations and outcome mixtures are neither
        # looked up nor kept, and every value is still the computed one.
        from repro.batch import outcome_mixture
        from repro.ecc.interleaved import InterleavedSecDedCode
        from repro.faults.models import default_smu_model

        expected = characterize_task(small_adpcm_encode, small_adpcm_encode.generate_input(3))
        code, fault_model = InterleavedSecDedCode(32, ways=8), default_smu_model()
        mixture = outcome_mixture(code, fault_model)
        default_cache().clear()
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        before = _counts()
        for _ in range(2):
            assert characterize_app(small_adpcm_encode, 3) == expected
            assert dataclasses.asdict(profile_app(small_adpcm_encode, 3)) == dataclasses.asdict(
                profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(3))
            )
            assert outcome_mixture(code, fault_model) == mixture
        assert _events_since(before) == {}
        assert not default_cache()._memo and not default_cache()._derived

    def test_clear_disk_removes_entries(self, small_adpcm_encode):
        # The benchmark harness's set-up calls ``clear(disk=True)``: it
        # drops both memos, so the next request walks the task again.
        task_input = small_adpcm_encode.generate_input(0)
        profile_task(small_adpcm_encode, task_input)
        characterize_app(small_adpcm_encode, 1)
        cache = default_cache()
        assert cache._memo and cache._derived
        cache.clear(disk=True)
        assert not cache._memo and not cache._derived
        before = _counts()
        profile_task(small_adpcm_encode, task_input)
        assert _events_since(before) == {"miss": 1, "store": 1}

    def test_unpicklable_input_skips_caching(self, small_adpcm_encode):
        before = _counts()
        assert default_cache().key_for(small_adpcm_encode, lambda: None) is None
        assert _events_since(before) == {"key_failure": 1}

    def test_nothing_outlives_the_process(self, small_adpcm_encode, stress_constraints):
        root = Path(os.environ[ENV_CACHE_DIR])
        profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(5))
        characterize_app(small_adpcm_encode, 6)
        session = Session(constraints=stress_constraints)
        base = session.spec(
            small_adpcm_encode, strategy="hybrid", strategy_params={"chunk_words": 32}
        )
        session.campaign(CampaignSpec(base=base, seeds=range(3)))
        left = sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())
        assert left == []


class TestNumbersUnchangedByCaching:
    """Campaign and design results are identical with the cache on or off."""

    def _campaign_rows(self, app, stress_constraints):
        session = Session(constraints=stress_constraints)
        spec = CampaignSpec(
            base=session.spec(app, strategy="hybrid", strategy_params={"chunk_words": 32}),
            runs=4,
        )
        report = session.campaign(spec)
        return report.raw

    def test_campaign_numbers(self, small_adpcm_encode, stress_constraints, monkeypatch):
        cached = self._campaign_rows(small_adpcm_encode, stress_constraints)
        cached_again = self._campaign_rows(small_adpcm_encode, stress_constraints)
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        uncached = self._campaign_rows(small_adpcm_encode, stress_constraints)
        assert cached == uncached
        assert cached_again == uncached

    def test_optimizer_numbers(self, small_g721_decode, monkeypatch):
        optimizer = ChunkSizeOptimizer(PAPER_OPERATING_POINT)
        cached = optimizer.optimize(small_g721_decode, seed=0)
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        uncached = optimizer.optimize(small_g721_decode, seed=0)
        assert cached.best == uncached.best
        assert cached.candidates == uncached.candidates

    def test_characterize_task_matches_characterize(self, small_jpeg_decode):
        task_input = small_jpeg_decode.generate_input(0)
        assert characterize_task(small_jpeg_decode, task_input) == (
            small_jpeg_decode.characterize(task_input)
        )
