"""Tests for the content-keyed task-profile cache.

The cache is a pure accelerator: hits must be bit-identical to
recomputation, campaign and design numbers must not move when it is
enabled or disabled, and mutating a returned profile must never poison
later hits.
"""

from __future__ import annotations

import dataclasses
import json

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
from repro.runtime.profile_cache import (
    ENV_NO_CACHE,
    ProfileCache,
    default_cache,
)


class TestProfileCacheHits:
    def test_cache_hit_is_bit_identical(self, small_adpcm_encode):
        cache = default_cache()
        task_input = small_adpcm_encode.generate_input(0)
        cold = profile_task(small_adpcm_encode, task_input)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        warm = profile_task(small_adpcm_encode, task_input)
        assert cache.stats.memory_hits == 1
        assert warm is not cold
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_disk_hit_survives_memory_clear(self, small_g721_decode):
        cache = default_cache()
        task_input = small_g721_decode.generate_input(3)
        cold = profile_task(small_g721_decode, task_input)
        cache._memo.clear()
        warm = profile_task(small_g721_decode, task_input)
        assert cache.stats.disk_hits == 1
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
        cache = default_cache()
        reference = profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(2))
        first = profile_app(small_adpcm_encode, 2)  # regenerates once, keys by seed
        assert dataclasses.asdict(first) == dataclasses.asdict(reference)
        first.golden[0] ^= 0xFFFF
        first.step_words.append(999)

        def regenerated(self, seed):
            raise AssertionError("a warm profile_app regenerated its input")

        monkeypatch.setattr(type(small_adpcm_encode), "generate_input", regenerated)
        hits = cache.stats.memory_hits
        second = profile_app(small_adpcm_encode, 2)
        assert dataclasses.asdict(second) == dataclasses.asdict(reference)
        assert second is not first
        # One derived hit (seed -> content key), one content-entry hit.
        assert cache.stats.memory_hits == hits + 2

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


class TestProfileCacheControls:
    def test_env_kill_switch(self, small_adpcm_encode, monkeypatch):
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        cache = default_cache()
        assert not cache.enabled
        task_input = small_adpcm_encode.generate_input(0)
        profile_task(small_adpcm_encode, task_input)
        profile_task(small_adpcm_encode, task_input)
        assert cache.stats.memory_hits == 0 and cache.stats.stores == 0

    def test_disabled_tiers(self, small_adpcm_encode):
        cache = ProfileCache(memory=False, disk=False)
        assert not cache.enabled
        task_input = small_adpcm_encode.generate_input(0)
        profile_task(small_adpcm_encode, task_input, cache=cache)
        assert cache.stats.stores == 0

    def test_memory_lru_bound(self, small_adpcm_encode):
        cache = ProfileCache(disk=False, max_memory_entries=2)
        for seed in range(4):
            profile_task(
                small_adpcm_encode, small_adpcm_encode.generate_input(seed), cache=cache
            )
        assert len(cache._memo) == 2

    def test_corrupt_disk_entry_degrades_to_recompute(self, small_adpcm_encode):
        cache = default_cache()
        task_input = small_adpcm_encode.generate_input(0)
        key = cache.key_for(small_adpcm_encode, task_input)
        cold = profile_task(small_adpcm_encode, task_input)
        path = cache._disk_path(key)
        path.write_text("{not json", encoding="utf-8")
        cache._memo.clear()
        warm = profile_task(small_adpcm_encode, task_input)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        # The recompute repaired the entry.
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 1

    def test_element_corrupt_disk_entry_degrades_to_recompute(self, small_adpcm_encode):
        cache = default_cache()
        task_input = small_adpcm_encode.generate_input(0)
        key = cache.key_for(small_adpcm_encode, task_input)
        cold = profile_task(small_adpcm_encode, task_input)
        path = cache._disk_path(key)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["profile"]["step_cycles"][0] = "not-a-cycle-count"
        path.write_text(json.dumps(document), encoding="utf-8")
        cache._memo.clear()
        warm = profile_task(small_adpcm_encode, task_input)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_unpicklable_input_skips_caching(self, small_adpcm_encode):
        cache = default_cache()
        assert cache.key_for(small_adpcm_encode, lambda: None) is None
        assert cache.stats.key_failures == 1

    def test_clear_disk_removes_entries(self, small_adpcm_encode):
        cache = default_cache()
        profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(0))
        assert any(cache._disk_dir().glob("*.json"))
        cache.clear(disk=True)
        assert not any(cache._disk_dir().glob("*.json"))


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
