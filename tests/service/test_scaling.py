"""Scaling-policy tests: Parsl-style targets, clamps, idle scale-down."""

from __future__ import annotations

import pytest

from repro.service.scaling import ScalingDecision, ScalingPolicy


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        ScalingPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": -1},
            {"max_workers": 0},
            {"min_workers": 3, "max_workers": 2},
            {"min_workers": 2, "init_workers": 1},
            {"init_workers": 9, "max_workers": 4},
            {"parallelism": 0.0},
            {"parallelism": 1.5},
            {"idle_timeout_s": -1.0},
            {"interval_s": 0.0},
        ],
    )
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScalingPolicy(**kwargs)


class TestTarget:
    def test_scales_up_with_outstanding_shards(self):
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=8)
        decision = policy.target(active_shards=5, current=1, idle_seconds=0.0)
        assert decision.target == 5
        assert decision.changed

    def test_capped_at_max_workers(self):
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=4)
        assert policy.target(100, 4, 0.0).target == 4

    def test_never_exceeds_active_shards(self):
        # The over-provision bug: scaling up to 8 workers for a 3-shard campaign.
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=8)
        assert policy.target(3, 1, 0.0).target == 3

    def test_holds_its_size_while_shards_are_outstanding(self):
        # A burst's tail keeps its workers; only the idle timeout scales down.
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=8)
        decision = policy.target(1, 3, 0.0)
        assert decision.target == 3
        assert not decision.changed
        assert "hold" in decision.reason

    def test_parallelism_stacks_shards_per_worker(self):
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=8, parallelism=0.5)
        assert policy.target(8, 1, 0.0).target == 4

    def test_idle_grace_holds_current_size(self):
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=4, idle_timeout_s=10.0)
        decision = policy.target(0, 3, idle_seconds=1.0)
        assert decision.target == 3
        assert not decision.changed

    def test_idle_timeout_scales_to_min(self):
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=4, idle_timeout_s=10.0)
        decision = policy.target(0, 4, idle_seconds=11.0)
        assert decision.target == 1
        assert "idle" in decision.reason

    def test_floor_respected_even_when_queue_small(self):
        policy = ScalingPolicy(min_workers=2, init_workers=2, max_workers=8)
        assert policy.target(1, 2, 0.0).target == 2


class TestDecision:
    def test_to_dict_round_trips_json(self):
        import json

        decision = ScalingDecision(active_shards=3, current=1, target=3, reason="x")
        payload = json.loads(json.dumps(decision.to_dict()))
        assert payload["target"] == 3
        assert payload["changed"] is True
