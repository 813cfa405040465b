"""Instrumentation wiring: executors, sessions, the profile cache.

These assert that running experiments actually moves the process-wide
instruments — and, just as important, that telemetry never changes the
numbers an experiment produces.
"""

from __future__ import annotations

import io
import json
import logging
import time

from repro import telemetry
from repro.api.executors import ParallelExecutor
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.runtime.executor import profile_task
from repro.telemetry import counter_total


def _campaign_spec(app, seeds=(0, 1, 2), engine="behavioural") -> CampaignSpec:
    return CampaignSpec(
        base=ExperimentSpec(app=app, strategy="hybrid-optimal", engine=engine),
        seeds=seeds,
    )


class TestExecutorInstruments:
    def test_execute_spec_counts_by_kind_and_engine(self, small_adpcm_encode):
        Session().run(ExperimentSpec(app=small_adpcm_encode, seed=1))
        snap = telemetry.snapshot()
        samples = snap["repro_specs_executed_total"]["samples"]
        assert {"labels": {"kind": "execute", "engine": "behavioural"}, "value": 1.0} in samples

    def test_batched_campaign_counts_groups_and_specs(self, small_adpcm_encode):
        Session().campaign(_campaign_spec(small_adpcm_encode, engine="batched"))
        snap = telemetry.snapshot()
        assert counter_total(snap, "repro_batch_groups_total") == 1.0
        assert counter_total(snap, "repro_specs_executed_total") == 3.0

    def test_map_latency_is_observed_per_executor(self, small_adpcm_encode):
        Session().run(ExperimentSpec(app=small_adpcm_encode, seed=1))
        snap = telemetry.snapshot()
        (sample,) = snap["repro_executor_map_seconds"]["samples"]
        assert sample["labels"] == {"executor": "serial"}
        assert sample["count"] == 1

    def test_session_metrics_returns_snapshot(self, small_adpcm_encode):
        session = Session()
        session.run(ExperimentSpec(app=small_adpcm_encode, seed=1))
        assert counter_total(session.metrics(), "repro_specs_executed_total") >= 1.0


class TestSweepMetrics:
    def test_sweep_attaches_metrics_snapshot(self, small_adpcm_encode):
        from repro.api.spec import SweepSpec

        sweep = SweepSpec(
            base=ExperimentSpec(app=small_adpcm_encode, strategy="hybrid-optimal"),
            parameters={"seed": (0, 1)},
        )
        result = Session().sweep(sweep)
        assert result.metrics is not None
        assert counter_total(result.metrics, "repro_specs_executed_total") == 2.0
        # The snapshot never leaks into the serialized forms.
        assert "metrics" not in result.to_dict()
        assert "metrics" not in result.to_csv()
        bare = result.with_metrics(None)
        assert bare.metrics is None
        assert bare == result  # compare=False: telemetry never breaks equality


class TestCacheInstruments:
    def test_cache_outcomes_are_counted(self, small_adpcm_encode):
        task_input = small_adpcm_encode.generate_input(0)
        profile_task(small_adpcm_encode, task_input)  # miss + store
        profile_task(small_adpcm_encode, task_input)  # memory hit
        snap = telemetry.snapshot()
        by_outcome = {
            tuple(s["labels"].values()): s["value"]
            for s in snap["repro_profile_cache_events_total"]["samples"]
        }
        assert by_outcome[("miss",)] >= 1.0
        assert by_outcome[("store",)] >= 1.0
        assert by_outcome[("memory_hit",)] >= 1.0

    def test_derived_lookups_are_counted_apart_from_profile_outcomes(self):
        from repro.batch import outcome_mixture
        from repro.ecc.interleaved import InterleavedSecDedCode
        from repro.faults.models import default_smu_model

        def outcomes() -> dict:
            samples = telemetry.snapshot()["repro_profile_cache_events_total"]["samples"]
            return {s["labels"]["outcome"]: s["value"] for s in samples}

        outcome_mixture(InterleavedSecDedCode(32, ways=8), default_smu_model())  # miss
        outcome_mixture(InterleavedSecDedCode(32, ways=8), default_smu_model())  # hit
        counted = outcomes()
        assert counted["derived_miss"] == 1.0
        assert counted["derived_hit"] == 1.0
        # perfbench pins the profile tiers' misses at zero on warm runs.
        assert counted.get("memory_hit", 0.0) == 0.0
        assert counted.get("miss", 0.0) == 0.0

    def test_outcome_labels_are_the_six_documented(self, small_adpcm_encode):
        from repro.runtime.executor import profile_app
        from repro.runtime.profile_cache import default_cache

        profile_task(small_adpcm_encode, small_adpcm_encode.generate_input(0))  # miss, store
        profile_app(small_adpcm_encode, 0)  # derived miss, memory hit
        profile_app(small_adpcm_encode, 0)  # derived hit, memory hit
        default_cache().key_for(small_adpcm_encode, lambda: None)  # key failure
        samples = telemetry.snapshot()["repro_profile_cache_events_total"]["samples"]
        assert {s["labels"]["outcome"] for s in samples} == {
            "memory_hit", "miss", "store", "key_failure", "derived_hit", "derived_miss",
        }


class TestParallelLifecycleEvents:
    def _configured_stream(self) -> io.StringIO:
        stream = io.StringIO()
        from repro.telemetry.logs import configure_logging

        configure_logging(level=logging.INFO, stream=stream)
        return stream

    def _events(self, stream: io.StringIO) -> list[dict]:
        events = []
        for line in stream.getvalue().splitlines():
            _, _, payload = line.partition("{")
            if payload:
                events.append(json.loads("{" + payload))
        return events

    def test_pool_start_and_teardown_are_logged(self, small_adpcm_encode):
        stream = self._configured_stream()
        executor = ParallelExecutor(jobs=2)
        try:
            executor.map(
                [ExperimentSpec(app=small_adpcm_encode, seed=s) for s in range(2)]
            )
        finally:
            executor.close()
        names = [e["event"] for e in self._events(stream)]
        assert "executor.pool_start" in names
        assert "executor.pool_teardown" in names
        start = next(e for e in self._events(stream) if e["event"] == "executor.pool_start")
        assert start["workers"] == 2


class TestBitIdentityAndOverhead:
    def test_campaign_identical_with_telemetry_on_and_off(self, small_adpcm_encode):
        spec = _campaign_spec(small_adpcm_encode, engine="batched")
        enabled_report = Session().campaign(spec)
        telemetry.set_enabled(False)
        disabled_report = Session().campaign(spec)
        telemetry.set_enabled(True)
        assert enabled_report.raw == disabled_report.raw
        assert (
            enabled_report.to_result_set().to_dict()
            == disabled_report.to_result_set().to_dict()
        )

    def test_disabled_overhead_is_small(self, small_adpcm_encode):
        """Disabled telemetry must stay near-free on the batched hot path.

        The real <2 % number is measured by benchmarks/bench_service.py on
        the 1000-seed campaign; this regression test uses a lenient bound
        so scheduler noise on CI machines cannot flake it.
        """
        spec = _campaign_spec(
            small_adpcm_encode, seeds=tuple(range(200)), engine="batched"
        )
        session = Session()
        session.campaign(spec)  # warm the profile cache for both timings

        def timed() -> float:
            start = time.perf_counter()
            session.campaign(spec)
            return time.perf_counter() - start

        with_telemetry = min(timed() for _ in range(3))
        telemetry.set_enabled(False)
        try:
            without_telemetry = min(timed() for _ in range(3))
        finally:
            telemetry.set_enabled(True)
        assert with_telemetry <= without_telemetry * 1.15 + 0.05
