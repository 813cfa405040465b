"""Cross-engine fidelity for stochastic scenarios.

The fidelity contract for random environments: the realized rate path and
the planned checkpoint schedule are pure functions of ``(spec, seed)``,
computed by the same code in both engines.  These tests pin that down:

* per-run :class:`~repro.batch.model.CumulativeRate` tables integrate
  bit-identically to per-scenario single tables;
* the batch model's per-seed layouts plan the *same* schedule the
  behavioural executor plans, for every registered app with a
  seed-invariant skeleton;
* batched records are composition-invariant — solo, grouped, sharded and
  interleaved block shapes all give bit-identical rows;
* :func:`~repro.analysis.experiments.scenario_sweep` over a
  Markov-modulated environment agrees across engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import scenario_sweep
from repro.api.executors import BatchCampaignExecutor, SerialExecutor
from repro.api.spec import ExperimentSpec
from repro.apps.registry import available_applications, get_application
from repro.batch.model import BatchTaskModel, CumulativeRate
from repro.core.config import PAPER_OPERATING_POINT
from repro.runtime.executor import profile_task
from repro.scenarios.registry import build_scenario

STOCHASTIC_SCENARIOS = ("markov", "random-burst")
ADAPTIVE_STRATEGIES = ("hybrid-adaptive", "hybrid-estimating")
SEEDS = (0, 1, 2)

#: jpeg-decode's step cycles are (mildly) data dependent, so only these
#: apps plan identical schedules for non-profile seeds (see
#: tests/batch/test_equivalence.py).
SEED_INVARIANT_APPS = tuple(
    name for name in available_applications() if not name.startswith("jpeg")
)


def _spec(scenario: str, strategy: str, seed: int, engine: str):
    return ExperimentSpec(
        app="adpcm-encode",
        strategy=strategy,
        constraints=PAPER_OPERATING_POINT,
        scenario=scenario,
        seed=seed,
        engine=engine,
    )


# --------------------------------------------------------------------- #
# Per-run CumulativeRate tables
# --------------------------------------------------------------------- #
class TestPerRunCumulativeRate:
    @pytest.mark.parametrize("name", STOCHASTIC_SCENARIOS)
    def test_per_run_integrals_match_single_tables(self, name):
        scenario = build_scenario(name, PAPER_OPERATING_POINT.error_rate)
        realized = [scenario.realize(seed) for seed in range(4)]
        stacked = CumulativeRate(realized, PAPER_OPERATING_POINT.error_rate, horizon=2_000)
        assert stacked.per_run

        windows = [(0, 7_500), (3_000, 60_000), (55_000, 200_000)]
        for start, end in windows:
            together = stacked.integral(
                [start] * len(realized), [end] * len(realized)
            )
            for run, path in enumerate(realized):
                alone = CumulativeRate(path, PAPER_OPERATING_POINT.error_rate)
                expected = alone.integral([start], [end])[0]
                assert together[run] == pytest.approx(expected, rel=1e-12), (
                    f"{name} run {run} window [{start}, {end})"
                )

    def test_runs_parameter_selects_rows(self):
        scenario = build_scenario("markov", PAPER_OPERATING_POINT.error_rate)
        realized = [scenario.realize(seed) for seed in range(3)]
        stacked = CumulativeRate(realized, PAPER_OPERATING_POINT.error_rate)
        # Query run 2's path three times through the runs= row selector.
        picked = stacked.integral([0, 100, 0], [5_000, 5_100, 50_000], runs=[2, 2, 2])
        alone = CumulativeRate(realized[2], PAPER_OPERATING_POINT.error_rate)
        expected = alone.integral([0, 100, 0], [5_000, 5_100, 50_000])
        np.testing.assert_allclose(picked, expected, rtol=1e-12)


# --------------------------------------------------------------------- #
# Planned schedules: behavioural plan == batch model layout
# --------------------------------------------------------------------- #
class TestScheduleIdentity:
    @pytest.mark.parametrize("app_name", SEED_INVARIANT_APPS)
    @pytest.mark.parametrize("scenario_name", STOCHASTIC_SCENARIOS)
    @pytest.mark.parametrize("strategy_name", ADAPTIVE_STRATEGIES)
    def test_batch_layout_plans_the_behavioural_schedule(
        self, app_name, scenario_name, strategy_name
    ):
        from repro.api.registry import build_strategy

        app = get_application(app_name)
        strategy = build_strategy(strategy_name, app, PAPER_OPERATING_POINT)
        scenario = build_scenario(scenario_name, PAPER_OPERATING_POINT.error_rate)
        model = BatchTaskModel(
            app, strategy, constraints=PAPER_OPERATING_POINT, scenario=scenario
        )
        assert model.schedule_seed_dependent

        profile = profile_task(app, app.generate_input(0))
        for seed in SEEDS:
            planned = strategy.plan_schedule(
                profile.step_words,
                profile.estimated_step_cycles,
                scenario=scenario.realize(seed),
                seed=seed,
            )
            layout = model.layout_for_seed(seed)
            assert layout.schedule.phases == planned.phases, (
                f"{app_name}/{scenario_name}/{strategy_name} seed {seed}"
            )

    def test_layouts_are_cached_per_seed(self):
        from repro.api.registry import build_strategy

        app = get_application("adpcm-encode")
        strategy = build_strategy("hybrid-estimating", app, PAPER_OPERATING_POINT)
        scenario = build_scenario("markov", PAPER_OPERATING_POINT.error_rate)
        model = BatchTaskModel(
            app, strategy, constraints=PAPER_OPERATING_POINT, scenario=scenario
        )
        assert model.layout_for_seed(5) is model.layout_for_seed(5)


# --------------------------------------------------------------------- #
# Composition invariance of the batched engine
# --------------------------------------------------------------------- #
class TestCompositionInvariance:
    @pytest.mark.parametrize("scenario_name", STOCHASTIC_SCENARIOS)
    @pytest.mark.parametrize("strategy_name", ADAPTIVE_STRATEGIES)
    def test_solo_grouped_sharded_blocked_agree(
        self, scenario_name, strategy_name, engine_runs, monkeypatch
    ):
        # Every shape must really execute: warehouse hits would compare
        # the first shape's stored rows against themselves.
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        specs = [_spec(scenario_name, strategy_name, seed, "batched") for seed in range(4)]

        grouped = [o.record for o in BatchCampaignExecutor().map(specs)]
        solo = [BatchCampaignExecutor().map([spec])[0].record for spec in specs]
        sharded = [
            o.record for o in BatchCampaignExecutor().map(specs[:2])
        ] + [o.record for o in BatchCampaignExecutor().map(specs[2:])]
        # Interleave with a decoy strategy: grouping must not leak across
        # experiment boundaries.
        decoys = [_spec(scenario_name, "hybrid-optimal", seed, "batched") for seed in range(4)]
        blocked_outcomes = BatchCampaignExecutor().map(
            [item for pair in zip(specs, decoys) for item in pair]
        )
        blocked = [blocked_outcomes[2 * i].record for i in range(4)]
        assert engine_runs("batched") == 20
        assert engine_runs("behavioural") == 0

        for other, label in ((solo, "solo"), (sharded, "sharded"), (blocked, "blocked")):
            for run, (a, b) in enumerate(zip(grouped, other)):
                assert a == b, f"{scenario_name}/{strategy_name} {label} run {run}"


# --------------------------------------------------------------------- #
# Engine agreement on records and sweeps
# --------------------------------------------------------------------- #
class TestEngineAgreement:
    @pytest.mark.parametrize("scenario_name", STOCHASTIC_SCENARIOS)
    @pytest.mark.parametrize("strategy_name", ADAPTIVE_STRATEGIES)
    def test_planned_checkpoints_agree_across_engines(
        self, scenario_name, strategy_name, engine_runs
    ):
        behavioural = [
            o.record
            for o in SerialExecutor().map(
                [_spec(scenario_name, strategy_name, seed, "behavioural") for seed in SEEDS]
            )
        ]
        batched = [
            o.record
            for o in BatchCampaignExecutor().map(
                [_spec(scenario_name, strategy_name, seed, "batched") for seed in SEEDS]
            )
        ]
        assert engine_runs("behavioural") == len(SEEDS)
        assert engine_runs("batched") == len(SEEDS)
        for seed, (b, f) in enumerate(zip(behavioural, batched)):
            assert b["checkpoints_committed"] == f["checkpoints_committed"], (
                f"{scenario_name}/{strategy_name} seed {seed}"
            )
            assert b["useful_cycles"] == f["useful_cycles"]

    def test_markov_scenario_sweep_bit_identical_across_engines(self):
        kwargs = dict(
            scenarios=["markov"],
            application="adpcm-encode",
            strategies=["hybrid-optimal", "hybrid-adaptive", "hybrid-estimating"],
            seeds=SEEDS,
        )
        behavioural = scenario_sweep(engine="behavioural", **kwargs)
        batched = scenario_sweep(engine="batched", **kwargs)
        assert behavioural.rows() == batched.rows()
