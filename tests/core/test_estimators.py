"""Online rate estimators and the estimator-driven adaptive strategy.

Three layers:

* unit behaviour of :class:`WindowedMLEEstimator` /
  :class:`GammaPoissonEstimator` (validation, priors, forgetting);
* statistical convergence to the true rate on constant environments,
  with tolerance bands over many independent observation streams;
* end-to-end regret of :class:`EstimatingAdaptiveStrategy` against the
  oracle adaptive strategy on the ``storm`` environment — non-negative,
  shrinking with the observation window, and recovering at least half
  of the oracle's energy win (the headline acceptance bar).
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis.experiments import ORACLE_STRATEGY, scenario_sweep
from repro.api import BatchCampaignExecutor, ExperimentSpec
from repro.api.executors import SPECS_EXECUTED
from repro.apps.registry import get_application
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.estimators import (
    GammaPoissonEstimator,
    WindowedMLEEstimator,
    make_estimator,
)
from repro.core.strategies import AdaptiveHybridStrategy, EstimatingAdaptiveStrategy
from repro.utils.rng import CounterStream, stream_key


# --------------------------------------------------------------------- #
# Unit behaviour
# --------------------------------------------------------------------- #
class TestWindowedMLE:
    def test_returns_prior_before_any_observation(self):
        assert WindowedMLEEstimator(3e-6, windows=4).rate() == 3e-6

    def test_pools_counts_over_the_window(self):
        estimator = WindowedMLEEstimator(1e-6, windows=3)
        estimator.update(10, 1e6)
        estimator.update(0, 1e6)
        assert estimator.rate() == pytest.approx(10 / 2e6)

    def test_old_windows_fall_out(self):
        estimator = WindowedMLEEstimator(1e-6, windows=2)
        estimator.update(1000, 1e6)
        estimator.update(0, 1e6)
        estimator.update(0, 1e6)
        assert estimator.rate() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedMLEEstimator(-1e-6)
        with pytest.raises(ValueError):
            WindowedMLEEstimator(1e-6, windows=0)
        estimator = WindowedMLEEstimator(1e-6)
        with pytest.raises(ValueError):
            estimator.update(-1, 1e6)
        with pytest.raises(ValueError):
            estimator.update(1, 0.0)


class TestGammaPoisson:
    def test_starts_at_the_prior_mean(self):
        assert GammaPoissonEstimator(2e-6).rate() == pytest.approx(2e-6)

    def test_posterior_mean_update(self):
        estimator = GammaPoissonEstimator(1e-6, decay=1.0, prior_exposure=1e6)
        estimator.update(9, 1e6)
        # alpha = 1 + 9, beta = 2e6 → posterior mean 5e-6.
        assert estimator.rate() == pytest.approx(5e-6)

    def test_forgetting_tracks_a_regime_change(self):
        estimator = GammaPoissonEstimator(1e-4, decay=0.4, prior_exposure=1e7)
        for _ in range(6):
            estimator.update(0, 1e7)
        # Six quiet windows at decay 0.4 leave ~0.4% of the hot prior.
        assert estimator.rate() < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaPoissonEstimator(-1e-6)
        with pytest.raises(ValueError):
            GammaPoissonEstimator(1e-6, decay=0.0)
        with pytest.raises(ValueError):
            GammaPoissonEstimator(1e-6, decay=1.5)
        with pytest.raises(ValueError):
            GammaPoissonEstimator(1e-6, prior_exposure=0.0)


class TestMakeEstimator:
    def test_builds_both_kinds(self):
        assert isinstance(make_estimator("mle", 1e-6), WindowedMLEEstimator)
        assert isinstance(make_estimator("bayes", 1e-6), GammaPoissonEstimator)
        assert isinstance(make_estimator("  Bayes ", 1e-6), GammaPoissonEstimator)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            make_estimator("kalman", 1e-6)


# --------------------------------------------------------------------- #
# Convergence on constant environments
# --------------------------------------------------------------------- #
def _observe_constant(estimator, true_rate, *, seed, updates=30, exposure=2.048e7):
    """Feed ``updates`` Poisson windows at ``true_rate`` into ``estimator``."""
    stream = CounterStream(stream_key(seed, 0xC0F_FEE))
    for _ in range(updates):
        estimator.update(stream.poisson(true_rate * exposure), exposure)
    return estimator.rate()


class TestConvergence:
    TRUE_RATE = 2e-6
    SEEDS = range(12)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: make_estimator("mle", 1e-6, windows=8), id="mle"),
            pytest.param(
                lambda: make_estimator("bayes", 1e-6, decay=0.4, prior_exposure=5e6),
                id="bayes",
            ),
            pytest.param(
                # A 50x pessimistic prior must wash out under real evidence.
                lambda: make_estimator("bayes", 1e-4, decay=0.4, prior_exposure=5e6),
                id="bayes-pessimistic-prior",
            ),
        ],
    )
    def test_estimates_converge_to_the_true_rate(self, build):
        estimates = [
            _observe_constant(build(), self.TRUE_RATE, seed=seed) for seed in self.SEEDS
        ]
        # Every stream individually lands in a generous band…
        for estimate in estimates:
            assert estimate == pytest.approx(self.TRUE_RATE, rel=0.5)
        # …and the band tightens sharply for the cross-stream average.
        assert statistics.mean(estimates) == pytest.approx(self.TRUE_RATE, rel=0.15)

    def test_mle_is_exact_on_noiseless_streams(self):
        estimator = make_estimator("mle", 1e-6, windows=4)
        for _ in range(10):
            estimator.update(41, 2.048e7)
        assert estimator.rate() == pytest.approx(41 / 2.048e7)


# --------------------------------------------------------------------- #
# The estimating strategy itself
# --------------------------------------------------------------------- #
class TestEstimatingStrategy:
    def test_parameter_validation(self):
        app = get_application("adpcm-encode")
        with pytest.raises(ValueError):
            EstimatingAdaptiveStrategy(app, window_cycles=0)
        with pytest.raises(ValueError):
            EstimatingAdaptiveStrategy(app, monitor_words=0)
        with pytest.raises(ValueError):
            EstimatingAdaptiveStrategy(app, prior_rate_factor=0.0)
        with pytest.raises(ValueError):
            EstimatingAdaptiveStrategy(app, estimator="kalman")

    def test_without_a_scenario_plans_like_a_static_hybrid(self):
        from repro.runtime.executor import profile_task

        app = get_application("adpcm-encode")
        profile = profile_task(app, app.generate_input(0))
        estimating = EstimatingAdaptiveStrategy(app, PAPER_OPERATING_POINT)
        static = estimating.plan_schedule(profile.step_words)
        assert static.phases  # uniform fallback, no estimator involved

    def test_plans_are_pure_functions_of_the_seed(self):
        from repro.runtime.executor import profile_task
        from repro.scenarios.registry import build_scenario

        app = get_application("adpcm-encode")
        profile = profile_task(app, app.generate_input(0))
        scenario = build_scenario("markov", PAPER_OPERATING_POINT.error_rate)
        strategy = EstimatingAdaptiveStrategy(app, PAPER_OPERATING_POINT)
        plans = [
            strategy.plan_schedule(
                profile.step_words,
                profile.estimated_step_cycles,
                scenario=scenario.realize(seed),
                seed=seed,
            )
            for seed in (7, 7, 8)
        ]
        assert plans[0].phases == plans[1].phases
        assert strategy.plan_depends_on_seed
        assert AdaptiveHybridStrategy.plan_uses_scenario


# --------------------------------------------------------------------- #
# Regret on the storm environment
# --------------------------------------------------------------------- #
def _storm_energies(strategy, params, seeds):
    specs = [
        ExperimentSpec(
            app="adpcm-encode",
            strategy=strategy,
            strategy_params=params,
            constraints=PAPER_OPERATING_POINT,
            scenario="storm",
            seed=seed,
            engine="batched",
        )
        for seed in seeds
    ]
    before = SPECS_EXECUTED.value(kind="execute", engine="batched")
    outcomes = BatchCampaignExecutor().map(specs)
    assert SPECS_EXECUTED.value(kind="execute", engine="batched") - before == len(specs)
    return [outcome.record["energy_nj"] for outcome in outcomes]


class TestStormRegret:
    SEEDS = tuple(range(10))

    def test_sweep_regret_column_is_nonnegative_and_zero_for_oracle(self):
        result = scenario_sweep(
            scenarios=["storm"],
            application="adpcm-encode",
            strategies=["hybrid-optimal", ORACLE_STRATEGY, "hybrid-estimating"],
            seeds=(0, 1, 2),
            engine="batched",
        )
        by_strategy = {cell.strategy: cell for cell in result.cells}
        assert by_strategy[ORACLE_STRATEGY].regret == 0.0
        for cell in result.cells:
            assert cell.regret is not None
            assert cell.regret >= 0.0

    def test_sweep_regret_is_none_without_the_oracle(self):
        result = scenario_sweep(
            scenarios=["storm"],
            application="adpcm-encode",
            strategies=["hybrid-optimal", "hybrid-estimating"],
            seeds=(0, 1),
            engine="batched",
        )
        assert all(cell.regret is None for cell in result.cells)

    def test_regret_shrinks_with_the_observation_window(self):
        oracle = _storm_energies(ORACLE_STRATEGY, {}, self.SEEDS)

        def regret(window_cycles):
            estimating = _storm_energies(
                "hybrid-estimating", {"window_cycles": window_cycles}, self.SEEDS
            )
            return statistics.mean(e - o for e, o in zip(estimating, oracle))

        fast, medium, slow = regret(5_000), regret(20_000), regret(80_000)
        assert fast >= 0.0
        assert fast < medium <= slow

    def test_estimator_recovers_at_least_half_the_oracle_win(self):
        static = statistics.mean(_storm_energies("hybrid-optimal", {}, self.SEEDS))
        oracle = statistics.mean(_storm_energies(ORACLE_STRATEGY, {}, self.SEEDS))
        estimating = statistics.mean(_storm_energies("hybrid-estimating", {}, self.SEEDS))
        win = static - oracle
        assert win > 0, "the oracle must beat the static optimum under storm"
        recovery = (static - estimating) / win
        assert recovery >= 0.5, (
            f"estimating strategy recovers only {recovery:.1%} of the oracle's "
            f"energy win (static {static:.1f} nJ, oracle {oracle:.1f} nJ, "
            f"estimating {estimating:.1f} nJ)"
        )
