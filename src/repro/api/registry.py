"""String registries that make experiment specs addressable by name.

An :class:`~repro.api.spec.ExperimentSpec` refers to its mitigation
strategy and fault model by short string names so that specs serialize to
JSON and pickle across process boundaries without carrying live objects.
This module owns those name → factory mappings, mirroring the application
registry in :mod:`repro.apps.registry`.

Strategy factories receive the resolved application and the spec's design
constraints (both are needed to size hybrid buffers) plus the spec's
``strategy_params``; fault-model factories receive only ``fault_params``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from types import MappingProxyType

from ..apps.base import StreamingApplication
from ..batch.design import grid_optimize
from ..core.config import DesignConstraints
from ..core.strategies import (
    AdaptiveHybridStrategy,
    DefaultStrategy,
    EstimatingAdaptiveStrategy,
    HwMitigationStrategy,
    HybridStrategy,
    MitigationStrategy,
    SwMitigationStrategy,
)
from ..faults.models import (
    FaultModel,
    MixedUpset,
    MultiBitUpset,
    SingleBitUpset,
    default_smu_model,
)

# Scenario registry helpers live with the scenario definitions; re-export
# them here so the API surface mirrors apps/strategies/fault models.
from ..scenarios.registry import (
    available_scenarios,
    build_scenario,
    register_scenario,
    scenario_description,
    scenario_factories,
    scenario_known,
)

__all__ = [
    "FaultModelFactory",
    "StrategyFactory",
    "available_fault_models",
    "available_scenarios",
    "available_strategies",
    "build_fault_model",
    "build_scenario",
    "build_strategy",
    "factory_registries",
    "register_fault_model",
    "register_scenario",
    "register_strategy",
    "scenario_description",
    "scenario_known",
    "strategy_known",
]

#: Signature of a strategy factory: (app, constraints, **params) -> strategy.
StrategyFactory = Callable[..., MitigationStrategy]

#: Signature of a fault-model factory: (**params) -> fault model.
FaultModelFactory = Callable[..., FaultModel]


# ---------------------------------------------------------------------- #
# Strategy factories
# ---------------------------------------------------------------------- #
def _build_default(
    app: StreamingApplication, constraints: DesignConstraints
) -> MitigationStrategy:
    return DefaultStrategy(constraints)


def _build_sw(
    app: StreamingApplication, constraints: DesignConstraints, *, max_restarts: int = 8
) -> MitigationStrategy:
    return SwMitigationStrategy(constraints, max_restarts=int(max_restarts))


def _build_hw(
    app: StreamingApplication, constraints: DesignConstraints, *, correctable_bits: int = 8
) -> MitigationStrategy:
    return HwMitigationStrategy(constraints, correctable_bits=int(correctable_bits))


def _build_hybrid(
    app: StreamingApplication,
    constraints: DesignConstraints,
    *,
    chunk_words: int | None = None,
    extra_buffer_words: int | None = None,
    label: str = "hybrid-optimal",
) -> MitigationStrategy:
    if chunk_words is None:
        raise ValueError(
            "strategy 'hybrid' needs an explicit chunk size: pass "
            "strategy_params={'chunk_words': N} (CLI: --chunk-words N), or "
            "use 'hybrid-optimal' to size it with the optimizer"
        )
    if extra_buffer_words is None:
        extra_buffer_words = app.state_words()
    return HybridStrategy(
        int(chunk_words),
        constraints,
        extra_buffer_words=int(extra_buffer_words),
        label=label,
    )


def _build_hybrid_optimal(
    app: StreamingApplication,
    constraints: DesignConstraints,
    *,
    opt_seed: int = 0,
    extra_buffer_words: int | None = None,
    label: str = "hybrid-optimal",
) -> MitigationStrategy:
    # The grid optimizer returns the scalar optimizer's result bit for
    # bit (tests/batch/test_design.py) at a few percent of its cost.
    optimization = grid_optimize(app, constraints, seed=int(opt_seed))
    return _build_hybrid(
        app,
        constraints,
        chunk_words=optimization.chunk_words,
        extra_buffer_words=extra_buffer_words,
        label=label,
    )


def _build_hybrid_suboptimal(
    app: StreamingApplication,
    constraints: DesignConstraints,
    *,
    opt_seed: int = 0,
    factor: float = 4.0,
    extra_buffer_words: int | None = None,
    label: str = "hybrid-suboptimal",
) -> MitigationStrategy:
    optimization = grid_optimize(app, constraints, seed=int(opt_seed))
    suboptimal = optimization.suboptimal(float(factor))
    return _build_hybrid(
        app,
        constraints,
        chunk_words=suboptimal.chunk_words,
        extra_buffer_words=extra_buffer_words,
        label=label,
    )


def _build_hybrid_adaptive(
    app: StreamingApplication,
    constraints: DesignConstraints,
    *,
    opt_seed: int = 0,
    extra_buffer_words: int | None = None,
    label: str = "hybrid-adaptive",
) -> MitigationStrategy:
    return AdaptiveHybridStrategy(
        app,
        constraints,
        extra_buffer_words=extra_buffer_words,
        label=label,
        opt_seed=int(opt_seed),
    )


def _build_hybrid_estimating(
    app: StreamingApplication,
    constraints: DesignConstraints,
    *,
    opt_seed: int = 0,
    extra_buffer_words: int | None = None,
    label: str = "hybrid-estimating",
    estimator: str = "bayes",
    window_cycles: int = 5_000,
    monitor_words: int = 4096,
    windows: int = 2,
    decay: float = 0.4,
    prior_exposure: float = 5e6,
    prior_rate_factor: float = 50.0,
) -> MitigationStrategy:
    return EstimatingAdaptiveStrategy(
        app,
        constraints,
        extra_buffer_words=extra_buffer_words,
        label=label,
        opt_seed=int(opt_seed),
        estimator=str(estimator),
        window_cycles=int(window_cycles),
        monitor_words=int(monitor_words),
        windows=int(windows),
        decay=float(decay),
        prior_exposure=float(prior_exposure),
        prior_rate_factor=float(prior_rate_factor),
    )


_STRATEGIES: dict[str, StrategyFactory] = {
    "default": _build_default,
    "sw-mitigation": _build_sw,
    "hw-mitigation": _build_hw,
    "hybrid": _build_hybrid,
    "hybrid-optimal": _build_hybrid_optimal,
    "hybrid-suboptimal": _build_hybrid_suboptimal,
    "hybrid-adaptive": _build_hybrid_adaptive,
    "hybrid-estimating": _build_hybrid_estimating,
}


# ---------------------------------------------------------------------- #
# Fault-model factories
# ---------------------------------------------------------------------- #
def _build_ssu() -> FaultModel:
    return SingleBitUpset()


def _build_smu(
    *, min_width: int = 2, max_width: int = 4, geometric_p: float = 0.55
) -> FaultModel:
    return MultiBitUpset(
        min_width=int(min_width), max_width=int(max_width), geometric_p=float(geometric_p)
    )


def _build_mixed(
    *,
    smu_fraction: float = 0.35,
    min_width: int = 2,
    max_width: int = 4,
    geometric_p: float = 0.55,
) -> FaultModel:
    return MixedUpset(
        smu_fraction=float(smu_fraction),
        smu=MultiBitUpset(
            min_width=int(min_width), max_width=int(max_width), geometric_p=float(geometric_p)
        ),
    )


_FAULT_MODELS: dict[str, FaultModelFactory] = {
    "ssu": _build_ssu,
    "smu": _build_smu,
    "mixed": _build_mixed,
    "paper-smu": default_smu_model,
}


# ---------------------------------------------------------------------- #
# Public lookup / registration API
# ---------------------------------------------------------------------- #
def available_strategies() -> list[str]:
    """Names of every registered mitigation strategy."""
    return sorted(_STRATEGIES)


def available_fault_models() -> list[str]:
    """Names of every registered fault model."""
    return sorted(_FAULT_MODELS)


def factory_registries() -> dict[str, Mapping[str, Callable]]:
    """The live strategy, fault-model and scenario registries, read-only, by kind.

    What the warehouse code fingerprint reads factory names and keyword
    defaults from (:func:`repro.warehouse.keys.code_fingerprint`).
    """
    return {
        "strategies": MappingProxyType(_STRATEGIES),
        "fault_models": MappingProxyType(_FAULT_MODELS),
        "scenarios": scenario_factories(),
    }


def strategy_known(name: str) -> bool:
    """Whether ``name`` resolves to a registered strategy."""
    return name in _STRATEGIES


def build_strategy(
    name: str,
    app: StreamingApplication,
    constraints: DesignConstraints,
    **params,
) -> MitigationStrategy:
    """Instantiate a registered strategy for one application."""
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(available_strategies())
        raise KeyError(f"unknown strategy {name!r}; known strategies: {known}") from None
    return factory(app, constraints, **params)


def build_fault_model(name: str | None, **params) -> FaultModel | None:
    """Instantiate a registered fault model (``None`` = the executor default)."""
    if name is None:
        return None
    try:
        factory = _FAULT_MODELS[name]
    except KeyError:
        known = ", ".join(available_fault_models())
        raise KeyError(f"unknown fault model {name!r}; known fault models: {known}") from None
    return factory(**params)


def register_strategy(name: str, factory: StrategyFactory) -> None:
    """Register a custom strategy factory (for extensions and tests)."""
    key = name.strip().lower()
    if not key:
        raise ValueError("strategy name must not be empty")
    if key in _STRATEGIES:
        raise ValueError(f"strategy {key!r} is already registered")
    _STRATEGIES[key] = factory


def register_fault_model(name: str, factory: FaultModelFactory) -> None:
    """Register a custom fault-model factory (for extensions and tests)."""
    key = name.strip().lower()
    if not key:
        raise ValueError("fault model name must not be empty")
    if key in _FAULT_MODELS:
        raise ValueError(f"fault model {key!r} is already registered")
    _FAULT_MODELS[key] = factory
