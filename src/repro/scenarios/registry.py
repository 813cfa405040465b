"""String registry making fault environments addressable from specs.

Mirrors the application / strategy / fault-model registries: an
:class:`~repro.api.spec.ExperimentSpec` names its scenario with a short
string (plus ``scenario_params``), so specs stay JSON-serializable and
picklable across process boundaries.

Every factory receives ``base_rate`` — the spec's
``constraints.error_rate`` — as its first argument, so scenarios are
expressed *relative to the operating point*: ``"paper-constant"`` is
exactly the operating point's rate (and reproduces the seed experiments
bit-identically), ``"burst"`` defaults to a 0.1x quiescent baseline with
50x bursts, and so on.  Absolute rates can always be forced via explicit
parameters.
"""

from __future__ import annotations

import inspect
import types
from collections.abc import Callable, Mapping
from typing import Any

from .base import (
    BurstScenario,
    ConstantRate,
    DutyCycleScenario,
    PiecewiseScenario,
    RampScenario,
    Scenario,
)
from .stochastic import (
    MarkovModulatedScenario,
    RandomBurstScenario,
    TraceScenario,
)

#: Signature of a scenario factory: (base_rate, **params) -> scenario.
ScenarioFactory = Callable[..., Scenario]


def _build_paper_constant(base_rate: float) -> Scenario:
    """The paper's environment: the operating point's constant rate."""
    return ConstantRate(base_rate)


def _build_constant(base_rate: float, *, rate: float | None = None) -> Scenario:
    """A constant rate; ``rate`` overrides the operating point's."""
    return ConstantRate(base_rate if rate is None else float(rate))


def _build_burst(
    base_rate: float,
    *,
    quiescent_factor: float = 0.1,
    burst_factor: float = 50.0,
    period: int = 400_000,
    burst_cycles: int = 40_000,
    phase: int = 0,
) -> Scenario:
    """Quiescent baseline punctuated by periodic high-rate bursts."""
    return BurstScenario(
        quiescent_rate=base_rate * float(quiescent_factor),
        burst_rate=base_rate * float(burst_factor),
        period=int(period),
        burst_cycles=int(burst_cycles),
        phase=int(phase),
    )


def _build_duty_cycle(
    base_rate: float,
    *,
    on_factor: float = 1.0,
    off_factor: float = 0.0,
    period: int = 200_000,
    on_cycles: int = 100_000,
    phase: int = 0,
) -> Scenario:
    """Exposure only while powered on (duty-cycled operation)."""
    return DutyCycleScenario(
        on_rate=base_rate * float(on_factor),
        off_rate=base_rate * float(off_factor),
        period=int(period),
        on_cycles=int(on_cycles),
        phase=int(phase),
    )


def _build_ramp(
    base_rate: float,
    *,
    start_factor: float = 0.1,
    end_factor: float = 10.0,
    duration: int = 1_000_000,
    steps: int = 16,
) -> Scenario:
    """Linear rate drift (temperature/voltage excursion), quantized."""
    return RampScenario(
        start_rate=base_rate * float(start_factor),
        end_rate=base_rate * float(end_factor),
        duration=int(duration),
        steps=int(steps),
    )


def _build_storm(
    base_rate: float,
    *,
    quiescent_factor: float = 0.05,
    burst_factor: float = 100.0,
    period: int = 500_000,
    burst_cycles: int = 25_000,
) -> Scenario:
    """A background overlaid with violent bursts (combinator showcase)."""
    background = ConstantRate(base_rate * float(quiescent_factor))
    flares = BurstScenario(
        quiescent_rate=0.0,
        burst_rate=base_rate * float(burst_factor),
        period=int(period),
        burst_cycles=int(burst_cycles),
    )
    return background.overlay(flares)


def _build_step_down(
    base_rate: float,
    *,
    high_factor: float = 20.0,
    high_cycles: int = 200_000,
    low_factor: float = 0.1,
) -> Scenario:
    """A harsh start-up transient settling to a quiet steady state."""
    return PiecewiseScenario(
        [(int(high_cycles), base_rate * float(high_factor))],
        tail_rate=base_rate * float(low_factor),
    )


def _build_markov(
    base_rate: float,
    *,
    level_factors: tuple[float, ...] = (0.1, 1.0, 20.0),
    dwell_cycles: tuple[int, ...] = (400_000, 200_000, 50_000),
) -> Scenario:
    """A CTMC wandering over quiet/nominal/harsh rate regimes."""
    factors = tuple(float(f) for f in level_factors)
    dwells = tuple(int(d) for d in dwell_cycles)
    if len(factors) != len(dwells):
        raise ValueError("level_factors and dwell_cycles must pair up")
    return MarkovModulatedScenario(
        [(base_rate * factor, dwell) for factor, dwell in zip(factors, dwells)]
    )


def _build_random_burst(
    base_rate: float,
    *,
    quiescent_factor: float = 0.1,
    burst_factor: float = 50.0,
    mean_interarrival: int = 360_000,
    mean_burst_cycles: int = 40_000,
    intensity_jitter: float = 0.5,
) -> Scenario:
    """Poisson-arriving bursts with random width and intensity."""
    return RandomBurstScenario(
        quiescent_rate=base_rate * float(quiescent_factor),
        burst_rate=base_rate * float(burst_factor),
        mean_interarrival=int(mean_interarrival),
        mean_burst_cycles=int(mean_burst_cycles),
        intensity_jitter=float(intensity_jitter),
    )


def _build_trace(
    base_rate: float,
    *,
    path: str,
    rate_scale: float = 1.0,
    relative: bool = False,
    tail_rate: float | None = None,
) -> Scenario:
    """A measured rate timeline loaded from a CSV trace file."""
    scale = float(rate_scale) * (base_rate if relative else 1.0)
    return TraceScenario(path, rate_scale=scale, tail_rate=tail_rate)


_SCENARIOS: dict[str, ScenarioFactory] = {
    "paper-constant": _build_paper_constant,
    "constant": _build_constant,
    "burst": _build_burst,
    "duty-cycle": _build_duty_cycle,
    "ramp": _build_ramp,
    "storm": _build_storm,
    "step-down": _build_step_down,
    "markov": _build_markov,
    "random-burst": _build_random_burst,
    "trace": _build_trace,
}


# ---------------------------------------------------------------------- #
# Public lookup / registration API
# ---------------------------------------------------------------------- #
def keyword_defaults(factory: Callable) -> dict[str, str]:
    """``repr`` of every keyword default of one factory, as its signature reports it.

    A factory whose signature cannot be introspected (a C callable) has
    an empty mapping rather than failing key derivation.
    """
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return {}
    return {
        param.name: repr(param.default)
        for param in params.values()
        if param.default is not inspect.Parameter.empty
    }


def signature_defaults(factories: Mapping[str, Callable]) -> dict[str, dict[str, str]]:
    """:func:`keyword_defaults` of every factory in a registry, by name.

    Part of the warehouse code fingerprint: registry *names* alone miss
    an in-place edit to a factory default (same name, different numbers),
    which would silently serve stale cached results.
    """
    return {name: keyword_defaults(factories[name]) for name in sorted(factories)}


def defaults_token(factory: Callable) -> Any:
    """A cheap stand-in for :func:`keyword_defaults`: equal tokens, equal defaults.

    The signature of a plain function with no attributes of its own is
    fixed by its code object, ``__defaults__`` and ``__kwdefaults__``, so
    its token is those, each default by ``repr`` (an in-place change to
    a mutable default shows).  Anything else (a class, a
    ``functools.partial``, a function carrying ``__wrapped__`` or
    ``__signature__``) reaches its defaults in ways no such token sees,
    so its token is :func:`keyword_defaults` itself.
    """
    if type(factory) is types.FunctionType and not factory.__dict__:
        keywords = factory.__kwdefaults__ or {}
        return (
            factory.__code__,
            tuple(map(repr, factory.__defaults__ or ())),
            tuple(keywords),
            tuple(map(repr, keywords.values())),
        )
    return keyword_defaults(factory)


def available_scenarios() -> list[str]:
    """Names of every registered fault environment."""
    return sorted(_SCENARIOS)


def scenario_factories() -> Mapping[str, ScenarioFactory]:
    """The live scenario registry, read-only (warehouse fingerprint)."""
    return types.MappingProxyType(_SCENARIOS)


def scenario_known(name: str) -> bool:
    """Whether ``name`` resolves to a registered scenario."""
    return name in _SCENARIOS


def scenario_description(name: str) -> str:
    """First docstring line of the factory behind ``name``."""
    factory = _SCENARIOS.get(name)
    if factory is None or not factory.__doc__:
        return ""
    return factory.__doc__.strip().splitlines()[0]


def build_scenario(
    name: str | Scenario | None,
    base_rate: float,
    **params,
) -> Scenario | None:
    """Instantiate a registered scenario for one operating point.

    ``None`` passes through (the injector's legacy fixed-rate path) and a
    live :class:`Scenario` instance is returned unchanged (``params`` must
    then be empty).
    """
    if name is None:
        return None
    if isinstance(name, Scenario):
        if params:
            raise ValueError("scenario_params require a registry-named scenario")
        return name
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        known = ", ".join(available_scenarios())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return factory(base_rate, **params)


def register_scenario(name: str, factory: ScenarioFactory) -> None:
    """Register a custom scenario factory (for extensions and tests).

    The name is stored exactly as given (modulo surrounding whitespace),
    since lookups — spec validation, :func:`build_scenario` — are
    case-sensitive.
    """
    key = name.strip()
    if not key:
        raise ValueError("scenario name must not be empty")
    if key in _SCENARIOS:
        raise ValueError(f"scenario {key!r} is already registered")
    _SCENARIOS[key] = factory
