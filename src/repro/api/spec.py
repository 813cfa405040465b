"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, fully declarative description of
one experiment run: which application, which mitigation strategy, which
design constraints, which fault model and which seed.  Applications,
strategies and fault models are referenced by registry name (strings), so
a spec

* serializes losslessly to/from dicts and JSON (:meth:`ExperimentSpec.to_dict`,
  :meth:`ExperimentSpec.from_json`), and
* pickles by construction, which is what lets the
  :class:`~repro.api.executors.ParallelExecutor` fan specs out across
  processes.

For convenience the ``app`` field also accepts a live
:class:`~repro.apps.base.StreamingApplication` instance (the unit tests
use reduced-size workloads that are not in the registry); such specs still
pickle but refuse JSON serialization.

:class:`SweepSpec` and :class:`CampaignSpec` are composites expanding into
lists of concrete :class:`ExperimentSpec` runs — a cartesian parameter
grid and a multi-seed campaign respectively.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from ..apps.base import StreamingApplication
from ..apps.registry import canonical_name, get_application
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..scenarios.base import Scenario
from ..scenarios.registry import available_scenarios, scenario_known
from . import registry

#: Experiment kinds understood by :func:`repro.api.executors.execute_spec`.
KINDS: tuple[str, ...] = ("execute", "optimize", "feasibility", "pareto")

#: Execution engines.  ``"behavioural"`` replays every event through
#: :class:`repro.runtime.executor.TaskExecutor` (for ``execute`` specs)
#: or walks the design space point by point in Python (for ``optimize`` /
#: ``feasibility`` specs).  ``"batched"`` selects the NumPy engines of
#: :mod:`repro.batch`: the vectorized campaign engine (many seeds at
#: once, statistically equivalent) for ``execute`` specs and the
#: vectorized design-space engine (whole grid at once, bit-identical)
#: for ``optimize`` / ``feasibility`` specs.
ENGINES: tuple[str, ...] = ("behavioural", "batched")


def constraints_to_dict(constraints: DesignConstraints) -> dict[str, Any]:
    """Flatten a :class:`DesignConstraints` into a JSON-able dict."""
    return dataclasses.asdict(constraints)


def constraints_from_dict(data: Mapping[str, Any]) -> DesignConstraints:
    """Rebuild a :class:`DesignConstraints` from :func:`constraints_to_dict`."""
    return DesignConstraints(**dict(data))


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully specified experiment run.

    Attributes
    ----------
    app:
        Registry name of the streaming application (preferred, keeps the
        spec serializable) or a live application instance.  ``None`` is
        allowed only for ``kind="feasibility"``, which needs no workload.
    strategy:
        Registry name of the mitigation strategy (``"default"``,
        ``"sw-mitigation"``, ``"hw-mitigation"``, ``"hybrid"``,
        ``"hybrid-optimal"``, ``"hybrid-suboptimal"``, …).
    kind:
        ``"execute"`` runs the behavioural platform under fault injection,
        ``"optimize"`` solves the chunk-size optimization (Eq. 3–7),
        ``"feasibility"`` sweeps the Fig. 4 feasible region,
        ``"pareto"`` explores the cross-technology multi-objective design
        space (:mod:`repro.batch.pareto`).
    strategy_params:
        Keyword arguments forwarded to the strategy factory (e.g.
        ``{"chunk_words": 65}`` for ``"hybrid"``).
    constraints:
        The design operating point (area/cycle budgets, error rate, …).
    fault_model:
        Registry name of the upset model, or ``None`` for the executor's
        default SMU-dominated mixture.
    fault_params:
        Keyword arguments forwarded to the fault-model factory.
    scenario:
        Registry name of the fault environment (``"paper-constant"``,
        ``"burst"``, ``"duty-cycle"``, …), a live
        :class:`~repro.scenarios.Scenario`, or ``None`` for the injector's
        raw fixed-rate path.  The default ``"paper-constant"`` resolves to
        a constant rate equal to ``constraints.error_rate`` and is
        bit-identical to ``None``, so existing specs round-trip unchanged.
    scenario_params:
        Keyword arguments forwarded to the scenario factory (rates are
        expressed relative to ``constraints.error_rate``).
    params:
        Kind-specific extras (e.g. ``max_chunk_words`` / ``chunk_stride``
        for feasibility sweeps; ``nodes`` / ``schemes`` / ``objectives`` /
        ``correctable_bits`` / ``rate_levels`` for pareto sweeps).
    seed:
        Seed controlling the workload input and the fault stream.
    collect_trace:
        Whether the behavioural run records a detailed execution trace.
    engine:
        Execution engine: ``"behavioural"`` (the default) replays
        ``execute`` specs event by event through
        :class:`~repro.runtime.executor.TaskExecutor` and walks
        ``optimize``/``feasibility`` sweeps point by point;
        ``"batched"`` selects the NumPy engines of :mod:`repro.batch` —
        statistically equivalent (and much faster) for many-seed
        campaigns, *bit-identical* (and much faster) for design-space
        kinds.
    """

    app: str | StreamingApplication | None = None
    strategy: str = "default"
    kind: str = "execute"
    strategy_params: Mapping[str, Any] = field(default_factory=dict)
    constraints: DesignConstraints = PAPER_OPERATING_POINT
    fault_model: str | None = None
    fault_params: Mapping[str, Any] = field(default_factory=dict)
    scenario: str | Scenario | None = "paper-constant"
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    collect_trace: bool = False
    engine: str = "behavioural"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.engine == "batched" and self.collect_trace:
            raise ValueError("the batched engine does not record execution traces")
        if isinstance(self.app, str):
            object.__setattr__(self, "app", canonical_name(self.app))
        elif self.app is None and self.kind != "feasibility":
            raise ValueError(f"kind={self.kind!r} requires an application")
        if self.kind == "execute" and not registry.strategy_known(self.strategy):
            known = ", ".join(registry.available_strategies())
            raise ValueError(f"unknown strategy {self.strategy!r}; known strategies: {known}")
        if isinstance(self.scenario, str) and not scenario_known(self.scenario):
            known = ", ".join(available_scenarios())
            raise ValueError(f"unknown scenario {self.scenario!r}; known scenarios: {known}")
        for name in ("strategy_params", "fault_params", "scenario_params", "params"):
            object.__setattr__(self, name, dict(getattr(self, name)))

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    @property
    def app_name(self) -> str:
        """Display name of the application (empty for feasibility specs)."""
        if self.app is None:
            return ""
        if isinstance(self.app, str):
            return self.app
        return self.app.name

    @property
    def scenario_name(self) -> str:
        """Display name of the fault environment ("none" for the raw path)."""
        if self.scenario is None:
            return "none"
        if isinstance(self.scenario, str):
            return self.scenario
        return self.scenario.describe()

    def resolve_app(self) -> StreamingApplication:
        """Instantiate (or pass through) the spec's application."""
        if self.app is None:
            raise ValueError(f"kind={self.kind!r} spec has no application to resolve")
        if isinstance(self.app, str):
            return get_application(self.app)
        return self.app

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_overrides(self, **overrides) -> "ExperimentSpec":
        """Return a copy with selected (possibly dotted) fields replaced.

        Dotted keys reach into nested mappings: ``constraints.error_rate``
        overrides one constraint field, ``strategy_params.chunk_words``
        merges into the strategy parameters (likewise ``fault_params.*``
        and ``params.*``).  Plain keys replace top-level spec fields.
        """
        changes: dict[str, Any] = {}
        constraint_overrides: dict[str, Any] = {}
        nested: dict[str, dict[str, Any]] = {}
        field_names = {f.name for f in dataclasses.fields(self)}
        for key, value in overrides.items():
            head, _, tail = key.partition(".")
            if tail:
                if head == "constraints":
                    constraint_overrides[tail] = value
                elif head in ("strategy_params", "fault_params", "scenario_params", "params"):
                    nested.setdefault(head, {})[tail] = value
                else:
                    raise ValueError(f"cannot override nested field {key!r}")
            elif head in field_names:
                changes[head] = value
            else:
                raise ValueError(f"unknown spec field {key!r}")
        if constraint_overrides:
            base = changes.get("constraints", self.constraints)
            changes["constraints"] = base.with_overrides(**constraint_overrides)
        for name, extra in nested.items():
            merged = dict(changes.get(name, getattr(self, name)))
            merged.update(extra)
            changes[name] = merged
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Flatten the spec into a JSON-able dict (registry-named apps only)."""
        if self.app is not None and not isinstance(self.app, str):
            raise ValueError(
                "spec holds a live application instance; register it with "
                "repro.apps.registry.register_application and reference it "
                "by name to make the spec serializable"
            )
        if self.scenario is not None and not isinstance(self.scenario, str):
            raise ValueError(
                "spec holds a live scenario instance; register it with "
                "repro.scenarios.register_scenario and reference it by "
                "name to make the spec serializable"
            )
        return {
            "app": self.app,
            "strategy": self.strategy,
            "kind": self.kind,
            "strategy_params": dict(self.strategy_params),
            "constraints": constraints_to_dict(self.constraints),
            "fault_model": self.fault_model,
            "fault_params": dict(self.fault_params),
            "scenario": self.scenario,
            "scenario_params": dict(self.scenario_params),
            "params": dict(self.params),
            "seed": self.seed,
            "collect_trace": self.collect_trace,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        payload = dict(data)
        raw_constraints = payload.pop("constraints", None)
        constraints = (
            constraints_from_dict(raw_constraints)
            if raw_constraints is not None
            else PAPER_OPERATING_POINT
        )
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - field_names
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(constraints=constraints, **payload)

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian parameter grid over one base spec.

    ``parameters`` maps axis names — plain spec fields (``"seed"``,
    ``"app"``, …) or dotted paths (``"constraints.error_rate"``,
    ``"strategy_params.chunk_words"``) — to the sequence of values to
    sweep.  :meth:`expand` enumerates the grid in row-major order of the
    axes' insertion order, which keeps executor output ordering (and any
    aggregate computed from it) deterministic.
    """

    base: ExperimentSpec
    parameters: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: dict[str, tuple] = {}
        for name, values in dict(self.parameters).items():
            values = tuple(values)
            if not values:
                raise ValueError(f"sweep axis {name!r} has no values")
            normalized[name] = values
        if not normalized:
            raise ValueError("a sweep needs at least one parameter axis")
        object.__setattr__(self, "parameters", normalized)

    def axes(self) -> list[tuple[str, tuple]]:
        """The sweep axes as (name, values) pairs, in declaration order."""
        return list(self.parameters.items())

    def points(self) -> list[dict[str, Any]]:
        """The swept coordinate of every expanded spec, in expansion order."""
        names = list(self.parameters)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self.parameters.values())
        ]

    def expand(self) -> list[ExperimentSpec]:
        """Concrete specs for every grid point, in :meth:`points` order."""
        return [self.base.with_overrides(**point) for point in self.points()]

    def __len__(self) -> int:
        total = 1
        for values in self.parameters.values():
            total *= len(values)
        return total

    def to_dict(self) -> dict[str, Any]:
        """Flatten the sweep (base spec plus axes) into a JSON-able dict."""
        return {
            "base": self.base.to_dict(),
            "parameters": {name: list(values) for name, values in self.parameters.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_dict` output."""
        return cls(
            base=ExperimentSpec.from_dict(data["base"]),
            parameters=data.get("parameters", {}),
        )

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class CampaignSpec:
    """The same experiment repeated under many independent fault seeds.

    Attributes
    ----------
    base:
        The experiment to repeat (its own ``seed`` field is ignored).
    seeds:
        Explicit seed sequence; empty means ``range(runs)``.
    runs:
        Number of runs when ``seeds`` is not given.
    metrics:
        Restrict aggregation to these metric names (empty = all numeric
        metrics produced by the runs).
    allow_ragged:
        Permit runs that miss some metrics (see
        :func:`repro.faults.campaign.aggregate_runs`).
    """

    base: ExperimentSpec
    seeds: Sequence[int] = ()
    runs: int = 10
    metrics: Sequence[str] = ()
    allow_ragged: bool = False

    def __post_init__(self) -> None:
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            if self.runs <= 0:
                raise ValueError("runs must be positive when no seeds are given")
            seeds = tuple(range(self.runs))
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "runs", len(seeds))
        object.__setattr__(self, "metrics", tuple(self.metrics))

    def expand(self) -> list[ExperimentSpec]:
        """One concrete spec per seed, in seed order."""
        return [replace(self.base, seed=seed) for seed in self.seeds]

    def __len__(self) -> int:
        return len(self.seeds)

    def to_dict(self) -> dict[str, Any]:
        """Flatten the campaign (base spec plus seeds) into a JSON-able dict."""
        return {
            "base": self.base.to_dict(),
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "allow_ragged": self.allow_ragged,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output."""
        return cls(
            base=ExperimentSpec.from_dict(data["base"]),
            seeds=data.get("seeds", ()),
            metrics=data.get("metrics", ()),
            allow_ragged=data.get("allow_ragged", False),
        )

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
