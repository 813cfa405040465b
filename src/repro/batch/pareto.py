"""Cross-technology multi-objective design-space explorer (Pareto fronts).

The design-space engines answer *single-objective* questions on one fixed
platform: :func:`repro.batch.design.grid_optimize` minimizes the Eq. 3
energy objective at the paper's 65 nm node, and
:func:`~repro.batch.design.grid_feasible_region` tests one area budget.
This module asks the broader question the technology-scaling motivation
of the paper implies: across **technology nodes** (45/65/90 nm), **ECC
families**, **correction strengths**, **chunk sizes** and **fault-rate
levels**, which configurations are *Pareto-optimal* over

* ``energy``  — mitigation energy overhead ``(C_store + C_comp) / E_base``;
* ``runtime`` — mitigation cycle overhead ``D(S_CH) / S_M``;
* ``area``    — protected-buffer area (storage + check bits + ECC logic)
  as a fraction of the vulnerable L1;
* ``failure`` — residual *unmitigated-failure* probability: the chance
  that an upset strikes the protected buffer itself with a bit
  multiplicity beyond the code's correction capability ``t`` during one
  task (the closed-form tail of the fault model's cluster width; see
  :func:`uncorrectable_upset_fraction`).

All objectives are minimized.  The fault-rate axis is an *environment*
parameter, not a design knob, so dominance is only compared between
points evaluated at the same rate level — the returned
:class:`ParetoFront` is the union of one exact front per rate level (use
:meth:`ParetoFront.at_rate` to slice one out).

Two engines, one contract
-------------------------
:func:`grid_pareto_front` evaluates the whole cross-product through the
NumPy grid engine (:class:`repro.batch.design._GridCostModel`) and filters
dominated points in array operations; :func:`reference_pareto_front` is
the scalar reference — per-point :class:`~repro.core.cost_model.MitigationCostModel`
evaluation and a straightforward incremental front scan.  They follow the
same IEEE-754 operation order discipline as :mod:`repro.batch.design`, so
their fronts are **bit-identical** (``tests/batch/test_pareto.py`` holds
them to exact equality over the full paper grid on every registered app);
treat any divergence as a bug, not as noise.

Examples
--------
>>> from repro.batch.pareto import grid_pareto_front
>>> front = grid_pareto_front("adpcm-encode", rate_levels=(1e-6,))
>>> front.rate_levels()
(1e-06,)
>>> knee = front.knee_point()          # the balanced compromise point
>>> knee.chunk_words > 0 and 0.0 <= knee.failure_probability <= 1.0
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterator

import numpy as np

from ..apps.base import AppCharacterization, StreamingApplication
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..core.cost_model import MitigationCostModel, PlatformCostParameters
from ..faults.models import FaultModel, default_smu_model
from ..memmodel.technology import TechnologyNode, available_nodes, get_node
from .design import _GridCostModel, _model_nbytes
from .streaming import iter_blocks, note_blocks, note_peak_bytes
from .substrate import SUBSTRATE

#: Objective names understood by the explorer, all minimized.
OBJECTIVES: tuple[str, ...] = ("energy", "runtime", "area", "failure")

#: :class:`DesignPoint` attribute backing each objective name.
OBJECTIVE_FIELDS: dict[str, str] = {
    "energy": "energy_overhead",
    "runtime": "cycle_overhead",
    "area": "area_fraction",
    "failure": "failure_probability",
}

#: Default technology-node axis: every predefined node, scaled-down first.
DEFAULT_NODES: tuple[str, ...] = tuple(available_nodes())

#: Default ECC-family axis (the redundancy-sizing schemes of Fig. 4).
DEFAULT_SCHEMES: tuple[str, ...] = ("bch", "interleaved-secded", "interleaved-hamming")

#: Default correction-strength axis (SECDED-class up to the paper's t=4 and beyond).
DEFAULT_CORRECTABLE_BITS: tuple[int, ...] = (1, 2, 4, 8)

#: Default fault-rate levels: a quiet order of magnitude below the paper's
#: operating point, the paper's 1e-6, and a harsh 5x above it.  Used when
#: no explicit ``rate_levels`` are given *and* the operating point carries
#: the paper's error rate; a non-paper ``constraints.error_rate`` becomes
#: the single rate level instead of being silently ignored.
DEFAULT_RATE_LEVELS: tuple[float, ...] = (1e-7, 1e-6, 5e-6)


# ---------------------------------------------------------------------- #
# Residual-failure model
# ---------------------------------------------------------------------- #
def uncorrectable_upset_fraction(fault_model: FaultModel, t: int) -> float:
    """Probability that one upset flips more than ``t`` bits, in closed form.

    This is the fault model's own width tail
    (:meth:`~repro.faults.models.FaultModel.width_tail`), the exact law its
    behavioural sampler draws from.  No sampling is involved, which is what
    keeps the ``failure`` objective deterministic and bit-identical across
    engines.

    Examples
    --------
    >>> from repro.faults.models import default_smu_model
    >>> uncorrectable_upset_fraction(default_smu_model(), 8)
    0.0
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    return fault_model.width_tail(t)


def _failure_probability(
    error_rate: float,
    capacity_words: int,
    baseline_cycles: float,
    uncorrectable: float,
) -> float:
    """Unmitigated-failure probability of one task, scalar reference form.

    The protected buffer holds ``capacity_words`` codewords for the whole
    task (``baseline_cycles`` cycles of exposure); uncorrectable upsets
    arrive as a Poisson thinning of the raw upset process, so the
    probability of at least one is ``1 - exp(-rate * exposure * tail)``.
    The grid engine replays this expression with the exact same operation
    order (see :func:`_grid_failure_probabilities`).
    """
    lam = error_rate * (capacity_words * baseline_cycles) * uncorrectable
    return -math.expm1(-lam)


def _grid_failure_probabilities(
    error_rate: float,
    capacity_words: np.ndarray,
    baseline_cycles: float,
    uncorrectable: float,
) -> np.ndarray:
    """Vectorized :func:`_failure_probability`, libm-exact.

    ``expm1`` is routed through :func:`math.expm1` per element — NumPy's
    SIMD kernels are not guaranteed to match libm in the last ulp, and the
    front filter compares these floats exactly.
    """
    lam = error_rate * (capacity_words.astype(np.float64) * baseline_cycles) * uncorrectable
    return np.array([-math.expm1(-x) for x in lam.tolist()], dtype=np.float64)


# ---------------------------------------------------------------------- #
# Result types
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DesignPoint:
    """One fully evaluated (node, ECC family, t, chunk, rate) configuration.

    Examples
    --------
    >>> point = DesignPoint("65nm", "bch", 4, 65, 1e-6, 4, 84,
    ...                     0.05, 0.04, 0.03, 0.0, True)
    >>> point.metric("area")
    0.03
    """

    technology: str
    scheme: str
    correctable_bits: int
    chunk_words: int
    error_rate: float
    num_checkpoints: int
    buffer_capacity_words: int
    energy_overhead: float
    cycle_overhead: float
    area_fraction: float
    failure_probability: float
    within_budgets: bool

    def metric(self, objective: str) -> float:
        """Value of one objective (``energy`` / ``runtime`` / ``area`` / ``failure``)."""
        try:
            return getattr(self, OBJECTIVE_FIELDS[objective])
        except KeyError:
            raise ValueError(
                f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
            ) from None

    def as_record(self, objectives: tuple[str, ...] = OBJECTIVES) -> dict[str, Any]:
        """Flat JSON-able row (identity columns first, then the objectives)."""
        record: dict[str, Any] = {
            "technology": self.technology,
            "scheme": self.scheme,
            "correctable_bits": self.correctable_bits,
            "chunk_words": self.chunk_words,
            "error_rate": self.error_rate,
        }
        for objective in objectives:
            record[OBJECTIVE_FIELDS[objective]] = self.metric(objective)
        record["num_checkpoints"] = self.num_checkpoints
        record["buffer_capacity_words"] = self.buffer_capacity_words
        record["within_budgets"] = self.within_budgets
        return record


@dataclass(frozen=True)
class ParetoFront:
    """The non-dominated configurations of one cross-technology sweep.

    Dominance is compared between points sharing the same ``error_rate``
    (the environment axis), so the front is the union of one exact front
    per rate level.  Points keep grid-evaluation order: nodes, then ECC
    schemes, then correction strengths, then rate levels, then chunk
    sizes.

    Examples
    --------
    >>> from repro.batch.pareto import grid_pareto_front
    >>> front = grid_pareto_front("adpcm-encode", nodes=("65nm",),
    ...                           schemes=("bch",), rate_levels=(1e-6,))
    >>> front.dominates(front.points[0], front.points[0])
    False
    """

    application: str
    objectives: tuple[str, ...]
    points: tuple[DesignPoint, ...]
    evaluated_points: int

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.points)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def rate_levels(self) -> tuple[float, ...]:
        """The environment rate levels present on the front, ascending."""
        return tuple(sorted({point.error_rate for point in self.points}))

    def at_rate(self, error_rate: float) -> "ParetoFront":
        """The sub-front conditioned on one fault-rate level.

        ``evaluated_points`` is rescaled to the level's share of the grid
        (every rate level evaluates the same design cells, and every
        evaluated level keeps at least one non-dominated point, so the
        levels present on the front are exactly the levels evaluated).
        """
        points = tuple(p for p in self.points if p.error_rate == error_rate)
        if not points:
            known = ", ".join(f"{r:g}" for r in self.rate_levels())
            raise ValueError(
                f"no front points at error rate {error_rate!r}; levels: {known}"
            )
        per_level = self.evaluated_points // max(1, len(self.rate_levels()))
        return replace(self, points=points, evaluated_points=per_level)

    def dominates(self, a: DesignPoint, b: DesignPoint) -> bool:
        """True when ``a`` weakly dominates ``b`` under this front's objectives.

        Weak (Pareto) dominance: ``a`` is no worse than ``b`` on every
        objective and strictly better on at least one.  Points evaluated
        at different rate levels are never comparable.
        """
        if a.error_rate != b.error_rate:
            return False
        return _dominates(
            tuple(a.metric(o) for o in self.objectives),
            tuple(b.metric(o) for o in self.objectives),
        )

    def knee_point(self, error_rate: float | None = None) -> DesignPoint:
        """The balanced-compromise point: closest to the utopia corner.

        Each objective is min-max normalized over the (optionally
        rate-restricted) front and the point with the smallest Euclidean
        distance to the all-zero utopia point wins; first of ties.  Pass
        ``error_rate`` to condition on one environment level when the
        front spans several.
        """
        front = self if error_rate is None else self.at_rate(error_rate)
        if not front.points:
            raise ValueError("cannot take the knee point of an empty front")
        columns = [
            [point.metric(objective) for point in front.points]
            for objective in front.objectives
        ]
        spans = [(min(column), max(column) - min(column)) for column in columns]
        best_index = 0
        best_distance = math.inf
        for index in range(len(front.points)):
            distance = 0.0
            for (low, span), column in zip(spans, columns):
                normalized = (column[index] - low) / span if span > 0.0 else 0.0
                distance += normalized * normalized
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return front.points[best_index]

    # ------------------------------------------------------------------ #
    # Serialization — plugs into the uniform results layer
    # ------------------------------------------------------------------ #
    def rows(self) -> list[dict[str, Any]]:
        """Front points as flat records, in front order."""
        return [point.as_record(self.objectives) for point in self.points]

    def to_result_set(self, title: str | None = None):
        """The front as a :class:`~repro.api.results.ResultSet`."""
        from ..api.results import ResultSet

        if title is None:
            title = (
                f"Pareto front — {self.application} over "
                f"{{{', '.join(self.objectives)}}}"
            )
        footer = (
            f"{len(self.points)} non-dominated of {self.evaluated_points} "
            f"evaluated design points"
        )
        if self.points:
            knees = ", ".join(
                f"{rate:g} -> {k.technology}/{k.scheme} t={k.correctable_bits} "
                f"chunk={k.chunk_words}"
                for rate in self.rate_levels()
                for k in (self.knee_point(rate),)
            )
            footer += f"; knee per rate level: {knees}"
        return ResultSet.from_records(title, self.rows(), footer=footer)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON rendering of :meth:`to_result_set`."""
        return self.to_result_set().to_json(indent=indent)

    def to_csv(self) -> str:
        """CSV rendering of :meth:`to_result_set`."""
        return self.to_result_set().to_csv()


# ---------------------------------------------------------------------- #
# Dominance filters
# ---------------------------------------------------------------------- #
def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Scalar weak dominance: ``a <= b`` everywhere and ``a < b`` somewhere."""
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def reference_non_dominated(values: list[tuple[float, ...]]) -> list[int]:
    """Indices of the non-dominated points, by incremental front scan.

    The obviously correct scalar reference: every candidate is compared
    against the current front; dominated candidates are dropped, dominated
    front members are evicted.  Exactly equal points never dominate each
    other, so duplicates are all retained.  Output indices ascend (i.e.
    evaluation order is preserved).  ``±inf`` is an ordinary value; a NaN
    raises the same :class:`ValueError` as
    :meth:`~repro.batch.substrate.Substrate.non_dominated_mask`.
    """
    if any(math.isnan(x) for row in values for x in row):
        raise ValueError("objective values must not be NaN")
    front: list[int] = []
    for index, candidate in enumerate(values):
        survivors: list[int] = []
        dominated = False
        for member in front:
            other = values[member]
            if _dominates(other, candidate):
                dominated = True
                break
            if not _dominates(candidate, other):
                survivors.append(member)
        if dominated:
            continue
        survivors.append(index)
        front = survivors
    return front


#: (block row, front row) pairs one merge tile compares at once; bounds a
#: tile's working set to about 1 MiB.
_MERGE_TILE_ELEMENTS = 1 << 18


def _cross_dominated(
    front: np.ndarray, block: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows of each of two point sets that a row of the other dominates.

    Returns ``(front_lost, block_lost, tile_bytes)``: boolean masks over
    ``front`` and ``block`` rows, and the accounted bytes of the largest
    comparison tile.  Row ``b`` dominates row ``f`` when ``b < f``
    somewhere and ``b > f`` nowhere, so one pair of strict comparisons
    answers both directions.  Block rows are compared in tiles of at most
    :data:`_MERGE_TILE_ELEMENTS` (block row, front row) pairs, one
    objective column at a time, so the working set stays linear in the
    two sets' sizes instead of ``block x front x objectives``.
    """
    front_lost = np.zeros(front.shape[0], dtype=bool)
    block_lost = np.zeros(block.shape[0], dtype=bool)
    step = max(1, _MERGE_TILE_ELEMENTS // max(1, front.shape[0]))
    for start in range(0, block.shape[0], step):
        rows = block[start:start + step]
        better = np.zeros((rows.shape[0], front.shape[0]), dtype=bool)
        worse = np.zeros_like(better)
        for column in range(front.shape[1]):
            better |= rows[:, column, None] < front[None, :, column]
            worse |= rows[:, column, None] > front[None, :, column]
        front_lost |= (better & ~worse).any(axis=0)
        block_lost[start:start + step] = (worse & ~better).any(axis=1)
    # Per tile: the two boolean accumulators plus at most two temporaries.
    tile_bytes = 4 * min(step, block.shape[0]) * front.shape[0]
    return front_lost, block_lost, tile_bytes


# ---------------------------------------------------------------------- #
# Grid resolution shared by both engines
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ResolvedGrid:
    """Validated axes of one sweep (identical between the two engines)."""

    characterization: AppCharacterization
    objectives: tuple[str, ...]
    nodes: tuple[TechnologyNode, ...]
    schemes: tuple[str, ...]
    correctable_bits: tuple[int, ...]
    rate_levels: tuple[float, ...]
    chunks: tuple[int, ...]
    constraints: DesignConstraints
    fault_model: FaultModel

    def cells(self) -> list[tuple[TechnologyNode, str, int, float]]:
        """Every (node, scheme, t, rate) cell in evaluation order."""
        return [
            (node, scheme, t, rate)
            for node in self.nodes
            for scheme in self.schemes
            for t in self.correctable_bits
            for rate in self.rate_levels
        ]


def _platform_for(node: TechnologyNode, scheme: str) -> PlatformCostParameters:
    """Platform cost parameters for one (technology node, L1' ECC family)."""
    return replace(
        PlatformCostParameters.from_defaults(technology=node), l1p_scheme=scheme
    )


def _axis(values, default: tuple) -> tuple:
    """Normalize one sweep axis: ``None`` -> default, bare scalar -> 1-tuple.

    Accepting a bare string matters: ``tuple("65nm")`` would otherwise
    silently explode into per-character axis values.
    """
    if values is None:
        return default
    if isinstance(values, (str, int, float)):
        return (values,)
    return tuple(values)


def _resolve_grid(
    app: StreamingApplication | AppCharacterization | str,
    objectives,
    nodes,
    schemes,
    correctable_bits,
    rate_levels,
    constraints: DesignConstraints | None,
    max_chunk_words: int,
    chunk_stride: int,
    fault_model: FaultModel | None,
    seed: int,
) -> _ResolvedGrid:
    """Validate and normalize every sweep axis (shared by both engines)."""
    if max_chunk_words <= 0:
        raise ValueError("max_chunk_words must be positive")
    if chunk_stride <= 0:
        raise ValueError("chunk_stride must be positive")
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT

    if isinstance(app, AppCharacterization):
        characterization = app
    else:
        from ..apps.registry import get_application
        from ..runtime.executor import characterize_app

        instance = get_application(app) if isinstance(app, str) else app
        characterization = characterize_app(instance, seed)
    if characterization.output_words <= 0:
        raise ValueError("the application must produce at least one output word")

    objectives = _axis(objectives, OBJECTIVES)
    if not objectives:
        raise ValueError("at least one objective is required")
    unknown = [name for name in objectives if name not in OBJECTIVE_FIELDS]
    if unknown:
        raise ValueError(f"unknown objectives {unknown}; expected a subset of {OBJECTIVES}")
    if len(set(objectives)) != len(objectives):
        raise ValueError("objectives must be unique")

    if isinstance(nodes, TechnologyNode):
        nodes = (nodes,)
    node_instances = tuple(
        node if isinstance(node, TechnologyNode) else get_node(node)
        for node in _axis(nodes, DEFAULT_NODES)
    )
    if not node_instances:
        raise ValueError("at least one technology node is required")
    # Duplicated axis values would evaluate cells twice and — because
    # exactly equal points are all retained — duplicate every front row.
    node_names = [node.name for node in node_instances]
    if len(set(node_names)) != len(node_names):
        raise ValueError("nodes must be unique")
    scheme_names = _axis(schemes, DEFAULT_SCHEMES)
    if not scheme_names:
        raise ValueError("at least one ECC scheme is required")
    if len(set(scheme_names)) != len(scheme_names):
        raise ValueError("schemes must be unique")
    strengths = tuple(int(t) for t in _axis(correctable_bits, DEFAULT_CORRECTABLE_BITS))
    if not strengths or any(t < 1 for t in strengths):
        raise ValueError("correctable_bits must be positive integers")
    if len(set(strengths)) != len(strengths):
        raise ValueError("correctable_bits must be unique")
    if rate_levels is None and constraints.error_rate != PAPER_OPERATING_POINT.error_rate:
        # An explicitly overridden operating-point rate pins the (single)
        # rate level — the environment the caller asked about — instead of
        # being silently overridden by the default axis.
        rate_levels = (constraints.error_rate,)
    rates = tuple(float(r) for r in _axis(rate_levels, DEFAULT_RATE_LEVELS))
    if not rates or any(r < 0 for r in rates):
        raise ValueError("rate_levels must be non-negative")
    if len(set(rates)) != len(rates):
        raise ValueError("rate_levels must be unique")

    upper = min(max_chunk_words, characterization.output_words)
    chunks = tuple(range(1, upper + 1, chunk_stride))
    model = fault_model if fault_model is not None else default_smu_model()
    return _ResolvedGrid(
        characterization=characterization,
        objectives=objectives,
        nodes=node_instances,
        schemes=scheme_names,
        correctable_bits=strengths,
        rate_levels=rates,
        chunks=chunks,
        constraints=constraints,
        fault_model=model,
    )


class _StreamingFront:
    """Running non-dominated set of one rate level, folded block by block.

    Holds the survivors' objective matrix plus their payload columns
    (all four objective values, capacity, checkpoints, feasibility,
    chunk, global evaluation index).  A fold thins the incoming block to
    its own front with one dominance sweep, then merges the thinned block
    with the standing front by comparing the two sides against each
    other (:func:`_cross_dominated`); the standing front is never swept
    again.  Folding is exact:

    * a block row the sweep drops is dominated by a surviving block row
      (weak dominance is transitive), so it cannot belong to the union's
      front;
    * both sides are mutually non-dominated, so a row of the union is
      dominated exactly when a row of the *other* side dominates it;
    * exactly equal rows never dominate each other, so duplicates across
      the two sides are all kept.

    Rows are stored in no particular order; the evaluation index in the
    payload restores it.
    """

    def __init__(self) -> None:
        self.values: np.ndarray | None = None
        self.payload: dict[str, np.ndarray] = {}

    def fold(self, values: np.ndarray, payload: dict[str, np.ndarray]) -> int:
        """Fold one evaluation block into the running front.

        Returns the accounted bytes of the merge's largest comparison
        tile.  A block holding NaN raises :class:`ValueError` and leaves
        the front as it was.
        """
        values = np.asarray(values, dtype=np.float64)
        kept = np.flatnonzero(SUBSTRATE.non_dominated_mask(values))
        if self.values is None:
            self.values = values[:0]
            self.payload = {name: column[:0] for name, column in payload.items()}
        thinned = values[kept]
        front_lost, block_lost, tile_bytes = _cross_dominated(self.values, thinned)
        stay = ~front_lost
        kept = kept[~block_lost]
        self.values = np.concatenate([self.values[stay], thinned[~block_lost]])
        self.payload = {
            name: np.concatenate([column[stay], payload[name][kept]])
            for name, column in self.payload.items()
        }
        return tile_bytes

    @property
    def nbytes(self) -> int:
        """Accounted bytes of the survivor arrays."""
        if self.values is None:
            return 0
        return int(self.values.nbytes) + sum(
            int(column.nbytes) for column in self.payload.values()
        )


# ---------------------------------------------------------------------- #
# The two engines
# ---------------------------------------------------------------------- #
def grid_pareto_front(
    app: StreamingApplication | AppCharacterization | str,
    objectives=None,
    nodes=None,
    schemes=None,
    correctable_bits=None,
    rate_levels=None,
    constraints: DesignConstraints | None = None,
    max_chunk_words: int = 512,
    chunk_stride: int = 1,
    fault_model: FaultModel | None = None,
    seed: int = 0,
    block: int | None = None,
) -> ParetoFront:
    """Explore the cross-technology design space on the array grid engine.

    Every (node, ECC family, t, rate) cell evaluates its candidate chunk
    sizes through :class:`~repro.batch.design._GridCostModel` in blocked
    array passes (``block=None`` resolves ``REPRO_BATCH_BLOCK``).  Each
    block is thinned to its own front by one dominance sweep, then merged
    into a per-rate streaming front by a two-way dominance test tiled to
    at most :data:`_MERGE_TILE_ELEMENTS` (block row, front row) pairs, so
    the working set is ``O(block + front)``, never ``O(grid)`` or
    ``O(block x front)``: 10^7-point grids run in bounded memory.  The
    accounted peak (``repro_batch_peak_bytes{kind="pareto"}``) counts the
    model arrays, the standing fronts and the largest merge tile.  The
    result is bit-identical to :func:`reference_pareto_front` for every
    block size (the cost model is elementwise along the chunk axis and
    non-dominatedness is set-determined).

    Examples
    --------
    >>> front = grid_pareto_front("adpcm-encode", nodes=("65nm",),
    ...                           schemes=("bch",), correctable_bits=(4,),
    ...                           rate_levels=(1e-6,))
    >>> all(p.technology == "65nm" for p in front)
    True
    """
    grid = _resolve_grid(
        app, objectives, nodes, schemes, correctable_bits, rate_levels,
        constraints, max_chunk_words, chunk_stride, fault_model, seed,
    )
    chunks = np.asarray(grid.chunks, dtype=np.int64)
    rate_array = np.asarray(grid.rate_levels, dtype=np.float64)
    cells = grid.cells()
    num_rates = len(grid.rate_levels)

    fronts = [_StreamingFront() for _ in range(num_rates)]
    evaluated = 0
    triple_index = 0
    for node in grid.nodes:
        for scheme in grid.schemes:
            platform = _platform_for(node, scheme)
            for t in grid.correctable_bits:
                uncorrectable = uncorrectable_upset_fraction(grid.fault_model, t)
                cell_constraints = grid.constraints.with_overrides(correctable_bits=t)
                for piece in iter_blocks(chunks.size, block):
                    model = _GridCostModel(
                        grid.characterization,
                        cell_constraints,
                        platform,
                        chunks[piece],
                        rates=rate_array,
                    )
                    note_blocks("pareto")
                    width = piece.stop - piece.start
                    tile_bytes = 0
                    for row, rate in enumerate(grid.rate_levels):
                        cell_ordinal = triple_index * num_rates + row
                        base = cell_ordinal * chunks.size + piece.start
                        block_columns = {
                            "energy": model.objective[row] / model.baseline_energy_pj,
                            "runtime": model.overhead_cycles[row]
                            / model.baseline_cycles,
                            "area": model.area_fraction[row],
                            "failure": _grid_failure_probabilities(
                                rate,
                                model.capacity_words[row],
                                model.baseline_cycles,
                                uncorrectable,
                            ),
                            "capacity": model.capacity_words[row],
                            "checkpoints": model.num_checkpoints[row],
                            "feasible": model.feasible[row],
                            "chunk": chunks[piece],
                            "index": base + np.arange(width, dtype=np.int64),
                        }
                        values = np.column_stack(
                            [block_columns[name] for name in grid.objectives]
                        )
                        tile_bytes = max(
                            tile_bytes, fronts[row].fold(values, block_columns)
                        )
                        evaluated += width
                    note_peak_bytes(
                        "pareto",
                        _model_nbytes(model)
                        + sum(front.nbytes for front in fronts)
                        + tile_bytes,
                    )
                triple_index += 1

    # Survivors in ascending evaluation order — exactly the order (and
    # indices) the unblocked filter-over-the-full-grid would emit.
    merged = {
        name: np.concatenate([front.payload[name] for front in fronts])
        for name in (
            "energy", "runtime", "area", "failure",
            "capacity", "checkpoints", "feasible", "chunk", "index",
        )
    }
    order = np.argsort(merged["index"], kind="stable")
    points: list[DesignPoint] = []
    for pos in order.tolist():
        index = int(merged["index"][pos])
        node, scheme, t, rate = cells[index // chunks.size]
        points.append(
            DesignPoint(
                technology=node.name,
                scheme=scheme,
                correctable_bits=t,
                chunk_words=int(merged["chunk"][pos]),
                error_rate=rate,
                num_checkpoints=int(merged["checkpoints"][pos]),
                buffer_capacity_words=int(merged["capacity"][pos]),
                energy_overhead=float(merged["energy"][pos]),
                cycle_overhead=float(merged["runtime"][pos]),
                area_fraction=float(merged["area"][pos]),
                failure_probability=float(merged["failure"][pos]),
                within_budgets=bool(merged["feasible"][pos]),
            )
        )
    return ParetoFront(
        application=grid.characterization.name,
        objectives=grid.objectives,
        points=tuple(points),
        evaluated_points=evaluated,
    )


def reference_pareto_front(
    app: StreamingApplication | AppCharacterization | str,
    objectives=None,
    nodes=None,
    schemes=None,
    correctable_bits=None,
    rate_levels=None,
    constraints: DesignConstraints | None = None,
    max_chunk_words: int = 512,
    chunk_stride: int = 1,
    fault_model: FaultModel | None = None,
    seed: int = 0,
) -> ParetoFront:
    """Scalar reference explorer: per-point evaluation, incremental fronts.

    Walks the exact same grid as :func:`grid_pareto_front` through
    :class:`~repro.core.cost_model.MitigationCostModel` one candidate at a
    time and filters dominance with :func:`reference_non_dominated`.  Kept
    alongside the grid engine for exact-equality testing; ``kind="pareto"``
    specs always run :func:`grid_pareto_front`.
    """
    grid = _resolve_grid(
        app, objectives, nodes, schemes, correctable_bits, rate_levels,
        constraints, max_chunk_words, chunk_stride, fault_model, seed,
    )
    points: list[DesignPoint] = []
    for node, scheme, t, rate in grid.cells():
        cell_constraints = grid.constraints.with_overrides(
            correctable_bits=t, error_rate=rate
        )
        model = MitigationCostModel(
            grid.characterization, cell_constraints, _platform_for(node, scheme)
        )
        uncorrectable = uncorrectable_upset_fraction(grid.fault_model, t)
        for chunk in grid.chunks:
            breakdown = model.evaluate(chunk)
            points.append(
                DesignPoint(
                    technology=node.name,
                    scheme=scheme,
                    correctable_bits=t,
                    chunk_words=chunk,
                    error_rate=rate,
                    num_checkpoints=breakdown.num_checkpoints,
                    buffer_capacity_words=breakdown.buffer_capacity_words,
                    energy_overhead=breakdown.energy_overhead_fraction,
                    cycle_overhead=breakdown.cycle_overhead_fraction,
                    area_fraction=breakdown.area_fraction,
                    failure_probability=_failure_probability(
                        rate,
                        breakdown.buffer_capacity_words,
                        breakdown.baseline_cycles,
                        uncorrectable,
                    ),
                    within_budgets=breakdown.feasible,
                )
            )

    kept: list[int] = []
    for rate in grid.rate_levels:
        group = [i for i, p in enumerate(points) if p.error_rate == rate]
        values = [
            tuple(points[i].metric(objective) for objective in grid.objectives)
            for i in group
        ]
        kept.extend(group[i] for i in reference_non_dominated(values))
    return ParetoFront(
        application=grid.characterization.name,
        objectives=grid.objectives,
        points=tuple(points[i] for i in sorted(kept)),
        evaluated_points=len(points),
    )
