"""Cross-technology replays of the paper's design-space artefacts.

The paper evaluates one process node (65 nm).  :func:`cross_technology_sweep`
replays the Table I chunk-size optimization and the Fig. 4 feasibility
summary on **every requested technology node** — the predefined 45/65/90 nm
nodes of :mod:`repro.memmodel.technology`, or sensitivity variants derived
with :meth:`~repro.memmodel.technology.TechnologyNode.scaled` — so the
scaling story behind the paper's motivation (SMU rates grow as features
shrink) can be read off as data: how the optimum chunk, its overheads and
the feasible buffer space move across nodes.

Each node's optimizations and feasibility grid are solved by the grid
solvers of :mod:`repro.batch.design`; the scalar walkers
(:func:`repro.core.feasibility.feasible_region`,
:class:`repro.core.optimizer.ChunkSizeOptimizer`) remain as the test
references they are held bit-identical to.

Examples
--------
>>> from repro.analysis import cross_technology_sweep
>>> result = cross_technology_sweep(nodes=("65nm",), applications=["adpcm-encode"])
>>> result.rows_for("65nm")[0].application
'adpcm-encode'
"""

from __future__ import annotations

from dataclasses import dataclass

from ..batch.design import grid_feasible_region, grid_optimize_characterization
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..core.cost_model import PlatformCostParameters
from ..memmodel.technology import TechnologyNode, available_nodes, get_node
from ..runtime.executor import characterize_app
from .experiments import _resolve_app_refs
from .tables import render_table


@dataclass(frozen=True)
class CrossTechnologyRow:
    """One (technology node, application) replay of the Table I optimization.

    The two ``fig4_*`` columns summarize the node's Fig. 4 feasible
    region (they repeat across the node's applications): the largest
    feasible chunk at the operating point's correction strength, and the
    strongest feasible code at a 64-word buffer.
    """

    technology: str
    application: str
    chunk_words: int
    num_checkpoints: int
    energy_overhead: float
    cycle_overhead: float
    area_fraction: float
    buffer_capacity_words: int
    fig4_max_chunk_words: int
    fig4_max_t_at_64_words: int
    l1_area_mm2: float


@dataclass(frozen=True)
class CrossTechnologyResult:
    """Per-node Table I / Fig. 4 replays, one row per (node, application)."""

    constraints: DesignConstraints
    nodes: tuple[str, ...]
    table_rows: tuple[CrossTechnologyRow, ...]

    def rows(self) -> list[tuple]:
        """Formatted table rows, node-major then paper benchmark order."""
        return [
            (
                row.technology,
                row.application,
                row.chunk_words,
                row.num_checkpoints,
                f"{row.energy_overhead:.1%}",
                f"{row.cycle_overhead:.1%}",
                f"{row.area_fraction:.2%}",
                row.fig4_max_chunk_words,
                row.fig4_max_t_at_64_words,
            )
            for row in self.table_rows
        ]

    def rows_for(self, technology: str) -> list[CrossTechnologyRow]:
        """All rows of one technology node."""
        return [row for row in self.table_rows if row.technology == technology]

    def _title(self) -> str:
        return (
            "Cross-technology sweep — Table I optima and Fig. 4 budgets "
            f"per node (OV1={self.constraints.area_overhead:.0%})"
        )

    def to_result_set(self):
        """Machine-readable records (raw values, not table strings)."""
        from ..api.results import ResultSet

        records = [
            {
                "technology": row.technology,
                "application": row.application,
                "chunk_words": row.chunk_words,
                "num_checkpoints": row.num_checkpoints,
                "energy_overhead": row.energy_overhead,
                "cycle_overhead": row.cycle_overhead,
                "area_fraction": row.area_fraction,
                "buffer_capacity_words": row.buffer_capacity_words,
                "fig4_max_chunk_words": row.fig4_max_chunk_words,
                "fig4_max_t_at_64_words": row.fig4_max_t_at_64_words,
                "l1_area_mm2": row.l1_area_mm2,
            }
            for row in self.table_rows
        ]
        return ResultSet.from_records(self._title(), records)

    def render(self) -> str:
        """Human-readable ASCII table."""
        table = render_table(
            [
                "node",
                "benchmark",
                "optimum chunk",
                "N_CH",
                "energy ovh",
                "cycle ovh",
                "L1' area / L1",
                f"fig4 max chunk @ t={self.constraints.correctable_bits}",
                "fig4 max t @ 64 words",
            ],
            self.rows(),
        )
        return self._title() + "\n" + table


def _resolve_nodes(
    nodes, scale_overrides: dict[str, dict[str, float]] | None
) -> list[TechnologyNode]:
    """Normalize node names / instances, applying ``scaled`` overrides."""
    if nodes is None:
        nodes = tuple(available_nodes())
    overrides = dict(scale_overrides or {})
    resolved: list[TechnologyNode] = []
    for node in nodes:
        instance = node if isinstance(node, TechnologyNode) else get_node(node)
        fields = overrides.pop(instance.name, None)
        if fields:
            instance = instance.scaled(**fields)
        resolved.append(instance)
    if overrides:
        raise KeyError(f"scale_overrides for unknown nodes: {sorted(overrides)}")
    if not resolved:
        raise ValueError("at least one technology node is required")
    # Duplicate names would emit indistinguishable row blocks (and only
    # the first would receive its scale override, since it is popped).
    names = [node.name for node in resolved]
    if len(set(names)) != len(names):
        raise ValueError("nodes must be unique")
    return resolved


def cross_technology_sweep(
    nodes=None,
    applications=None,
    constraints: DesignConstraints | None = None,
    seed: int = 0,
    scale_overrides: dict[str, dict[str, float]] | None = None,
) -> CrossTechnologyResult:
    """Replay Table I and the Fig. 4 budget summary on every node.

    Parameters
    ----------
    nodes:
        Technology nodes to sweep: registry names (``"45nm"``, ``"65nm"``,
        ``"90nm"``) and/or :class:`~repro.memmodel.technology.TechnologyNode`
        instances (e.g. from :meth:`TechnologyNode.scaled`).  Defaults to
        all three predefined nodes.
    applications:
        Application names/instances; defaults to the paper's five.
    constraints:
        Operating point (defaults to the paper's); its ``correctable_bits``
        also selects the Fig. 4 summary column.
    scale_overrides:
        Optional per-node-name field overrides applied via
        :meth:`TechnologyNode.scaled` before the replay — e.g.
        ``{"65nm": {"leakage_uw_per_kb": 3.8}}`` for a pessimistic-leakage
        sensitivity study.
    """
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    resolved_nodes = _resolve_nodes(nodes, scale_overrides)
    refs = _resolve_app_refs(applications)
    characterizations = [(app, characterize_app(app, seed)) for _, app in refs]

    rows: list[CrossTechnologyRow] = []
    for node in resolved_nodes:
        platform = PlatformCostParameters.from_defaults(technology=node)
        region = grid_feasible_region(constraints=constraints, technology=node)
        fig4_max_chunk = region.max_chunk_words(constraints.correctable_bits)
        fig4_max_t = region.max_correctable_bits(64)
        for app, characterization in characterizations:
            result = grid_optimize_characterization(characterization, constraints, platform)
            best = result.best
            rows.append(
                CrossTechnologyRow(
                    technology=node.name,
                    application=app.name,
                    chunk_words=best.chunk_words,
                    num_checkpoints=best.num_checkpoints,
                    energy_overhead=best.energy_overhead_fraction,
                    cycle_overhead=best.cycle_overhead_fraction,
                    area_fraction=best.area_fraction,
                    buffer_capacity_words=best.buffer_capacity_words,
                    fig4_max_chunk_words=fig4_max_chunk,
                    fig4_max_t_at_64_words=fig4_max_t,
                    l1_area_mm2=region.l1_area_mm2,
                )
            )
    return CrossTechnologyResult(
        constraints=constraints,
        nodes=tuple(node.name for node in resolved_nodes),
        table_rows=tuple(rows),
    )
