"""Experiment harnesses and reporting utilities.

Each function in :mod:`repro.analysis.experiments` regenerates one of the
paper's tables or figures (the paper-grounding table of ``docs/index.md``
maps each to its CLI command); :mod:`repro.analysis.cross_technology`
replays the design-space artefacts across process nodes;
:mod:`repro.analysis.tables` renders the results as text tables and
:mod:`repro.analysis.paper_data` holds the paper's reference numbers.
"""

from .cross_technology import (
    CrossTechnologyResult,
    CrossTechnologyRow,
    cross_technology_sweep,
)
from .experiments import (
    AblationResult,
    Fig4Result,
    Fig5Result,
    ScenarioCell,
    ScenarioSweepResult,
    StrategyOutcome,
    Table1Result,
    Table1Row,
    TimingResult,
    ablation_area_budget,
    ablation_correction_strength,
    ablation_drain_latency,
    ablation_error_rate,
    fig4_feasible_region,
    fig5_energy,
    scenario_sweep,
    table1_optimal_chunks,
    timing_overhead,
)
from .tables import render_table

__all__ = [
    "AblationResult",
    "CrossTechnologyResult",
    "CrossTechnologyRow",
    "cross_technology_sweep",
    "Fig4Result",
    "Fig5Result",
    "ScenarioCell",
    "ScenarioSweepResult",
    "StrategyOutcome",
    "Table1Result",
    "Table1Row",
    "TimingResult",
    "ablation_area_budget",
    "ablation_correction_strength",
    "ablation_drain_latency",
    "ablation_error_rate",
    "fig4_feasible_region",
    "fig5_energy",
    "scenario_sweep",
    "table1_optimal_chunks",
    "timing_overhead",
    "render_table",
]
