"""repro — reproduction of the DATE 2012 hybrid HW-SW intermittent-error
mitigation scheme for streaming-based embedded systems.

The package is organized as:

* :mod:`repro.memmodel` — analytical SRAM model (CACTI substitute);
* :mod:`repro.ecc` — error-correcting codes and their circuitry overheads;
* :mod:`repro.faults` — SSU/SMU fault models, rate-based injection, campaigns;
* :mod:`repro.soc` — behavioural SoC platform (processor, memories, bus,
  interrupts, energy accounting);
* :mod:`repro.apps` — MediaBench-class streaming workloads (ADPCM, G.721,
  JPEG) and synthetic input generators;
* :mod:`repro.scenarios` — time-varying fault environments (bursts,
  duty cycles, ramps) with combinators and a string registry;
* :mod:`repro.core` — the paper's contribution: chunked checkpointing,
  cost model, chunk-size optimizer, feasibility analysis, strategies
  (including the scenario-aware :class:`AdaptiveHybridStrategy`);
* :mod:`repro.runtime` — the execution engine tying it all together;
* :mod:`repro.api` — the unified experiment API: declarative
  :class:`ExperimentSpec` / :class:`SweepSpec` / :class:`CampaignSpec`,
  the :class:`Session` facade, serial/parallel executors and the
  machine-readable :class:`ResultSet`;
* :mod:`repro.analysis` — harnesses regenerating every table and figure
  through the API.

Quickstart
----------
>>> from repro import ExperimentSpec, Session
>>> session = Session()
>>> outcome = session.run(ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal"))
>>> outcome.record["output_correct"]
1.0

Multi-seed campaigns fan out across cores with bit-identical aggregates:

>>> from repro import CampaignSpec, ParallelExecutor
>>> spec = CampaignSpec(base=ExperimentSpec(app="jpeg-decode", strategy="hybrid-optimal"),
...                     seeds=range(8))
>>> report = session.campaign(spec, executor=ParallelExecutor(jobs=4))
>>> report["energy_nj"].p95 >= report["energy_nj"].median
True

The lower-level building blocks remain available for single runs:

>>> from repro.apps import get_application
>>> from repro.core import optimize_chunk_size, HybridStrategy
>>> from repro.runtime import run_task
>>> app = get_application("adpcm-encode")
>>> opt = optimize_chunk_size(app)
>>> result = run_task(app, HybridStrategy(opt.chunk_words))
>>> result.stats.fully_mitigated
True
"""

from .api import (
    BatchCampaignExecutor,
    CampaignSpec,
    ExperimentSpec,
    ParallelExecutor,
    ResultSet,
    SerialExecutor,
    Session,
    SweepSpec,
)
from .batch import (
    BatchTaskModel,
    ParetoFront,
    grid_feasible_region,
    grid_optimize,
    grid_pareto_front,
)
from .core import (
    AdaptiveHybridStrategy,
    DesignConstraints,
    HybridStrategy,
    PAPER_OPERATING_POINT,
    optimize_chunk_size,
)
from .runtime import TaskExecutor, run_task
from .scenarios import (
    BurstScenario,
    ConstantRate,
    DutyCycleScenario,
    PiecewiseScenario,
    RampScenario,
    Scenario,
    available_scenarios,
    build_scenario,
    register_scenario,
)

__version__ = "1.8.0"

__all__ = [
    "AdaptiveHybridStrategy",
    "BatchCampaignExecutor",
    "BatchTaskModel",
    "BurstScenario",
    "CampaignSpec",
    "ConstantRate",
    "DesignConstraints",
    "DutyCycleScenario",
    "ExperimentSpec",
    "HybridStrategy",
    "PAPER_OPERATING_POINT",
    "ParallelExecutor",
    "ParetoFront",
    "PiecewiseScenario",
    "RampScenario",
    "ResultSet",
    "Scenario",
    "SerialExecutor",
    "Session",
    "SweepSpec",
    "TaskExecutor",
    "available_scenarios",
    "build_scenario",
    "grid_feasible_region",
    "grid_optimize",
    "grid_pareto_front",
    "optimize_chunk_size",
    "register_scenario",
    "run_task",
    "__version__",
]
