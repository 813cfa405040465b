"""Vectorized batch campaign engine.

The behavioural :class:`~repro.runtime.executor.TaskExecutor` replays every
run one event at a time in interpreted Python, so fault-injection campaigns
— the averages behind Fig. 5 and the timing overheads — grow linearly in
per-event work.  This package simulates **many seeds at once** instead:

* the task is profiled and scheduled once per campaign (the workload
  skeleton is shared; only the fault streams differ per run);
* upset counts are drawn as batched Poisson variates per
  (run, phase, attempt) from the scenario's piecewise-constant rate, via a
  vectorized cumulative rate integral (:class:`CumulativeRate`);
* each upset is classified into corrected / detected / silent outcomes
  with probabilities measured directly from the platform's ECC code and
  the fault model's bit-pattern mixture (:func:`classify_outcomes`);
* energy, cycle, checkpoint and recovery accounting mirror the
  behavioural executor's per-phase cost model exactly — a fault-free
  batched run reproduces the behavioural cycle count bit for bit.

Entry points: :class:`BatchTaskModel` (one campaign configuration) and
:class:`~repro.api.executors.BatchCampaignExecutor` (drop-in executor that
groups specs by everything-but-seed and simulates each group in one shot).
The *design-space* side — Fig. 4 feasibility and the Eq. 3–7 chunk-size
optimization — is vectorized by :mod:`repro.batch.design`
(:func:`grid_feasible_region`, :func:`grid_optimize`), which is
bit-identical to the per-point Python sweeps rather than statistically
equivalent.  :mod:`repro.batch.pareto` builds on the same grid engine to
explore the cross-technology multi-objective space (technology node x
ECC family x correction strength x chunk size x fault-rate level) and
extract exact Pareto fronts (:func:`grid_pareto_front`), again
bit-identical to its scalar reference (:func:`reference_pareto_front`).

Approximations relative to the behavioural engine (all documented in
:mod:`repro.batch.model`): the workload content is frozen at the
campaign's profile seed, interactions between multiple upsets striking
the same word are ignored, distinct-struck-word counts are sampled from
their exact marginal distribution rather than tracked per address, and
per-upset decode outcomes come from a status-level classifier that is
exact for every registered strategy code (see
:func:`classify_outcomes`).

Underneath, :mod:`repro.batch.substrate` holds the counter-based fault
sampler and the Pareto dominance sweep, and :mod:`repro.batch.streaming`
executes campaigns and grids out of core, in fixed-size blocks
(``REPRO_BATCH_BLOCK``) folded through :class:`StreamingAggregator`,
bounding memory by the block size while emitting bit-identical numbers
for every block size.
"""

from .design import (
    grid_feasible_region,
    grid_optimal_chunks_for_rates,
    grid_optimize,
    grid_optimize_characterization,
)
from .model import BatchTaskModel, CumulativeRate, OutcomeProbabilities, classify_outcomes
from .pareto import (
    DesignPoint,
    ParetoFront,
    grid_pareto_front,
    reference_pareto_front,
    uncorrectable_upset_fraction,
)
from .streaming import StreamingAggregator, batch_block_size, iter_blocks
from .substrate import Substrate

__all__ = [
    "BatchTaskModel",
    "CumulativeRate",
    "DesignPoint",
    "OutcomeProbabilities",
    "ParetoFront",
    "StreamingAggregator",
    "Substrate",
    "batch_block_size",
    "classify_outcomes",
    "grid_feasible_region",
    "grid_optimal_chunks_for_rates",
    "grid_optimize",
    "grid_optimize_characterization",
    "grid_pareto_front",
    "iter_blocks",
    "reference_pareto_front",
    "uncorrectable_upset_fraction",
]
