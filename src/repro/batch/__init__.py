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
  with probabilities enumerated exactly from the platform's ECC code and
  the fault model's bit-pattern law (:func:`classify_outcomes`, computed
  once per (code, fault model) by :func:`outcome_mixture`);
* energy, cycle, checkpoint and recovery accounting mirror the
  behavioural executor's per-phase cost model exactly — a fault-free
  batched run reproduces the behavioural cycle count bit for bit.

Entry points: :class:`BatchTaskModel` (one campaign configuration) and
:class:`~repro.api.executors.BlockSimulator` (the seed blocks of one
base spec on one model), which the warehouse planner runs for every
batched campaign and every group of ``execute`` specs declared
``engine="batched"`` that differ only in their seed.  The engine is a
field of the spec: the harnesses' ``engine=`` only writes it into the
specs they build.
The *design-space* side — Fig. 4 feasibility and the Eq. 3–7 chunk-size
optimization — is vectorized by :mod:`repro.batch.design`
(:func:`grid_feasible_region`, :func:`grid_optimize`), which is
bit-identical to the per-point Python sweeps rather than statistically
equivalent.  :mod:`repro.batch.pareto` builds on the same grid engine to
explore the cross-technology multi-objective space (technology node x
ECC family x correction strength x chunk size x fault-rate level) and
extract exact Pareto fronts (:func:`grid_pareto_front`), again
bit-identical to its scalar reference (:func:`reference_pareto_front`).
These grid solvers are the only engine of ``optimize``, ``feasibility``
and ``pareto`` specs; the scalar walkers remain as test references.

Approximations relative to the behavioural engine (all documented in
:mod:`repro.batch.model`): the workload content is frozen at seed 0's
input, interactions between multiple upsets striking the same word are
ignored, distinct-struck-word counts are sampled from their exact
marginal distribution rather than tracked per address, and per-upset
decode outcomes fall into status-level classes (see
:func:`classify_outcomes`).

Underneath, :mod:`repro.batch.substrate` holds the counter-based fault
sampler and the Pareto dominance sweep, and :mod:`repro.batch.streaming`
executes campaigns and grids out of core, in fixed-size blocks
(``REPRO_BATCH_BLOCK``), bounding the engines' working sets by the block
size while emitting bit-identical numbers for every block size.
"""

from .design import (
    grid_feasible_region,
    grid_optimal_chunks_for_rates,
    grid_optimize,
    grid_optimize_characterization,
)
from .model import (
    BatchTaskModel,
    CumulativeRate,
    OutcomeProbabilities,
    classify_outcomes,
    outcome_mixture,
)
from .pareto import (
    DesignPoint,
    ParetoFront,
    grid_pareto_front,
    reference_pareto_front,
    uncorrectable_upset_fraction,
)
from .streaming import batch_block_size, iter_blocks
from .substrate import Substrate

__all__ = [
    "BatchTaskModel",
    "CumulativeRate",
    "DesignPoint",
    "OutcomeProbabilities",
    "ParetoFront",
    "Substrate",
    "batch_block_size",
    "classify_outcomes",
    "grid_feasible_region",
    "grid_optimal_chunks_for_rates",
    "grid_optimize",
    "grid_optimize_characterization",
    "grid_pareto_front",
    "iter_blocks",
    "outcome_mixture",
    "reference_pareto_front",
    "uncorrectable_upset_fraction",
]
