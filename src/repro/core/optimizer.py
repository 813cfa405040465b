"""Chunk-size / checkpoint-count optimizer (Eq. 3–7 of the paper).

The paper solves

    min_{S_CH, N_CH}  J = C_store + C_comp
    s.t.  A(S_CH) <= OV1 * M          (area of L1')
          D(S_CH) <= OV2 * S_M        (cycle overhead)
          S_CH = K * W_size,  K, N_CH integers

with the MATLAB optimization toolbox.  The integer decision space is small
(the area constraint caps the chunk size at a few hundred words), so this
module simply enumerates every feasible integer candidate, evaluates the
cost model exactly and returns the true optimum — no external solver
needed.  The full sweep is retained in the result so experiments can plot
the objective landscape and pick documented sub-optimal points.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.base import AppCharacterization, StreamingApplication
from .config import DesignConstraints
from .cost_model import CostBreakdown, MitigationCostModel, PlatformCostParameters


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one chunk-size optimization.

    Attributes
    ----------
    application:
        Name of the optimized application.
    best:
        Cost breakdown of the optimum feasible candidate.
    candidates:
        Every evaluated candidate (feasible or not), ordered by chunk size.
    """

    application: str
    best: CostBreakdown
    candidates: tuple[CostBreakdown, ...]

    @property
    def chunk_words(self) -> int:
        """Optimum ``S_CH`` in words."""
        return self.best.chunk_words

    @property
    def num_checkpoints(self) -> int:
        """Optimum ``N_CH``."""
        return self.best.num_checkpoints

    @property
    def feasible_candidates(self) -> tuple[CostBreakdown, ...]:
        """All candidates satisfying both constraints."""
        return tuple(c for c in self.candidates if c.feasible)

    def suboptimal(self, factor: float = 4.0) -> CostBreakdown:
        """A feasible but deliberately non-optimal point (Fig. 5's "sub-optimal").

        Returns the feasible candidate whose chunk size is closest to
        ``factor`` times the optimum (preferring larger chunks, i.e. fewer
        checkpoints, which is the natural designer mistake).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        feasible = self.feasible_candidates
        target = self.best.chunk_words * factor
        away_from_best = [c for c in feasible if c.chunk_words != self.best.chunk_words]
        if not away_from_best:
            return self.best
        return min(away_from_best, key=lambda c: abs(c.chunk_words - target))


class ChunkSizeOptimizer:
    """Exhaustive integer optimizer over ``(S_CH, N_CH)``.

    Parameters
    ----------
    constraints:
        Design-time constraints (OV1, OV2, error rate...).
    platform:
        Platform cost parameters shared by every evaluation.
    max_chunk_words:
        Upper bound of the sweep; the area constraint usually cuts the
        space well below this.
    """

    def __init__(
        self,
        constraints: DesignConstraints,
        platform: PlatformCostParameters | None = None,
        max_chunk_words: int = 512,
    ) -> None:
        if max_chunk_words <= 0:
            raise ValueError("max_chunk_words must be positive")
        self.constraints = constraints
        self.platform = platform if platform is not None else PlatformCostParameters.from_defaults()
        self.max_chunk_words = max_chunk_words

    # ------------------------------------------------------------------ #
    def optimize_characterization(
        self, characterization: AppCharacterization
    ) -> OptimizationResult:
        """Optimize for an already-profiled application."""
        model = MitigationCostModel(characterization, self.constraints, self.platform)
        upper = min(self.max_chunk_words, characterization.output_words)
        candidates = [model.evaluate(chunk) for chunk in range(1, upper + 1)]
        feasible = [c for c in candidates if c.feasible]
        if not feasible:
            raise ValueError(
                f"no feasible chunk size exists for {characterization.name!r} under "
                f"OV1={self.constraints.area_overhead:.0%}, "
                f"OV2={self.constraints.cycle_overhead:.0%}"
            )
        best = min(feasible, key=lambda c: c.objective_pj)
        return OptimizationResult(
            application=characterization.name,
            best=best,
            candidates=tuple(candidates),
        )

    def optimize(
        self, app: StreamingApplication, task_input=None, seed: int = 0
    ) -> OptimizationResult:
        """Profile ``app`` (on a generated input) and optimize its chunk size.

        Profiling goes through the content-keyed task-profile cache
        (:mod:`repro.runtime.profile_cache`), so repeated optimizations of
        the same (app, params, input) — strategy sizing, Table I, the
        ablation sweeps — walk the workload once per session.
        """
        from ..runtime.executor import characterize_app, characterize_task

        if task_input is None:
            characterization = characterize_app(app, seed)
        else:
            characterization = characterize_task(app, task_input)
        return self.optimize_characterization(characterization)


def optimize_chunk_size(
    app: StreamingApplication,
    constraints: DesignConstraints | None = None,
    platform: PlatformCostParameters | None = None,
    seed: int = 0,
) -> OptimizationResult:
    """One-call optimization on the grid solver, used by examples and benchmarks.

    Returns what :meth:`ChunkSizeOptimizer.optimize` would, bit for bit;
    the scalar walker stays as the reference the grid is tested against.
    """
    # Deferred: repro.batch.design imports this module.
    from ..batch.design import grid_optimize

    return grid_optimize(app, constraints, platform, seed=seed)
