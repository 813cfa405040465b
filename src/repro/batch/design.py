"""Vectorized design-space engine: Fig. 4 feasibility and Eq. 3–7 as grid ops.

The behavioural design-space path evaluates the analytic cost model one
point at a time in pure Python — :func:`repro.core.feasibility.feasible_region`
walks the (chunk size × correctable bits) grid, and
:class:`repro.core.optimizer.ChunkSizeOptimizer` walks every candidate
chunk size, each point re-deriving an SRAM geometry, a protected-memory
estimate and the Eq. 1–2 cost terms.  This module evaluates the *whole
grid at once* with NumPy:

* :func:`grid_feasible_region` — the Fig. 4 sweep as a handful of array
  operations per correction strength;
* :func:`grid_optimize_characterization` / :func:`grid_optimize` — the
  Eq. 3–7 chunk-size optimization with every candidate evaluated in one
  vectorized pass;
* :func:`grid_optimal_chunks_for_rates` — the same optimization across a
  vector of error-rate levels in a single 2-D (rate × chunk) evaluation,
  which is what scenario-adaptive strategies need (one optimum per
  scenario rate level).

**Bit-identical by construction.**  Every array expression mirrors the
scalar model's operation order exactly (same IEEE-754 double operations,
same associativity), integer folds replicate
:func:`repro.memmodel.geometry.plan_geometry` loop for loop, and the few
transcendental calls (``log2``) are routed through :func:`math.log2` per
unique operand rather than NumPy's SIMD implementations, whose last-ulp
behaviour is not guaranteed to match libm.  The equivalence tests in
``tests/batch/test_design.py`` hold the grid engine to exact equality
with the behavioural path over the full paper grid; treat any divergence
as a bug here, not as noise.

Shared profiles: :func:`grid_optimize` characterizes the workload through
:func:`repro.runtime.executor.characterize_task`, i.e. through the
content-keyed profile cache, so the expensive step-walk happens once per
(app, params, input) across both engines and every campaign path.

Blocking: like the rest of the batch layer, the design grids run out
of core.  :func:`grid_optimal_chunks_for_rates` evaluates the rate axis
in ``REPRO_BATCH_BLOCK``-sized row blocks (the cost model is elementwise
along that axis, so blocking changes no emitted number), reporting
``repro_batch_blocks_total{kind="rategrid"}`` and its accounted
working-set high-water mark to ``repro_batch_peak_bytes``.
"""

from __future__ import annotations

import math

import numpy as np

from ..apps.base import AppCharacterization, StreamingApplication
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..core.cost_model import CostBreakdown, PlatformCostParameters
from ..core.feasibility import FeasiblePoint, FeasibleRegion
from ..core.optimizer import OptimizationResult
from ..ecc.overhead import EccOverheadModel
from ..ecc.redundancy import check_bits_for_correction
from ..memmodel import NODE_65NM, SramMacro, TechnologyNode
from ..memmodel.geometry import MAX_COLS_PER_SUBARRAY, MAX_ROWS_PER_SUBARRAY
from .streaming import iter_blocks, note_blocks, note_peak_bytes


# ---------------------------------------------------------------------- #
# Exact scalar helpers
# ---------------------------------------------------------------------- #
def _exact_log2(values: np.ndarray) -> np.ndarray:
    """``log2`` per element via :func:`math.log2` (libm-exact).

    NumPy's vectorized ``log2`` may use SIMD polynomial kernels whose
    results can differ from libm in the last ulp; the scalar model calls
    :func:`math.log2`, so the grid engine must too.  Operands here are
    small integers with few distinct values, so a unique-value table keeps
    this fast.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    table = np.array([math.log2(int(v)) for v in uniq], dtype=np.float64)
    return table[inverse].reshape(values.shape)


def _fold_geometry(
    words: np.ndarray, line_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.memmodel.geometry.plan_geometry`.

    Replays the scalar fold loop on integer arrays with masks; each
    element follows exactly the iteration sequence the scalar code would,
    so (rows, cols, column_mux) match element for element.
    """
    rows = np.asarray(words, dtype=np.int64).copy()
    cols = np.broadcast_to(np.asarray(line_bits, dtype=np.int64), rows.shape).copy()
    mux = np.ones_like(rows)
    done = np.zeros(rows.shape, dtype=bool)
    while True:
        fold = (
            ~done
            & (
                (rows > MAX_ROWS_PER_SUBARRAY)
                | ((rows > cols) & (cols * 2 <= MAX_COLS_PER_SUBARRAY))
            )
            & (rows > 1)
        )
        if not fold.any():
            break
        rows[fold] = (rows[fold] + 1) // 2
        cols[fold] *= 2
        mux[fold] *= 2
        done |= fold & (cols >= MAX_COLS_PER_SUBARRAY) & (rows <= MAX_ROWS_PER_SUBARRAY)
    while True:
        split = rows > MAX_ROWS_PER_SUBARRAY
        if not split.any():
            break
        rows[split] = (rows[split] + 1) // 2
    line = np.broadcast_to(np.asarray(line_bits, dtype=np.int64), rows.shape)
    return np.maximum(rows, 1), np.maximum(cols, line), np.maximum(mux, 1)


def _sram_arrays(
    capacity_words: np.ndarray,
    line_bits: np.ndarray | int,
    technology: TechnologyNode,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Area / read / write energy arrays of :class:`SramMacro` estimates.

    ``capacity_words[i]`` words of ``line_bits`` physical bits each;
    mirrors ``SramMacro.estimate()`` for the quantities the design engine
    needs (leakage and access time are not part of the cost model).
    """
    tech = technology
    capacity_words = np.asarray(capacity_words, dtype=np.int64)
    line = np.broadcast_to(np.asarray(line_bits, dtype=np.int64), capacity_words.shape)
    total_bits = capacity_words * line
    rows, cols, mux = _fold_geometry(capacity_words, line)

    # _area_mm2
    cell_area_um2 = total_bits.astype(np.float64) * tech.sram_cell_area_um2
    array_area_um2 = cell_area_um2 / tech.array_efficiency
    edge_um = np.sqrt(array_area_um2)
    periphery_um2 = 180.0 * (tech.feature_nm / 65.0) ** 2 + 14.0 * edge_um
    area_mm2 = (array_area_um2 + periphery_um2) * 1e-6

    # _read_energy_pj
    bitline_fj = (
        tech.bitline_energy_fj_per_bit
        * line.astype(np.float64)
        * np.sqrt(mux.astype(np.float64))
        * (rows.astype(np.float64) / 64.0)
    )
    wordline_fj = tech.wordline_energy_fj * (cols.astype(np.float64) / 32.0)
    decode_fj = tech.decode_energy_fj * (
        1.0 + _exact_log2(np.maximum(2, capacity_words)) / 10.0
    )
    total_fj = bitline_fj + wordline_fj + decode_fj
    read_pj = total_fj * 1e-3
    write_pj = read_pj * 1.08
    return area_mm2, read_pj, write_pj


# ---------------------------------------------------------------------- #
# Fig. 4 — feasibility over the full grid
# ---------------------------------------------------------------------- #
def grid_feasible_region(
    constraints: DesignConstraints | None = None,
    l1_bytes: int = 64 * 1024,
    word_bits: int = 32,
    chunk_sizes: range | list[int] | None = None,
    correctable_bits: range | list[int] | None = None,
    scheme: str = "bch",
    technology: TechnologyNode = NODE_65NM,
) -> FeasibleRegion:
    """Vectorized :func:`repro.core.feasibility.feasible_region`.

    Same signature, same :class:`FeasibleRegion` result — every
    :class:`FeasiblePoint` bit-identical to the per-point Python sweep —
    but the (chunk × t) grid is evaluated as one array expression per
    correction strength.
    """
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if chunk_sizes is None:
        chunk_sizes = range(1, 513)
    if correctable_bits is None:
        correctable_bits = range(1, 19)

    l1 = SramMacro(l1_bytes, word_bits=word_bits, technology=technology).estimate()
    model = EccOverheadModel(technology)
    chunks = np.asarray(list(chunk_sizes), dtype=np.int64)
    strengths = [int(t) for t in correctable_bits]

    # One flattened (t × chunk) evaluation: the per-t quantities (check
    # bits, logic area) are cheap scalars, the SRAM model runs once over
    # the whole grid.
    t_grid = np.repeat(np.asarray(strengths, dtype=np.int64), chunks.size)
    chunk_grid = np.tile(chunks, len(strengths))
    check_bits = {t: check_bits_for_correction(word_bits, t, scheme) for t in strengths}
    logic_area = {t: model.logic_estimate(word_bits, t, scheme).area_mm2 for t in strengths}
    line_grid = word_bits + np.asarray(
        [check_bits[t] for t in strengths], dtype=np.int64
    ).repeat(chunks.size)
    sram_area, _, _ = _sram_arrays(chunk_grid, line_grid, technology)
    area = sram_area + np.asarray([logic_area[t] for t in strengths]).repeat(chunks.size)
    fraction = area / l1.area_mm2
    feasible = fraction <= constraints.area_overhead

    # Materialize via __dict__ to skip the frozen-dataclass per-field
    # object.__setattr__ cost — ~9k points dominate the grid runtime.
    points: list[FeasiblePoint] = []
    append = points.append
    new = object.__new__
    for chunk, t, point_area, point_fraction, point_feasible in zip(
        chunk_grid.tolist(),
        t_grid.tolist(),
        area.tolist(),
        fraction.tolist(),
        feasible.tolist(),
    ):
        point = new(FeasiblePoint)
        point.__dict__.update(
            chunk_words=chunk,
            correctable_bits=t,
            buffer_area_mm2=point_area,
            area_fraction=point_fraction,
            feasible=point_feasible,
        )
        append(point)
    return FeasibleRegion(
        l1_area_mm2=l1.area_mm2,
        area_budget=constraints.area_overhead,
        points=tuple(points),
    )


# ---------------------------------------------------------------------- #
# Eq. 3–7 — chunk-size optimization over the candidate grid
# ---------------------------------------------------------------------- #
class _GridCostModel:
    """All Eq. 1–5 cost terms for every candidate chunk size, as arrays.

    ``rates`` adds an optional leading axis: evaluating ``R`` error-rate
    levels against ``C`` candidate chunks yields ``(R, C)`` arrays, with
    the rate-independent platform quantities computed once.
    """

    def __init__(
        self,
        app: AppCharacterization,
        constraints: DesignConstraints,
        platform: PlatformCostParameters,
        chunks: np.ndarray,
        rates: np.ndarray | None = None,
    ) -> None:
        if app.output_words <= 0:
            raise ValueError("the application must produce at least one output word")
        self.app = app
        self.constraints = constraints
        self.platform = platform
        self.chunks = chunks

        word_bits = 8 * constraints.word_bytes
        scheme = platform.l1p_scheme
        check_bits = check_bits_for_correction(word_bits, constraints.correctable_bits, scheme)
        logic = EccOverheadModel(platform.technology).logic_estimate(
            word_bits, constraints.correctable_bits, scheme
        )

        # Baseline (scalar) figures — same expressions as MitigationCostModel.
        total_accesses = app.l1_reads + app.l1_writes + 2 * app.output_words
        self.baseline_cycles = app.compute_cycles + total_accesses * platform.l1_access_cycles
        core = app.compute_cycles * platform.core_pj_per_cycle
        reads = (app.l1_reads + app.output_words) * platform.l1_read_pj
        writes = (app.l1_writes + app.output_words) * platform.l1_write_pj
        self.baseline_energy_pj = core + reads + writes
        energy_per_word = self.baseline_energy_pj / app.output_words
        cycles_per_word = self.baseline_cycles / app.output_words

        # Protected-buffer characterization per candidate.
        self.capacity_words = chunks + platform.status_register_words + app.state_words
        sram_area, sram_read, sram_write = _sram_arrays(
            self.capacity_words, word_bits + check_bits, platform.technology
        )
        self.buffer_area = sram_area + logic.area_mm2
        buffer_read = sram_read + logic.decode_energy_pj
        buffer_write = sram_write + logic.encode_energy_pj

        # N_CH and the expected-faulty-chunks exposure (Eq. 1–2).
        self.num_checkpoints = (app.output_words + chunks - 1) // chunks
        phase_cycles = self.baseline_cycles / np.maximum(1, self.num_checkpoints)
        live_cycles = np.minimum(phase_cycles, float(constraints.drain_latency_cycles))
        exposure = app.output_words * live_cycles
        exposure = exposure + app.state_words * phase_cycles * 0.5
        if rates is None:
            self.err = constraints.error_rate * exposure
        else:
            self.err = rates[:, None] * exposure[None, :]
            self.num_checkpoints = np.broadcast_to(
                self.num_checkpoints[None, :], self.err.shape
            )
            self.chunks = np.broadcast_to(chunks[None, :], self.err.shape)
            self.capacity_words = np.broadcast_to(
                self.capacity_words[None, :], self.err.shape
            )
            self.buffer_area = np.broadcast_to(self.buffer_area[None, :], self.err.shape)
            buffer_read = np.broadcast_to(buffer_read[None, :], self.err.shape)
            buffer_write = np.broadcast_to(buffer_write[None, :], self.err.shape)

        # E_CH, E_ISR, E(F(S_CH)) per candidate.
        checkpoint_core = platform.context_save_cycles * platform.core_pj_per_cycle
        status_copy = platform.status_register_words * (
            0.2 * platform.l1_read_pj + buffer_write
        )
        state_copy = app.state_words * (platform.l1_read_pj + buffer_write)
        checkpoint_energy = checkpoint_core + status_copy + state_copy

        isr_state_words = platform.status_register_words + app.state_words
        isr_cycles = (
            platform.isr_overhead_cycles
            + platform.pipeline_flush_cycles
            + platform.context_restore_cycles
        )
        isr_energy = isr_cycles * platform.core_pj_per_cycle + isr_state_words * buffer_read
        recompute_energy = energy_per_word * self.chunks

        # C_store (Eq. 1) and C_comp (Eq. 2).
        buffered_words = self.num_checkpoints * self.chunks + self.err * self.chunks
        self.storage_cost = buffered_words * buffer_write
        checkpoints_energy = self.num_checkpoints * checkpoint_energy
        recovery_energy = self.err * (isr_energy + recompute_energy)
        self.compute_cost = checkpoints_energy + recovery_energy

        # D(S_CH) (Eq. 5) and the constraint tests.
        copy_words = self.chunks + isr_state_words
        checkpoint_cycles = platform.context_save_cycles + (
            platform.bus_setup_cycles
            + copy_words * (platform.l1_access_cycles + 1 + platform.bus_word_cycles)
        )
        recovery_cycles = (isr_cycles + isr_state_words) + cycles_per_word * self.chunks
        self.overhead_cycles = (
            self.num_checkpoints * checkpoint_cycles + self.err * recovery_cycles
        )
        self.area_fraction = self.buffer_area / platform.l1_area_mm2
        self.area_feasible = self.area_fraction <= constraints.area_overhead
        cycle_budget = constraints.cycle_overhead * self.baseline_cycles
        self.cycle_feasible = self.overhead_cycles <= cycle_budget
        self.feasible = self.area_feasible & self.cycle_feasible
        self.objective = self.storage_cost + self.compute_cost


def _model_nbytes(model: _GridCostModel) -> int:
    """Accounted bytes of one grid evaluation's materialized arrays."""
    total = 0
    for name in (
        "err",
        "storage_cost",
        "compute_cost",
        "overhead_cycles",
        "objective",
        "area_fraction",
        "area_feasible",
        "cycle_feasible",
        "feasible",
    ):
        total += int(getattr(model, name).nbytes)
    return total


def _grid_candidates(model: _GridCostModel) -> list[CostBreakdown]:
    """Materialize the grid evaluation as behavioural-shaped breakdowns.

    Instances are built through ``__dict__`` to skip the frozen-dataclass
    per-field ``object.__setattr__`` cost; they compare equal to (and are
    indistinguishable from) behaviourally constructed breakdowns.
    """
    baseline_cycles = model.baseline_cycles
    baseline_energy = model.baseline_energy_pj
    candidates: list[CostBreakdown] = []
    append = candidates.append
    for row in zip(
        model.chunks.tolist(),
        model.num_checkpoints.tolist(),
        model.storage_cost.tolist(),
        model.compute_cost.tolist(),
        model.err.tolist(),
        model.overhead_cycles.tolist(),
        model.buffer_area.tolist(),
        model.capacity_words.tolist(),
        model.area_fraction.tolist(),
        model.area_feasible.tolist(),
        model.cycle_feasible.tolist(),
    ):
        candidate = object.__new__(CostBreakdown)
        candidate.__dict__.update(
            chunk_words=row[0],
            num_checkpoints=row[1],
            storage_cost_pj=row[2],
            compute_cost_pj=row[3],
            expected_faulty_chunks=row[4],
            overhead_cycles=row[5],
            baseline_cycles=baseline_cycles,
            baseline_energy_pj=baseline_energy,
            buffer_area_mm2=row[6],
            buffer_capacity_words=row[7],
            area_fraction=row[8],
            area_feasible=row[9],
            cycle_feasible=row[10],
        )
        append(candidate)
    return candidates


def _no_feasible_chunk(name: str, constraints: DesignConstraints) -> ValueError:
    return ValueError(
        f"no feasible chunk size exists for {name!r} under "
        f"OV1={constraints.area_overhead:.0%}, "
        f"OV2={constraints.cycle_overhead:.0%}"
    )


def grid_optimize_characterization(
    characterization: AppCharacterization,
    constraints: DesignConstraints,
    platform: PlatformCostParameters | None = None,
    max_chunk_words: int = 512,
) -> OptimizationResult:
    """Vectorized :meth:`ChunkSizeOptimizer.optimize_characterization`.

    Evaluates every integer candidate in one array pass and returns the
    same :class:`OptimizationResult` — every candidate
    :class:`~repro.core.cost_model.CostBreakdown` bit-identical to the
    behavioural sweep, and the argmin selected with the same first-of-ties
    rule.
    """
    if max_chunk_words <= 0:
        raise ValueError("max_chunk_words must be positive")
    platform = platform if platform is not None else PlatformCostParameters.from_defaults()
    upper = min(max_chunk_words, characterization.output_words)
    chunks = np.arange(1, upper + 1, dtype=np.int64)
    model = _GridCostModel(characterization, constraints, platform, chunks)
    candidates = _grid_candidates(model)
    feasible_idx = np.flatnonzero(model.feasible)
    if feasible_idx.size == 0:
        raise _no_feasible_chunk(characterization.name, constraints)
    best_idx = int(feasible_idx[np.argmin(model.objective[feasible_idx])])
    return OptimizationResult(
        application=characterization.name,
        best=candidates[best_idx],
        candidates=tuple(candidates),
    )


def grid_optimize(
    app: StreamingApplication,
    constraints: DesignConstraints | None = None,
    platform: PlatformCostParameters | None = None,
    seed: int = 0,
    max_chunk_words: int = 512,
    task_input=None,
) -> OptimizationResult:
    """Profile ``app`` (through the shared profile cache) and grid-optimize."""
    from ..runtime.executor import characterize_app, characterize_task

    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if task_input is None:
        characterization = characterize_app(app, seed)
    else:
        characterization = characterize_task(app, task_input)
    return grid_optimize_characterization(
        characterization, constraints, platform=platform, max_chunk_words=max_chunk_words
    )


def grid_optimal_chunks_for_rates(
    characterization: AppCharacterization,
    constraints: DesignConstraints,
    rates: list[float] | np.ndarray,
    platform: PlatformCostParameters | None = None,
    max_chunk_words: int = 512,
    infeasible_chunk: int | None = None,
    block: int | None = None,
) -> list[int]:
    """Optimum chunk size per error-rate level, one 2-D grid evaluation.

    The platform / buffer terms are rate-independent, so the (rate ×
    chunk) objective is an outer product over one candidate evaluation —
    the workhorse behind scenario-adaptive strategies, which need one
    optimum per scenario rate level.  Each row's argmin equals what
    :class:`ChunkSizeOptimizer` returns at that rate.  ``infeasible_chunk``
    substitutes for rate levels with no feasible candidate (default:
    raise, matching the scalar optimizer).

    The rate axis is evaluated in ``block``-row blocks (``None`` resolves
    ``REPRO_BATCH_BLOCK``) so arbitrarily long rate grids run in bounded
    memory; each row's outputs are independent of the partition.
    """
    if max_chunk_words <= 0:
        raise ValueError("max_chunk_words must be positive")
    platform = platform if platform is not None else PlatformCostParameters.from_defaults()
    upper = min(max_chunk_words, characterization.output_words)
    chunks = np.arange(1, upper + 1, dtype=np.int64)
    rate_array = np.asarray(list(rates), dtype=np.float64)
    best: list[int] = []
    for piece in iter_blocks(rate_array.size, block):
        model = _GridCostModel(
            characterization, constraints, platform, chunks, rates=rate_array[piece]
        )
        note_blocks("rategrid")
        note_peak_bytes("rategrid", _model_nbytes(model))
        objective = np.where(model.feasible, model.objective, np.inf)
        for row in range(piece.stop - piece.start):
            if not model.feasible[row].any():
                if infeasible_chunk is None:
                    raise _no_feasible_chunk(characterization.name, constraints)
                best.append(int(infeasible_chunk))
                continue
            best.append(int(chunks[int(np.argmin(objective[row]))]))
    return best
