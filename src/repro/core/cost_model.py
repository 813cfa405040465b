"""Analytical cost model of the mitigation scheme (Eq. 1–2 of the paper).

The optimizer does not execute the behavioural simulator; like the paper
(which feeds closed-form costs to the MATLAB optimization toolbox) it
evaluates an analytical model of the storage cost ``C_store`` and
computation cost ``C_comp`` of a candidate ``(S_CH, N_CH)`` pair,
parameterized by

* the application characterization (output words, compute cycles, L1
  traffic, state size) obtained from one fault-free profiling run, and
* the platform cost parameters (SRAM access energies from the memory
  model, core energy per cycle, checkpoint / ISR cycle counts).

The same parameters drive the behavioural executor, so the analytical
optimum and the measured overheads are consistent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..apps.base import AppCharacterization
from ..ecc.overhead import EccOverheadModel, ProtectedMemoryEstimate
from ..memmodel import NODE_65NM, SramMacro, TechnologyNode
from ..soc.interrupt import DEFAULT_ENTRY_CYCLES, DEFAULT_EXIT_CYCLES
from ..soc.processor import ProcessorSpec
from .config import DesignConstraints


@dataclass(frozen=True)
class PlatformCostParameters:
    """Energy / cycle constants of the target platform used by the cost model.

    Attributes
    ----------
    l1_read_pj / l1_write_pj:
        Per-word access energies of the vulnerable L1 scratchpad.
    l1_access_cycles:
        Processor stall cycles per L1 access.
    l1_area_mm2:
        Area of the vulnerable L1 (the ``M`` of Eq. 4).
    core_pj_per_cycle:
        Dynamic core energy per cycle.
    context_save_cycles / context_restore_cycles:
        Cycles to save / restore the architectural status registers.
    pipeline_flush_cycles:
        Cycles lost to the pipeline flush on error detection.
    isr_overhead_cycles:
        Interrupt entry + exit cycles.
    bus_setup_cycles / bus_word_cycles:
        Block-transfer cost model of the L1 -> L1' copy path.
    status_register_words:
        Architectural status registers stored at each checkpoint, on top
        of the application-specific codec state.
    technology:
        Process node used to size candidate L1' buffers.
    l1p_scheme:
        Redundancy scheme used to size the protected buffer's ECC.
    """

    l1_read_pj: float
    l1_write_pj: float
    l1_access_cycles: int
    l1_area_mm2: float
    core_pj_per_cycle: float
    context_save_cycles: int
    context_restore_cycles: int
    pipeline_flush_cycles: int
    isr_overhead_cycles: int
    bus_setup_cycles: int
    bus_word_cycles: int
    status_register_words: int
    technology: TechnologyNode = NODE_65NM
    l1p_scheme: str = "interleaved-secded"

    @classmethod
    @lru_cache(maxsize=64)
    def from_defaults(
        cls,
        l1_bytes: int = 64 * 1024,
        processor: ProcessorSpec | None = None,
        technology: TechnologyNode = NODE_65NM,
    ) -> "PlatformCostParameters":
        """Derive the parameters from the memory model and processor spec.

        Memoized: the derivation re-estimates the 64 KB L1 macro, and
        every optimizer / design-engine invocation starts here.  All
        inputs and the result are frozen, so sharing instances is safe.
        """
        spec = processor if processor is not None else ProcessorSpec()
        l1 = SramMacro(l1_bytes, word_bits=32, technology=technology).estimate()
        period_ns = 1e9 / spec.frequency_hz
        access_cycles = max(1, math.ceil(l1.access_time_ns / period_ns))
        return cls(
            l1_read_pj=l1.read_energy_pj,
            l1_write_pj=l1.write_energy_pj,
            l1_access_cycles=access_cycles,
            l1_area_mm2=l1.area_mm2,
            core_pj_per_cycle=spec.dynamic_energy_per_cycle_pj,
            context_save_cycles=spec.context_save_cycles,
            context_restore_cycles=spec.context_restore_cycles,
            pipeline_flush_cycles=spec.pipeline_flush_cycles,
            isr_overhead_cycles=DEFAULT_ENTRY_CYCLES + DEFAULT_EXIT_CYCLES,
            bus_setup_cycles=4,
            bus_word_cycles=1,
            status_register_words=spec.status_register_words,
            technology=technology,
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Full evaluation of one ``(S_CH, N_CH)`` candidate.

    Energies in picojoules, per task execution.
    """

    chunk_words: int
    num_checkpoints: int
    storage_cost_pj: float
    compute_cost_pj: float
    expected_faulty_chunks: float
    overhead_cycles: float
    baseline_cycles: float
    baseline_energy_pj: float
    buffer_area_mm2: float
    buffer_capacity_words: int
    area_fraction: float
    area_feasible: bool
    cycle_feasible: bool

    @property
    def objective_pj(self) -> float:
        """The objective ``J = C_store + C_comp`` of Eq. 3."""
        return self.storage_cost_pj + self.compute_cost_pj

    @property
    def feasible(self) -> bool:
        """True when both the area (Eq. 4) and cycle (Eq. 5) constraints hold."""
        return self.area_feasible and self.cycle_feasible

    @property
    def energy_overhead_fraction(self) -> float:
        """Predicted energy overhead relative to the unmitigated baseline."""
        if self.baseline_energy_pj <= 0:
            return 0.0
        return self.objective_pj / self.baseline_energy_pj

    @property
    def cycle_overhead_fraction(self) -> float:
        """Predicted cycle overhead relative to the unmitigated baseline."""
        if self.baseline_cycles <= 0:
            return 0.0
        return self.overhead_cycles / self.baseline_cycles


class MitigationCostModel:
    """Evaluates Eq. 1–2 for an application on the target platform.

    Parameters
    ----------
    characterization:
        Fault-free profile of the application task.
    constraints:
        Design-time constraints (OV1, OV2, error rate, word size, the
        correction strength of L1').
    platform:
        Platform cost parameters; defaults to the paper's 64 KB / 200 MHz
        ARM9 platform at 65 nm.
    """

    def __init__(
        self,
        characterization: AppCharacterization,
        constraints: DesignConstraints,
        platform: PlatformCostParameters | None = None,
    ) -> None:
        if characterization.output_words <= 0:
            raise ValueError("the application must produce at least one output word")
        self.app = characterization
        self.constraints = constraints
        self.platform = platform if platform is not None else PlatformCostParameters.from_defaults()
        self._ecc_model = EccOverheadModel(self.platform.technology)
        # Evaluating one candidate asks for its buffer estimate four times.
        # The memo lives on the instance, so it dies with the model.
        self._buffer_estimates: dict[int, ProtectedMemoryEstimate] = {}

    # ------------------------------------------------------------------ #
    # Baseline (no mitigation) figures
    # ------------------------------------------------------------------ #
    @property
    def total_l1_accesses(self) -> int:
        """L1 accesses of the fault-free task: step traffic plus output writes
        plus the drain read of every produced word."""
        return self.app.l1_reads + self.app.l1_writes + 2 * self.app.output_words

    def baseline_cycles(self) -> float:
        """Fault-free execution cycles: compute plus L1 stall cycles."""
        return self.app.compute_cycles + self.total_l1_accesses * self.platform.l1_access_cycles

    def baseline_energy_pj(self) -> float:
        """Fault-free dynamic energy: core plus L1 traffic."""
        core = self.app.compute_cycles * self.platform.core_pj_per_cycle
        reads = (self.app.l1_reads + self.app.output_words) * self.platform.l1_read_pj
        writes = (self.app.l1_writes + self.app.output_words) * self.platform.l1_write_pj
        return core + reads + writes

    def energy_per_recomputed_word_pj(self) -> float:
        """Average dynamic energy to regenerate one output word, ``E(F(S))/S``."""
        return self.baseline_energy_pj() / self.app.output_words

    def cycles_per_recomputed_word(self) -> float:
        """Average cycles to regenerate one output word."""
        return self.baseline_cycles() / self.app.output_words

    # ------------------------------------------------------------------ #
    # Protected-buffer characterization
    # ------------------------------------------------------------------ #
    def buffer_capacity_words(self, chunk_words: int) -> int:
        """L1' capacity needed for a chunk: data plus status registers and state."""
        return chunk_words + self.platform.status_register_words + self.app.state_words

    def buffer_estimate(self, chunk_words: int) -> ProtectedMemoryEstimate:
        """Area/energy characterization of the L1' sized for ``chunk_words``."""
        capacity_words = self.buffer_capacity_words(chunk_words)
        estimate = self._buffer_estimates.get(capacity_words)
        if estimate is None:
            estimate = self._ecc_model.protected_memory(
                capacity_words * self.constraints.word_bytes,
                word_bits=8 * self.constraints.word_bytes,
                t=self.constraints.correctable_bits,
                scheme=self.platform.l1p_scheme,
            )
            self._buffer_estimates[capacity_words] = estimate
        return estimate

    # ------------------------------------------------------------------ #
    # Eq. 1–2 components
    # ------------------------------------------------------------------ #
    def num_checkpoints_for(self, chunk_words: int) -> int:
        """``N_CH`` implied by full coverage of the task's output data."""
        if chunk_words <= 0:
            raise ValueError("chunk_words must be positive")
        return math.ceil(self.app.output_words / chunk_words)

    def expected_faulty_chunks(self, chunk_words: int, num_checkpoints: int) -> float:
        """``err``: expected number of faulty chunks per task (Eq. 1–2).

        A produced word stays exposed in the vulnerable L1 from its write
        until the streaming interface drains it, bounded by the checkpoint
        period; the expected upset count follows from the error rate times
        that word-cycle exposure.
        """
        phase_cycles = self.baseline_cycles() / max(1, num_checkpoints)
        live_cycles_per_word = min(phase_cycles, self.constraints.drain_latency_cycles)
        exposure_word_cycles = self.app.output_words * live_cycles_per_word
        # The saved codec state is also exposed between checkpoints.
        exposure_word_cycles += self.app.state_words * phase_cycles * 0.5
        return self.constraints.error_rate * exposure_word_cycles

    def checkpoint_energy_pj(self, chunk_words: int) -> float:
        """``E_CH``: energy of triggering one checkpoint (state save, no chunk data).

        The architectural status registers are sourced from the register
        file (cheap reads); the application's codec state lives in the
        scratchpad and is read at full L1 cost before being written into
        the protected buffer.
        """
        buffer = self.buffer_estimate(chunk_words)
        core = self.platform.context_save_cycles * self.platform.core_pj_per_cycle
        status_copy = self.platform.status_register_words * (
            0.2 * self.platform.l1_read_pj + buffer.write_energy_pj
        )
        state_copy = self.app.state_words * (
            self.platform.l1_read_pj + buffer.write_energy_pj
        )
        return core + status_copy + state_copy

    def isr_energy_pj(self, chunk_words: int) -> float:
        """``E_ISR``: energy of one Read Error Interrupt service routine."""
        buffer = self.buffer_estimate(chunk_words)
        state_words = self.platform.status_register_words + self.app.state_words
        cycles = (
            self.platform.isr_overhead_cycles
            + self.platform.pipeline_flush_cycles
            + self.platform.context_restore_cycles
        )
        core = cycles * self.platform.core_pj_per_cycle
        restore = state_words * buffer.read_energy_pj
        return core + restore

    def chunk_recompute_energy_pj(self, chunk_words: int) -> float:
        """``E(F(S_CH))``: energy to regenerate one data chunk."""
        return self.energy_per_recomputed_word_pj() * chunk_words

    def storage_cost_pj(self, chunk_words: int, num_checkpoints: int) -> float:
        """``C_store`` of Eq. 1.

        ``(N_CH * S_CH + err * S_CH) * E(S_CH)`` — every chunk is buffered
        into L1' once, and every faulty chunk is buffered a second time
        after its regeneration.  ``E(S_CH)`` is the per-word write energy
        of the buffer sized for ``S_CH``.
        """
        buffer = self.buffer_estimate(chunk_words)
        err = self.expected_faulty_chunks(chunk_words, num_checkpoints)
        buffered_words = num_checkpoints * chunk_words + err * chunk_words
        return buffered_words * buffer.write_energy_pj

    def compute_cost_pj(self, chunk_words: int, num_checkpoints: int) -> float:
        """``C_comp`` of Eq. 2: checkpoint triggers plus error recoveries."""
        err = self.expected_faulty_chunks(chunk_words, num_checkpoints)
        checkpoints = num_checkpoints * self.checkpoint_energy_pj(chunk_words)
        recovery = err * (
            self.isr_energy_pj(chunk_words) + self.chunk_recompute_energy_pj(chunk_words)
        )
        return checkpoints + recovery

    # ------------------------------------------------------------------ #
    # Cycle overhead and area (constraints of Eq. 4–5)
    # ------------------------------------------------------------------ #
    def checkpoint_cycles(self, chunk_words: int) -> float:
        """Cycles of one checkpoint commit: context save plus chunk copy to L1'."""
        state_words = self.platform.status_register_words + self.app.state_words
        words = chunk_words + state_words
        copy = (
            self.platform.bus_setup_cycles
            + words * (self.platform.l1_access_cycles + 1 + self.platform.bus_word_cycles)
        )
        return self.platform.context_save_cycles + copy

    def recovery_cycles(self, chunk_words: int) -> float:
        """Cycles of one rollback: ISR, state restore and chunk regeneration."""
        isr = (
            self.platform.isr_overhead_cycles
            + self.platform.pipeline_flush_cycles
            + self.platform.context_restore_cycles
            + (self.platform.status_register_words + self.app.state_words)
        )
        recompute = self.cycles_per_recomputed_word() * chunk_words
        return isr + recompute

    def overhead_cycles(self, chunk_words: int, num_checkpoints: int) -> float:
        """``D(S_CH)``: total mitigation cycle overhead per task."""
        err = self.expected_faulty_chunks(chunk_words, num_checkpoints)
        return (
            num_checkpoints * self.checkpoint_cycles(chunk_words)
            + err * self.recovery_cycles(chunk_words)
        )

    # ------------------------------------------------------------------ #
    # Full evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, chunk_words: int, num_checkpoints: int | None = None) -> CostBreakdown:
        """Evaluate one candidate; ``num_checkpoints`` defaults to full coverage."""
        if chunk_words <= 0:
            raise ValueError("chunk_words must be positive")
        if num_checkpoints is None:
            num_checkpoints = self.num_checkpoints_for(chunk_words)
        if num_checkpoints <= 0:
            raise ValueError("num_checkpoints must be positive")

        buffer = self.buffer_estimate(chunk_words)
        baseline_cycles = self.baseline_cycles()
        overhead = self.overhead_cycles(chunk_words, num_checkpoints)
        area_fraction = buffer.area_mm2 / self.platform.l1_area_mm2
        return CostBreakdown(
            chunk_words=chunk_words,
            num_checkpoints=num_checkpoints,
            storage_cost_pj=self.storage_cost_pj(chunk_words, num_checkpoints),
            compute_cost_pj=self.compute_cost_pj(chunk_words, num_checkpoints),
            expected_faulty_chunks=self.expected_faulty_chunks(chunk_words, num_checkpoints),
            overhead_cycles=overhead,
            baseline_cycles=baseline_cycles,
            baseline_energy_pj=self.baseline_energy_pj(),
            buffer_area_mm2=buffer.area_mm2,
            buffer_capacity_words=self.buffer_capacity_words(chunk_words),
            area_fraction=area_fraction,
            area_feasible=area_fraction <= self.constraints.area_overhead,
            cycle_feasible=overhead <= self.constraints.cycle_overhead * baseline_cycles,
        )
