"""Streaming-application abstraction consumed by the runtime and optimizer.

The paper evaluates MediaBench streaming codecs (ADPCM, G.721, JPEG).  The
mitigation scheme interacts with an application only through its streaming
structure, so every workload implements :class:`StreamingApplication`:

* the workload is a sequence of **steps** (a handful of samples or one
  pixel block each);
* every step consumes the input, the explicit **codec state**, and
  produces a few 32-bit **output words** plus an estimate of the processor
  cycles and additional L1 data accesses it costs on the ARM9-class core;
* steps are **pure functions of (input, step index, state)**.  A fault
  never reaches codec state, so a step re-executed after a rollback or
  restart is the step the fault-free profile recorded, and the runtime
  replays it from that profile instead of executing it again.

The per-step cycle estimates are derived from operation counts of the
inner loops (documented per application) rather than from instruction-set
simulation; the paper's comparisons are relative, so this behavioural
fidelity suffices.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class StepResult:
    """Outcome of executing one streaming step.

    Attributes
    ----------
    output_words:
        32-bit words produced by the step, in stream order.  The executor
        writes them to the vulnerable L1 where they remain exposed until
        the next checkpoint drains them.
    state:
        Codec state *after* the step; passed to the next step and captured
        at checkpoints (the paper's "status registers / flow-control
        registers" that must survive a rollback).
    cycles:
        Estimated processor cycles of the step on the ARM9-class core,
        excluding L1 access stalls (charged separately by the executor).
    l1_reads:
        Additional L1 data reads performed by the step (temporaries,
        look-up tables, previously produced data), excluding the reads the
        executor itself performs when draining chunks.
    l1_writes:
        Additional L1 data writes, excluding the output-word writes the
        executor performs.
    """

    output_words: tuple[int, ...]
    state: Any
    cycles: int
    l1_reads: int = 0
    l1_writes: int = 0


@dataclass(frozen=True)
class AppCharacterization:
    """Static per-task characterization used by the cost model / optimizer.

    All quantities describe one task execution (one frame / one image)
    under fault-free conditions.

    Attributes
    ----------
    name:
        Application name.
    steps:
        Number of streaming steps per task.
    output_words:
        Total 32-bit words produced (the data that must be chunked).
    compute_cycles:
        Processor cycles spent in the steps themselves.
    l1_reads / l1_writes:
        L1 data accesses issued by the steps (excluding executor traffic).
    state_words:
        Size of the codec state in 32-bit words; saved to L1' at every
        checkpoint together with the data chunk.
    words_per_step:
        Average output words per step.
    """

    name: str
    steps: int
    output_words: int
    compute_cycles: int
    l1_reads: int
    l1_writes: int
    state_words: int

    @property
    def words_per_step(self) -> float:
        """Average output words produced per step."""
        if self.steps == 0:
            return 0.0
        return self.output_words / self.steps

    @property
    def cycles_per_word(self) -> float:
        """Average compute cycles per produced output word."""
        if self.output_words == 0:
            return 0.0
        return self.compute_cycles / self.output_words


class StreamingApplication(abc.ABC):
    """Deterministic streaming workload with explicit, checkpointable state."""

    #: Short machine-readable name, e.g. ``"adpcm-encode"``.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Workload definition
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def generate_input(self, seed: int = 0) -> Any:
        """Produce one task's worth of input data (one frame / image)."""

    @abc.abstractmethod
    def num_steps(self, task_input: Any) -> int:
        """Number of streaming steps needed to process ``task_input``."""

    @abc.abstractmethod
    def initial_state(self, task_input: Any) -> Any:
        """Codec state before the first step."""

    @abc.abstractmethod
    def run_step(self, task_input: Any, step_index: int, state: Any) -> StepResult:
        """Execute step ``step_index`` from ``state`` and return its result.

        Must be a pure function of its arguments: the runtime profiles the
        task once, fault free, and replays every step of every run,
        rollbacks and restarts included, from that profile.
        """

    @abc.abstractmethod
    def state_words(self) -> int:
        """Number of 32-bit words needed to hold the codec state."""

    # ------------------------------------------------------------------ #
    # Derived helpers
    # ------------------------------------------------------------------ #
    def golden_output(self, task_input: Any) -> list[int]:
        """Fault-free reference output: all steps executed in order."""
        state = self.initial_state(task_input)
        output: list[int] = []
        for index in range(self.num_steps(task_input)):
            result = self.run_step(task_input, index, state)
            output.extend(result.output_words)
            state = result.state
        return output

    def characterize(self, task_input: Any) -> AppCharacterization:
        """Run the task once (fault free) and collect its static profile."""
        state = self.initial_state(task_input)
        steps = self.num_steps(task_input)
        output_words = 0
        cycles = 0
        reads = 0
        writes = 0
        for index in range(steps):
            result = self.run_step(task_input, index, state)
            output_words += len(result.output_words)
            cycles += result.cycles
            reads += result.l1_reads
            writes += result.l1_writes
            state = result.state
        return AppCharacterization(
            name=self.name,
            steps=steps,
            output_words=output_words,
            compute_cycles=cycles,
            l1_reads=reads,
            l1_writes=writes,
            state_words=self.state_words(),
        )

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def pack_bytes_to_words(data: bytes) -> list[int]:
    """Pack a byte string into little-endian 32-bit words (zero padded)."""
    words = []
    for offset in range(0, len(data), 4):
        chunk = data[offset : offset + 4]
        chunk = chunk + b"\x00" * (4 - len(chunk))
        words.append(int.from_bytes(chunk, "little"))
    return words


def pack_samples_to_words(samples: list[int], bits: int = 16) -> list[int]:
    """Pack signed samples of ``bits`` width into 32-bit words.

    Samples are masked to ``bits`` and packed LSB-first, ``32 // bits`` per
    word; the last word is zero padded.
    """
    if bits <= 0 or 32 % bits:
        raise ValueError("bits must divide 32")
    per_word = 32 // bits
    mask_value = (1 << bits) - 1
    words = []
    for offset in range(0, len(samples), per_word):
        word = 0
        for lane, sample in enumerate(samples[offset : offset + per_word]):
            word |= (sample & mask_value) << (lane * bits)
        words.append(word)
    return words


def unpack_words_to_samples(words: list[int], count: int, bits: int = 16) -> list[int]:
    """Inverse of :func:`pack_samples_to_words` returning signed samples."""
    if bits <= 0 or 32 % bits:
        raise ValueError("bits must divide 32")
    per_word = 32 // bits
    mask_value = (1 << bits) - 1
    sign_bit = 1 << (bits - 1)
    samples: list[int] = []
    for word in words:
        for lane in range(per_word):
            if len(samples) >= count:
                break
            raw = (word >> (lane * bits)) & mask_value
            samples.append(raw - (1 << bits) if raw & sign_bit else raw)
    return samples[:count]
