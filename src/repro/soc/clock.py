"""Global cycle counter / clock for the behavioural SoC model.

The simulator is not cycle-accurate at the pipeline level, but every
architectural event — computation phases, memory accesses,
checkpoint copies, interrupt service routines — advances a shared cycle
counter so that execution time, deadline checks and leakage energy can be
computed consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Clock:
    """Monotonic cycle counter at a fixed operating frequency.

    Attributes
    ----------
    frequency_hz:
        Operating frequency; the paper's platform runs the ARM9 at 200 MHz.
    cycles:
        Elapsed cycles since construction or the last :meth:`reset`.
    """

    frequency_hz: float = 200e6
    cycles: int = 0
    _marks: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")

    # ------------------------------------------------------------------ #
    def advance(self, cycles: int) -> int:
        """Advance the clock by ``cycles`` (non-negative) and return the new time."""
        if cycles < 0:
            raise ValueError("cannot advance the clock by a negative amount")
        self.cycles += int(cycles)
        return self.cycles

    def reset(self) -> None:
        """Reset elapsed cycles and all marks to zero."""
        self.cycles = 0
        self._marks.clear()

    # ------------------------------------------------------------------ #
    @property
    def elapsed_seconds(self) -> float:
        """Elapsed wall-clock time of the simulated execution in seconds."""
        return self.cycles / self.frequency_hz

    @property
    def elapsed_ns(self) -> float:
        """Elapsed simulated time in nanoseconds."""
        return self.elapsed_seconds * 1e9

    def cycles_for_time_ns(self, time_ns: float) -> int:
        """Smallest whole number of cycles covering ``time_ns`` nanoseconds."""
        if time_ns < 0:
            raise ValueError("time_ns must be non-negative")
        period_ns = 1e9 / self.frequency_hz
        return int(-(-time_ns // period_ns))  # ceiling division

    # ------------------------------------------------------------------ #
    def mark(self, label: str) -> None:
        """Record the current cycle under ``label`` for later interval queries."""
        self._marks[label] = self.cycles

    def since(self, label: str) -> int:
        """Cycles elapsed since :meth:`mark` was called with ``label``."""
        if label not in self._marks:
            raise KeyError(f"no clock mark named {label!r}")
        return self.cycles - self._marks[label]
