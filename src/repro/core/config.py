"""Design-time constraints and operating-point configuration.

The paper's optimization problem (Eq. 3–7) is parameterized by hard
constraints chosen by the system designers before deployment:

* ``OV1`` — the affordable **area overhead** of the added protected buffer
  L1' relative to the vulnerable memory (5 % in the paper, the maximum the
  industrial partner accepts);
* ``OV2`` — the affordable **cycle overhead** of the mitigation mechanism
  (10 % in the paper);
* the intermittent **error rate** (1e-6 upsets per word per cycle, the
  worst-case bound borrowed from ERSA [14]);
* the **word size** (32-bit ARM9 platform) — chunk sizes must be whole
  multiples of it (Eq. 6).

:data:`PAPER_OPERATING_POINT` captures the exact values used in the
paper's evaluation; experiments and ablations construct variations of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..faults.injector import PAPER_ERROR_RATE


@dataclass(frozen=True)
class DesignConstraints:
    """Hard design-time constraints of the chunk-size optimization.

    Attributes
    ----------
    area_overhead:
        OV1: maximum area of L1' (including its ECC) as a fraction of the
        vulnerable L1 area (Eq. 4).
    cycle_overhead:
        OV2: maximum mitigation cycle overhead as a fraction of the
        fault-free task execution cycles (Eq. 5, the paper's
        ``D(S_CH) <= OV2 * S_CH`` form).
    error_rate:
        Intermittent error rate in upsets per word per cycle.
    word_bytes:
        Architectural word size in bytes; chunk sizes are multiples of it
        (Eq. 6).
    correctable_bits:
        Correction capability required of the protected buffer's ECC (the
        multi-bit capability that makes L1' immune to SMU clusters).
    drain_latency_cycles:
        Number of cycles a produced word remains live in the vulnerable L1
        before the streaming interface drains it (bounds the per-word
        exposure window).
    """

    area_overhead: float = 0.05
    cycle_overhead: float = 0.10
    error_rate: float = PAPER_ERROR_RATE
    word_bytes: int = 4
    correctable_bits: int = 4
    drain_latency_cycles: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.area_overhead <= 1.0:
            raise ValueError("area_overhead must be in (0, 1]")
        if not 0.0 < self.cycle_overhead <= 1.0:
            raise ValueError("cycle_overhead must be in (0, 1]")
        if self.error_rate < 0:
            raise ValueError("error_rate must be non-negative")
        if self.word_bytes <= 0:
            raise ValueError("word_bytes must be positive")
        if self.correctable_bits < 1:
            raise ValueError("correctable_bits must be at least 1")
        if self.drain_latency_cycles <= 0:
            raise ValueError("drain_latency_cycles must be positive")

    def with_overrides(self, **overrides) -> "DesignConstraints":
        """Return a copy with selected fields replaced (for ablations)."""
        return replace(self, **overrides)


#: The exact operating point of the paper's evaluation (Section III-A).
PAPER_OPERATING_POINT = DesignConstraints(
    area_overhead=0.05,
    cycle_overhead=0.10,
    error_rate=PAPER_ERROR_RATE,
    word_bytes=4,
    correctable_bits=4,
    drain_latency_cycles=1000,
)
