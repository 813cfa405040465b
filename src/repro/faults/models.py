"""Fault models: single-bit (SSU) and clustered multi-bit (SMU) upsets.

A fault model decides, for each upset event, *which bits of the struck
word flip*.  The paper's motivation is the growing rate of single-event
multi-bit upsets with technology scaling: a single particle strike flips a
small cluster of physically adjacent cells.  We model that as a contiguous
run of flipped bit positions of random width, matching the adjacency
assumption behind interleaved ECC (see :mod:`repro.ecc.interleaved`).

Each model states its law twice: :meth:`FaultModel.sample_pattern` draws
one pattern from a generator (the behavioural injector's stream), and
:meth:`FaultModel.width_pmf`, :meth:`FaultModel.width_tail` and
:meth:`FaultModel.pattern_weights` give the same law exactly, for the
batched engine's outcome mixtures and the Pareto explorer's failure
objective.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from ..utils.bitops import flip_bits


@dataclass(frozen=True)
class UpsetEvent:
    """One particle-strike event applied to a stored word.

    Attributes
    ----------
    word_index:
        Index of the struck word inside the target memory region.
    bit_positions:
        Logical bit positions flipped within the stored codeword.
    cycle:
        Simulation cycle at which the upset occurs (best-effort; the
        behavioural simulator applies upsets at phase granularity).
    """

    word_index: int
    bit_positions: tuple[int, ...]
    cycle: int = 0

    @property
    def multiplicity(self) -> int:
        """Number of flipped bits."""
        return len(self.bit_positions)

    def apply(self, codeword: int) -> int:
        """Return ``codeword`` with this event's bits flipped."""
        return flip_bits(codeword, self.bit_positions)


class FaultModel(abc.ABC):
    """Strategy deciding the flipped-bit pattern of one upset event.

    An upset flips a contiguous cluster: its width is drawn from
    :meth:`width_pmf`, clipped to the word, and its start is uniform over
    the positions where the clipped cluster fits.
    """

    @abc.abstractmethod
    def sample_pattern(self, word_bits: int, rng: np.random.Generator) -> tuple[int, ...]:
        """Return the bit positions flipped by one upset in a ``word_bits`` word."""

    @abc.abstractmethod
    def width_pmf(self) -> dict[int, float]:
        """Exact probability of each cluster width, before clipping to a word."""

    @abc.abstractmethod
    def width_tail(self, t: int) -> float:
        """``P(width > t)``: the chance one upset flips more than ``t`` bits, in closed form."""

    def pattern_weights(self, word_bits: int) -> dict[tuple[int, ...], float]:
        """Exact probability of each pattern :meth:`sample_pattern` draws in a ``word_bits`` word.

        Examples
        --------
        >>> MultiBitUpset(min_width=2, max_width=2).pattern_weights(3)
        {(0, 1): 0.5, (1, 2): 0.5}
        >>> SingleBitUpset().pattern_weights(2)
        {(0,): 0.5, (1,): 0.5}
        """
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        weights: dict[tuple[int, ...], float] = {}
        for width, mass in self.width_pmf().items():
            width = min(width, word_bits)
            starts = word_bits - width + 1
            for start in range(starts):
                pattern = tuple(range(start, start + width))
                weights[pattern] = weights.get(pattern, 0.0) + mass / starts
        return weights

    def identity(self) -> tuple:
        """The class and field values: everything that decides the patterns drawn.

        Equal identities draw equal patterns from equal generators, so
        results derived from a fault model can be memoized on it.  Nested
        fault models contribute their own identity.  It is read afresh on
        every call, so changing a field changes the identity.
        """
        if is_dataclass(self):
            state = {item.name: getattr(self, item.name) for item in fields(self)}
        else:
            state = vars(self)
        values = tuple(
            (name, value.identity() if isinstance(value, FaultModel) else value)
            for name, value in sorted(state.items())
        )
        return (type(self).__module__, type(self).__qualname__, values)

    def make_event(
        self,
        word_index: int,
        word_bits: int,
        rng: np.random.Generator,
        cycle: int = 0,
    ) -> UpsetEvent:
        """Build a complete :class:`UpsetEvent` for a struck word."""
        return UpsetEvent(
            word_index=word_index,
            bit_positions=self.sample_pattern(word_bits, rng),
            cycle=cycle,
        )


class SingleBitUpset(FaultModel):
    """Classic SSU: exactly one uniformly random bit flips."""

    def sample_pattern(self, word_bits: int, rng: np.random.Generator) -> tuple[int, ...]:
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        return (int(rng.integers(0, word_bits)),)

    def width_pmf(self) -> dict[int, float]:
        return {1: 1.0}

    def width_tail(self, t: int) -> float:
        return 1.0 if t < 1 else 0.0


@dataclass
class MultiBitUpset(FaultModel):
    """SMU: a contiguous cluster of adjacent bits flips.

    Attributes
    ----------
    min_width:
        Minimum cluster width (inclusive).
    max_width:
        Maximum cluster width (inclusive).  Width is drawn from a
        geometric-like distribution truncated to ``[min_width, max_width]``
        so that small clusters dominate, as observed experimentally.
    geometric_p:
        Success probability of the geometric width distribution; larger
        values bias towards narrow clusters.
    """

    min_width: int = 2
    max_width: int = 4
    geometric_p: float = 0.55

    def __post_init__(self) -> None:
        if self.min_width < 1:
            raise ValueError("min_width must be at least 1")
        if self.max_width < self.min_width:
            raise ValueError("max_width must be >= min_width")
        if not 0.0 < self.geometric_p <= 1.0:
            raise ValueError("geometric_p must be in (0, 1]")

    def sample_width(self, rng: np.random.Generator) -> int:
        """Draw a cluster width in ``[min_width, max_width]``."""
        if self.min_width == self.max_width:
            return self.min_width
        width = self.min_width + int(rng.geometric(self.geometric_p)) - 1
        return int(min(width, self.max_width))

    def sample_pattern(self, word_bits: int, rng: np.random.Generator) -> tuple[int, ...]:
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        width = min(self.sample_width(rng), word_bits)
        start = int(rng.integers(0, word_bits - width + 1))
        return tuple(range(start, start + width))

    def width_pmf(self) -> dict[int, float]:
        # width = min(min_width + G - 1, max_width) with G ~ Geometric(p) on
        # {1, 2, ...}: widths below the cap take p * q**(width - min_width),
        # and the cap takes the whole remaining tail.
        q = 1.0 - self.geometric_p
        pmf = {
            width: self.geometric_p * q ** (width - self.min_width)
            for width in range(self.min_width, self.max_width)
        }
        pmf[self.max_width] = q ** (self.max_width - self.min_width)
        return pmf

    def width_tail(self, t: int) -> float:
        if t < self.min_width:
            return 1.0
        if t >= self.max_width:
            return 0.0
        # P(width > t) = P(G >= t - min_width + 2) = q**(t - min_width + 1).
        return (1.0 - self.geometric_p) ** (t - self.min_width + 1)


@dataclass
class MixedUpset(FaultModel):
    """Mixture of SSU and SMU events.

    With probability ``smu_fraction`` an upset is a multi-bit cluster,
    otherwise a single-bit flip.  Scaled technologies push
    ``smu_fraction`` up, which is the paper's motivating trend.
    """

    smu_fraction: float = 0.35
    smu: MultiBitUpset = field(default_factory=MultiBitUpset)
    ssu: SingleBitUpset = field(default_factory=SingleBitUpset)

    def __post_init__(self) -> None:
        if not 0.0 <= self.smu_fraction <= 1.0:
            raise ValueError("smu_fraction must be in [0, 1]")

    def sample_pattern(self, word_bits: int, rng: np.random.Generator) -> tuple[int, ...]:
        if rng.random() < self.smu_fraction:
            return self.smu.sample_pattern(word_bits, rng)
        return self.ssu.sample_pattern(word_bits, rng)

    def width_pmf(self) -> dict[int, float]:
        pmf: dict[int, float] = {}
        for share, model in ((self.smu_fraction, self.smu), (1.0 - self.smu_fraction, self.ssu)):
            for width, mass in model.width_pmf().items():
                pmf[width] = pmf.get(width, 0.0) + share * mass
        return pmf

    def width_tail(self, t: int) -> float:
        smu = self.smu.width_tail(t)
        ssu = self.ssu.width_tail(t)
        return self.smu_fraction * smu + (1.0 - self.smu_fraction) * ssu


def default_smu_model() -> MixedUpset:
    """The fault model used by the paper-level experiments.

    A mixture dominated by multi-bit clusters (the regime where SECDED is
    insufficient), with clusters of 2–4 adjacent bits.
    """
    return MixedUpset(smu_fraction=0.6, smu=MultiBitUpset(min_width=2, max_width=4))
