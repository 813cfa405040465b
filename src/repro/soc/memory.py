"""Behavioural memory devices: scratchpad L1, stream buffer L1X, protected L1'.

A :class:`MemoryDevice` stores codewords produced by an attached
:class:`repro.ecc.Code`, charges read/write energy to the platform's
:class:`~repro.soc.energy.EnergyAccount`, applies injected upset events to
the stored bits, and reports decode outcomes to its caller — which is how
the Read Error Interrupt of the paper's Fig. 2(a) gets raised.

Only a word an upset struck since its last write is decoded on read.  An
untouched word still holds ``encode(data)``, which every code decodes to
``(data, CLEAN)``, so the device returns that without calling the decoder.

Three roles are distinguished only by configuration:

* **Scratchpad (L1)** — the vulnerable 64 KB SRAM; unprotected, SECDED, or
  fully multi-bit protected depending on the mitigation strategy.
* **Stream buffer (L1X)** — holds incoming streaming data; modelled as
  reliable (the paper's error target is the L1 scratchpad).
* **Protected buffer (L1')** — the small multi-bit-ECC buffer introduced
  by the proposal, sized by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ecc import Code, DecodeResult, DecodeStatus, NoCode
from ..ecc.overhead import EccOverheadModel, ProtectedMemoryEstimate
from ..faults.models import UpsetEvent
from ..memmodel import SramEstimate, SramMacro, TechnologyNode, NODE_65NM
from .energy import CATEGORY_MEMORY_READ, CATEGORY_MEMORY_WRITE, EnergyAccount


@dataclass
class MemoryAccessStats:
    """Access and error counters maintained by every memory device."""

    reads: int = 0
    writes: int = 0
    upsets_injected: int = 0
    bit_flips_injected: int = 0
    errors_detected: int = 0
    errors_corrected: int = 0
    errors_uncorrectable: int = 0
    silent_corruptions: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for reports and tests."""
        return dict(self.__dict__)


class MemoryDevice:
    """Word-addressable behavioural SRAM with optional ECC protection.

    Parameters
    ----------
    name:
        Component name used in energy ledgers and reports (e.g. ``"L1"``).
    capacity_words:
        Number of addressable data words.
    code:
        ECC code protecting each stored word; defaults to no protection.
    word_bits:
        Data word width in bits.
    energy:
        Energy account charged on each access; optional (standalone use in
        unit tests needs no platform).
    estimate:
        Pre-computed SRAM characterization; if omitted it is derived from
        the capacity, word width and code check bits via
        :class:`repro.memmodel.SramMacro` (plus ECC logic overhead when the
        code corrects at least one bit).
    technology:
        Process node for the derived estimate.
    access_cycles:
        Processor cycles consumed per access; derived from the estimated
        access time and a 200 MHz clock when omitted.
    """

    def __init__(
        self,
        name: str,
        capacity_words: int,
        code: Code | None = None,
        word_bits: int = 32,
        energy: EnergyAccount | None = None,
        estimate: SramEstimate | ProtectedMemoryEstimate | None = None,
        technology: TechnologyNode = NODE_65NM,
        access_cycles: int | None = None,
        frequency_hz: float = 200e6,
    ) -> None:
        if capacity_words <= 0:
            raise ValueError("capacity_words must be positive")
        self.name = name
        self.capacity_words = capacity_words
        self.word_bits = word_bits
        self.code = code if code is not None else NoCode(word_bits)
        if self.code.data_bits != word_bits:
            raise ValueError(
                f"code protects {self.code.data_bits}-bit words but the device "
                f"stores {word_bits}-bit words"
            )
        self.energy = energy
        self.technology = technology
        self.estimate = estimate if estimate is not None else self._derive_estimate()
        self.stats = MemoryAccessStats()
        self._storage: dict[int, int] = {}
        #: The data of every stored word no upset has struck since it was
        #: last written (or scrubbed): its codeword is ``encode`` of it.
        self._clean: dict[int, int] = {}
        if access_cycles is None:
            period_ns = 1e9 / frequency_hz
            access_cycles = max(1, int(-(-self.access_time_ns // period_ns)))
            if self.code.correctable_bits >= 2:
                # Multi-bit decoders are iterative (syndrome + correction
                # stages); charge extra pipeline cycles per access that grow
                # with the correction strength.  This is the access-latency
                # penalty that pushes the full-HW baseline past the paper's
                # timing constraint.
                access_cycles += max(1, self.code.correctable_bits // 2 - 1)
        self.access_cycles = access_cycles

    # ------------------------------------------------------------------ #
    # Characterization
    # ------------------------------------------------------------------ #
    def _derive_estimate(self) -> SramEstimate | ProtectedMemoryEstimate:
        capacity_bytes = self.capacity_words * (self.word_bits // 8)
        if self.code.correctable_bits > 0:
            model = EccOverheadModel(self.technology)
            return model.protected_memory(
                capacity_bytes,
                word_bits=self.word_bits,
                t=self.code.correctable_bits,
                scheme="bch",
            )
        return SramMacro(
            capacity_bytes,
            word_bits=self.word_bits,
            check_bits=self.code.check_bits,
            technology=self.technology,
        ).estimate()

    @property
    def capacity_bytes(self) -> int:
        """Usable data capacity in bytes."""
        return self.capacity_words * (self.word_bits // 8)

    @property
    def read_energy_pj(self) -> float:
        """Energy of one read access (array + ECC decode when protected)."""
        return self.estimate.read_energy_pj

    @property
    def write_energy_pj(self) -> float:
        """Energy of one write access (ECC encode + array when protected)."""
        return self.estimate.write_energy_pj

    @property
    def leakage_mw(self) -> float:
        """Static power of the device in milliwatts."""
        return self.estimate.leakage_mw

    @property
    def area_mm2(self) -> float:
        """Total device area in square millimetres."""
        return self.estimate.area_mm2

    @property
    def access_time_ns(self) -> float:
        """Read access latency in nanoseconds."""
        return self.estimate.access_time_ns

    # ------------------------------------------------------------------ #
    # Access operations
    # ------------------------------------------------------------------ #
    def _check_address(self, index: int) -> None:
        if not 0 <= index < self.capacity_words:
            raise IndexError(
                f"{self.name}: word index {index} out of range "
                f"[0, {self.capacity_words})"
            )

    def _charge(self, category: str, energy_pj: float) -> None:
        if self.energy is not None:
            self.energy.charge(self.name, category, energy_pj)

    def write_word(self, index: int, value: int) -> None:
        """Encode ``value`` and store it at word ``index``."""
        self._check_address(index)
        self._storage[index] = self.code.encode(value)
        self._clean[index] = value
        self.stats.writes += 1
        self._charge(CATEGORY_MEMORY_WRITE, self.write_energy_pj)

    def read_word(self, index: int) -> DecodeResult:
        """Read the word at ``index``, decoding it if an upset struck it.

        A word no upset struck since its last write reads back as the data
        written, CLEAN: the code's clean round trip, without the decoder.
        Reading an address never written returns a CLEAN zero word, which
        matches SRAM-after-reset behaviour closely enough for the
        behavioural model.
        """
        self._check_address(index)
        self.stats.reads += 1
        self._charge(CATEGORY_MEMORY_READ, self.read_energy_pj)
        data = self._clean.get(index)
        if data is not None:
            return DecodeResult(data=data, status=DecodeStatus.CLEAN)
        stored = self._storage.get(index)
        if stored is None:
            return DecodeResult(data=0, status=DecodeStatus.CLEAN)
        result = self.code.decode(stored)
        if result.status is DecodeStatus.CORRECTED:
            self.stats.errors_detected += 1
            self.stats.errors_corrected += 1
            # Write back the corrected word (scrub-on-read) so the same
            # upset is not re-corrected on every subsequent access.
            self._storage[index] = self.code.encode(result.data)
            self._clean[index] = result.data
        elif result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
            self.stats.errors_detected += 1
            self.stats.errors_uncorrectable += 1
        return result

    def peek_word(self, index: int) -> int | None:
        """Return the raw stored codeword without charging energy (testing aid)."""
        self._check_address(index)
        return self._storage.get(index)

    def write_block(self, start: int, values: list[int]) -> None:
        """Write a contiguous block of words starting at ``start``."""
        for offset, value in enumerate(values):
            self.write_word(start + offset, value)

    def read_block(self, start: int, count: int) -> list[DecodeResult]:
        """Read ``count`` consecutive words starting at ``start``."""
        return [self.read_word(start + offset) for offset in range(count)]

    def clear(self) -> None:
        """Erase all stored contents (does not reset statistics)."""
        self._storage.clear()
        self._clean.clear()

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def inject(self, event: UpsetEvent) -> bool:
        """Apply an upset event to the stored codeword at its word index.

        Returns ``True`` if the event landed on a written word (and
        therefore corrupted live state), ``False`` if it struck an unused
        word and has no architectural effect.  A word an event lands on is
        decoded on every read until it is next written or scrubbed.
        """
        self._check_address(event.word_index)
        self.stats.upsets_injected += 1
        stored = self._storage.get(event.word_index)
        if stored is None:
            return False
        valid_positions = [p for p in event.bit_positions if p < self.code.codeword_bits]
        if not valid_positions:
            return False
        corrupted = stored
        for position in valid_positions:
            corrupted ^= 1 << position
        self._storage[event.word_index] = corrupted
        self._clean.pop(event.word_index, None)
        self.stats.bit_flips_injected += len(valid_positions)
        return True

    def written_words(self) -> int:
        """Number of distinct words currently holding written data."""
        return len(self._storage)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryDevice(name={self.name!r}, words={self.capacity_words}, "
            f"code={type(self.code).__name__})"
        )


def make_scratchpad(
    name: str = "L1",
    capacity_bytes: int = 64 * 1024,
    code: Code | None = None,
    energy: EnergyAccount | None = None,
    technology: TechnologyNode = NODE_65NM,
) -> MemoryDevice:
    """Build the vulnerable L1 scratchpad of the paper's platform (64 KB)."""
    word_bits = 32
    return MemoryDevice(
        name=name,
        capacity_words=capacity_bytes // (word_bits // 8),
        code=code,
        word_bits=word_bits,
        energy=energy,
        technology=technology,
    )


def make_protected_buffer(
    capacity_words: int,
    code: Code,
    name: str = "L1p",
    energy: EnergyAccount | None = None,
    technology: TechnologyNode = NODE_65NM,
) -> MemoryDevice:
    """Build the proposal's small fault-tolerant buffer L1'.

    ``capacity_words`` is the chunk size selected by the optimizer (plus
    the few words of status-register storage the runtime adds on top).
    """
    if code.correctable_bits < 1:
        raise ValueError("the protected buffer L1' requires a correcting code")
    return MemoryDevice(
        name=name,
        capacity_words=capacity_words,
        code=code,
        word_bits=code.data_bits,
        energy=energy,
        technology=technology,
    )


def make_stream_buffer(
    capacity_bytes: int = 8 * 1024,
    name: str = "L1X",
    energy: EnergyAccount | None = None,
    technology: TechnologyNode = NODE_65NM,
) -> MemoryDevice:
    """Build the streaming-data input buffer L1X (modelled as reliable)."""
    word_bits = 32
    return MemoryDevice(
        name=name,
        capacity_words=capacity_bytes // (word_bits // 8),
        code=NoCode(word_bits),
        word_bits=word_bits,
        energy=energy,
        technology=technology,
    )
