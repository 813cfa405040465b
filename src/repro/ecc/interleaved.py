"""Interleaved codes: the practical realization of "multi-bit ECC".

Single-event multi-bit upsets flip clusters of physically adjacent cells.
A standard industrial counter-measure is bit interleaving: the data word
is split across ``ways`` independent lanes, each protected by its own
SEC or SECDED code, and physically adjacent bits belong to different
lanes.  Any upset cluster of width up to ``ways`` therefore lands at most
one flip in each lane and is fully corrected.

The paper's L1' buffer and the HW-mitigation baseline use an unspecified
"multi-bit ECC"; we realize it as :class:`InterleavedSecDedCode` (for
behavioural correction) and size stronger configurations with the BCH
bound in :mod:`repro.ecc.redundancy` (for area/energy modelling),
as documented in DESIGN.md.

Interleaving only moves bits, and every lane code is linear over GF(2),
so the whole encoder (data to codeword) is linear, and so are the two
halves of the decoder's bit shuffling: the gather (codeword to lane
codewords, packed at a fixed stride) and the scatter (packed lane data to
the data word).  Each is defined once, bit by bit, by a ``*_bitwise``
reference method.  The first code of a given (lane code, data width,
ways) shape runs those methods on the unit vectors and keeps the results
as byte-sliced lookup tables (:func:`~repro.utils.bitops.byte_tables`),
shared by every later instance of that shape.  ``encode`` is then one
table lookup per data byte, and ``decode`` gathers, decodes each lane
with its own code and scatters, with one lookup per byte for each move.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from ..utils.bitops import ByteTables, byte_tables, mask, xor_lookup
from .base import Code, DecodeResult, DecodeStatus
from .hamming import HammingCode, SecDedCode


def _split_lanes(data_bits: int, ways: int) -> list[int]:
    """Distribute ``data_bits`` across ``ways`` lanes as evenly as possible."""
    base = data_bits // ways
    remainder = data_bits % ways
    widths = [base + (1 if lane < remainder else 0) for lane in range(ways)]
    if any(width == 0 for width in widths):
        raise ValueError(
            f"cannot interleave {data_bits} data bits across {ways} lanes: "
            "every lane needs at least one data bit"
        )
    return widths


class _InterleavedTables(NamedTuple):
    encode: ByteTables  # data -> codeword
    gather: ByteTables  # codeword -> lane codewords, lane i at bit i * codeword stride
    scatter: ByteTables  # lane data words, lane i at bit i * data stride -> data


@lru_cache(maxsize=None)
def _interleaved_tables(lane_factory, data_bits: int, ways: int) -> _InterleavedTables:
    """Lookup tables of one interleaved code shape, from its per-bit methods."""
    reference = InterleavedCode(data_bits, ways, lane_factory)
    return _InterleavedTables(
        byte_tables(reference._encode_bitwise, data_bits),
        byte_tables(reference._gather_bitwise, reference.codeword_bits),
        byte_tables(reference._scatter_bitwise, ways * reference._data_stride),
    )


class InterleavedCode(Code):
    """Generic ``ways``-way bit-interleaved code built from per-lane codes.

    Parameters
    ----------
    data_bits:
        Total protected data bits per word.
    ways:
        Number of interleaved lanes.  The code corrects any error pattern
        with at most ``lane.correctable_bits`` flips per lane — in
        particular any adjacent cluster of at most ``ways`` flips when the
        per-lane code is SEC.
    lane_factory:
        Callable building the per-lane code from its data width.  The lane
        code must be linear over GF(2), as every code in this package is,
        because the encoder is evaluated through lookup tables.

    Notes
    -----
    Interleaving is over *logical* data bits: data bit ``i`` belongs to
    lane ``i mod ways``.  The physical adjacency argument is reflected in
    the fault models of :mod:`repro.faults.models`, which generate
    clustered upsets over adjacent logical bit positions.
    """

    def __init__(self, data_bits: int, ways: int, lane_factory=SecDedCode) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        self.ways = ways
        self._lane_factory = lane_factory
        self._lane_widths = _split_lanes(data_bits, ways)
        self._lanes: list[Code] = [lane_factory(width) for width in self._lane_widths]
        self.check_bits = sum(lane.check_bits for lane in self._lanes)
        # Bit offsets between consecutive lanes in the packed lane words the
        # decoder works on.  Lane syndromes are reported packed at least 8
        # bits apart, wider only when a lane's syndrome is.
        self._codeword_stride = max(lane.codeword_bits for lane in self._lanes)
        self._data_stride = max(self._lane_widths)
        self._syndrome_stride = max(8, *(lane.syndrome_bits for lane in self._lanes))

    @cached_property
    def _tables(self) -> _InterleavedTables:
        return _interleaved_tables(self._lane_factory, self.data_bits, self.ways)

    @cached_property
    def _physical_map(self) -> tuple[tuple[int, int], ...]:
        """Stored codeword bit -> (lane, bit inside the lane's codeword).

        Physically adjacent bits are assigned to different lanes
        round-robin, which is exactly what hardware bit interleaving does
        and what makes adjacent upset clusters land at most one flip per
        lane.
        """
        lengths = [lane.codeword_bits for lane in self._lanes]
        counters = [0] * self.ways
        mapping: list[tuple[int, int]] = []
        total = sum(lengths)
        while len(mapping) < total:
            for lane in range(self.ways):
                if counters[lane] < lengths[lane]:
                    mapping.append((lane, counters[lane]))
                    counters[lane] += 1
        return tuple(mapping)

    # ------------------------------------------------------------------ #
    @property
    def correctable_bits(self) -> int:
        """Guaranteed correction for *adjacent* clusters (the SMU case)."""
        per_lane = min(lane.correctable_bits for lane in self._lanes)
        return self.ways * per_lane

    @property
    def detectable_bits(self) -> int:
        per_lane = min(lane.detectable_bits for lane in self._lanes)
        return self.ways * per_lane

    @property
    def syndrome_bits(self) -> int:
        return (self.ways - 1) * self._syndrome_stride + self._lanes[-1].syndrome_bits

    # ------------------------------------------------------------------ #
    def encode(self, data: int) -> int:
        self._check_data(data)
        return xor_lookup(self._tables.encode, data)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword(codeword)
        stride = self._codeword_stride
        lane_codewords = self._gather(codeword)
        lane_mask = mask(stride)

        lane_data = 0
        corrected = 0
        syndrome = 0
        worst = DecodeStatus.CLEAN
        for index, lane in enumerate(self._lanes):
            result = lane.decode((lane_codewords >> (index * stride)) & lane_mask)
            lane_data |= result.data << (index * self._data_stride)
            corrected += result.corrected_bits
            syndrome |= result.syndrome << (index * self._syndrome_stride)
            if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                worst = DecodeStatus.DETECTED_UNCORRECTABLE
            elif result.status is DecodeStatus.CORRECTED and worst is DecodeStatus.CLEAN:
                worst = DecodeStatus.CORRECTED
        data = self._scatter(lane_data)
        return DecodeResult(data=data, status=worst, corrected_bits=corrected, syndrome=syndrome)

    def _gather(self, codeword: int) -> int:
        return xor_lookup(self._tables.gather, codeword)

    def _scatter(self, lane_data: int) -> int:
        return xor_lookup(self._tables.scatter, lane_data)

    # ------------------------------------------------------------------ #
    # Per-bit definitions of the lane split and bit placement; the lookup
    # tables are built from these, and the tests check the tables against
    # them.
    # ------------------------------------------------------------------ #
    def _deinterleave(self, data: int) -> list[int]:
        """Split a data word into per-lane data values (bit i -> lane i%ways)."""
        lane_values = [0] * self.ways
        lane_counts = [0] * self.ways
        for bit_index in range(self.data_bits):
            lane = bit_index % self.ways
            bit = (data >> bit_index) & 1
            lane_values[lane] |= bit << lane_counts[lane]
            lane_counts[lane] += 1
        return lane_values

    def _interleave(self, lane_values: list[int]) -> int:
        """Inverse of :meth:`_deinterleave`."""
        data = 0
        lane_counts = [0] * self.ways
        for bit_index in range(self.data_bits):
            lane = bit_index % self.ways
            bit = (lane_values[lane] >> lane_counts[lane]) & 1
            data |= bit << bit_index
            lane_counts[lane] += 1
        return data

    def _encode_bitwise(self, data: int) -> int:
        lane_codewords = [
            lane.encode(value) for lane, value in zip(self._lanes, self._deinterleave(data))
        ]
        codeword = 0
        for physical, (lane, bit) in enumerate(self._physical_map):
            codeword |= ((lane_codewords[lane] >> bit) & 1) << physical
        return codeword

    def _gather_bitwise(self, codeword: int) -> int:
        """Lane codewords of ``codeword``, lane ``i`` at bit ``i * codeword stride``."""
        stride = self._codeword_stride
        lane_codewords = 0
        for physical, (lane, bit) in enumerate(self._physical_map):
            lane_codewords |= ((codeword >> physical) & 1) << (lane * stride + bit)
        return lane_codewords

    def _scatter_bitwise(self, lane_data: int) -> int:
        """Data word of the lane data words, lane ``i`` at bit ``i * data stride``."""
        stride = self._data_stride
        return self._interleave(
            [(lane_data >> (lane * stride)) & mask(stride) for lane in range(self.ways)]
        )


class InterleavedSecDedCode(InterleavedCode):
    """``ways``-way interleaved SECDED: corrects adjacent clusters up to ``ways``."""

    def __init__(self, data_bits: int = 32, ways: int = 4) -> None:
        super().__init__(data_bits, ways, lane_factory=SecDedCode)


class InterleavedHammingCode(InterleavedCode):
    """``ways``-way interleaved Hamming SEC (cheaper, no double detection)."""

    def __init__(self, data_bits: int = 32, ways: int = 4) -> None:
        super().__init__(data_bits, ways, lane_factory=HammingCode)


class InterleavedParityCode(InterleavedCode):
    """``ways``-way interleaved parity: detection-only, SMU-cluster aware.

    One even-parity bit per interleave lane guarantees *detection* of any
    adjacent upset cluster of up to ``ways`` bits (each lane sees at most
    one flip), at a storage cost of only ``ways`` bits per word and a
    trivial checker.  This is the "minimal ECC capability" detection layer
    the paper attaches to the vulnerable L1 in both the SW-mitigation
    baseline and the hybrid proposal: it cannot correct anything, it only
    raises the Read Error Interrupt / restart trigger.
    """

    def __init__(self, data_bits: int = 32, ways: int = 4) -> None:
        from .parity import ParityCode

        super().__init__(data_bits, ways, lane_factory=ParityCode)
