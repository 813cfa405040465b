"""Hamming single-error-correcting (SEC) and SECDED codes.

These are the work-horse codes of the reproduction:

* :class:`HammingCode` — classic Hamming SEC code over an arbitrary data
  width; corrects any single bit error per word.
* :class:`SecDedCode` — extended Hamming (SECDED): corrects single errors
  and detects double errors.  This is the code the paper cites as the
  standard L1 protection whose capability SMUs defeat (Section I).

Codeword layout follows the textbook construction: codeword bit positions
are numbered 1..n, parity bits live at the power-of-two positions, data
bits fill the remaining positions in increasing order.  For SECDED an
overall-parity bit is appended above position n.  Externally, codewords
are exposed as packed integers whose bit ``i`` corresponds to position
``i + 1``.

Encoding (data to codeword), the syndrome (codeword to syndrome) and data
extraction (codeword to data) are linear over GF(2).  Each is defined once,
bit by bit, by a ``*_bitwise`` reference method.  The first code of a
given width runs those methods on the unit vectors and keeps the results
as byte-sliced lookup tables (:func:`~repro.utils.bitops.byte_tables`),
cached per (code class, data width) and shared by every later instance.
``encode``, ``_syndrome`` and ``_extract_data`` then XOR one table entry
per byte of their input; decoding keeps its status and correction logic.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from ..utils.bitops import ByteTables, byte_tables, get_bit, mask, parity, set_bit, xor_lookup
from .base import Code, DecodeResult, DecodeStatus


@lru_cache(maxsize=None)
def _hamming_layout(data_bits: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Compute the Hamming layout for ``data_bits`` data bits.

    Returns ``(parity_bits, data_positions, parity_positions)`` where the
    positions are 1-based codeword positions.
    """
    parity_bits = 0
    while (1 << parity_bits) < data_bits + parity_bits + 1:
        parity_bits += 1
    total = data_bits + parity_bits
    parity_positions = tuple(1 << j for j in range(parity_bits))
    parity_set = set(parity_positions)
    data_positions = tuple(p for p in range(1, total + 1) if p not in parity_set)
    return parity_bits, data_positions, parity_positions


def hamming_check_bits(data_bits: int) -> int:
    """Number of check bits a Hamming SEC code needs for ``data_bits`` bits."""
    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    return _hamming_layout(data_bits)[0]


def secded_check_bits(data_bits: int) -> int:
    """Number of check bits a SECDED code needs for ``data_bits`` bits."""
    return hamming_check_bits(data_bits) + 1


class _HammingTables(NamedTuple):
    encode: ByteTables  # data -> codeword
    syndrome: ByteTables  # codeword -> syndrome
    extract: ByteTables  # codeword -> data


@lru_cache(maxsize=None)
def _hamming_tables(data_bits: int) -> _HammingTables:
    """Lookup tables of the Hamming code over ``data_bits``, from its per-bit methods."""
    reference = HammingCode(data_bits)
    return _HammingTables(
        byte_tables(reference._encode_bitwise, data_bits),
        byte_tables(reference._syndrome_bitwise, reference.codeword_bits),
        byte_tables(reference._extract_data_bitwise, reference.codeword_bits),
    )


@lru_cache(maxsize=None)
def _secded_encode_tables(data_bits: int) -> ByteTables:
    """Encode tables of the SECDED code over ``data_bits``, from its per-bit method."""
    return byte_tables(SecDedCode(data_bits)._encode_bitwise, data_bits)


class HammingCode(Code):
    """Hamming single-error-correcting code over ``data_bits`` data bits.

    Corrects any single bit flip in the stored codeword (including flips of
    check bits).  Two or more flips produce undefined behaviour: they may be
    miscorrected, which is precisely the weakness against multi-bit upsets
    that motivates the paper.
    """

    def __init__(self, data_bits: int = 32) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        parity_bits, data_positions, parity_positions = _hamming_layout(data_bits)
        self.check_bits = parity_bits
        self._data_positions = data_positions
        self._parity_positions = parity_positions

    @property
    def correctable_bits(self) -> int:
        return 1

    @property
    def detectable_bits(self) -> int:
        return 1

    @cached_property
    def _tables(self) -> _HammingTables:
        return _hamming_tables(self.data_bits)

    # ------------------------------------------------------------------ #
    def encode(self, data: int) -> int:
        self._check_data(data)
        return xor_lookup(self._tables.encode, data)

    def _syndrome(self, codeword: int) -> int:
        return xor_lookup(self._tables.syndrome, codeword)

    def _extract_data(self, codeword: int) -> int:
        return xor_lookup(self._tables.extract, codeword)

    # ------------------------------------------------------------------ #
    # Per-bit definitions of the layout; the lookup tables are built from
    # these, and the tests check the tables against them.
    # ------------------------------------------------------------------ #
    def _encode_bitwise(self, data: int) -> int:
        codeword = 0
        # Place data bits.
        for index, position in enumerate(self._data_positions):
            codeword = set_bit(codeword, position - 1, get_bit(data, index))
        # Compute parity bits: parity bit at position 2^j covers every
        # position whose index has bit j set.
        for j, position in enumerate(self._parity_positions):
            acc = 0
            for p in range(1, self.codeword_bits + 1):
                if p & (1 << j) and p != position:
                    acc ^= get_bit(codeword, p - 1)
            codeword = set_bit(codeword, position - 1, acc)
        return codeword

    def _syndrome_bitwise(self, codeword: int) -> int:
        syndrome = 0
        for j in range(self.check_bits):
            acc = 0
            for p in range(1, self.codeword_bits + 1):
                if p & (1 << j):
                    acc ^= get_bit(codeword, p - 1)
            if acc:
                syndrome |= 1 << j
        return syndrome

    def _extract_data_bitwise(self, codeword: int) -> int:
        data = 0
        for index, position in enumerate(self._data_positions):
            data = set_bit(data, index, get_bit(codeword, position - 1))
        return data

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword(codeword)
        syndrome = self._syndrome(codeword)
        if syndrome == 0:
            return DecodeResult(data=self._extract_data(codeword), status=DecodeStatus.CLEAN)
        if syndrome <= self.codeword_bits:
            corrected = codeword ^ (1 << (syndrome - 1))
            return DecodeResult(
                data=self._extract_data(corrected),
                status=DecodeStatus.CORRECTED,
                corrected_bits=1,
                syndrome=syndrome,
            )
        # Syndrome points outside the codeword: definitely uncorrectable.
        return DecodeResult(
            data=self._extract_data(codeword),
            status=DecodeStatus.DETECTED_UNCORRECTABLE,
            syndrome=syndrome,
        )


class SecDedCode(Code):
    """Single-error-correcting, double-error-detecting extended Hamming code.

    Layout: the underlying Hamming codeword occupies bits ``0 .. n-1`` and
    the overall (even) parity bit is stored at bit ``n``.
    """

    def __init__(self, data_bits: int = 32) -> None:
        self._inner = HammingCode(data_bits)
        self.data_bits = data_bits
        self.check_bits = self._inner.check_bits + 1

    @property
    def correctable_bits(self) -> int:
        return 1

    @property
    def detectable_bits(self) -> int:
        return 2

    @property
    def syndrome_bits(self) -> int:
        # The reported syndrome is the inner Hamming syndrome.
        return self._inner.check_bits

    @cached_property
    def _tables(self) -> ByteTables:
        return _secded_encode_tables(self.data_bits)

    def encode(self, data: int) -> int:
        self._check_data(data)
        return xor_lookup(self._tables, data)

    def _encode_bitwise(self, data: int) -> int:
        """Per-bit definition of :meth:`encode`; its tables are built from it."""
        inner = self._inner._encode_bitwise(data)
        return inner | (parity(inner) << self._inner.codeword_bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword(codeword)
        inner_bits = self._inner.codeword_bits
        inner = codeword & mask(inner_bits)
        stored_overall = (codeword >> inner_bits) & 1
        overall_ok = parity(inner) == stored_overall
        syndrome = self._inner._syndrome(inner)

        if syndrome == 0 and overall_ok:
            return DecodeResult(data=self._inner._extract_data(inner), status=DecodeStatus.CLEAN)

        if syndrome == 0 and not overall_ok:
            # The overall parity bit itself flipped; data is intact.
            return DecodeResult(
                data=self._inner._extract_data(inner),
                status=DecodeStatus.CORRECTED,
                corrected_bits=1,
                syndrome=0,
            )

        if not overall_ok:
            # Odd number of flips with a non-zero syndrome: assume single
            # error and correct it.
            if syndrome <= inner_bits:
                corrected = inner ^ (1 << (syndrome - 1))
                return DecodeResult(
                    data=self._inner._extract_data(corrected),
                    status=DecodeStatus.CORRECTED,
                    corrected_bits=1,
                    syndrome=syndrome,
                )
            return DecodeResult(
                data=self._inner._extract_data(inner),
                status=DecodeStatus.DETECTED_UNCORRECTABLE,
                syndrome=syndrome,
            )

        # Non-zero syndrome with matching overall parity: even number of
        # flips (>= 2) — detected but uncorrectable.
        return DecodeResult(
            data=self._inner._extract_data(inner),
            status=DecodeStatus.DETECTED_UNCORRECTABLE,
            syndrome=syndrome,
        )
