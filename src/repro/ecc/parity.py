"""Single even-parity bit per word: detects any odd number of bit flips.

This is the "minimal ECC capability" the paper assigns to the pure
software-mitigation baseline: the memory can *detect* a corrupted word
(triggering a task restart) but cannot correct it.
"""

from __future__ import annotations

from ..utils.bitops import mask, parity
from .base import Code, DecodeResult, DecodeStatus


class ParityCode(Code):
    """Even parity over ``data_bits`` data bits (1 check bit).

    Codeword layout: ``[parity_bit | data]`` with the data word in the
    least-significant ``data_bits`` bits.
    """

    def __init__(self, data_bits: int = 32) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        self.check_bits = 1

    @property
    def correctable_bits(self) -> int:
        return 0

    @property
    def detectable_bits(self) -> int:
        return 1

    def encode(self, data: int) -> int:
        self._check_data(data)
        return data | (parity(data) << self.data_bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword(codeword)
        data = codeword & mask(self.data_bits)
        stored_parity = (codeword >> self.data_bits) & 1
        if parity(data) == stored_parity:
            return DecodeResult(data=data, status=DecodeStatus.CLEAN)
        return DecodeResult(
            data=data,
            status=DecodeStatus.DETECTED_UNCORRECTABLE,
            syndrome=1,
        )
