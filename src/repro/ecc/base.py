"""Abstract interfaces shared by all error-correcting codes.

Every code operates on fixed-width data words represented as non-negative
integers and produces codewords that are also integers (data and check
bits packed together, layout defined by the concrete code).  The memory
devices in :mod:`repro.soc.memory` store codewords and rely only on this
interface, so protection schemes are interchangeable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum

from ..utils.bitops import mask


class DecodeStatus(Enum):
    """Outcome of decoding one codeword."""

    #: No error detected; data returned as stored.
    CLEAN = "clean"
    #: Error(s) detected and fully corrected; data is trustworthy.
    CORRECTED = "corrected"
    #: Error detected but not correctable; data is *not* trustworthy.
    DETECTED_UNCORRECTABLE = "detected_uncorrectable"
    #: Errors present but the code could not even detect them
    #: (silent data corruption).  Only produced by the reference decoder
    #: when the caller supplies the golden value for comparison.
    SILENT_CORRUPTION = "silent_corruption"

    @property
    def is_usable(self) -> bool:
        """True when the decoded data can be consumed by the application."""
        return self in (DecodeStatus.CLEAN, DecodeStatus.CORRECTED)


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding a codeword.

    Attributes
    ----------
    data:
        The decoded data word (after any correction).  When the status is
        :attr:`DecodeStatus.DETECTED_UNCORRECTABLE` this is a best-effort
        value and must not be trusted.
    status:
        Classification of the decode outcome.
    corrected_bits:
        Number of bit errors the decoder corrected.
    syndrome:
        Raw decoder syndrome (code specific; 0 means "no error observed").
    """

    data: int
    status: DecodeStatus
    corrected_bits: int = 0
    syndrome: int = 0

    @property
    def error_detected(self) -> bool:
        """True when the decoder observed any inconsistency."""
        return self.status in (
            DecodeStatus.CORRECTED,
            DecodeStatus.DETECTED_UNCORRECTABLE,
        )


class Code(abc.ABC):
    """Abstract error-correcting (or detecting) code over fixed-width words."""

    #: Number of protected data bits per word.
    data_bits: int
    #: Number of stored check bits per word.
    check_bits: int

    @property
    def codeword_bits(self) -> int:
        """Total stored bits per word (data + check)."""
        return self.data_bits + self.check_bits

    @property
    def syndrome_bits(self) -> int:
        """Number of bits :attr:`DecodeResult.syndrome` can occupy."""
        return self.check_bits

    @property
    @abc.abstractmethod
    def correctable_bits(self) -> int:
        """Guaranteed number of random bit errors corrected per word."""

    @property
    @abc.abstractmethod
    def detectable_bits(self) -> int:
        """Guaranteed number of random bit errors detected per word."""

    @abc.abstractmethod
    def encode(self, data: int) -> int:
        """Encode a data word into a codeword."""

    @abc.abstractmethod
    def decode(self, codeword: int) -> DecodeResult:
        """Decode a (possibly corrupted) codeword."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _check_data(self, data: int) -> None:
        if data < 0 or data >> self.data_bits:
            raise ValueError(
                f"data word {data:#x} does not fit in {self.data_bits} bits"
            )

    def _check_codeword(self, codeword: int) -> None:
        if codeword < 0 or codeword >> self.codeword_bits:
            raise ValueError(
                f"codeword {codeword:#x} does not fit in {self.codeword_bits} bits"
            )

    @property
    def data_mask(self) -> int:
        """Bit mask covering the data field."""
        return mask(self.data_bits)

    @property
    def storage_overhead(self) -> float:
        """Check bits as a fraction of data bits."""
        return self.check_bits / self.data_bits

    def roundtrip(self, data: int) -> DecodeResult:
        """Encode then decode a word; useful for self-checks and tests."""
        return self.decode(self.encode(data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(data_bits={self.data_bits}, "
            f"check_bits={self.check_bits}, t={self.correctable_bits})"
        )


class NoCode(Code):
    """Identity "code": no check bits, no detection, no correction.

    Models an unprotected memory (the *Default* configuration of the
    paper) while keeping the memory-device code uniform.
    """

    def __init__(self, data_bits: int = 32) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        self.check_bits = 0

    @property
    def correctable_bits(self) -> int:
        return 0

    @property
    def detectable_bits(self) -> int:
        return 0

    def encode(self, data: int) -> int:
        self._check_data(data)
        return data

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword(codeword)
        return DecodeResult(data=codeword, status=DecodeStatus.CLEAN)
