"""Redundancy (check-bit) estimates for t-bit-correcting codes.

Figure 4 of the paper sweeps the number of *correctable bits per word*
from 1 to 18 and asks how large a protected buffer can be built inside a
5 % area budget.  The area of a candidate buffer depends on how many check
bits a t-bit-correcting code needs per 32-bit word.  This module provides
that mapping for several realizable schemes:

* ``"bch"`` — the BCH design bound ``r = t * m`` with ``m`` the smallest
  integer such that ``2**m - 1 >= data_bits + r`` (solved iteratively);
  the standard sizing rule for general t-error-correcting codes.
* ``"interleaved-hamming"`` / ``"interleaved-secded"`` — the check bits of
  the concrete interleaved codes in :mod:`repro.ecc.interleaved`, which
  correct adjacent clusters of t bits (the SMU failure mode).
* ``"parity"`` / ``"secded"`` — the degenerate detection-only and single-
  error cases, for completeness.

All estimators return *stored check bits per word*; the logic (encoder /
decoder circuitry) overheads are modelled in :mod:`repro.ecc.overhead`.
"""

from __future__ import annotations

from .hamming import hamming_check_bits, secded_check_bits


def bch_check_bits(data_bits: int, t: int) -> int:
    """Check bits of a binary BCH-style code correcting ``t`` errors.

    Uses the classical design bound ``r = m * t`` where ``m`` is chosen so
    that the codeword fits in ``2**m - 1`` bits.  ``t = 0`` means no
    protection (0 check bits).

    Examples
    --------
    >>> bch_check_bits(32, 1)
    6
    >>> bch_check_bits(32, 4)
    24
    """
    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0
    m = 1
    while True:
        r = m * t
        if (1 << m) - 1 >= data_bits + r:
            return r
        m += 1


def interleaved_check_bits(data_bits: int, t: int, secded: bool = True) -> int:
    """Check bits of a ``t``-way interleaved SEC(-DED) code.

    Each of the ``t`` lanes protects roughly ``data_bits / t`` bits with
    its own Hamming (plus overall parity when ``secded``).
    """
    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0
    if t > data_bits:
        raise ValueError("cannot interleave more ways than data bits")
    base = data_bits // t
    remainder = data_bits % t
    per_lane = secded_check_bits if secded else hamming_check_bits
    total = 0
    for lane in range(t):
        width = base + (1 if lane < remainder else 0)
        total += per_lane(width)
    return total


_SCHEMES = ("bch", "interleaved-secded", "interleaved-hamming", "secded", "parity", "none")


def check_bits_for_correction(data_bits: int, t: int, scheme: str = "bch") -> int:
    """Stored check bits per word for a code correcting ``t`` bits.

    Parameters
    ----------
    data_bits:
        Data word width (32 throughout the paper's platform).
    t:
        Required number of correctable bits per word.
    scheme:
        One of ``"bch"``, ``"interleaved-secded"``, ``"interleaved-hamming"``,
        ``"secded"``, ``"parity"`` or ``"none"``.  The fixed-capability
        schemes (``secded``, ``parity``, ``none``) ignore ``t`` beyond
        validating that the request does not exceed their capability.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown ECC scheme {scheme!r}; expected one of {_SCHEMES}")
    if t < 0:
        raise ValueError("t must be non-negative")
    if scheme == "none":
        if t > 0:
            raise ValueError("scheme 'none' cannot correct any bits")
        return 0
    if scheme == "parity":
        if t > 0:
            raise ValueError("scheme 'parity' cannot correct any bits")
        return 1
    if scheme == "secded":
        if t > 1:
            raise ValueError("scheme 'secded' corrects at most 1 bit")
        return secded_check_bits(data_bits)
    if t == 0:
        return 0
    if scheme == "bch":
        return bch_check_bits(data_bits, t)
    if scheme == "interleaved-secded":
        return interleaved_check_bits(data_bits, t, secded=True)
    return interleaved_check_bits(data_bits, t, secded=False)


def available_schemes() -> tuple[str, ...]:
    """Names of the supported redundancy-sizing schemes."""
    return _SCHEMES
