"""Differential tests: table-driven codecs against their per-bit definitions.

Encoding, syndromes, data extraction and the interleaver's lane gather and
scatter run through byte-sliced lookup tables derived from the per-bit
``*_bitwise`` methods.  Each test builds the same code twice: once as
shipped, and once with every table-driven method rebound to its per-bit
definition.  Both must agree on ``encode`` and on every
:class:`~repro.ecc.DecodeResult` field, for every ``code_for_scheme``
scheme over data widths {1, 5, 8, 13, 32, 64} and interleaving factors
{1, 2, 3, 4, 8} that the scheme accepts (the non-interleaved schemes
ignore ``t``, so they are built once per width).

* Data widths up to 10 bits: every data word is encoded.
* Codewords up to 14 bits: every received word is decoded, which covers
  every data word with every flip pattern, miscorrections past the
  guarantee among them.
* Larger shapes: Hypothesis draws random data words and arbitrary flip
  masks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import code_for_scheme

WIDTHS = (1, 5, 8, 13, 32, 64)
WAYS = (1, 2, 3, 4, 8)
SCHEMES = ("none", "parity", "hamming", "secded")
INTERLEAVED_SCHEMES = ("interleaved-parity", "interleaved-hamming", "interleaved-secded")

#: Table-driven methods; the per-bit definition of ``name`` is ``_<name>_bitwise``.
TABLE_METHODS = ("encode", "_syndrome", "_extract_data", "_gather", "_scatter")


def _shapes() -> list[tuple[str, int, int]]:
    shapes = [(scheme, bits, 1) for scheme in SCHEMES for bits in WIDTHS]
    for scheme in INTERLEAVED_SCHEMES:
        for bits in WIDTHS:
            for ways in WAYS:
                try:
                    code_for_scheme(scheme, bits, ways)
                except ValueError:
                    continue  # more lanes than data bits
                shapes.append((scheme, bits, ways))
    return shapes


SHAPES = _shapes()
EXHAUSTIVE_ENCODE = [shape for shape in SHAPES if shape[1] <= 10]
EXHAUSTIVE_DECODE = [
    shape for shape in SHAPES if code_for_scheme(*shape).codeword_bits <= 14
]
SAMPLED = [shape for shape in SHAPES if shape not in EXHAUSTIVE_DECODE]


def _bitwise(code):
    """``code`` with every table-driven method rebound to its per-bit definition."""
    for name in TABLE_METHODS:
        reference = getattr(code, "_" + name.lstrip("_") + "_bitwise", None)
        if reference is not None:
            setattr(code, name, reference)
    for inner in (getattr(code, "_inner", None), *getattr(code, "_lanes", ())):
        if inner is not None:
            _bitwise(inner)
    return code


def _pair(shape):
    return code_for_scheme(*shape), _bitwise(code_for_scheme(*shape))


def _fields(result) -> tuple:
    return result.data, result.status, result.corrected_bits, result.syndrome


def test_shapes_cover_every_scheme_and_both_regimes():
    assert {shape[0] for shape in SHAPES} == set(SCHEMES + INTERLEAVED_SCHEMES)
    assert EXHAUSTIVE_DECODE and SAMPLED
    # The interleaved schemes reach the exhaustive regime too.
    assert {shape[0] for shape in EXHAUSTIVE_DECODE} >= set(INTERLEAVED_SCHEMES)


def test_reference_runs_no_tables():
    _, reference = _pair(("interleaved-secded", 32, 4))
    reference.decode(reference.encode(0x1234_5678) ^ 0b111)
    assert "_tables" not in vars(reference)
    assert all("_tables" not in vars(lane) for lane in reference._lanes)


@pytest.mark.parametrize("shape", EXHAUSTIVE_ENCODE, ids=str)
def test_encode_matches_bitwise_for_every_data_word(shape):
    code, reference = _pair(shape)
    for data in range(1 << code.data_bits):
        assert code.encode(data) == reference.encode(data), data


@pytest.mark.parametrize("shape", EXHAUSTIVE_DECODE, ids=str)
def test_decode_matches_bitwise_for_every_received_word(shape):
    code, reference = _pair(shape)
    for received in range(1 << code.codeword_bits):
        assert _fields(code.decode(received)) == _fields(reference.decode(received)), received


@pytest.mark.parametrize("shape", SAMPLED, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encode_and_decode_match_bitwise_on_random_flips(shape, data):
    code, reference = _pair(shape)
    word = data.draw(st.integers(0, (1 << code.data_bits) - 1), label="word")
    flips = data.draw(st.integers(0, (1 << code.codeword_bits) - 1), label="flips")
    codeword = code.encode(word)
    assert codeword == reference.encode(word)
    assert _fields(code.decode(codeword ^ flips)) == _fields(reference.decode(codeword ^ flips))


@pytest.mark.parametrize(
    "shape", [("hamming", 13, 1), ("secded", 64, 1), ("interleaved-parity", 32, 4),
              ("interleaved-hamming", 64, 3), ("interleaved-secded", 32, 8)],
    ids=str,
)
def test_instances_of_one_shape_share_their_tables(shape):
    first, second = code_for_scheme(*shape), code_for_scheme(*shape)
    assert first._tables is second._tables
    for mine, theirs in zip(getattr(first, "_lanes", ()), getattr(second, "_lanes", ())):
        if hasattr(mine, "_tables"):  # parity lanes need none
            assert mine._tables is theirs._tables
