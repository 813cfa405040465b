"""Baseline JPEG-class image codec (MediaBench ``jpg decode`` equivalent).

The decoder workload of the paper is ``djpeg`` from MediaBench.  This
module implements a complete baseline DCT image codec with the same
computational structure:

* 8x8 block tiling, level shift, orthonormal DCT-II / inverse DCT;
* quantization with the standard JPEG luminance table scaled by a quality
  factor (libjpeg's scaling rule);
* zig-zag coefficient ordering;
* differential DC coding and run-length AC coding with the standard JPEG
  ``(run, size)`` symbol alphabet (EOB and ZRL included);
* canonical Huffman entropy coding, with the code built from the actual
  symbol statistics of the image (the "optimized Huffman" mode of
  libjpeg) rather than the fixed Annex K tables.

Both an encoder (used to generate realistic compressed inputs and for
round-trip tests) and a streaming block-by-block decoder are provided;
the decoder is exposed as the :class:`JpegDecodeApp` workload.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .base import StepResult, StreamingApplication
from .datagen import natural_image

# ---------------------------------------------------------------------- #
# DCT and quantization
# ---------------------------------------------------------------------- #
#: Standard JPEG luminance quantization table (Annex K, Table K.1).
BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def quality_scaled_table(quality: int) -> np.ndarray:
    """Scale the base quantization table by a libjpeg-style quality factor."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in [1, 100]")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    table = np.floor((BASE_QUANT_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1, 255)


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8x8 DCT-II matrix."""
    n = 8
    matrix = np.zeros((n, n))
    for k in range(n):
        for i in range(n):
            matrix[k, i] = np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    matrix *= np.sqrt(2.0 / n)
    matrix[0, :] /= np.sqrt(2.0)
    return matrix


_DCT = _dct_matrix()


def forward_dct(block: np.ndarray) -> np.ndarray:
    """2-D orthonormal DCT of one 8x8 block."""
    return _DCT @ block @ _DCT.T


def inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    """2-D inverse DCT of one 8x8 coefficient block."""
    return _DCT.T @ coeffs @ _DCT


def _zigzag_order() -> list[tuple[int, int]]:
    """Standard JPEG zig-zag traversal order of an 8x8 block."""
    order = []
    for diagonal in range(15):
        cells = [
            (row, diagonal - row)
            for row in range(8)
            if 0 <= diagonal - row < 8
        ]
        if diagonal % 2 == 0:
            cells.reverse()  # even diagonals run bottom-left to top-right
        order.extend(cells)
    return order


ZIGZAG = _zigzag_order()


def zigzag_scan(block: np.ndarray) -> list[int]:
    """Flatten an 8x8 integer block in zig-zag order."""
    return [int(block[r, c]) for r, c in ZIGZAG]


def inverse_zigzag(values: list[int]) -> np.ndarray:
    """Rebuild an 8x8 block from its zig-zag flattened form."""
    if len(values) != 64:
        raise ValueError("expected 64 zig-zag coefficients")
    block = np.zeros((8, 8), dtype=np.int64)
    for value, (r, c) in zip(values, ZIGZAG):
        block[r, c] = value
    return block


# ---------------------------------------------------------------------- #
# Bit I/O
# ---------------------------------------------------------------------- #
class BitWriter:
    """Accumulates bits MSB-first and emits a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._accumulator = 0
        self._bit_count = 0
        self.bits_written = 0

    def write_bits(self, value: int, length: int) -> None:
        """Append the ``length`` least-significant bits of ``value``, MSB first."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            return
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self._accumulator = (self._accumulator << length) | value
        self._bit_count += length
        self.bits_written += length
        while self._bit_count >= 8:
            self._bit_count -= 8
            self._bytes.append((self._accumulator >> self._bit_count) & 0xFF)
        self._accumulator &= (1 << self._bit_count) - 1

    def getvalue(self) -> bytes:
        """Return the byte stream, padding the final partial byte with ones."""
        result = bytearray(self._bytes)
        if self._bit_count:
            pad = 8 - self._bit_count
            result.append(((self._accumulator << pad) | ((1 << pad) - 1)) & 0xFF)
        return bytes(result)


class BitReader:
    """Reads bits MSB-first from a byte string, tracking the bit position."""

    def __init__(self, data: bytes, position: int = 0) -> None:
        self.data = data
        self.position = position

    def read_bits(self, length: int) -> int:
        """Read ``length`` bits and advance the position."""
        if length < 0:
            raise ValueError("length must be non-negative")
        value = 0
        for _ in range(length):
            byte_index = self.position >> 3
            if byte_index >= len(self.data):
                raise EOFError("bitstream exhausted")
            bit_index = 7 - (self.position & 7)
            value = (value << 1) | ((self.data[byte_index] >> bit_index) & 1)
            self.position += 1
        return value


# ---------------------------------------------------------------------- #
# Canonical Huffman coding
# ---------------------------------------------------------------------- #
def build_code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Build Huffman code lengths from symbol frequencies.

    Returns a mapping ``symbol -> code length``.  A single-symbol alphabet
    gets length 1 (a degenerate but decodable code).
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        raise ValueError("at least one symbol with non-zero frequency is required")
    if len(symbols) == 1:
        return {symbols[0]: 1}

    heap: list[tuple[int, int, list[int]]] = []
    for tiebreak, symbol in enumerate(sorted(symbols)):
        heapq.heappush(heap, (frequencies[symbol], tiebreak, [symbol]))
    lengths = {symbol: 0 for symbol in symbols}
    counter = len(symbols)
    while len(heap) > 1:
        f1, _, group1 = heapq.heappop(heap)
        f2, _, group2 = heapq.heappop(heap)
        for symbol in group1 + group2:
            lengths[symbol] += 1
        heapq.heappush(heap, (f1 + f2, counter, group1 + group2))
        counter += 1
    return lengths


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical Huffman codes ``symbol -> (code, length)`` from lengths."""
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class HuffmanDecoder:
    """Decodes canonical Huffman codes produced by :func:`canonical_codes`."""

    def __init__(self, lengths: dict[int, int]) -> None:
        self._table = {
            (length, code): symbol
            for symbol, (code, length) in canonical_codes(lengths).items()
        }
        self._max_length = max(lengths.values())

    def decode_symbol(self, reader: BitReader) -> int:
        """Read one symbol from the bit reader."""
        code = 0
        for length in range(1, self._max_length + 1):
            code = (code << 1) | reader.read_bits(1)
            symbol = self._table.get((length, code))
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in bitstream")


# ---------------------------------------------------------------------- #
# Amplitude (JPEG "magnitude category") coding
# ---------------------------------------------------------------------- #
def magnitude_category(value: int) -> int:
    """JPEG size category of a coefficient value (number of amplitude bits)."""
    return abs(value).bit_length()


def encode_amplitude(value: int) -> tuple[int, int]:
    """Return ``(bits, length)`` of the JPEG amplitude encoding of ``value``."""
    size = magnitude_category(value)
    if size == 0:
        return 0, 0
    if value >= 0:
        return value, size
    return value + (1 << size) - 1, size


def decode_amplitude(bits: int, size: int) -> int:
    """Inverse of :func:`encode_amplitude`."""
    if size == 0:
        return 0
    if bits >> (size - 1):
        return bits
    return bits - (1 << size) + 1


EOB_SYMBOL = 0x00  # end of block
ZRL_SYMBOL = 0xF0  # run of 16 zeros


# ---------------------------------------------------------------------- #
# Encoded-image container
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EncodedImage:
    """A compressed image: header information plus the entropy-coded scan.

    This is the parsed equivalent of a baseline JPEG file: image
    dimensions, the quantization table, the two Huffman tables (as
    symbol -> code-length maps, from which canonical codes are rebuilt)
    and the bit-packed scan data.
    """

    width: int
    height: int
    quality: int
    quant_table: tuple[tuple[int, ...], ...]
    dc_lengths: dict[int, int]
    ac_lengths: dict[int, int]
    scan: bytes

    @property
    def blocks_x(self) -> int:
        """Number of 8x8 block columns."""
        return self.width // 8

    @property
    def blocks_y(self) -> int:
        """Number of 8x8 block rows."""
        return self.height // 8

    @property
    def num_blocks(self) -> int:
        """Total number of 8x8 blocks in the image."""
        return self.blocks_x * self.blocks_y

    def quant_array(self) -> np.ndarray:
        """Quantization table as a float array."""
        return np.array(self.quant_table, dtype=np.float64)


# ---------------------------------------------------------------------- #
# Encoder
# ---------------------------------------------------------------------- #
def _blocks_of(image: np.ndarray) -> list[np.ndarray]:
    """Split an image into 8x8 blocks in raster order."""
    height, width = image.shape
    if height % 8 or width % 8:
        raise ValueError("image dimensions must be multiples of 8")
    blocks = []
    for by in range(height // 8):
        for bx in range(width // 8):
            blocks.append(image[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8].astype(np.float64))
    return blocks


def _quantize_block(block: np.ndarray, table: np.ndarray) -> list[int]:
    """DCT, quantize and zig-zag one block."""
    coeffs = forward_dct(block - 128.0)
    quantized = np.round(coeffs / table).astype(np.int64)
    return zigzag_scan(quantized)


def _block_symbols(zigzag: list[int], prev_dc: int) -> tuple[list[tuple[str, int, int]], int]:
    """Convert a zig-zag block into entropy symbols.

    Returns a list of ``(kind, symbol, coefficient)`` tuples where kind is
    ``"dc"`` or ``"ac"``, plus the block's DC value (for the next block's
    differential coding).
    """
    symbols: list[tuple[str, int, int]] = []
    dc = zigzag[0]
    diff = dc - prev_dc
    symbols.append(("dc", magnitude_category(diff), diff))

    run = 0
    last_nonzero = 0
    for index in range(63, 0, -1):
        if zigzag[index] != 0:
            last_nonzero = index
            break
    for index in range(1, last_nonzero + 1):
        value = zigzag[index]
        if value == 0:
            run += 1
            if run == 16:
                symbols.append(("ac", ZRL_SYMBOL, 0))
                run = 0
            continue
        symbols.append(("ac", (run << 4) | magnitude_category(value), value))
        run = 0
    if last_nonzero < 63:
        symbols.append(("ac", EOB_SYMBOL, 0))
    return symbols, dc


def encode_image(image: np.ndarray, quality: int = 75) -> EncodedImage:
    """Compress a grey-scale image into an :class:`EncodedImage`."""
    if image.ndim != 2:
        raise ValueError("expected a 2-D grey-scale image")
    table = quality_scaled_table(quality)
    blocks = _blocks_of(image)

    # First pass: gather symbols and their statistics.
    all_symbols: list[list[tuple[str, int, int]]] = []
    dc_freq: dict[int, int] = {}
    ac_freq: dict[int, int] = {}
    prev_dc = 0
    for block in blocks:
        zigzag = _quantize_block(block, table)
        symbols, prev_dc = _block_symbols(zigzag, prev_dc)
        all_symbols.append(symbols)
        for kind, symbol, _ in symbols:
            freq = dc_freq if kind == "dc" else ac_freq
            freq[symbol] = freq.get(symbol, 0) + 1

    dc_lengths = build_code_lengths(dc_freq)
    ac_lengths = build_code_lengths(ac_freq)
    dc_codes = canonical_codes(dc_lengths)
    ac_codes = canonical_codes(ac_lengths)

    # Second pass: emit the bitstream.
    writer = BitWriter()
    for symbols in all_symbols:
        for kind, symbol, coefficient in symbols:
            code, length = (dc_codes if kind == "dc" else ac_codes)[symbol]
            writer.write_bits(code, length)
            if kind == "dc":
                bits, size = encode_amplitude(coefficient)
                writer.write_bits(bits, size)
            elif symbol not in (EOB_SYMBOL, ZRL_SYMBOL):
                bits, size = encode_amplitude(coefficient)
                writer.write_bits(bits, size)

    height, width = image.shape
    return EncodedImage(
        width=width,
        height=height,
        quality=quality,
        quant_table=tuple(tuple(int(v) for v in row) for row in table),
        dc_lengths=dc_lengths,
        ac_lengths=ac_lengths,
        scan=writer.getvalue(),
    )


# ---------------------------------------------------------------------- #
# Decoder
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class JpegDecodeState:
    """Streaming decoder state between blocks: scan position and DC predictor."""

    bit_position: int = 0
    prev_dc: int = 0
    blocks_done: int = 0


def decode_block(
    encoded: EncodedImage,
    state: JpegDecodeState,
    dc_decoder: HuffmanDecoder,
    ac_decoder: HuffmanDecoder,
) -> tuple[np.ndarray, JpegDecodeState, int]:
    """Decode the next 8x8 block of the scan.

    Returns the reconstructed pixel block (uint8), the next state and the
    number of non-zero coefficients (used by the cycle model).
    """
    reader = BitReader(encoded.scan, position=state.bit_position)
    table = encoded.quant_array()

    zigzag = [0] * 64
    size = dc_decoder.decode_symbol(reader)
    diff = decode_amplitude(reader.read_bits(size), size)
    dc = state.prev_dc + diff
    zigzag[0] = dc

    nonzero = 1 if dc else 0
    index = 1
    while index < 64:
        symbol = ac_decoder.decode_symbol(reader)
        if symbol == EOB_SYMBOL:
            break
        if symbol == ZRL_SYMBOL:
            index += 16
            continue
        run = symbol >> 4
        size = symbol & 0xF
        index += run
        if index >= 64:
            raise ValueError("corrupt scan: coefficient index out of range")
        zigzag[index] = decode_amplitude(reader.read_bits(size), size)
        nonzero += 1
        index += 1

    coeffs = inverse_zigzag(zigzag).astype(np.float64) * table
    pixels = inverse_dct(coeffs) + 128.0
    block = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
    next_state = JpegDecodeState(
        bit_position=reader.position,
        prev_dc=dc,
        blocks_done=state.blocks_done + 1,
    )
    return block, next_state, nonzero


def decode_image(encoded: EncodedImage) -> np.ndarray:
    """Decode a full :class:`EncodedImage` back into a grey-scale image."""
    dc_decoder = HuffmanDecoder(encoded.dc_lengths)
    ac_decoder = HuffmanDecoder(encoded.ac_lengths)
    image = np.zeros((encoded.height, encoded.width), dtype=np.uint8)
    state = JpegDecodeState()
    for block_index in range(encoded.num_blocks):
        block, state, _ = decode_block(encoded, state, dc_decoder, ac_decoder)
        by, bx = divmod(block_index, encoded.blocks_x)
        image[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = block
    return image


def pack_block_to_words(block: np.ndarray) -> list[int]:
    """Pack an 8x8 uint8 pixel block into 16 little-endian 32-bit words."""
    flat = block.reshape(-1)
    words = []
    for offset in range(0, 64, 4):
        word = 0
        for lane in range(4):
            word |= int(flat[offset + lane]) << (8 * lane)
        words.append(word)
    return words


# ---------------------------------------------------------------------- #
# Streaming-application wrapper
# ---------------------------------------------------------------------- #
#: Cycle model constants for the block decoder on an ARM9-class core:
#: Huffman decoding costs ~20 cycles per decoded coefficient, the 8x8 IDCT
#: plus dequantization and clamping costs ~2600 cycles per block.
DECODE_CYCLES_PER_BLOCK = 2600
DECODE_CYCLES_PER_COEFF = 20


class JpegDecodeApp(StreamingApplication):
    """MediaBench ``jpg decode``: block-by-block baseline JPEG decoding.

    Each streaming step decodes one 8x8 block from the entropy-coded scan
    and produces 16 output words (64 pixels).
    """

    name = "jpeg-decode"

    def __init__(self, width: int = 64, height: int = 64, quality: int = 75) -> None:
        if width % 8 or height % 8:
            raise ValueError("width and height must be multiples of 8")
        if width <= 0 or height <= 0:
            raise ValueError("width and height must be positive")
        self.width = width
        self.height = height
        self.quality = quality

    def generate_input(self, seed: int = 0) -> EncodedImage:
        """Compress a synthetic natural image to obtain a realistic scan."""
        image = natural_image(self.width, self.height, seed=seed)
        return encode_image(image, quality=self.quality)

    def num_steps(self, task_input: EncodedImage) -> int:
        return task_input.num_blocks

    def initial_state(self, task_input: EncodedImage) -> JpegDecodeState:
        return JpegDecodeState()

    def state_words(self) -> int:
        # Rolling back a block decoder needs more than the three scalars of
        # :class:`JpegDecodeState`: the bitstream read buffer, the Huffman
        # decoder housekeeping and the output MCU-row pointers must also be
        # restored, which on the reference djpeg implementation amounts to
        # roughly two dozen 32-bit words of live state.
        return 24

    def run_step(
        self, task_input: EncodedImage, step_index: int, state: JpegDecodeState
    ) -> StepResult:
        if step_index != state.blocks_done:
            raise ValueError(
                "JPEG decoding is strictly sequential: step "
                f"{step_index} requested but state is at block {state.blocks_done}"
            )
        dc_decoder = HuffmanDecoder(task_input.dc_lengths)
        ac_decoder = HuffmanDecoder(task_input.ac_lengths)
        block, next_state, nonzero = decode_block(task_input, state, dc_decoder, ac_decoder)
        words = pack_block_to_words(block)
        cycles = DECODE_CYCLES_PER_BLOCK + DECODE_CYCLES_PER_COEFF * max(1, nonzero)
        return StepResult(
            output_words=tuple(words),
            state=next_state,
            cycles=cycles,
            l1_reads=140,   # coefficient buffer, quant table, IDCT temporaries
            l1_writes=96,
        )
