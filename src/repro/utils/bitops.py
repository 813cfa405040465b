"""Small bit-manipulation helpers shared by the ECC and fault-injection code.

Words are represented as non-negative Python integers and every helper is
a pure function.  :func:`byte_tables` and :func:`xor_lookup` evaluate a
GF(2)-linear map (an ECC encoder, syndrome or lane permutation) one byte
at a time instead of one bit at a time.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

#: Byte-sliced lookup tables of one GF(2)-linear map (see :func:`byte_tables`).
ByteTables = tuple[tuple[int, ...], ...]


def popcount(value: int) -> int:
    """Number of set bits in ``value`` (which must be non-negative)."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers only")
    return value.bit_count()


def get_bit(value: int, position: int) -> int:
    """Return bit ``position`` (0 = LSB) of ``value`` as 0 or 1."""
    return (value >> position) & 1


def set_bit(value: int, position: int, bit: int) -> int:
    """Return ``value`` with bit ``position`` forced to ``bit`` (0 or 1)."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    mask = 1 << position
    return (value | mask) if bit else (value & ~mask)


def flip_bit(value: int, position: int) -> int:
    """Return ``value`` with bit ``position`` inverted."""
    return value ^ (1 << position)


def flip_bits(value: int, positions: Iterable[int]) -> int:
    """Return ``value`` with every listed bit position inverted."""
    result = value
    for position in positions:
        result ^= 1 << position
    return result


def bit_positions(value: int) -> Iterator[int]:
    """Yield the positions of set bits in ``value``, LSB first."""
    position = 0
    while value:
        if value & 1:
            yield position
        value >>= 1
        position += 1


def mask(width: int) -> int:
    """Return a mask with the ``width`` least-significant bits set."""
    if width < 0:
        raise ValueError("width must be non-negative")
    return (1 << width) - 1


def parity(value: int) -> int:
    """Even-parity bit of ``value``: 1 if the number of set bits is odd."""
    return popcount(value) & 1


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bit positions between ``a`` and ``b``."""
    return popcount(a ^ b)


def int_to_bits(value: int, width: int) -> list[int]:
    """Expand ``value`` into a list of ``width`` bits, LSB first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Iterable[int]) -> int:
    """Pack an LSB-first bit sequence into an integer."""
    result = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError("bits must contain only 0 or 1")
        result |= bit << index
    return result


def rotate_left(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` left by ``amount`` within a ``width``-bit word."""
    amount %= width
    m = mask(width)
    value &= m
    return ((value << amount) | (value >> (width - amount))) & m


def chunks_of_bits(value: int, width: int, chunk: int) -> list[int]:
    """Split a ``width``-bit ``value`` into ``chunk``-bit pieces, LSB first.

    The last piece may represent fewer than ``chunk`` significant bits if
    ``width`` is not a multiple of ``chunk``.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    pieces = []
    remaining = width
    current = value
    while remaining > 0:
        take = min(chunk, remaining)
        pieces.append(current & mask(take))
        current >>= take
        remaining -= take
    return pieces


def join_bit_chunks(pieces: Iterable[int], chunk: int) -> int:
    """Inverse of :func:`chunks_of_bits` for equally sized pieces."""
    result = 0
    for index, piece in enumerate(pieces):
        if piece < 0 or piece >> chunk:
            raise ValueError(f"piece {piece} does not fit in {chunk} bits")
        result |= piece << (index * chunk)
    return result


def byte_tables(function: Callable[[int], int], width: int) -> ByteTables:
    """Byte-sliced lookup tables of a GF(2)-linear map on ``width``-bit words.

    ``tables[k][b]`` is ``function(b << 8 * k)``.  Because ``function`` is
    linear (it maps XOR to XOR), it is evaluated only on the ``width`` unit
    vectors; every other entry is the XOR of the images of its set bits.
    :func:`xor_lookup` then applies the map to any ``width``-bit word.
    """
    images = [function(1 << bit) for bit in range(width)]
    tables = []
    for start in range(0, width, 8):
        table = [0]
        for image in images[start:start + 8]:
            table += [entry ^ image for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def xor_lookup(tables: ByteTables, value: int) -> int:
    """Apply the map behind ``tables`` to ``value``: XOR of one entry per byte.

    ``value`` must fit in the width the tables were built for.
    """
    result = 0
    for table in tables:
        result ^= table[value & 0xFF]
        value >>= 8
    return result
