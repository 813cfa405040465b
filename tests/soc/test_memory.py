"""Tests for the behavioural memory devices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.strategies import (
    DefaultStrategy,
    HwMitigationStrategy,
    HybridStrategy,
    SwMitigationStrategy,
)
from repro.ecc import (
    DecodeResult,
    DecodeStatus,
    HammingCode,
    InterleavedCode,
    InterleavedSecDedCode,
    NoCode,
    ParityCode,
    SecDedCode,
)
from repro.faults import UpsetEvent
from repro.soc import EnergyAccount
from repro.soc.memory import (
    MemoryAccessStats,
    MemoryDevice,
    make_protected_buffer,
    make_scratchpad,
    make_stream_buffer,
)


class TestBasicAccess:
    def test_write_then_read_roundtrip(self):
        device = MemoryDevice("mem", capacity_words=16)
        device.write_word(3, 0xCAFEBABE)
        result = device.read_word(3)
        assert result.data == 0xCAFEBABE
        assert result.status is DecodeStatus.CLEAN

    def test_unwritten_word_reads_as_clean_zero(self):
        device = MemoryDevice("mem", capacity_words=4)
        result = device.read_word(0)
        assert result.data == 0
        assert result.status is DecodeStatus.CLEAN

    def test_out_of_range_access_raises(self):
        device = MemoryDevice("mem", capacity_words=4)
        with pytest.raises(IndexError):
            device.read_word(4)
        with pytest.raises(IndexError):
            device.write_word(-1, 0)

    def test_block_operations(self):
        device = MemoryDevice("mem", capacity_words=8)
        device.write_block(2, [1, 2, 3])
        values = [r.data for r in device.read_block(2, 3)]
        assert values == [1, 2, 3]
        assert device.written_words() == 3
        device.clear()
        assert device.written_words() == 0

    def test_code_word_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryDevice("mem", capacity_words=4, code=ParityCode(16), word_bits=32)

    def test_stats_count_accesses(self):
        device = MemoryDevice("mem", capacity_words=4)
        device.write_word(0, 1)
        device.read_word(0)
        device.read_word(1)
        assert device.stats.writes == 1
        assert device.stats.reads == 2
        assert device.stats.as_dict()["reads"] == 2


class TestEnergyCharging:
    def test_access_energy_goes_to_ledger(self):
        energy = EnergyAccount()
        device = MemoryDevice("L1", capacity_words=64, energy=energy)
        device.write_word(0, 5)
        device.read_word(0)
        assert energy.category_total_pj("memory_write") == pytest.approx(device.write_energy_pj)
        assert energy.category_total_pj("memory_read") == pytest.approx(device.read_energy_pj)

    def test_protected_device_costs_more_per_access(self):
        plain = MemoryDevice("plain", capacity_words=1024)
        protected = MemoryDevice(
            "prot", capacity_words=1024, code=InterleavedSecDedCode(32, ways=8)
        )
        assert protected.read_energy_pj > plain.read_energy_pj
        assert protected.area_mm2 > plain.area_mm2
        assert protected.access_cycles > plain.access_cycles


class TestFaultInjectionAndEcc:
    def test_upset_on_unwritten_word_has_no_effect(self):
        device = MemoryDevice("mem", capacity_words=8)
        landed = device.inject(UpsetEvent(word_index=2, bit_positions=(0, 1)))
        assert not landed
        assert device.stats.upsets_injected == 1
        assert device.stats.bit_flips_injected == 0

    def test_unprotected_memory_corrupts_silently(self):
        device = MemoryDevice("mem", capacity_words=8, code=NoCode(32))
        device.write_word(1, 0)
        device.inject(UpsetEvent(word_index=1, bit_positions=(3,)))
        result = device.read_word(1)
        assert result.data == 8
        assert result.status is DecodeStatus.CLEAN  # nothing notices

    def test_parity_memory_detects_single_flip(self):
        device = MemoryDevice("mem", capacity_words=8, code=ParityCode(32))
        device.write_word(1, 0xFFFF)
        device.inject(UpsetEvent(word_index=1, bit_positions=(5,)))
        result = device.read_word(1)
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE
        assert device.stats.errors_detected == 1
        assert device.stats.errors_uncorrectable == 1

    def test_secded_memory_corrects_and_scrubs(self):
        device = MemoryDevice("mem", capacity_words=8, code=SecDedCode(32))
        device.write_word(0, 0x1234)
        device.inject(UpsetEvent(word_index=0, bit_positions=(7,)))
        first = device.read_word(0)
        assert first.status is DecodeStatus.CORRECTED
        assert first.data == 0x1234
        # Scrub-on-read: the second read sees a clean word again.
        second = device.read_word(0)
        assert second.status is DecodeStatus.CLEAN
        assert device.stats.errors_corrected == 1

    def test_multibit_memory_corrects_adjacent_cluster(self):
        device = MemoryDevice("mem", capacity_words=8, code=InterleavedSecDedCode(32, ways=4))
        device.write_word(2, 0xDEADBEEF)
        device.inject(UpsetEvent(word_index=2, bit_positions=(10, 11, 12)))
        result = device.read_word(2)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == 0xDEADBEEF

    def test_flips_outside_codeword_are_ignored(self):
        device = MemoryDevice("mem", capacity_words=4, code=ParityCode(32))
        device.write_word(0, 1)
        landed = device.inject(UpsetEvent(word_index=0, bit_positions=(200,)))
        assert not landed
        assert device.read_word(0).status is DecodeStatus.CLEAN


class TestFactories:
    def test_scratchpad_matches_paper_platform(self):
        l1 = make_scratchpad()
        assert l1.capacity_bytes == 64 * 1024
        assert l1.capacity_words == 16384
        assert l1.name == "L1"

    def test_protected_buffer_requires_correction(self):
        with pytest.raises(ValueError):
            make_protected_buffer(32, ParityCode(32))
        buffer = make_protected_buffer(32, InterleavedSecDedCode(32, ways=4))
        assert buffer.capacity_words == 32

    def test_stream_buffer_is_unprotected(self):
        l1x = make_stream_buffer()
        assert l1x.code.check_bits == 0
        assert l1x.name == "L1X"


# ---------------------------------------------------------------------- #
# Decoding only struck words, against an always-decode reference
# ---------------------------------------------------------------------- #
class AlwaysDecodeMemory:
    """Reference device: every read of a written word runs the decoder.

    :class:`MemoryDevice` decodes only the words an upset struck; it must
    stay indistinguishable from this device in reads, stored codewords
    and counters.
    """

    def __init__(self, code) -> None:
        self.code = code
        self.storage: dict[int, int] = {}
        self.stats = MemoryAccessStats()

    def write_word(self, index: int, value: int) -> None:
        self.storage[index] = self.code.encode(value)
        self.stats.writes += 1

    def read_word(self, index: int) -> DecodeResult:
        self.stats.reads += 1
        stored = self.storage.get(index)
        if stored is None:
            return DecodeResult(data=0, status=DecodeStatus.CLEAN)
        result = self.code.decode(stored)
        if result.status is DecodeStatus.CORRECTED:
            self.stats.errors_detected += 1
            self.stats.errors_corrected += 1
            self.storage[index] = self.code.encode(result.data)
        elif result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
            self.stats.errors_detected += 1
            self.stats.errors_uncorrectable += 1
        return result

    def inject(self, event: UpsetEvent) -> bool:
        self.stats.upsets_injected += 1
        stored = self.storage.get(event.word_index)
        positions = [p for p in event.bit_positions if p < self.code.codeword_bits]
        if stored is None or not positions:
            return False
        for position in positions:
            stored ^= 1 << position
        self.storage[event.word_index] = stored
        self.stats.bit_flips_injected += len(positions)
        return True

    def clear(self) -> None:
        self.storage.clear()


def _strategy_interleaved_codes() -> list:
    """Every interleaved code a strategy's platform protects a memory with."""
    codes = {}
    for strategy in (
        DefaultStrategy(),
        SwMitigationStrategy(),
        HwMitigationStrategy(),
        HybridStrategy(8),
    ):
        for device in strategy.build_platform(required_buffer_words=16).memories:
            if isinstance(device.code, InterleavedCode):
                codes[device.code.identity()] = device.code
    return list(codes.values())


REFERENCE_CODES = [
    NoCode(32),
    ParityCode(32),
    HammingCode(32),
    SecDedCode(32),
    *_strategy_interleaved_codes(),
]

#: A few words, so operations keep meeting the same addresses.
REFERENCE_WORDS = 3


@st.composite
def memory_operations(draw, codeword_bits: int):
    """Writes, (cancelling) injects, repeated reads and clears over a small device."""
    index = st.integers(0, REFERENCE_WORDS - 1)
    # Positions reach past the codeword, where flips are ignored.
    positions = st.lists(
        st.integers(0, codeword_bits + 7), min_size=1, max_size=3, unique=True
    ).map(tuple)
    operation = st.one_of(
        st.tuples(st.just("write"), index, st.integers(0, 2**32 - 1)),
        st.tuples(st.just("inject"), index, positions),
        st.tuples(st.just("cancel"), index, positions),
        st.tuples(st.just("read"), index, st.integers(1, 3)),
        st.tuples(st.just("clear")),
    )
    return draw(st.lists(operation, max_size=40))


def test_reference_codes_cover_the_strategies_interleaved_codes():
    kinds = {type(code).__name__ for code in REFERENCE_CODES}
    assert {"InterleavedParityCode", "InterleavedSecDedCode"} <= kinds
    # The HW baseline (8 ways) and L1' (4 ways) build different SECDED codes.
    assert len(REFERENCE_CODES) >= 7


@pytest.mark.parametrize("code", REFERENCE_CODES, ids=lambda code: repr(code))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_device_matches_always_decode_reference(code, data):
    operations = data.draw(memory_operations(code.codeword_bits))
    device = MemoryDevice("mem", capacity_words=REFERENCE_WORDS, code=code)
    reference = AlwaysDecodeMemory(code)
    for operation in operations:
        kind, *args = operation
        if kind == "write":
            device.write_word(*args)
            reference.write_word(*args)
        elif kind in ("inject", "cancel"):
            index, positions = args
            for _ in range(2 if kind == "cancel" else 1):
                event = UpsetEvent(word_index=index, bit_positions=positions)
                assert device.inject(event) == reference.inject(event)
        elif kind == "read":
            index, times = args
            for _ in range(times):
                got, want = device.read_word(index), reference.read_word(index)
                assert (got.data, got.status) == (want.data, want.status), operation
        else:
            device.clear()
            reference.clear()
        for index in range(REFERENCE_WORDS):
            assert device.peek_word(index) == reference.storage.get(index), operation
        assert device.stats.as_dict() == reference.stats.as_dict(), operation
        assert device.written_words() == len(reference.storage)


def counting(code_class):
    """A 32-bit ``code_class`` code that counts its decoder calls."""

    class CountingCode(code_class):
        decodes = 0

        def decode(self, codeword):
            self.decodes += 1
            return super().decode(codeword)

    return CountingCode(32)


class TestDecodesOnlyStruckWords:
    def test_unstruck_reads_call_no_decoder(self):
        code = counting(SecDedCode)
        device = MemoryDevice("mem", capacity_words=4, code=code)
        device.write_word(0, 0xCAFE)
        results = [device.read_word(0) for _ in range(3)] + [device.read_word(1)]
        assert code.decodes == 0
        assert [r.data for r in results] == [0xCAFE] * 3 + [0]
        assert all(r.status is DecodeStatus.CLEAN for r in results)
        # An event that misses the codeword strikes nothing.
        device.inject(UpsetEvent(word_index=0, bit_positions=(code.codeword_bits,)))
        device.read_word(0)
        assert code.decodes == 0

    def test_struck_word_decodes_on_every_read_until_written(self):
        code = counting(SecDedCode)
        device = MemoryDevice("mem", capacity_words=4, code=code)
        device.write_word(1, 0x1234)
        device.inject(UpsetEvent(word_index=1, bit_positions=(3, 9)))
        statuses = [device.read_word(1).status for _ in range(3)]
        assert statuses == [DecodeStatus.DETECTED_UNCORRECTABLE] * 3
        assert code.decodes == 3
        device.write_word(1, 0x5678)
        assert device.read_word(1).data == 0x5678
        assert code.decodes == 3

    def test_struck_word_decodes_until_scrubbed(self):
        code = counting(SecDedCode)
        device = MemoryDevice("mem", capacity_words=4, code=code)
        device.write_word(2, 0xBEEF)
        device.inject(UpsetEvent(word_index=2, bit_positions=(5,)))
        first = device.read_word(2)
        assert (first.data, first.status) == (0xBEEF, DecodeStatus.CORRECTED)
        second = device.read_word(2)
        assert (second.data, second.status) == (0xBEEF, DecodeStatus.CLEAN)
        assert code.decodes == 1

    def test_cancelled_upsets_still_decode_clean(self):
        code = counting(SecDedCode)
        device = MemoryDevice("mem", capacity_words=4, code=code)
        device.write_word(3, 0xF00D)
        for _ in range(2):
            device.inject(UpsetEvent(word_index=3, bit_positions=(4,)))
        result = device.read_word(3)
        assert (result.data, result.status) == (0xF00D, DecodeStatus.CLEAN)
        assert code.decodes == 1

    def test_miscorrected_word_reads_back_as_scrubbed(self):
        # A double flip that Hamming SEC "corrects" to the wrong data: the
        # scrub writes that data back, and later reads return it.
        code = counting(HammingCode)
        device = MemoryDevice("mem", capacity_words=4, code=code)
        device.write_word(0, 0x1234)
        device.inject(UpsetEvent(word_index=0, bit_positions=(0, 5)))
        first = device.read_word(0)
        assert first.status is DecodeStatus.CORRECTED and first.data != 0x1234
        second = device.read_word(0)
        assert (second.data, second.status) == (first.data, DecodeStatus.CLEAN)
        assert code.decodes == 1
