"""Tests for the interleaved multi-bit codes (the SMU counter-measure)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    DecodeStatus,
    InterleavedCode,
    InterleavedHammingCode,
    InterleavedParityCode,
    InterleavedSecDedCode,
    code_for_scheme,
)
from repro.utils.bitops import flip_bits

WORDS = st.integers(min_value=0, max_value=(1 << 32) - 1)


def adjacent_cluster(start: int, width: int) -> list[int]:
    """Bit positions of an adjacent upset cluster."""
    return list(range(start, start + width))


class TestConstruction:
    def test_check_bits_sum_of_lanes(self):
        code = InterleavedSecDedCode(32, ways=4)
        # 4 lanes of 8 data bits, each SECDED with 5 check bits.
        assert code.check_bits == 20
        assert code.codeword_bits == 52

    def test_correctable_and_detectable_scale_with_ways(self):
        code = InterleavedSecDedCode(32, ways=4)
        assert code.correctable_bits == 4
        assert code.detectable_bits == 8
        parity = InterleavedParityCode(32, ways=4)
        assert parity.correctable_bits == 0
        assert parity.detectable_bits == 4

    def test_rejects_more_ways_than_bits(self):
        with pytest.raises(ValueError):
            InterleavedCode(4, ways=8)

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            InterleavedCode(32, ways=0)
        with pytest.raises(ValueError):
            InterleavedCode(0, ways=2)

    def test_uneven_lane_split_still_roundtrips(self):
        code = InterleavedHammingCode(30, ways=4)
        for data in (0, 1, (1 << 30) - 1, 0x2AAAAAAA):
            assert code.roundtrip(data).data == data


class TestRoundtrip:
    @given(WORDS, st.sampled_from([2, 4, 8]))
    def test_clean_roundtrip(self, data, ways):
        code = InterleavedSecDedCode(32, ways=ways)
        result = code.roundtrip(data)
        assert result.data == data
        assert result.status is DecodeStatus.CLEAN


class TestClusterCorrection:
    @settings(max_examples=80, deadline=None)
    @given(
        WORDS,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=40),
    )
    def test_secded_4way_corrects_clusters_up_to_4(self, data, width, start):
        code = InterleavedSecDedCode(32, ways=4)
        start = min(start, code.codeword_bits - width)
        corrupted = flip_bits(code.encode(data), adjacent_cluster(start, width))
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data
        assert result.corrected_bits == width

    @settings(max_examples=80, deadline=None)
    @given(
        WORDS,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=50),
    )
    def test_secded_8way_corrects_clusters_up_to_8(self, data, width, start):
        code = InterleavedSecDedCode(32, ways=8)
        start = min(start, code.codeword_bits - width)
        corrupted = flip_bits(code.encode(data), adjacent_cluster(start, width))
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data

    @settings(max_examples=80, deadline=None)
    @given(
        WORDS,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=32),
    )
    def test_parity_4way_detects_clusters_up_to_4(self, data, width, start):
        code = InterleavedParityCode(32, ways=4)
        start = min(start, code.codeword_bits - width)
        corrupted = flip_bits(code.encode(data), adjacent_cluster(start, width))
        result = code.decode(corrupted)
        assert result.error_detected

    def test_exhaustive_cluster_sweep_4way_secded(self):
        code = InterleavedSecDedCode(32, ways=4)
        data = 0xC3A5_0F96
        encoded = code.encode(data)
        for width in range(1, 5):
            for start in range(code.codeword_bits - width + 1):
                corrupted = flip_bits(encoded, adjacent_cluster(start, width))
                result = code.decode(corrupted)
                assert result.data == data, f"cluster ({start}, {width}) not corrected"

    def test_wide_cluster_beyond_ways_is_not_silently_accepted(self):
        # A 6-bit cluster on a 4-way code puts 2 flips in some lanes: SECDED
        # lanes must flag it (detected uncorrectable), never return CLEAN.
        code = InterleavedSecDedCode(32, ways=4)
        data = 0x1234_5678
        corrupted = flip_bits(code.encode(data), adjacent_cluster(3, 6))
        result = code.decode(corrupted)
        assert result.status is not DecodeStatus.CLEAN


class TestPackedSyndrome:
    @staticmethod
    def single_flip_syndromes(code) -> list[int]:
        """Reported syndrome of every single-bit flip of a clean codeword."""
        encoded = code.encode(0)
        return [
            code.decode(flip_bits(encoded, [position])).syndrome
            for position in range(code.codeword_bits)
        ]

    @pytest.mark.parametrize(
        "scheme, data_bits, ways",
        [
            ("interleaved-secded", 600, 2),  # 9-bit lane syndromes
            ("interleaved-hamming", 600, 2),
            ("interleaved-secded", 600, 4),  # 8-bit lane syndromes
            ("interleaved-secded", 32, 4),
            ("interleaved-parity", 32, 4),
        ],
    )
    def test_single_flips_in_different_lanes_report_distinct_syndromes(
        self, scheme, data_bits, ways
    ):
        code = code_for_scheme(scheme, data_bits, ways)
        per_lane: list[set[int]] = [set() for _ in range(ways)]
        for (lane, _), syndrome in zip(code._physical_map, self.single_flip_syndromes(code)):
            if syndrome:
                per_lane[lane].add(syndrome)
        assert all(per_lane)
        assert len(set().union(*per_lane)) == sum(len(seen) for seen in per_lane)

    def test_wide_lane_syndromes_do_not_collide(self):
        # 300-bit lanes need 9-bit syndromes.  Round-robin placement puts
        # lane 1 bit 0 at physical bit 1 and lane 0 bit 255 at bit 510.
        code = code_for_scheme("interleaved-secded", 600, t=2)
        syndromes = self.single_flip_syndromes(code)
        assert syndromes[510] == 256
        assert syndromes[1] == 1 << 9

    @pytest.mark.parametrize(
        "scheme, data_bits, ways",
        [
            ("parity", 32, 1),
            ("hamming", 32, 1),
            ("secded", 32, 1),
            ("interleaved-parity", 32, 4),
            ("interleaved-secded", 32, 8),
            ("interleaved-secded", 600, 2),
        ],
    )
    def test_single_flip_syndromes_fit_in_syndrome_bits(self, scheme, data_bits, ways):
        code = code_for_scheme(scheme, data_bits, ways)
        syndromes = self.single_flip_syndromes(code)
        assert max(syndromes).bit_length() == code.syndrome_bits

    def test_narrow_lane_syndromes_stay_packed_at_eight_bits(self):
        # Lane 1 bit 0 of the paper's 4-way SECDED word is physical bit 1.
        code = InterleavedSecDedCode(32, ways=4)
        assert self.single_flip_syndromes(code)[1] == 1 << 8
        assert code.syndrome_bits == 3 * 8 + 4
