"""Tests for the SSU / SMU fault models."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import MixedUpset, MultiBitUpset, SingleBitUpset, UpsetEvent, default_smu_model
from repro.utils.rng import make_rng


class TestUpsetEvent:
    def test_apply_flips_exactly_the_listed_bits(self):
        event = UpsetEvent(word_index=3, bit_positions=(0, 4, 5))
        assert event.apply(0) == 0b110001
        assert event.apply(0b110001) == 0
        assert event.multiplicity == 3


class TestSingleBitUpset:
    def test_pattern_is_one_bit_in_range(self):
        model = SingleBitUpset()
        rng = make_rng(0)
        for _ in range(200):
            pattern = model.sample_pattern(32, rng)
            assert len(pattern) == 1
            assert 0 <= pattern[0] < 32

    def test_rejects_zero_width_word(self):
        with pytest.raises(ValueError):
            SingleBitUpset().sample_pattern(0, make_rng(0))

    def test_make_event_carries_metadata(self):
        event = SingleBitUpset().make_event(word_index=7, word_bits=32, rng=make_rng(1), cycle=99)
        assert event.word_index == 7
        assert event.cycle == 99


class TestMultiBitUpset:
    def test_cluster_is_adjacent_and_bounded(self):
        model = MultiBitUpset(min_width=2, max_width=4)
        rng = make_rng(5)
        for _ in range(300):
            pattern = model.sample_pattern(32, rng)
            assert 2 <= len(pattern) <= 4
            assert list(pattern) == list(range(pattern[0], pattern[0] + len(pattern)))
            assert pattern[-1] < 32

    def test_width_distribution_prefers_small_clusters(self):
        model = MultiBitUpset(min_width=2, max_width=4)
        rng = make_rng(9)
        widths = [model.sample_width(rng) for _ in range(2000)]
        assert widths.count(2) > widths.count(4)

    def test_fixed_width_when_min_equals_max(self):
        model = MultiBitUpset(min_width=3, max_width=3)
        assert all(model.sample_width(make_rng(i)) == 3 for i in range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiBitUpset(min_width=0)
        with pytest.raises(ValueError):
            MultiBitUpset(min_width=4, max_width=2)
        with pytest.raises(ValueError):
            MultiBitUpset(geometric_p=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=4, max_value=64))
    def test_cluster_never_exceeds_word(self, word_bits):
        model = MultiBitUpset(min_width=2, max_width=8)
        rng = make_rng(word_bits)
        pattern = model.sample_pattern(word_bits, rng)
        assert all(0 <= p < word_bits for p in pattern)


class TestMixedUpset:
    def test_fraction_controls_mix(self):
        rng = make_rng(3)
        always_smu = MixedUpset(smu_fraction=1.0)
        assert all(len(always_smu.sample_pattern(32, rng)) >= 2 for _ in range(100))
        never_smu = MixedUpset(smu_fraction=0.0)
        assert all(len(never_smu.sample_pattern(32, rng)) == 1 for _ in range(100))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            MixedUpset(smu_fraction=1.5)

    def test_default_model_is_smu_dominated(self):
        model = default_smu_model()
        rng = make_rng(11)
        multi = sum(1 for _ in range(2000) if len(model.sample_pattern(32, rng)) >= 2)
        assert multi > 1000  # more than half of the upsets are multi-bit


_multibit_models = st.integers(min_value=1, max_value=8).flatmap(
    lambda low: st.builds(
        MultiBitUpset,
        min_width=st.just(low),
        max_width=st.integers(min_value=low, max_value=low + 40),
        geometric_p=st.floats(min_value=0.01, max_value=1.0),
    )
)
_fault_models = st.one_of(
    _multibit_models,
    st.builds(
        MixedUpset,
        smu_fraction=st.floats(min_value=0.0, max_value=1.0),
        smu=_multibit_models,
    ),
)


class TestExactLaw:
    """``width_pmf``, ``width_tail`` and ``pattern_weights`` state one law."""

    @settings(max_examples=100, deadline=None)
    @given(_fault_models)
    def test_tail_and_pattern_weights_follow_the_width_pmf(self, model):
        pmf = model.width_pmf()
        assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        max_width = max(pmf)
        for t in range(max_width + 2):
            above = math.fsum(mass for width, mass in pmf.items() if width > t)
            assert model.width_tail(t) == pytest.approx(above, abs=1e-12)
        rng = make_rng(max_width)
        for word_bits in (max(1, max_width - 1), max_width + 3):
            weights = model.pattern_weights(word_bits)
            assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)
            # Every pattern the sampler draws carries weight in the exact law.
            for _ in range(20):
                assert weights[model.sample_pattern(word_bits, rng)] > 0.0

    def test_cluster_wider_than_the_word_is_clipped(self):
        # As in sample_pattern: the clipped cluster covers the whole word.
        model = MultiBitUpset(min_width=6, max_width=6)
        assert model.pattern_weights(4) == {(0, 1, 2, 3): 1.0}
        with pytest.raises(ValueError):
            model.pattern_weights(0)
