"""The NumPy sampler and dominance sweep under the batch engines.

Three groups of contracts live here:

* counter-based stream identity (composition invariance) and the
  consumption conventions the batched rows depend on;
* exact sampling distributions and the weak-dominance sweep against a
  brute-force reference;
* agreement with the scalar streams of :mod:`repro.utils.rng`: for the
  same ``(seed, tag)`` the array sampler draws the keys, uniforms and
  Poisson variates that :class:`~repro.utils.rng.CounterStream` draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.pareto import reference_non_dominated
from repro.batch.substrate import SUBSTRATE, default_substrate_name
from repro.utils.rng import (
    CounterStream,
    poisson_from_uniform,
    poisson_from_uniforms,
    stream_key,
)

sub = SUBSTRATE


class TestCounterStreams:
    def test_streams_are_deterministic(self):
        a = sub.make_streams([0, 1, 2], tag=7)
        b = sub.make_streams([0, 1, 2], tag=7)
        np.testing.assert_array_equal(a.keys, b.keys)
        assert sub.uniform(a).tolist() == sub.uniform(b).tolist()

    def test_stream_identity_is_composition_invariant(self):
        # The key of seed 3 is the same whether simulated solo or in a
        # batch — the property behind block/shard/warehouse invariance.
        solo = sub.make_streams([3], tag=7)
        batch = sub.make_streams(range(10), tag=7)
        assert int(solo.keys[0]) == int(batch.keys[3])

    def test_distinct_seeds_and_tags_decorrelate(self):
        keys = sub.make_streams(range(1000), tag=1).keys
        assert len(set(keys.tolist())) == 1000
        other = sub.make_streams(range(1000), tag=2).keys
        assert not np.any(keys == other)

    def test_uniform_advances_counters(self):
        streams = sub.make_streams([5, 6], tag=0)
        u1 = sub.uniform(streams)
        u2 = sub.uniform(streams)
        assert streams.counters.tolist() == [2, 2]
        assert not np.any(u1 == u2)
        assert np.all((u1 >= 0.0) & (u1 < 1.0))

    def test_subset_addressing_leaves_others_untouched(self):
        streams = sub.make_streams([0, 1, 2, 3], tag=0)
        sub.uniform(streams, idx=np.asarray([1, 3]))
        assert streams.counters.tolist() == [0, 1, 0, 1]

    def test_replay_at_same_counter_is_identical(self):
        a = sub.make_streams([9], tag=3)
        b = sub.make_streams([9], tag=3)
        sub.uniform(a)
        sub.uniform(b)
        assert float(sub.uniform(a)[0]) == float(sub.uniform(b)[0])

    def test_default_substrate_name_is_numpy(self):
        assert default_substrate_name() == "numpy"


class TestSamplingDistributions:
    def test_poisson_moments_and_consumption(self):
        streams = sub.make_streams(range(200_000), tag=11)
        lam = 0.8
        draws = sub.poisson(streams, np.full(200_000, lam))
        assert streams.counters.tolist() == [1] * 200_000  # 1 uniform/run
        assert draws.mean() == pytest.approx(lam, rel=0.02)
        assert draws.var() == pytest.approx(lam, rel=0.03)

    def test_poisson_zero_rate_still_consumes(self):
        # Data-independent stream advance: lam=0 runs consume their
        # uniform too, so downstream draws stay aligned across scenarios.
        streams = sub.make_streams([1, 2], tag=0)
        draws = sub.poisson(streams, np.zeros(2))
        assert draws.tolist() == [0, 0]
        assert streams.counters.tolist() == [1, 1]

    @pytest.mark.parametrize("lam", [746.0, 2048.0])
    def test_poisson_large_means_keep_their_mean(self, lam):
        # exp(-lam) underflows here, so CDF inversion alone would stop at 1.
        streams = sub.make_streams(range(20_000), tag=5)
        draws = sub.poisson(streams, lam)
        assert draws.mean() == pytest.approx(lam, rel=0.005)
        assert draws.std() == pytest.approx(lam**0.5, rel=0.05)

    def test_poisson_rejects_negative_means(self):
        streams = sub.make_streams([0, 1], tag=0)
        with pytest.raises(ValueError, match="non-negative"):
            sub.poisson(streams, np.asarray([1.0, -0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            CounterStream(1).poisson(-0.5)

    def test_binomial_moments_and_consumption(self):
        streams = sub.make_streams(range(100_000), tag=13)
        counts = np.full(100_000, 4, dtype=np.int64)
        draws = sub.binomial(streams, counts, 0.3)
        assert streams.counters.tolist()[:3] == [4, 4, 4]  # count uniforms
        assert draws.mean() == pytest.approx(4 * 0.3, rel=0.02)
        assert draws.max() <= 4

    def test_binomial_degenerate_p_consumes_nothing(self):
        streams = sub.make_streams([1, 2], tag=0)
        counts = np.asarray([3, 5], dtype=np.int64)
        assert sub.binomial(streams, counts, 0.0).tolist() == [0, 0]
        assert sub.binomial(streams, counts, 1.0).tolist() == [3, 5]
        assert streams.counters.tolist() == [0, 0]

    def test_distinct_words_saturates_without_consuming(self):
        streams = sub.make_streams([0], tag=0)
        counts = np.asarray([10_000], dtype=np.int64)
        assert sub.distinct_words(streams, counts, 8).tolist() == [8]
        assert streams.counters.tolist() == [0]

    def test_distinct_words_single_word_pool(self):
        streams = sub.make_streams([0, 1], tag=0)
        counts = np.asarray([0, 5], dtype=np.int64)
        assert sub.distinct_words(streams, counts, 1).tolist() == [0, 1]
        assert streams.counters.tolist() == [0, 0]


class TestDominanceSweep:
    def _brute_force(self, values: np.ndarray) -> np.ndarray:
        survivors = reference_non_dominated([tuple(row) for row in values])
        mask = np.zeros(len(values), dtype=bool)
        mask[survivors] = True
        return mask

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_reference(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(size=(120, 3))
        # Quantize to force ties and duplicated rows into the set.
        values = np.round(values, 1)
        mask = sub.non_dominated_mask(values)
        np.testing.assert_array_equal(mask, self._brute_force(values))

    def test_duplicates_are_all_kept(self):
        values = np.asarray([[1.0, 2.0], [1.0, 2.0], [0.5, 3.0], [2.0, 2.0]])
        mask = sub.non_dominated_mask(values)
        assert mask.tolist() == [True, True, True, False]

    def test_empty_and_bad_shapes(self):
        assert sub.non_dominated_mask(np.zeros((0, 3))).shape == (0,)
        with pytest.raises(ValueError, match="2-D"):
            sub.non_dominated_mask(np.zeros(4))


class TestAgreementWithCounterStream:
    """Array and scalar streams of the same ``(seed, tag)`` draw the same bits."""

    SEEDS = range(2_000)
    TAG = 0x5EED

    def test_keys_equal_stream_key(self):
        keys = sub.make_streams(self.SEEDS, self.TAG).keys
        assert keys.tolist() == [stream_key(seed, self.TAG) for seed in self.SEEDS]

    def test_uniforms_equal_counter_stream(self):
        streams = sub.make_streams(self.SEEDS, self.TAG)
        scalar = [CounterStream(stream_key(seed, self.TAG)) for seed in self.SEEDS]
        for _ in range(3):
            array = sub.uniform(streams).tolist()
            assert array == [stream.uniform() for stream in scalar]

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.8, 8.0, 64.0, 64.5, 700.0, 746.0, 2048.0])
    def test_poisson_draws_agree(self, lam):
        streams = sub.make_streams(self.SEEDS, self.TAG)
        array = sub.poisson(streams, lam).tolist()
        scalar = []
        for seed in self.SEEDS:
            stream = CounterStream(stream_key(seed, self.TAG))
            scalar.append(stream.poisson(lam))
            assert stream.counter == 1  # one uniform per draw, even at lam=0
        assert array == scalar
        assert streams.counters.tolist() == [1] * len(self.SEEDS)

    def test_rule_boundaries(self):
        # u equal to F(k) stays at k: the smallest k with u <= F(k).
        lam = 0.5
        f0 = float(np.exp(-lam))
        u = np.asarray([0.0, f0, np.nextafter(f0, 1.0), 1.0 - 2.0**-53])
        expected = [poisson_from_uniform(lam, value) for value in u.tolist()]
        assert expected[:3] == [0, 0, 1]
        assert poisson_from_uniforms(lam, u).tolist() == expected
        # Above the inversion limit the tail is the normal quantile.
        assert poisson_from_uniform(2048.0, 0.5) == 2048
