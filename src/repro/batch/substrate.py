"""The NumPy sampler and dominance sweep under the batch engines.

:class:`Substrate` holds the array operations the vectorized engines
(:mod:`repro.batch.engine`, :mod:`repro.batch.pareto`) share:
counter-based fault sampling (:meth:`~Substrate.uniform`,
:meth:`~Substrate.poisson`, :meth:`~Substrate.binomial`,
:meth:`~Substrate.distinct_words`) and the Pareto dominance sweep
(:meth:`~Substrate.non_dominated_mask`).  Every engine uses the one
shared instance, :data:`SUBSTRATE`.

Counter-based fault streams
---------------------------
:meth:`Substrate.make_streams` derives one independent stream per run
from ``(tag, seed)``; every draw is a pure function of ``(key, counter)``.
The stream format (key schedule, uniform extraction, Poisson rule) is
owned by :mod:`repro.utils.rng`, so these streams draw exactly what
:class:`~repro.utils.rng.CounterStream` draws for the same key.  This is
what makes batched results independent of batch composition and block
size: simulating seeds ``[3]``, ``[0..9]`` or any block partition of them
produces the same per-seed rows bit for bit — the foundation of the
streaming/blocked execution layer (:mod:`repro.batch.streaming`), the
warehouse's per-block delta units and the service's batched shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import counter_uniforms, poisson_from_uniforms, stream_keys

#: Saturation threshold of the distinct-word occupancy recurrence:
#: beyond ``8 * words`` strikes, P(any word unstruck) < words * e^-8.
_OCCUPANCY_SATURATION = 8


@dataclass
class RunStreams:
    """Per-run counter-based random streams of one simulated batch.

    ``keys[i]`` is the hash-derived stream identity of run ``i`` (a pure
    function of the stream tag and the run's seed); ``counters[i]`` is
    how many uniforms run ``i`` has consumed.  A draw at ``(key, c)``
    always yields the same value, so any partition of the batch — blocks,
    shards, warehouse deltas — replays identically.
    """

    keys: np.ndarray
    counters: np.ndarray

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def nbytes(self) -> int:
        """Accounted bytes of the stream state arrays."""
        return int(self.keys.nbytes) + int(self.counters.nbytes)


class Substrate:
    """Counter-based sampling and the dominance sweep, on NumPy arrays.

    The sampling semantics — which run consumes how many uniforms at
    which counter — define the streams' identity: every row the batch
    engines emit depends on them.
    """

    # ------------------------------------------------------------------ #
    # Counter-based sampling
    # ------------------------------------------------------------------ #
    def make_streams(self, seeds, tag: int) -> RunStreams:
        """One independent counter-based stream per seed (see module docs)."""
        keys = stream_keys(seeds, tag)
        return RunStreams(keys=keys, counters=np.zeros(keys.shape[0], dtype=np.uint64))

    @staticmethod
    def _select(streams: RunStreams, idx) -> np.ndarray:
        """Indices addressed by one sampling call (``None`` = every run)."""
        if idx is None:
            return np.arange(len(streams))
        return idx

    def uniform(self, streams: RunStreams, idx=None) -> np.ndarray:
        """One uniform in ``[0, 1)`` per addressed run (advances counters)."""
        sel = self._select(streams, idx)
        value = counter_uniforms(streams.keys[sel], streams.counters[sel])
        streams.counters[sel] += np.uint64(1)
        return value

    def poisson(self, streams: RunStreams, lam, idx=None) -> np.ndarray:
        """Poisson draw per addressed run, one uniform each.

        The rule is :func:`repro.utils.rng.poisson_from_uniforms`.
        Consuming exactly one uniform per run regardless of the outcome
        keeps the stream advance data-independent.
        """
        sel = self._select(streams, idx)
        return poisson_from_uniforms(lam, self.uniform(streams, sel))

    def binomial(self, streams: RunStreams, counts, p: float, idx=None) -> np.ndarray:
        """Exact Binomial(count, p) per run, as a Bernoulli sum.

        Consumes ``count`` uniforms per run; degenerate probabilities
        (``p <= 0`` or ``p >= 1``) short-circuit without consuming.
        Counts here are per-window upset counts (0–2 at paper rates), so
        the trial loop is short.
        """
        sel = self._select(streams, idx)
        counts = np.asarray(counts, dtype=np.int64)
        out = np.zeros(sel.shape, dtype=np.int64)
        if p <= 0.0:
            return out
        if p >= 1.0:
            return counts.copy()
        pending = counts.copy()
        active = pending > 0
        while bool(active.any()):
            u = self.uniform(streams, sel[active])
            out[active] += (u < p).astype(np.int64)
            pending[active] -= 1
            active = pending > 0
        return out

    def distinct_words(self, streams: RunStreams, counts, words: int, idx=None) -> np.ndarray:
        """Distinct words struck by ``counts`` uniform upsets, per run.

        Samples the exact occupancy distribution by the sequential-throw
        recurrence ``D += Bernoulli(1 - D / words)``, consuming one
        uniform per (unsaturated) strike.  Counts far beyond the word
        pool saturate it without consuming.
        """
        sel = self._select(streams, idx)
        counts = np.asarray(counts, dtype=np.int64)
        if words <= 0:
            return np.zeros(sel.shape, dtype=np.int64)
        if words == 1:
            return (counts > 0).astype(np.int64)
        distinct = np.zeros(sel.shape, dtype=np.int64)
        saturated = counts > _OCCUPANCY_SATURATION * words
        distinct[saturated] = words
        remaining = np.where(saturated, 0, counts)
        active = remaining > 0
        while bool(active.any()):
            u = self.uniform(streams, sel[active])
            fresh = u < (1.0 - distinct[active].astype(np.float64) / words)
            distinct[active] += fresh.astype(np.int64)
            remaining[active] -= 1
            active = remaining > 0
        return distinct

    # ------------------------------------------------------------------ #
    # Dominance sweep
    # ------------------------------------------------------------------ #
    def non_dominated_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of the weakly non-dominated rows of ``values``.

        Semantics match :func:`repro.batch.pareto.reference_non_dominated`
        (exactly equal rows are all kept).  A weakly dominating point
        always has a strictly smaller objective sum, so visiting pivots in
        ascending-sum order lets each known-non-dominated pivot prune its
        dominated successors in one compacting sweep.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D (points x objectives) array")
        n = values.shape[0]
        order = np.argsort(values.sum(axis=1), kind="stable")
        costs = values[order]
        alive = np.arange(n)
        i = 0
        while i < costs.shape[0]:
            pivot = costs[i]
            keep = np.any(costs < pivot, axis=1) | np.all(costs == pivot, axis=1)
            costs = costs[keep]
            alive = alive[keep]
            i = int(np.count_nonzero(keep[:i])) + 1
        mask = np.zeros(n, dtype=bool)
        mask[order[alive]] = True
        return mask


#: The instance every batched engine samples and sweeps on.
SUBSTRATE = Substrate()


def default_substrate_name() -> str:
    """Name of the array backend the batched engines run on."""
    return "numpy"
