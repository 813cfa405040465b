"""Deterministic random-number helpers.

Every stochastic component of the reproduction (fault injection, synthetic
workload generation) draws from a :class:`numpy.random.Generator` created
through this module so that experiments are reproducible from a single
seed and independent components receive independent streams.

Counter-based streams
---------------------
This module is also the one owner of the counter-based splitmix64 stream
format shared by the batched engines (:mod:`repro.batch.substrate`), the
stochastic scenarios (:mod:`repro.scenarios`) and the estimating
strategy's observation channel (:mod:`repro.core.strategies`).  Each
piece comes in a scalar and an array form, side by side, computing the
same bits:

* the splitmix64 finalizer — :func:`mix64` / :func:`mix64_array`;
* the key schedule, the stream identity of ``(seed, tag)`` —
  :func:`stream_key` / :func:`stream_keys` (over a :func:`seed_array`);
* the draw at ``(key, counter)`` and its 53-bit uniform —
  :meth:`CounterStream.uniform` / :func:`counter_uniforms`;
* the Poisson rule — :func:`poisson_from_uniform` /
  :func:`poisson_from_uniforms`.

A draw is a pure function of ``(key, counter)``, which is what makes
batched rows, scenario realizations and estimator observation channels
composition-invariant: the value drawn for one ``(seed, tag, counter)``
triple never depends on what else was drawn, in which order, by which
engine, or in which process.  This module sits at the bottom of the
layering so :mod:`repro.scenarios` and :mod:`repro.core` can share the
streams without importing the batch layer.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

#: splitmix64 increment (golden-ratio) constant.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: splitmix64 finalizer multipliers.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Scale of the top 53 bits of a draw onto ``[0, 1)``.
_U53 = 2.0**-53

#: Means above this take the normal-quantile tail of the Poisson rule
#: instead of CDF inversion, whose walk grows with the mean and whose
#: leading pmf term ``exp(-lam)`` underflows from about 745 on.
_POISSON_INVERSION_LIMIT = 64.0

_STD_NORMAL = NormalDist()


def mix64(value: int) -> int:
    """Scalar splitmix64 finalizer on Python ints."""
    z = value & _MASK64
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array (the products wrap mod 2^64)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_key(seed: int, tag: int) -> int:
    """Stream identity of ``(tag, seed)``.

    Different tags give statistically independent streams for the same
    seed, and a tag's stream never collides with the behavioural
    injector's NumPy streams.
    """
    tag_mix = mix64(tag * _GAMMA)
    return mix64((mix64((int(seed) & _MASK64) ^ tag_mix) + _GAMMA) & _MASK64)


def seed_array(seeds) -> np.ndarray:
    """``seeds`` as one read-only ``uint64`` array.

    A ``uint64`` array is taken as a read-only view, without a copy, and
    a ``range`` is laid out arithmetically; any other sequence is copied
    element by element.  The seeds must already be integers in
    ``[0, 2**64)``: :func:`repro.api.spec.checked_seeds` validates
    untrusted ones.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        if not seeds.flags.writeable:
            return seeds
        array = seeds.view()
    elif isinstance(seeds, range):
        # Modulo 2**64 a negative step wraps, and every seed is in range.
        array = np.arange(len(seeds), dtype=np.uint64)
        array *= np.uint64(seeds.step & _MASK64)
        array += np.uint64(seeds.start & _MASK64)
    else:
        array = np.array(seeds, dtype=np.uint64)
    array.flags.writeable = False
    return array


def stream_keys(seeds, tag: int) -> np.ndarray:
    """:func:`stream_key` of every seed, as a uint64 array.

    ``seeds`` is any integer array (a signed one wraps modulo 2**64, as
    :func:`stream_key` reduces an int) or a sequence of ints in
    ``[0, 2**64)``, mixed as a whole.
    """
    raw = np.asarray(seeds, dtype=np.uint64)
    tag_mix = np.uint64(mix64(tag * _GAMMA))
    return mix64_array(mix64_array(raw ^ tag_mix) + np.uint64(_GAMMA))


def counter_uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The uniform in ``[0, 1)`` drawn at each ``(key, counter)`` pair.

    The array form of :meth:`CounterStream.uniform`; counters are not
    advanced here.
    """
    scrambled = mix64_array((counters + np.uint64(1)) * np.uint64(_GAMMA))
    value = mix64_array(keys ^ scrambled)
    return (value >> np.uint64(11)).astype(np.float64) * _U53


def derive_seed(seed: int, tag: int) -> int:
    """A child seed for ``tag``, independent of other tags' children.

    Scenario combinators use this to hand each stochastic child its own
    realization seed, so overlaying or concatenating two copies of the
    same process yields independent sample paths.
    """
    return mix64((int(seed) & _MASK64) ^ mix64(tag * _GAMMA))


# ---------------------------------------------------------------------- #
# The Poisson rule
# ---------------------------------------------------------------------- #
def _normal_tail(lam: float, u: float) -> int:
    """Rounded normal quantile of mean and variance ``lam`` at ``u``."""
    z = _STD_NORMAL.inv_cdf(min(max(u, 1e-12), 1.0 - 1e-12))
    return max(0, round(lam + math.sqrt(lam) * z))


def poisson_from_uniform(lam: float, u: float) -> int:
    """The Poisson(``lam``) variate that the uniform ``u`` maps to.

    This is the package's one Poisson rule; :func:`poisson_from_uniforms`
    is the same rule over arrays, and the two agree bit for bit.

    * For ``lam`` up to 64: exact CDF inversion, the smallest ``k`` with
      ``u <= F(k)``.  ``F`` is summed from ``exp(-lam)`` by the pmf
      recurrence; if the pmf underflows to zero first, the walk stops
      where it is.
    * Above it: the normal quantile ``lam + sqrt(lam) * z(u)``, rounded
      and clamped at zero.

    Each draw uses exactly one uniform, whatever ``lam`` is (zero
    included), so stream consumption never depends on the data.
    """
    if lam < 0:
        raise ValueError("poisson mean must be non-negative")
    if lam > _POISSON_INVERSION_LIMIT:
        return _normal_tail(lam, u)
    # np.exp, not math.exp: the two differ in the last ulp for some
    # means, and the array form evaluates np.exp.
    pmf = float(np.exp(-lam))
    cdf = pmf
    k = 0
    while u > cdf and pmf > 0.0:
        k += 1
        pmf *= lam / k
        cdf += pmf
    return k


def poisson_from_uniforms(lam, u: np.ndarray) -> np.ndarray:
    """:func:`poisson_from_uniform` elementwise (``lam`` broadcasts to ``u``).

    The inversion runs ``max(k)`` vectorized steps, so small means finish
    almost at once.  Means above the inversion limit are rare, and their
    normal tail is evaluated one element at a time.
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), u.shape)
    if np.any(lam < 0):
        raise ValueError("poisson mean must be non-negative")
    k = np.zeros(u.shape, dtype=np.int64)
    tail = lam > _POISSON_INVERSION_LIMIT
    if tail.any():
        k[tail] = [
            _normal_tail(mean, value)
            for mean, value in zip(lam[tail].tolist(), u[tail].tolist())
        ]
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    active = (u > cdf) & ~tail
    while active.any():
        k[active] += 1
        step = pmf[active] * (lam[active] / k[active].astype(np.float64))
        pmf[active] = step
        cdf[active] += step
        active &= (u > cdf) & (pmf > 0.0)
    return k


class CounterStream:
    """A counter-based splitmix64 uniform stream, one scalar at a time.

    The draw at counter ``c`` is a pure function of ``(key, c)``, so a
    stream can be replayed, forked or verified independently of execution
    order.  It draws the same uniforms as :func:`counter_uniforms`.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0) -> None:
        self.key = int(key) & _MASK64
        self.counter = int(counter)

    def next_u64(self) -> int:
        """The next raw 64-bit draw (advances the counter)."""
        scrambled = mix64(((self.counter + 1) * _GAMMA) & _MASK64)
        self.counter += 1
        return mix64(self.key ^ scrambled)

    def uniform(self) -> float:
        """The next uniform in ``[0, 1)`` (53-bit mantissa)."""
        return (self.next_u64() >> 11) * _U53

    def exponential(self, mean: float) -> float:
        """An exponential variate with the given mean (one uniform)."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return -mean * math.log1p(-self.uniform())

    def uniform_in(self, low: float, high: float) -> float:
        """A uniform variate in ``[low, high)`` (one uniform)."""
        return low + (high - low) * self.uniform()

    def randint(self, n: int) -> int:
        """A uniform integer in ``[0, n)`` (one uniform)."""
        if n <= 0:
            raise ValueError("randint needs a positive bound")
        return min(int(self.uniform() * n), n - 1)

    def poisson(self, lam: float) -> int:
        """A Poisson variate with mean ``lam`` (one uniform).

        See :func:`poisson_from_uniform` for the rule.
        """
        return poisson_from_uniform(lam, self.uniform())


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a NumPy ``Generator`` from an explicit seed.

    Passing ``None`` yields a non-deterministic generator; tests and
    benchmarks always pass explicit seeds.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Uses NumPy's ``SeedSequence.spawn`` so that, for example, each
    benchmark in a fault-injection campaign gets its own stream and adding
    a benchmark does not perturb the others.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
