"""Out-of-core block execution.

The batched engines execute campaigns and grids in fixed-size blocks
(:func:`batch_block_size`, tuned via ``REPRO_BATCH_BLOCK``) instead of
materialising the full ``seeds x phases`` or grid arrays.

Because the engines' fault streams are counter-based per run
(:mod:`repro.batch.substrate`), the block partition never changes any
per-seed number: splitting a million-seed campaign into blocks of 1, 7,
64 or one single block emits byte-identical reports.  What blocking
changes is the working set — the engine's per-block arrays are
``O(block)``, not ``O(seeds)``.

Block executions are observable through two metrics:
``repro_batch_blocks_total{kind=...}`` counts executed blocks and
``repro_batch_peak_bytes{kind=...}`` records the high-water accounted
bytes of the batched working sets (explicit byte accounting of the
live arrays, labelled by kind: ``campaign`` / ``pareto`` / ``rategrid``).
"""

from __future__ import annotations

import os
from collections.abc import Iterator

from ..telemetry import counter, gauge

#: Environment variable overriding the default execution block size.
ENV_BLOCK = "REPRO_BATCH_BLOCK"

#: Default seeds/rows per execution block (64Ki keeps the campaign
#: engine's per-block working set in the tens of megabytes).
DEFAULT_BLOCK = 65536

_BLOCKS = counter(
    "repro_batch_blocks_total",
    "Execution blocks processed by the batched engines",
    labels=("kind",),
)
_PEAK = gauge(
    "repro_batch_peak_bytes",
    "High-water accounted working-set bytes of the batched engines",
    labels=("kind",),
)


def batch_block_size() -> int | None:
    """Rows per execution block; ``None`` means unlimited (single block).

    Reads ``REPRO_BATCH_BLOCK``: unset or empty uses :data:`DEFAULT_BLOCK`,
    ``"0"`` disables blocking entirely, anything else must be a positive
    integer.
    """
    raw = os.environ.get(ENV_BLOCK, "").strip()
    if not raw:
        return DEFAULT_BLOCK
    try:
        value = int(raw)
    except ValueError as error:
        raise ValueError(f"{ENV_BLOCK}={raw!r} is not an integer") from error
    if value < 0:
        raise ValueError(f"{ENV_BLOCK} must be >= 0 (0 disables blocking)")
    return None if value == 0 else value


def iter_blocks(total: int, block: int | None = None) -> Iterator[slice]:
    """Consecutive slices covering ``range(total)`` in ``block``-sized steps.

    ``block=None`` resolves through :func:`batch_block_size`; the last
    slice is ragged when ``block`` does not divide ``total``.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if block is None:
        block = batch_block_size()
    if block is None or block >= total:
        if total:
            yield slice(0, total)
        return
    if block <= 0:
        raise ValueError("block must be positive")
    for start in range(0, total, block):
        yield slice(start, min(start + block, total))


def note_blocks(kind: str, count: int = 1) -> None:
    """Count ``count`` executed blocks of the given kind."""
    _BLOCKS.inc(count, kind=kind)


def note_peak_bytes(kind: str, nbytes: int) -> None:
    """Raise the ``kind`` working-set high-water mark to ``nbytes``."""
    if nbytes > _PEAK.value(kind=kind):
        _PEAK.set(float(nbytes), kind=kind)


def peak_bytes(kind: str) -> float:
    """Current ``repro_batch_peak_bytes`` high-water mark for ``kind``."""
    return _PEAK.value(kind=kind)


def blocks_total(kind: str) -> float:
    """Current ``repro_batch_blocks_total`` count for ``kind``."""
    return _BLOCKS.value(kind=kind)


def reset_block_metrics() -> None:
    """Zero both block metrics — for benchmarks measuring one run at a time."""
    _BLOCKS.clear()
    _PEAK.clear()
