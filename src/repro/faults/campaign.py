"""Fault-injection campaign aggregation.

A *campaign* repeats the same experiment under many independent fault
streams (different seeds) and aggregates the outcomes.  The Fig. 5 energy
comparison and the timing-overhead analysis are averages over such
campaigns, because the number and placement of upsets varies run to run.

:func:`aggregate_columns` is the single fold: it picks the metrics and
turns their per-run columns into a :class:`CampaignReport`.  Both
campaign paths of :meth:`repro.api.session.Session.campaign` end there:
materialized runs through :func:`aggregate_runs`, which turns per-run
rows into columns, and streamed runs straight from the batched engine's
column blocks.  :meth:`CampaignReport.to_result_set` exposes the
aggregates through the uniform machine-readable results layer.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..api.results import ResultSet

#: Row values that count as metrics; anything else is a label.
_NUMERIC = (bool, int, float)


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated statistics of one metric across campaign runs.

    ``values`` is a tuple of per-run floats when the runs arrived as rows
    (:func:`aggregate_runs`) and a float64 array when they arrived as
    engine column blocks (a streamed campaign).  Every statistic goes
    through the same :mod:`statistics` code either way and is returned
    as a plain Python ``float``/``int``, so reports stay JSON-serializable
    and bit-identical across the two representations.
    """

    metric: str
    values: Sequence[float]

    @property
    def count(self) -> int:
        """Number of runs that reported this metric."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean across runs."""
        return float(statistics.fmean(self.values))

    @property
    def minimum(self) -> float:
        """Smallest observed value."""
        return float(min(self.values))

    @property
    def maximum(self) -> float:
        """Largest observed value."""
        return float(max(self.values))

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for a single run)."""
        if len(self.values) < 2:
            return 0.0
        return float(statistics.stdev(self.values))

    @property
    def median(self) -> float:
        """Median across runs (production traffic is judged on tails)."""
        return float(statistics.median(self.values))

    @property
    def p95(self) -> float:
        """95th-percentile value (linear interpolation between runs)."""
        return float(_percentile(self.values, 0.95))


@dataclass
class CampaignReport:
    """All metrics aggregated over one campaign."""

    runs: int
    metrics: dict[str, CampaignResult] = field(default_factory=dict)
    raw: list[Mapping[str, float]] = field(default_factory=list)

    def __getitem__(self, metric: str) -> CampaignResult:
        return self.metrics[metric]

    def mean(self, metric: str) -> float:
        """Shortcut for ``report[metric].mean``."""
        return self.metrics[metric].mean

    def to_result_set(self, title: str = "Campaign summary") -> "ResultSet":
        """Expose the aggregates through the uniform results layer."""
        from ..api.results import ResultSet

        records = [
            {
                "metric": result.metric,
                "count": result.count,
                "mean": result.mean,
                "stdev": result.stdev,
                "median": result.median,
                "p95": result.p95,
                "min": result.minimum,
                "max": result.maximum,
            }
            for result in self.metrics.values()
        ]
        return ResultSet.from_records(
            f"{title} ({self.runs} runs)",
            records,
            columns=("metric", "count", "mean", "stdev", "median", "p95", "min", "max"),
        )

    def render(self, title: str = "Campaign summary") -> str:
        """ASCII table of the per-metric aggregates (incl. median / p95)."""
        return self.to_result_set(title).render()




def aggregate_columns(
    blocks: Iterable[Mapping[str, Sequence[float]]],
    runs: int,
    metrics: Sequence[str] = (),
    raw: list[Mapping[str, Any]] | None = None,
) -> CampaignReport:
    """Fold blocks of per-run metric columns into a :class:`CampaignReport`.

    Parameters
    ----------
    blocks:
        Mappings of metric name to that block's per-run values, in run
        order.  Every block carries the same column names.
    runs:
        Number of runs the blocks cover.
    metrics:
        Aggregate these metrics, in this order.  Empty means every column
        of the first block except ``seed``, sorted: the seed is a run
        identity, not an outcome, so its statistics would be noise.  It
        can still be requested by name.
    raw:
        Per-run rows to keep in the report (empty when not given).

    Only the aggregated columns are retained, one chunk per block, and
    each metric's chunks are joined on their own, so memory stays at
    8 bytes per (run, metric) for float64 blocks.  A single block's
    columns are kept as they are: a tuple of floats stays a tuple.
    """
    if runs <= 0:
        raise ValueError("at least one run is required")
    names = list(dict.fromkeys(metrics))
    chunks: dict[str, list[Sequence[float]]] = {}
    for block in blocks:
        if not names:
            names = sorted(name for name in block if name != "seed")
        for name in names:
            if name in block:
                chunks.setdefault(name, []).append(block[name])
    aggregated: dict[str, CampaignResult] = {}
    for name in names:
        parts = chunks.pop(name, None)
        if not parts:
            raise ValueError(f"metric {name!r} was reported by no run")
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
        aggregated[name] = CampaignResult(metric=name, values=values)
    return CampaignReport(runs=runs, metrics=aggregated, raw=raw if raw is not None else [])


def aggregate_runs(
    raw: Sequence[Mapping[str, Any]],
    metrics: Sequence[str] = (),
    allow_ragged: bool = False,
) -> CampaignReport:
    """Aggregate per-run metric mappings into a :class:`CampaignReport`.

    Parameters
    ----------
    raw:
        One mapping of metric name to numeric value per run.  Non-numeric
        entries (labels such as an application name) are ignored.
    metrics:
        Restrict aggregation to these metric names (empty = every numeric
        metric observed in any run except ``seed``; see
        :func:`aggregate_columns`).
    allow_ragged:
        By default a metric missing from some runs raises ``ValueError``
        — silently averaging over a subset of runs would misreport the
        campaign.  Pass ``True`` to aggregate over the reporting runs only
        (each :class:`CampaignResult` records its own ``count``).
    """
    if not raw:
        raise ValueError("at least one run is required")
    columns: dict[str, list[float]] = {}
    for row in raw:
        for name, value in row.items():
            if isinstance(value, _NUMERIC):
                column = columns.get(name)
                if column is None:
                    columns[name] = column = []
                column.append(float(value))
    report = aggregate_columns(
        [{name: tuple(column) for name, column in columns.items()}],
        runs=len(raw),
        metrics=metrics,
        raw=[dict(row) for row in raw],
    )
    if not allow_ragged:
        for name, result in report.metrics.items():
            if result.count != len(raw):
                missing = [
                    index
                    for index, row in enumerate(raw)
                    if not isinstance(row.get(name), _NUMERIC)
                ]
                raise ValueError(
                    f"metric {name!r} is missing from runs {missing}; pass "
                    "allow_ragged=True to aggregate over the reporting runs only"
                )
    return report
