"""Fault-injection campaign aggregation.

A *campaign* repeats the same experiment under many independent fault
streams (different seeds) and aggregates the outcomes.  The Fig. 5 energy
comparison and the timing-overhead analysis are averages over such
campaigns, because the number and placement of upsets varies run to run.

:func:`aggregate_columns` is the single fold: it picks the metrics and
turns their per-run columns into a :class:`CampaignReport`.  Campaigns on
both engines hand it their seed blocks' columns; :func:`aggregate_runs`
turns per-run rows into columns for callers that hold rows.
:meth:`CampaignReport.to_result_set` exposes the aggregates through the
uniform machine-readable results layer.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

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
    column blocks (a campaign).  Every statistic goes
    through the same :mod:`statistics` code either way and is returned
    as a plain Python ``float``/``int``, so reports stay JSON-serializable
    and bit-identical across the two representations.
    """

    metric: str
    values: Sequence[float]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignResult):
            return NotImplemented
        return self.metric == other.metric and tuple(self.values) == tuple(other.values)

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
    """All metrics aggregated over one campaign.

    ``rows`` returns the per-run rows; a batched campaign rebuilds them
    from its kept columns each time :attr:`raw` is read.
    """

    runs: int
    metrics: dict[str, CampaignResult] = field(default_factory=dict)
    rows: Callable[[], list[Mapping[str, Any]]] = field(default=list, repr=False)

    @property
    def raw(self) -> list[Mapping[str, Any]]:
        """Every run's row, in run order."""
        return self.rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignReport):
            return NotImplemented
        return (self.runs, self.metrics, self.raw) == (other.runs, other.metrics, other.raw)

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
    columns: Mapping[str, Sequence[float]],
    runs: int,
    metrics: Sequence[str] = (),
    rows: Callable[[], list[Mapping[str, Any]]] = list,
) -> CampaignReport:
    """Fold per-run metric columns into a :class:`CampaignReport`.

    Parameters
    ----------
    columns:
        Metric name to its per-run values, in run order.  The report
        keeps the aggregated columns as given (a tuple stays a tuple, a
        float64 array costs 8 bytes per run).
    runs:
        Number of runs the columns cover.
    metrics:
        Aggregate these metrics, in this order.  Empty means every column
        except ``seed``, sorted: the seed is a run identity, not an
        outcome, so its statistics would be noise.  It can still be
        requested by name.
    rows:
        Returns the per-run rows the report's :attr:`~CampaignReport.raw`
        serves (none when not given).
    """
    if runs <= 0:
        raise ValueError("at least one run is required")
    names = list(dict.fromkeys(metrics)) or sorted(name for name in columns if name != "seed")
    aggregated: dict[str, CampaignResult] = {}
    for name in names:
        if name not in columns:
            raise ValueError(f"metric {name!r} was reported by no run")
        aggregated[name] = CampaignResult(metric=name, values=columns[name])
    return CampaignReport(runs=runs, metrics=aggregated, rows=rows)


def aggregate_runs(
    raw: Sequence[Mapping[str, Any]],
    metrics: Sequence[str] = (),
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

    A metric missing from some runs raises ``ValueError``: silently
    averaging over a subset of runs would misreport the campaign.
    """
    if not raw:
        raise ValueError("at least one run is required")
    columns: dict[str, list[float]] = {}
    for row in raw:
        for name, value in row.items():
            if isinstance(value, _NUMERIC):
                columns.setdefault(name, []).append(float(value))
    report = aggregate_columns(
        {name: tuple(column) for name, column in columns.items()},
        runs=len(raw),
        metrics=metrics,
        rows=[dict(row) for row in raw].copy,
    )
    for name, result in report.metrics.items():
        if result.count != len(raw):
            missing = [
                index for index, row in enumerate(raw) if not isinstance(row.get(name), _NUMERIC)
            ]
            raise ValueError(f"metric {name!r} is missing from runs {missing}")
    return report
