"""Uniform, machine-readable result container.

Every experiment surface — the figure harnesses, the fault campaigns, the
benchmarks and the CLI — reports through one :class:`ResultSet`: a titled,
column-ordered sequence of flat records.  A ``ResultSet`` renders as the
familiar ASCII table (``render()``) and serializes losslessly to dicts,
JSON and CSV, which is what lets ``repro-experiments ... --format json``
emit the exact numbers behind every paper artefact.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

#: Placeholder shown for a column missing from one record.
MISSING = "-"

FORMATS: tuple[str, ...] = ("table", "json", "csv")


def _infer_columns(records: Sequence[Mapping[str, Any]]) -> tuple[str, ...]:
    """Union of record keys, in first-seen order, skipping private keys."""
    columns: list[str] = []
    for record in records:
        for key in record:
            if not key.startswith("_") and key not in columns:
                columns.append(key)
    return tuple(columns)


@dataclass(frozen=True)
class ResultSet:
    """A titled table of experiment records.

    Attributes
    ----------
    title:
        Human-readable heading (used by ``render()`` and ``to_dict()``).
    columns:
        Ordered column names; records may omit columns (rendered as ``-``).
    records:
        Flat mappings of column name to JSON-able value, one per row.
    footer:
        Optional free-text annotation appended to ``render()`` output and
        carried through ``to_dict()``.
    metrics:
        Optional telemetry snapshot taken when the set was produced
        (attached by :meth:`Session.sweep` / :meth:`with_metrics`).
        Excluded from equality and from every serialized form
        (``to_dict()``, JSON, CSV) — two runs with identical rows stay
        equal and byte-identical regardless of telemetry.
    meta:
        Optional metadata of the service stream the rows came from
        (merged header and trailer: ``spec_sha256``, ``job_id``, final
        ``state``, …), kept by
        :meth:`~repro.service.client.ServiceClient.result_set` so a
        fetched set keeps its identity.  Like ``metrics`` it is excluded
        from equality and from every serialized form.
    """

    title: str
    columns: tuple[str, ...]
    records: tuple[Mapping[str, Any], ...]
    footer: str = ""
    metrics: Mapping[str, Any] | None = field(default=None, compare=False, repr=False)
    meta: Mapping[str, Any] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "records", tuple(dict(r) for r in self.records))

    def with_metrics(self, metrics: Mapping[str, Any] | None) -> "ResultSet":
        """A copy of this set carrying a telemetry snapshot (or ``None``)."""
        return replace(self, metrics=metrics)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls,
        title: str,
        records: Iterable[Mapping[str, Any]],
        columns: Sequence[str] | None = None,
        footer: str = "",
    ) -> "ResultSet":
        """Build a result set, inferring columns from the records if needed."""
        materialized = tuple(dict(r) for r in records)
        if columns is None:
            columns = _infer_columns(materialized)
        return cls(title=title, columns=tuple(columns), records=materialized, footer=footer)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order (missing → ``None``)."""
        return [record.get(name) for record in self.records]

    def rows(self) -> list[tuple]:
        """Records as value tuples following the column order."""
        return [
            tuple(record.get(column, MISSING) for column in self.columns)
            for record in self.records
        ]

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form: title, columns and row records."""
        payload: dict[str, Any] = {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [
                {column: record.get(column) for column in self.columns if column in record}
                for record in self.records
            ],
        }
        if self.footer:
            payload["footer"] = self.footer
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        """CSV with one header row (missing cells are left empty)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for record in self.records:
            writer.writerow([record.get(column, "") for column in self.columns])
        return buffer.getvalue()

    def render(self) -> str:
        """Human-readable ASCII table with the title and optional footer."""
        from ..analysis.tables import render_table

        text = self.title + "\n" + render_table(list(self.columns), self.rows())
        if self.footer:
            text += "\n" + self.footer
        return text

    def formatted(self, fmt: str = "table") -> str:
        """Render in one of the supported output formats."""
        if fmt == "table":
            return self.render()
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")

    def write(self, path, fmt: str = "table") -> None:
        """Write the formatted result set to ``path``, creating parent dirs."""
        write_report(path, self.formatted(fmt))


def write_report(path, text: str) -> None:
    """Atomically write a report to ``path``, creating missing parent dirs.

    The single file-output path of the results layer: the CLI's
    ``--output`` and :meth:`ResultSet.write` both land here, so reports can
    target fresh directories (``results/2026-07/run.json``) without the
    caller pre-creating them.  The text goes to a temp file in the target
    directory and lands via ``os.replace``, so a reader (or a second CLI
    invocation racing for the same path) can never observe a truncated
    report — it sees either the old content or the new, nothing between.
    """
    target = os.fspath(path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=parent or ".",
        prefix=f".{os.path.basename(target)}.",
        suffix=".tmp",
        delete=False,
        encoding="utf-8",
    )
    try:
        with handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        os.replace(handle.name, target)
    except OSError:
        # Unlike the caches, a failed report write is a real error — but
        # never leave the temp file behind.
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def render_result_sets(sections: Sequence[ResultSet], fmt: str = "table") -> str:
    """Render several result sets as one document.

    ``table`` sections are separated by blank lines, ``json`` emits a
    single object (or a list when there are several sections) and ``csv``
    prefixes each section with a ``# title`` comment line.
    """
    if fmt == "table":
        return "\n\n".join(section.render() for section in sections)
    if fmt == "json":
        if len(sections) == 1:
            return sections[0].to_json()
        return json.dumps([section.to_dict() for section in sections], indent=2)
    if fmt == "csv":
        parts = []
        for section in sections:
            parts.append(f"# {section.title}\n{section.to_csv()}")
        return "\n".join(parts)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
