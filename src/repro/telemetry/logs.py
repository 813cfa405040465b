"""Structured JSON logging, unified under the ``repro`` logger hierarchy.

Every instrumented layer logs through :func:`log_event`: one JSON object
per line, stamped with the ambient span's correlation IDs (see
:mod:`repro.telemetry.spans`), emitted on a child of the ``repro``
logger — ``repro.telemetry`` by default, ``repro.service`` for the
service tree (``get_logger("service")``).  Handlers attach at
the shared ``repro`` root, so one :func:`configure_logging` call makes
client-, server- and worker-side events land in the same stream, and one
``grep run-abc123`` stitches them back together.

:func:`configure_logging` is idempotent **and** reconfigurable: the
first call attaches the stderr handler, later calls adjust the level of
both the logger and the handler (earlier versions silently ignored a new
``level`` once a handler existed).  When no explicit level is given the
``REPRO_LOG_LEVEL`` environment variable is honoured (name or number,
e.g. ``DEBUG`` or ``10``), falling back to ``INFO``.
"""

from __future__ import annotations

import json
import logging
import os

from .spans import current_ids

#: Environment variable selecting the default log level (name or number).
ENV_LOG_LEVEL = "REPRO_LOG_LEVEL"

#: Root of the unified logger hierarchy; handlers attach here.
ROOT_LOGGER_NAME = "repro"

#: Default logger for telemetry-layer events.
logger = logging.getLogger("repro.telemetry")

#: The handler configure_logging manages (None until first configured).
_handler: logging.Handler | None = None


def get_logger(name: str) -> logging.Logger:
    """A logger inside the unified hierarchy (``repro.<name>``)."""
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def log_event(event: str, logger_: logging.Logger | None = None, **fields) -> None:
    """Emit one structured log line: ``{"event": ..., ids..., **fields}``.

    The ambient span's correlation IDs (``run_id``, ``job``, ``shard``,
    ...) are merged in automatically; explicit keyword fields win on
    collision.  Free when the logger is not enabled for INFO.
    """
    target = logger_ if logger_ is not None else logger
    if target.isEnabledFor(logging.INFO):
        payload = {"event": event, **current_ids(), **fields}
        target.info(json.dumps(payload, default=str, sort_keys=True))


def resolve_level(level: int | str | None = None) -> int:
    """Resolve an explicit level, ``$REPRO_LOG_LEVEL``, or ``INFO``.

    Accepts numeric levels and standard names (case-insensitive); an
    unparseable environment value falls back to ``INFO`` rather than
    crashing the host process.
    """
    if level is None:
        level = os.environ.get(ENV_LOG_LEVEL, "").strip() or logging.INFO
    if isinstance(level, int):
        return level
    text = str(level).strip()
    if text.isdigit():
        return int(text)
    resolved = logging.getLevelName(text.upper())
    return resolved if isinstance(resolved, int) else logging.INFO


def configure_logging(
    level: int | str | None = None, stream=None
) -> logging.Handler:
    """Attach (or retune) the stderr handler on the ``repro`` root logger.

    Idempotent-but-reconfigurable: the first call installs one
    :class:`~logging.StreamHandler`; every later call re-applies
    ``level`` to both the root logger and that handler, so raising or
    lowering verbosity mid-process works.  ``level=None`` consults
    ``REPRO_LOG_LEVEL`` (name or number) and defaults to ``INFO``.
    Passing ``stream`` replaces the handler's target (tests use this).
    """
    global _handler
    resolved = resolve_level(level)
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(resolved)
    if _handler is None or _handler not in root.handlers:
        _handler = logging.StreamHandler(stream)
        _handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(message)s"))
        root.addHandler(_handler)
    elif stream is not None:
        _handler.setStream(stream)
    _handler.setLevel(resolved)
    return _handler
