"""Structured logging for the service server (and anything else).

``mlpsim serve`` historically announced itself with ad-hoc ``print``s and
swallowed request logs entirely.  This module gives the whole package one
configurable logging setup:

- ``setup_logging(level, fmt)`` configures the ``"repro"`` logger tree —
  ``fmt="text"`` for human-readable lines, ``fmt="json"`` for JSON-lines
  records (one object per line: ``ts``, ``level``, ``logger``, ``msg``,
  ``corr``) that load straight into log pipelines.
- Every record automatically carries the current correlation ID (see
  :mod:`repro.obs.context`), so one service job's dispatch, engine batch
  and completion lines grep together by job ID.

Setup is idempotent: re-running replaces the handler this module installed
rather than stacking duplicates, and the root logger is never touched.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Optional, TextIO

from .context import correlation_id

__all__ = ["JsonFormatter", "get_logger", "setup_logging"]

#: Logger namespace everything in this package logs under.
ROOT_LOGGER = "repro"

_HANDLER_MARK = "_repro_obs_handler"

LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


class _CorrelationFilter(logging.Filter):
    """Stamp the current correlation ID onto every record."""

    def filter(self, record: logging.LogRecord) -> bool:
        corr = correlation_id()
        record.corr = corr
        record.corr_suffix = f" [{corr}]" if corr else ""
        return True


class JsonFormatter(logging.Formatter):
    """One JSON object per line; ``corr`` included only when set."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        corr = getattr(record, "corr", "")
        if corr:
            payload["corr"] = corr
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, separators=(",", ":"))


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the package namespace (``repro`` or ``repro.<name>``)."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


def setup_logging(
    level: str = "info",
    fmt: str = "text",
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Configure the package logger; returns it.

    *level* is a standard level name (case-insensitive); *fmt* is
    ``"text"`` or ``"json"``; *stream* defaults to stderr.
    """
    level_no = logging.getLevelName(level.upper())
    if not isinstance(level_no, int):
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LOG_LEVELS}"
        )
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown log format {fmt!r}; expected text or json")

    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level_no)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)

    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    setattr(handler, _HANDLER_MARK, True)
    handler.addFilter(_CorrelationFilter())
    if fmt == "json":
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)-7s %(name)s%(corr_suffix)s %(message)s",
            datefmt="%Y-%m-%d %H:%M:%S",
        ))
    logger.addHandler(handler)
    logger.propagate = False
    return logger
