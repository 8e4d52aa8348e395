"""Stdlib logging for the runtime: node- and trace-aware, quiet by default.

The runtime had zero loggers; this module gives every component one
without making any CLI noisy until asked:

* the ``repro`` logger gets a :class:`logging.NullHandler` on import, so
  an un-configured process emits nothing (no ``lastResort`` stderr spam);
* :func:`configure_logging` (wired to the runtime CLI's ``--log-level``)
  attaches one stream handler whose formatter stamps every line with the
  emitting node and the trace id active on the calling thread — a log
  line inside a traced request is greppable by the same ``trace_id`` the
  span dump uses;
* :func:`node_logger` returns a ``LoggerAdapter`` that injects
  ``node_id`` so call sites just log.

Format: ``HH:MM:SS.mmm LEVEL logger [node=N trace=T] message``.
"""

from __future__ import annotations

import logging
from typing import Optional

from .context import current_trace_id

__all__ = ["configure_logging", "node_logger", "NodeTraceFormatter"]

_ROOT_NAME = "repro"

# Quiet by default: a handler-less hierarchy falls back to lastResort
# (stderr at WARNING); the NullHandler suppresses that until configured.
logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


class NodeTraceFormatter(logging.Formatter):
    """Formatter adding ``node=``/``trace=`` correlation to every line."""

    default_msec_format = "%s.%03d"

    def format(self, record: logging.LogRecord) -> str:
        node = getattr(record, "node_id", None)
        trace = current_trace_id()
        record.obs_ctx = f"[node={'-' if node is None else node} trace={trace or '-'}]"
        return super().format(record)


def configure_logging(level: str | int = "INFO", stream=None) -> logging.Logger:
    """Attach one configured handler to the ``repro`` logger (idempotent).

    Re-configuration replaces the previous handler, so tests and
    long-lived sessions can tighten/loosen the level freely.
    """
    if isinstance(level, str):
        parsed = logging.getLevelName(level.upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    root = logging.getLogger(_ROOT_NAME)
    for h in list(root.handlers):
        if not isinstance(h, logging.NullHandler):
            root.removeHandler(h)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(
        NodeTraceFormatter("%(asctime)s %(levelname)-7s %(name)s %(obs_ctx)s %(message)s",
                           datefmt="%H:%M:%S")
    )
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


def node_logger(name: str, node_id=None) -> logging.LoggerAdapter:
    """Logger for one component instance; every record carries ``node_id``."""
    return logging.LoggerAdapter(logging.getLogger(name), {"node_id": node_id})


def set_level(level: str | int) -> None:
    """Adjust the hierarchy level without touching handlers."""
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
    logging.getLogger(_ROOT_NAME).setLevel(level)
