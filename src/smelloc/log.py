"""Module loggers that import ``logging`` only when first used.

Most commands log nothing on a normal run, and each one runs in its own
process, so none of them should pay for importing ``logging``. A module
gets a stand-in from ``get_logger``. Until ``logging`` is loaded, ``debug``
and ``info`` do nothing if the level that ``configure`` recorded drops them.
Any other attribute lookup imports ``logging``, applies that level and
format, and from then on forwards everything to the real logger of the same
name.
"""

from __future__ import annotations

import sys

_FORMAT = "%(levelname)s %(name)s: %(message)s"

# The command line's level, until logging has been configured with it.
_pending: int | None = None

# The levels of the methods that a recorded level can drop unloaded.
_QUIET_LEVELS = {"debug": 10, "info": 20}  # logging.DEBUG, logging.INFO


def configure(verbose: bool) -> None:
    """Log at INFO or WARNING level, one "LEVEL name: message" per line.

    The settings take effect on the first message at or above the level if
    logging is not loaded yet, and right away if it is.
    """
    global _pending
    _pending = 20 if verbose else 30  # logging.INFO, logging.WARNING
    if "logging" in sys.modules:
        _apply()


def _apply():
    global _pending
    import logging

    if _pending is not None:
        logging.basicConfig(level=_pending, format=_FORMAT)
        _pending = None
    return logging


class _Logger:
    __slots__ = ("_name", "_logger")

    def __init__(self, name: str):
        self._name = name
        self._logger = None

    def __getattr__(self, attr: str):
        level = _QUIET_LEVELS.get(attr)
        if level is not None and _pending is not None and level < _pending:
            return _drop
        if self._logger is None:
            self._logger = _apply().getLogger(self._name)
        return getattr(self._logger, attr)


def _drop(*args, **kwargs) -> None:
    """A message below the recorded level."""


def get_logger(name: str) -> _Logger:
    """A logger for name that loads logging on its first use."""
    return _Logger(name)
