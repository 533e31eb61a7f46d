"""Module loggers that import ``logging`` only when first used.

Most commands log nothing on a normal run, and each one runs in its own
process, so none of them should pay for importing ``logging``. A module
gets a stand-in from ``get_logger``; its first attribute lookup imports
``logging``, applies the level and format that ``configure`` recorded, and
from then on forwards everything to the real logger of the same name.
"""

from __future__ import annotations

import sys

_FORMAT = "%(levelname)s %(name)s: %(message)s"

# The command line's level, until logging has been configured with it.
_pending: int | None = None


def configure(verbose: bool) -> None:
    """Log at INFO or WARNING level, one "LEVEL name: message" per line.

    The settings take effect on the first message if logging is not loaded
    yet, and right away if it is.
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
        if self._logger is None:
            self._logger = _apply().getLogger(self._name)
        return getattr(self._logger, attr)


def get_logger(name: str) -> _Logger:
    """A logger for name that loads logging on its first use."""
    return _Logger(name)
