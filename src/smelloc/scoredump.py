"""The two readers behind dataio.load_external_scores.

A dump whose every line has the shape write_score_lines writes is read in
bulk, one pattern match per block of lines; any other dump is decoded one
line at a time, which names the line of any error. Only commands that read
a score dump import this module.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .log import get_logger

# Warnings name the loader that users call.
logger = get_logger("smelloc.dataio")

# One decoder for every score line: raw_decode is json.loads without its
# whitespace scans and wrapper calls, and it says where the value ends.
_decode_line = json.JSONDecoder().raw_decode
_BOM_ERROR = "Unexpected UTF-8 BOM (decode using utf-8-sig)"

# A line as write_score_lines writes it: json.dumps's key order and
# separators, and a score with a fraction or an exponent, which JSON reads as
# float(text). An integer would be read as an int first, so it is left out.
_WRITER_LINE = (
    r'^\{"bug": "([^"]*)", "module": "([^"]*)", "score": '
    r'(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))\}$'
)
# A JSON string holds these only as escapes, which the bulk reader leaves to
# the decoder.
_ESCAPED = r"[\\\x00-\x1f]"
_BLOCK_CHARS = 64 * 1024


def read_writer_lines(
    path: str | Path, known: set[str] | None
) -> dict[str, dict[str, float]] | None:
    """The score maps of a dump written as write_score_lines writes it, or
    None if any line has another shape, a (bug, module) pair repeats, or an
    id needs an escape; then nothing is logged.

    One pattern match per block of whole lines replaces a JSON decode per
    line; every line must match, so matches and newlines are equal in count.
    Each module id is held as one string, whichever bugs score it.
    """
    pattern = re.compile(_WRITER_LINE, re.M)
    by_bug: dict[str, dict[str, float]] = {}
    names: dict[str, str] = {}  # each module id's first string
    first_lines = []  # (line number, bug) where each bug first appears
    lineno = 0
    rest = ""
    with open(path, encoding="utf-8") as fh:
        while True:
            block = fh.read(_BLOCK_CHARS)
            if block:
                block = rest + block
                cut = block.rfind("\n") + 1
                block, rest = block[:cut], block[cut:]
            elif rest:
                block, rest = rest + "\n", ""
            else:
                break
            rows = pattern.findall(block)
            if len(rows) != block.count("\n"):
                return None
            for lineno, (bug, module, score) in enumerate(rows, lineno + 1):
                modules = by_bug.get(bug)
                if modules is None:
                    modules = by_bug[bug] = {}
                    first_lines.append((lineno, bug))
                modules[names.setdefault(module, module)] = float(score)
    if sum(map(len, by_bug.values())) != lineno:
        return None
    if re.search(_ESCAPED, "".join(set(by_bug).union(names))):
        return None
    if known is not None:
        for first, bug in first_lines:
            if bug not in known:
                logger.warning("%s:%d: score for unknown bug id %r", path, first, bug)
    return by_bug


def decode_lines(
    path: str | Path, known: set[str] | None
) -> dict[str, dict[str, float]]:
    """The score maps of any dump, one JSON decode per line; the first bad
    line raises ValueError naming its line number. Each module id is held
    as one string, as in read_writer_lines."""
    by_bug: dict[str, dict[str, float]] = {}
    names: dict[str, str] = {}
    # Streamed, not read whole: only an error makes the file be read again,
    # to name a bad byte's line.
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _decode_line(line)
                if end != len(line):
                    # json.loads reports the extra data after any whitespace.
                    extra = len(line) - len(line[end:].lstrip(" \t\n\r"))
                    raise json.JSONDecodeError("Extra data", line, extra)
                bug = rec["bug"]
                module = rec["module"]
                score = rec["score"]
                if type(bug) is not str:
                    raise ValueError(f"bug must be a string, got {bug!r}")
                if type(module) is not str:
                    raise ValueError(f"module must be a string, got {module!r}")
                if type(score) is not float:
                    # A bool is an int to Python but no JSON number.
                    if type(score) is not int:
                        raise ValueError(f"score must be a number, got {score!r}")
                    score = float(score)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                if line.startswith("\ufeff"):  # json.loads names the BOM
                    exc = json.JSONDecodeError(_BOM_ERROR, line, 0)
                raise ValueError(f"{path}:{lineno}: bad score entry: {exc}") from exc
            modules = by_bug.get(bug)
            if modules is None:
                modules = by_bug[bug] = {}
                if known is not None and bug not in known:
                    logger.warning(
                        "%s:%d: score for unknown bug id %r", path, lineno, bug
                    )
            if module in modules:
                raise ValueError(
                    f"{path}:{lineno}: duplicate score for bug {bug!r}, "
                    f"module {module!r}"
                )
            modules[names.setdefault(module, module)] = score
    return by_bug
