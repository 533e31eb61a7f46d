"""Provenance manifests for emitted reports.

Every report records the tool version, the exact command, hashes of its
inputs, and a flag asserting the pipeline is free of random number use.
JSON reports embed the manifest under a "manifest" key; CSV and JSON-lines
outputs get a sidecar file next to them, since their formats have no room
for nesting.

JSON files are written as json.dump(obj, indent=2, allow_nan=False) writes
them. The writer appends text pieces to a list and sends the list to the
file, joined, whenever it holds _CHUNK pieces, so the text is streamed in
bounded chunks. Float lists (the sweep curves) are joined in one call, each
distinct float formatted once: a memo from float to its text lives for one
file and starts over when it reaches _MEMO_CAP entries. -0.0 equals 0.0 and
hashes alike, so the only zero the memo holds is 0.0, and a list that holds
a zero and any value with its sign bit set is formatted without the memo.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__


def hash_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: Sequence[str],
    inputs: Mapping[str, str | Path],
    config_path: str | Path | None = None,
    notes: Sequence[str] = (),
) -> dict:
    """Describe one run: tool, command, input hashes, and notes."""
    return {
        "tool": "smelloc",
        "version": __version__,
        "command": list(command),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "inputs": {
            name: {"path": str(path), "sha256": hash_file(path)}
            for name, path in inputs.items()
        },
        "config_hash": hash_file(config_path) if config_path else None,
        "random_free": True,
        "notes": list(notes),
    }


# JSON text of a string, with every non-ASCII character escaped as in
# json.dumps(ensure_ascii=True).
_escape = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    """JSON text of a non-container value, as json.dumps(allow_nan=False)."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {value!r}"
            )
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Pieces of text held before they go to the file, joined, in one write.
_CHUNK = 256
# Distinct floats whose text one report keeps; the memo starts over when full.
_MEMO_CAP = 1 << 13


def _join_floats(values: Sequence[float], sep: str, memo: dict[float, str]) -> str:
    """The texts of a list of floats joined by sep, each distinct float
    formatted once while memo holds it. A list longer than _MEMO_CAP skips
    memo. -0.0 equals 0.0 and hashes alike, so a list holding a zero uses
    memo only if no value has its sign bit set: the only zero memo holds is
    0.0."""
    if len(values) > _MEMO_CAP or (
        0.0 in values
        and min(map(math.copysign, repeat(1.0, len(values)), values)) < 0.0
    ):
        return sep.join(map(float.__repr__, values))
    try:
        return sep.join(map(memo.__getitem__, values))
    except KeyError:
        pass
    distinct = set(values)
    new = distinct.difference(memo)
    if len(memo) + len(new) > _MEMO_CAP:
        memo.clear()
        new = distinct
    memo.update(zip(new, map(float.__repr__, new)))
    return sep.join(map(memo.__getitem__, values))


def _encode(obj, level: int, out: list[str], memo: dict[float, str], write) -> None:
    """Append to out the text json.dump(obj, indent=2, allow_nan=False)
    writes for obj nested level deep. Before each container, a full out goes
    to write as one string and is emptied. memo maps floats to their text.
    Dictionary keys must be strings."""
    if len(out) >= _CHUNK:
        write("".join(out))
        out.clear()
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = "\n" + "  " * (level + 1)
        if set(map(type, obj)) == {float}:
            # Curves are long float lists: one join instead of one string
            # per number. A non-finite float is the only repr with an "n".
            text = _join_floats(obj, "," + pad, memo)
            if "n" in text:
                for value in obj:
                    _scalar(value)
            out.append("[" + pad + text + "\n" + "  " * level + "]")
            return
        sep = "[" + pad
        for value in obj:
            if isinstance(value, (list, tuple, dict)):
                out.append(sep)
                _encode(value, level + 1, out, memo, write)
            else:
                out.append(sep + _scalar(value))
            sep = "," + pad
        out.append("\n" + "  " * level + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = "\n" + "  " * (level + 1)
        sep = "{" + pad
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if isinstance(value, (list, tuple, dict)):
                out.append(sep + _escape(key) + ": ")
                _encode(value, level + 1, out, memo, write)
            else:
                out.append(sep + _escape(key) + ": " + _scalar(value))
            sep = "," + pad
        out.append("\n" + "  " * level + "}")
    else:
        out.append(_scalar(obj))


def _write_json(obj, path: str | Path) -> None:
    """Write obj as json.dump(obj, indent=2, allow_nan=False) would, plus a
    final newline, in chunks, with one float memo for the file."""
    out: list[str] = []
    with open(path, "w", encoding="utf-8") as fh:
        _encode(obj, 0, out, {}, fh.write)
        out.append("\n")
        fh.write("".join(out))


def write_json_report(payload: dict, path: str | Path, manifest: dict) -> None:
    """Write a JSON report with the manifest embedded."""
    document = dict(payload)
    document["manifest"] = manifest
    _write_json(document, path)


def sidecar_path(path: str | Path) -> Path:
    return Path(f"{path}.manifest.json")


def write_sidecar_manifest(path: str | Path, manifest: dict) -> None:
    """Write the manifest next to a CSV or JSON-lines report."""
    _write_json(manifest, sidecar_path(path))
