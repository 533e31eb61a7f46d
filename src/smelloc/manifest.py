"""Provenance manifests for emitted reports.

Every report records the tool version, the exact command, hashes of its
inputs, and a flag asserting the pipeline is free of random number use.
JSON reports embed the manifest under a "manifest" key; CSV and JSON-lines
outputs get a sidecar file next to them, since their formats have no room
for nesting.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Mapping, Sequence

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


def _encode(obj, level: int) -> Iterator[str]:
    """Yield the text json.dump(obj, indent=2, allow_nan=False) writes for
    obj nested level deep. Dictionary keys must be strings."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        pad = "\n" + "  " * (level + 1)
        if set(map(type, obj)) == {float}:
            # Curves are long float lists: one join instead of one string
            # per number. A non-finite float is the only repr with an "n".
            text = ("," + pad).join(map(float.__repr__, obj))
            if "n" in text:
                for value in obj:
                    _scalar(value)
            yield "[" + pad + text + "\n" + "  " * level + "]"
            return
        sep = "[" + pad
        for value in obj:
            if isinstance(value, (list, tuple, dict)):
                yield sep
                yield from _encode(value, level + 1)
            else:
                yield sep + _scalar(value)
            sep = "," + pad
        yield "\n" + "  " * level + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        pad = "\n" + "  " * (level + 1)
        sep = "{" + pad
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if isinstance(value, (list, tuple, dict)):
                yield sep + _escape(key) + ": "
                yield from _encode(value, level + 1)
            else:
                yield sep + _escape(key) + ": " + _scalar(value)
            sep = "," + pad
        yield "\n" + "  " * level + "}"
    else:
        yield _scalar(obj)


def _write_json(obj, path: str | Path) -> None:
    """Write obj as json.dump(obj, indent=2, allow_nan=False) would, plus a
    final newline. The text goes out piece by piece, never as one string."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(obj, 0))
        fh.write("\n")


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
