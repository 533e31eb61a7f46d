"""The bodies of the CLI's commands, one module each, and their helpers.

``cli.main`` parses the command line and imports only the module of the
command it runs, whose ``run(args)`` returns the exit code; ``args.argv``
is the command line ``main`` parsed. A command module never imports
``smelloc.cli``: run as ``python -m smelloc.cli``, that module is
``__main__``, and importing it by name would compile it a second time.
Functions that a tracer may wrap (layer boundaries such as
``index.load_index``) are called through their module at call time, never
through a name bound when the command module was imported.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

from .. import manifest
from ..log import get_logger
from ..stopwords import DEFAULT_STOPWORDS, load_stopwords, read_json

# Commands log under the CLI's name, however the CLI was started.
logger = get_logger("smelloc.cli")

# metrics.METRIC_NAMES, copied so that commands that only parse flags load
# no metrics code; a test keeps the two equal.
STAT_METRICS = ("top1", "top5", "top10", "mrr", "map")


class UsageError(ValueError):
    """Bad flags or bad input data; mapped to exit code 2."""


def fmt(value: float) -> str:
    return f"{value:.4f}"


def dump_scores(path, by_bug: Mapping[str, Mapping[str, float]], bug_ids) -> list:
    """Each report's score map from a dump, in the order of bug_ids.

    The first report in that order with no scores, or with a NaN or infinite
    score, stops the run with a message naming the dump and the bug, and the
    first such module in dump order. Commands call this before they open any
    output.
    """
    maps = []
    for bug_id in bug_ids:
        scores = by_bug.get(bug_id)
        if scores is None:
            raise UsageError(f"{path}: bug {bug_id!r}: no scores")
        if not all(map(math.isfinite, scores.values())):
            module, value = next((m, v) for m, v in scores.items() if not math.isfinite(v))
            raise UsageError(
                f"{path}: bug {bug_id!r}: invalid score for module {module!r}: {value}"
            )
        maps.append(scores)
    return maps


def run_manifest(args, inputs, notes=()) -> dict:
    """The run's manifest: the command line main parsed, the run config's
    hash, and the inputs hashed now. A command builds it before it writes
    any output, so an input that is also --out is recorded as it was read."""
    return manifest.build_manifest(
        args.argv, inputs, config_path=args.run_config, notes=notes
    )


def write_csv(path, rows, provenance: dict) -> None:
    """Write rows as a CSV report and the run's manifest as its sidecar."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    manifest.write_sidecar_manifest(path, provenance)


def stopword_set(args) -> frozenset[str]:
    if getattr(args, "stopwords", None):
        return load_stopwords(args.stopwords)
    return DEFAULT_STOPWORDS


def require_dir(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{what} directory not found: {path}")
    return p


def require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return p


def load_selectors(path: str | None) -> dict[str, frozenset[str]]:
    """Read a JSON object mapping selector names to arrays of smell types.

    Without a file, s1 (every smell type) is the only selector.
    """
    from ..smells import ALL_TYPE_NAMES

    if not path:
        return {"s1": ALL_TYPE_NAMES}
    raw = read_json(require_file(path, "selectors"))
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: selectors must be a JSON object")
    # Files written by the risk command carry a manifest block alongside
    # the selector sets; it is metadata, not a selector.
    raw.pop("manifest", None)
    selectors = {}
    for name, types in raw.items():
        # A bare string would otherwise be read as a set of characters.
        if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
            raise UsageError(
                f"{path}: selector {name!r} must be a JSON array of smell type "
                f"names, got {types!r}"
            )
        unknown = set(types) - ALL_TYPE_NAMES
        if unknown:
            raise UsageError(
                f"{path}: selector {name!r} names unknown smell types: {sorted(unknown)}"
            )
        selectors[name] = frozenset(types)
    selectors.setdefault("s1", ALL_TYPE_NAMES)
    return selectors
