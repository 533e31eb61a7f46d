"""System descriptors and snapshots, and the record of what filtering
excludes.

A descriptor file names where one system's inputs live; dataio.load_system
reads them into a SystemSnapshot, and dataio.filter_dataset records each
exclusion in a ValidationReport under one of the reasons below. Only
config-search and library callers of those functions import this module.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .stopwords import read_json

if TYPE_CHECKING:
    from .dataio import BugReport
    from .smells import SmellInstance

REASON_NAN = "nan-score"
REASON_NO_GOLD = "no-gold-in-ranking"
REASON_MISSING = "missing-technique"
REASON_NO_SMELLS = "no-smells"
REASON_TOO_FEW = "fewer-than-5-reports"

MIN_REPORTS = 5


class SystemDescriptor(NamedTuple):
    """Where one system's inputs live on disk, as the descriptor file at
    path names them."""

    path: Path
    project: str
    version: str
    snapshot_path: Path
    bug_reports_path: Path
    smell_report_path: Path
    external_score_paths: dict[str, Path]

    @property
    def name(self) -> str:
        return f"{self.project}-{self.version}"


class SystemSnapshot(NamedTuple):
    """One system's reports and smells over its modules; the source text and
    score dumps stay at the descriptor's paths until prepare_system."""

    descriptor: SystemDescriptor
    modules: tuple[str, ...]
    reports: tuple[BugReport, ...]
    smells: tuple[SmellInstance, ...]


class ExcludedReport(NamedTuple):
    system: str
    bug_id: str
    reason: str


class ExcludedSystem(NamedTuple):
    system: str
    reason: str


class ValidationReport(NamedTuple):
    excluded_reports: tuple[ExcludedReport, ...]
    excluded_systems: tuple[ExcludedSystem, ...]

    def to_json_dict(self) -> dict:
        return {
            "excluded_reports": [
                {"system": e.system, "bug": e.bug_id, "reason": e.reason}
                for e in self.excluded_reports
            ],
            "excluded_systems": [
                {"system": e.system, "reason": e.reason}
                for e in self.excluded_systems
            ],
        }

    def to_text(self) -> str:
        lines = []
        for e in self.excluded_reports:
            lines.append(f"excluded report {e.bug_id} of {e.system}: {e.reason}")
        for e in self.excluded_systems:
            lines.append(f"excluded system {e.system}: {e.reason}")
        if not lines:
            lines.append("nothing excluded")
        return "\n".join(lines)


_DESCRIPTOR_FIELDS = ("project", "version", "snapshot", "bugs", "smells")


def load_descriptor(path: str | Path) -> SystemDescriptor:
    """Read a system descriptor JSON file; relative paths resolve against it."""
    path = Path(path)
    rec = read_json(path)
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        fields = {key: rec[key] for key in _DESCRIPTOR_FIELDS}
    except KeyError as exc:
        raise ValueError(f"{path}: descriptor missing key {exc}") from exc
    # str() would turn null into "None"; Path() of a number would crash.
    for key, value in fields.items():
        if not isinstance(value, str):
            raise ValueError(f"{path}: {key} must be a string, got {value!r}")
    scores = rec.get("scores", {})
    if not isinstance(scores, dict) or not all(isinstance(p, str) for p in scores.values()):
        raise ValueError(f"{path}: scores must be an object of paths, got {scores!r}")
    base = path.parent

    def resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    return SystemDescriptor(
        path=path,
        project=fields["project"],
        version=fields["version"],
        snapshot_path=resolve(fields["snapshot"]),
        bug_reports_path=resolve(fields["bugs"]),
        smell_report_path=resolve(fields["smells"]),
        external_score_paths={name: resolve(p) for name, p in scores.items()},
    )


def validate_ranking(
    scores: Mapping[str, float] | None, gold: Iterable[str]
) -> str | None:
    """Classify one technique's score map for one bug report.

    Returns None when usable, otherwise the exclusion reason: the technique
    produced nothing, produced a non-finite score, or ranks no gold module.
    """
    if scores is None:
        return REASON_MISSING
    if any(not math.isfinite(v) for v in scores.values()):
        return REASON_NAN
    if not any(m in scores for m in gold):
        return REASON_NO_GOLD
    return None
