"""Loading, validation, and filtering of localization datasets.

A system is one project version: a source snapshot, its bug reports with
gold sets, a smell report, and optional external technique scores. Loaded,
it is a SystemSnapshot; scored by one technique, it is the pair
(combine.System, combine.TechniqueScores) that filtering and the
configuration search take. Filtering applies the selection protocol in a
fixed order: first bug reports whose ranking is unusable under the
technique, then systems without any smell instance, then systems left with
fewer than five reports. Every exclusion is recorded with exactly one reason.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .corpus import TokenDocument, build_corpus, build_query
from .index import ScoredRanking, TermIndex, build_index, cosine_score, rvsm_score
from .stopwords import DEFAULT_STOPWORDS, read_utf8, utf8_error

if TYPE_CHECKING:
    from . import combine
    from .smells import SmellInstance

    # One system scored by one technique: what filtering and the search take.
    ScoredSystem = tuple[combine.System, combine.TechniqueScores]

logger = logging.getLogger(__name__)

NATIVE_TECHNIQUES = ("vsm", "rvsm")

REASON_NAN = "nan-score"
REASON_NO_GOLD = "no-gold-in-ranking"
REASON_MISSING = "missing-technique"
REASON_NO_SMELLS = "no-smells"
REASON_TOO_FEW = "fewer-than-5-reports"

MIN_REPORTS = 5


@dataclass(frozen=True)
class BugReport:
    id: str
    summary: str
    description: str
    gold: frozenset[str]

    def __post_init__(self):
        if not self.id:
            raise ValueError("bug report needs a nonempty id")
        if not self.gold:
            raise ValueError(f"bug report {self.id!r} has an empty gold set")


@dataclass(frozen=True)
class SystemDescriptor:
    """Where one system's inputs live on disk."""

    project: str
    version: str
    snapshot_path: Path
    bug_reports_path: Path
    smell_report_path: Path
    external_score_paths: dict[str, Path] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.project}-{self.version}"


@dataclass(frozen=True)
class SystemSnapshot:
    """One system loaded into memory, before any technique scores it."""

    name: str
    modules: tuple[str, ...]
    corpus: tuple[TokenDocument, ...]
    reports: tuple[BugReport, ...]
    smells: tuple[SmellInstance, ...]
    external_scores: dict[str, combine.TechniqueScores]
    stopwords: frozenset[str]


@dataclass(frozen=True)
class ExcludedReport:
    system: str
    bug_id: str
    reason: str


@dataclass(frozen=True)
class ExcludedSystem:
    system: str
    reason: str


@dataclass(frozen=True)
class ValidationReport:
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


def _json_error(path: str | Path, exc: json.JSONDecodeError) -> ValueError:
    return ValueError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}")


def load_bug_reports(path: str | Path) -> tuple[BugReport, ...]:
    """Read a JSON array of {"id", "summary", "description", "gold": [...]}."""
    try:
        records = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise _json_error(path, exc) from exc
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of bug reports")
    reports = []
    seen = set()
    for pos, rec in enumerate(records):
        try:
            bug_id = rec["id"]
            # str() would turn null into bug "None" and 7 into bug "7".
            if not isinstance(bug_id, str):
                raise ValueError(f"id must be a string, got {bug_id!r}")
            gold = rec.get("gold", [])
            # A bare string would otherwise be read as a set of characters.
            if not isinstance(gold, list) or not all(isinstance(g, str) for g in gold):
                raise ValueError(f"gold must be a JSON array of strings, got {gold!r}")
            summary = rec.get("summary", "")
            description = rec.get("description", "")
            # str() would turn null into the query word "None".
            for field, value in (("summary", summary), ("description", description)):
                if not isinstance(value, str):
                    raise ValueError(f"{field} must be a string, got {value!r}")
            report = BugReport(
                id=bug_id, summary=summary, description=description, gold=frozenset(gold)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bug report #{pos}: {exc}") from exc
        if report.id in seen:
            raise ValueError(f"{path}: duplicate bug report id {report.id!r}")
        seen.add(report.id)
        reports.append(report)
    return tuple(reports)


def load_smell_report(path: str | Path) -> tuple[SmellInstance, ...]:
    """Read a JSON array of {"type", "module", "method"?, "severity"}."""
    # Imported here so that commands which never read smells (index, rank)
    # do not load the smell model.
    from .smells import SMELL_TYPE_BY_NAME, SmellInstance

    try:
        records = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise _json_error(path, exc) from exc
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of smell instances")
    instances = []
    for pos, rec in enumerate(records):
        try:
            type_name = rec["type"]
            smell_type = SMELL_TYPE_BY_NAME.get(type_name)
            if smell_type is None:
                raise ValueError(f"unknown smell type {type_name!r}")
            module = rec["module"]
            # str() would turn null into module "None" and ["x"] into "['x']".
            if not isinstance(module, str):
                raise ValueError(f"module must be a string, got {module!r}")
            severity = rec["severity"]
            # bool is an int subclass, and a float would pass the range check.
            if isinstance(severity, bool) or not isinstance(severity, int):
                raise ValueError(f"severity must be an integer, got {severity!r}")
            method = rec.get("method")
            if method is not None and not isinstance(method, str):
                raise ValueError(f"method must be a string, got {method!r}")
            instances.append(
                SmellInstance(
                    type=smell_type,
                    module=module,
                    severity=severity,
                    method_signature=method,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: smell instance #{pos}: {exc}") from exc
    return tuple(instances)


# One decoder for every score line: raw_decode is json.loads without its
# whitespace scans and wrapper calls, and it says where the value ends.
_decode_line = json.JSONDecoder().raw_decode
_BOM_ERROR = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


def load_external_scores(
    path: str | Path,
    technique: str,
    known_bugs: Iterable[str] | None = None,
) -> combine.TechniqueScores:
    """Read JSON lines of {"bug", "module", "score"}.

    Bug and module must be JSON strings and the score a JSON number; each
    line decodes as json.loads would, errors included. Non-finite scores are
    kept as parsed; the validity filter flags them later instead of this
    loader repairing them silently. Duplicate (bug, module) pairs are an
    error; bug ids outside known_bugs only warn.
    """
    by_bug: dict[str, dict[str, float]] = {}
    known = set(known_bugs) if known_bugs is not None else None
    # Streamed, not read whole: a bad byte stops the decoder, and only then
    # is the file scanned again to name the line.
    try:
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
                    raise ValueError(
                        f"{path}:{lineno}: bad score entry: {exc}"
                    ) from exc
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
                modules[module] = score
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    from . import combine

    return combine.TechniqueScores(technique=technique, by_bug=by_bug)


def write_score_lines(path: str | Path, rankings: Iterable[ScoredRanking]) -> None:
    """Dump rankings as score-dump lines, best score first.

    Each line is the json.dumps of {"bug", "module", "score"}. Each bug id and
    each distinct module id is encoded once, and each score with
    float.__repr__, which is what json.dumps writes for a finite float
    (``rank`` rejects the others). One write per ranking keeps memory flat.
    """
    names: dict[str, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for ranking in rankings:
            head = '{"bug": ' + json.dumps(ranking.bug_id) + ', "module": '
            lines = []
            for module, score in ranking.entries:
                name = names.get(module)
                if name is None:
                    name = names[module] = json.dumps(module)
                lines.append(f'{head}{name}, "score": {float.__repr__(score)}}}\n')
            fh.write("".join(lines))


_DESCRIPTOR_FIELDS = ("project", "version", "snapshot", "bugs", "smells")


def load_descriptor(path: str | Path) -> SystemDescriptor:
    """Read a system descriptor JSON file; relative paths resolve against it."""
    path = Path(path)
    try:
        rec = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise _json_error(path, exc) from exc
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
        project=fields["project"],
        version=fields["version"],
        snapshot_path=resolve(fields["snapshot"]),
        bug_reports_path=resolve(fields["bugs"]),
        smell_report_path=resolve(fields["smells"]),
        external_score_paths={name: resolve(p) for name, p in scores.items()},
    )


def load_system(
    descriptor: SystemDescriptor,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    jobs: int = 1,
) -> SystemSnapshot:
    """Load and cross-check one system's inputs.

    Gold modules or smelly modules missing from the snapshot are warned
    about but kept: external techniques may rank artifacts the corpus
    skipped, and the risk analysis validates its own universe.
    """
    corpus = build_corpus(descriptor.snapshot_path, stopwords=stopwords, jobs=jobs)
    modules = tuple(doc.id for doc in corpus)
    module_set = set(modules)
    reports = load_bug_reports(descriptor.bug_reports_path)
    for report in reports:
        stray = report.gold - module_set
        if stray:
            logger.warning(
                "system %s bug %s: %d gold modules not in snapshot (e.g. %s)",
                descriptor.name,
                report.id,
                len(stray),
                sorted(stray)[0],
            )
    smells = load_smell_report(descriptor.smell_report_path)
    stray_smelly = {i.module for i in smells} - module_set
    if stray_smelly:
        logger.warning(
            "system %s: %d smelly modules not in snapshot (e.g. %s)",
            descriptor.name,
            len(stray_smelly),
            sorted(stray_smelly)[0],
        )
    known = [r.id for r in reports]
    external = {
        name: load_external_scores(path, name, known_bugs=known)
        for name, path in descriptor.external_score_paths.items()
    }
    return SystemSnapshot(
        name=descriptor.name,
        modules=modules,
        corpus=corpus if isinstance(corpus, tuple) else tuple(corpus),
        reports=reports,
        smells=smells,
        external_scores=external,
        stopwords=stopwords,
    )


def native_scores(
    term_index: TermIndex,
    reports: Iterable[BugReport],
    technique: str,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> Iterator[tuple[str, dict[str, float]]]:
    """Score every indexed module for each report, one report at a time.

    Yields (bug id, score map) pairs: vsm is plain cosine similarity, rvsm
    scales it by document length. Lazy, so a caller that ranks and drops
    each map holds one at a time.
    """
    scorer = cosine_score if technique == "vsm" else rvsm_score
    for report in reports:
        yield report.id, scorer(build_query(report, stopwords), term_index)


def prepare_system(snapshot: SystemSnapshot, technique: str) -> ScoredSystem:
    """Score one system under one technique, over that technique's universe.

    Native techniques rank exactly the snapshot modules. External score
    files may mention extra modules; those stay in that technique's universe,
    and universe modules the file skips score 0 (they rank at the bottom).
    """
    from . import combine

    if technique in NATIVE_TECHNIQUES:
        universe = snapshot.modules
        term_index = build_index(snapshot.corpus)
        by_bug = dict(
            native_scores(term_index, snapshot.reports, technique, snapshot.stopwords)
        )
    elif technique in snapshot.external_scores:
        raw = snapshot.external_scores[technique]
        extra = {
            m for scores in raw.by_bug.values() for m in scores
        } - set(snapshot.modules)
        if extra:
            logger.warning(
                "system %s technique %s: %d modules outside the snapshot kept",
                snapshot.name,
                technique,
                len(extra),
            )
        universe = tuple(sorted(set(snapshot.modules) | extra))
        by_bug = {}
        filled = 0
        for bug, scores in raw.by_bug.items():
            filled += len(universe) - len(scores)
            by_bug[bug] = {m: scores.get(m, 0.0) for m in universe}
        if filled:
            logger.warning(
                "system %s technique %s: %d missing module scores filled with 0",
                snapshot.name,
                technique,
                filled,
            )
    else:
        raise ValueError(f"system {snapshot.name}: unknown technique {technique!r}")
    system = combine.System(
        name=snapshot.name,
        modules=universe,
        bug_ids=tuple(r.id for r in snapshot.reports),
        gold={r.id: r.gold for r in snapshot.reports},
        smells=snapshot.smells,
    )
    return system, combine.TechniqueScores(technique=technique, by_bug=by_bug)


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


def filter_dataset(
    systems: Sequence[ScoredSystem],
) -> tuple[list[ScoredSystem], ValidationReport]:
    """Apply the selection protocol and record every exclusion.

    A report is dropped if the technique's ranking for it is invalid; each
    kept system's bug_ids are narrowed to the surviving reports. Afterwards,
    systems without smells are dropped, then systems with fewer than five
    surviving reports. Raises when nothing survives.
    """
    excluded_reports: list[ExcludedReport] = []
    excluded_systems: list[ExcludedSystem] = []
    kept_systems = []
    for system, scores in systems:
        surviving = []
        for bug_id in system.bug_ids:
            reason = validate_ranking(scores.by_bug.get(bug_id), system.gold[bug_id])
            if reason is None:
                surviving.append(bug_id)
            else:
                excluded_reports.append(
                    ExcludedReport(system=system.name, bug_id=bug_id, reason=reason)
                )
        if not system.smells:
            excluded_systems.append(
                ExcludedSystem(system=system.name, reason=REASON_NO_SMELLS)
            )
            continue
        if len(surviving) < MIN_REPORTS:
            excluded_systems.append(
                ExcludedSystem(system=system.name, reason=REASON_TOO_FEW)
            )
            continue
        kept_systems.append((replace(system, bug_ids=tuple(surviving)), scores))
    if not kept_systems:
        raise ValueError("dataset empty after filtering")
    return kept_systems, ValidationReport(
        excluded_reports=tuple(excluded_reports),
        excluded_systems=tuple(excluded_systems),
    )
