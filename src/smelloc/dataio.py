"""Loading, validation, and filtering of localization datasets.

A system is one project version: a source snapshot, its bug reports with
gold sets, a smell report, and optional external technique scores; its
modules are the snapshot's corpus.source_files. Loaded, it is a
dataset.SystemSnapshot; scored by one technique, it is the pair
(combine.System, TechniqueScores) that filtering and the configuration
search take. Filtering applies the selection protocol in a fixed order:
first bug reports whose ranking is unusable under the technique, then
systems without any smell instance, then systems left with fewer than five
reports. Every exclusion is recorded with exactly one reason.

Each command runs in its own process and loads only what it calls: the
tokenizer, the index, the score-dump readers (scoredump) and the system
records (dataset) are imported inside the functions that use them, and
those functions are called through their modules, where a tracer can wrap
them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .log import get_logger
from .stopwords import DEFAULT_STOPWORDS, read_json, read_utf8, utf8_error

if TYPE_CHECKING:
    from . import combine
    from .dataset import SystemDescriptor, SystemSnapshot, ValidationReport
    from .index import TermIndex
    from .smells import SmellInstance

    # One system scored by one technique: what filtering and the search take.
    ScoredSystem = tuple[combine.System, TechniqueScores]

logger = get_logger(__name__)

NATIVE_TECHNIQUES = ("vsm", "rvsm")


class _BugReportFields(NamedTuple):
    id: str
    summary: str
    description: str
    gold: frozenset[str]


class BugReport(_BugReportFields):
    __slots__ = ()

    def __new__(cls, id: str, summary: str, description: str, gold: frozenset[str]):
        if not id:
            raise ValueError("bug report needs a nonempty id")
        if not gold:
            raise ValueError(f"bug report {id!r} has an empty gold set")
        return super().__new__(cls, id, summary, description, gold)


class TechniqueScores(NamedTuple):
    """Raw per-bug score maps emitted by one localization technique."""

    technique: str
    by_bug: Mapping[str, Mapping[str, float]]


def load_bug_reports(path: str | Path) -> tuple[BugReport, ...]:
    """Read a JSON array of {"id", "summary", "description", "gold": [...]}."""
    records = read_json(path)
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

    records = read_json(path)
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


def load_external_scores(
    path: str | Path,
    technique: str,
    known_bugs: Iterable[str] | None = None,
) -> TechniqueScores:
    """Read JSON lines of {"bug", "module", "score"}.

    Bug and module must be JSON strings and the score a JSON number; each
    line decodes as json.loads would, errors included. Non-finite scores are
    kept as parsed; the validity filter flags them later instead of this
    loader repairing them silently. Duplicate (bug, module) pairs are an
    error; bug ids outside known_bugs only warn.

    A dump whose every line has the shape write_score_lines writes is read
    in bulk; any other dump goes through the line-by-line decoder, which
    names the line of any error.
    """
    from . import scoredump

    known = set(known_bugs) if known_bugs is not None else None
    try:
        by_bug = scoredump.read_writer_lines(path, known)
        if by_bug is None:
            by_bug = scoredump.decode_lines(path, known)
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    except ValueError:
        # A bad byte anywhere wins over a bad entry, as in the other loaders,
        # wherever the decoder's chunk boundary fell.
        read_utf8(path)
        raise
    return TechniqueScores(technique=technique, by_bug=by_bug)


def write_score_lines(
    path: str | Path, rankings: Iterable[tuple[str, Sequence[tuple[str, float]]]]
) -> None:
    """Dump (bug id, ranked (module, score) pairs) as score-dump lines.

    Each line is the json.dumps of {"bug", "module", "score"}. Each bug id and
    each distinct module id is encoded once, and each score with
    float.__repr__, which is what json.dumps writes for a finite float
    (``rank`` rejects the others). path is opened before the first ranking
    is drawn, so callers check their inputs first. They pass a generator
    that makes each ranking as it is written, so one write per ranking keeps
    memory flat end to end: one ranking is held at a time.
    """
    names: dict[str, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for bug_id, entries in rankings:
            head = '{"bug": ' + json.dumps(bug_id) + ', "module": '
            lines = []
            for module, score in entries:
                name = names.get(module)
                if name is None:
                    name = names[module] = json.dumps(module)
                lines.append(f'{head}{name}, "score": {float.__repr__(score)}}}\n')
            fh.write("".join(lines))


def load_system(descriptor: SystemDescriptor) -> SystemSnapshot:
    """Load and cross-check one system's bug reports and smell report.

    The modules are the snapshot's source files, listed but not read. Gold
    modules or smelly modules missing from the snapshot are warned about
    but kept: external techniques may rank artifacts outside it, and the
    risk analysis validates its own universe. A missing snapshot directory
    raises ValueError naming the descriptor, as it would list no modules.
    """
    from . import corpus, dataset

    if not descriptor.snapshot_path.is_dir():
        raise ValueError(
            f"{descriptor.path}: snapshot directory not found: "
            f"{descriptor.snapshot_path}"
        )
    modules = tuple(
        doc_id for doc_id, _ in corpus.source_files(descriptor.snapshot_path)
    )
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
    return dataset.SystemSnapshot(descriptor, modules, reports, smells)


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
    from . import corpus, index

    scorer = index.cosine_score if technique == "vsm" else index.rvsm_score
    for report in reports:
        yield report.id, scorer(corpus.build_query(report, stopwords), term_index)


def prepare_system(snapshot: SystemSnapshot, technique: str) -> ScoredSystem:
    """Score one system under one technique, over that technique's universe.

    Only what the technique scores is read: the source files for a native
    technique, which ranks exactly the snapshot modules; the technique's own
    dump for an external one, as read. That dump may mention extra modules;
    those stay in its universe, and universe modules it skips score 0 in the
    sweep (they rank at the bottom).
    """
    from . import combine, corpus, index

    descriptor = snapshot.descriptor
    if technique in NATIVE_TECHNIQUES:
        universe = snapshot.modules
        documents = corpus.build_corpus(descriptor.snapshot_path)
        scores = TechniqueScores(technique, dict(
            native_scores(index.build_index(documents), snapshot.reports, technique)
        ))
    elif technique in descriptor.external_score_paths:
        scores = load_external_scores(
            descriptor.external_score_paths[technique],
            technique,
            known_bugs=[r.id for r in snapshot.reports],
        )
        extra = {
            m for per_bug in scores.by_bug.values() for m in per_bug
        } - set(snapshot.modules)
        if extra:
            logger.warning(
                "system %s technique %s: %d modules outside the snapshot kept",
                descriptor.name,
                technique,
                len(extra),
            )
        universe = tuple(sorted(set(snapshot.modules) | extra))
        filled = sum(len(universe) - len(m) for m in scores.by_bug.values())
        if filled:
            logger.warning(
                "system %s technique %s: %d missing module scores filled with 0",
                descriptor.name,
                technique,
                filled,
            )
    else:
        raise ValueError(f"system {descriptor.name}: unknown technique {technique!r}")
    system = combine.System(
        name=descriptor.name,
        modules=universe,
        bug_ids=tuple(r.id for r in snapshot.reports),
        gold={r.id: r.gold for r in snapshot.reports},
        smells=snapshot.smells,
    )
    return system, scores


def filter_dataset(
    systems: Sequence[ScoredSystem],
) -> tuple[list[ScoredSystem], ValidationReport]:
    """Apply the selection protocol and record every exclusion.

    A report is dropped if the technique's ranking for it is invalid; each
    kept system's bug_ids are narrowed to the surviving reports. Afterwards,
    systems without smells are dropped, then systems with fewer than five
    surviving reports. Raises when nothing survives.
    """
    from .dataset import (
        MIN_REPORTS,
        REASON_NO_SMELLS,
        REASON_TOO_FEW,
        ExcludedReport,
        ExcludedSystem,
        ValidationReport,
        validate_ranking,
    )

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
        kept_systems.append((system._replace(bug_ids=tuple(surviving)), scores))
    if not kept_systems:
        raise ValueError("dataset empty after filtering")
    return kept_systems, ValidationReport(
        excluded_reports=tuple(excluded_reports),
        excluded_systems=tuple(excluded_systems),
    )
