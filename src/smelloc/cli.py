"""Command-line front end.

Subcommands cover the whole pipeline: index a snapshot, rank bug reports,
blend rankings with smell values, evaluate and compare techniques, run the
relative-risk analysis, search the configuration space, and convert foreign
benchmark layouts. Every command is deterministic; reports embed or sit next
to a provenance manifest. Exit codes: 0 success, 1 internal error, 2 usage
or input error.

Each process runs one command, so start-up is paid per command: modules only
some commands use (smells, blending, risk, metrics, CSV and XML) are imported
inside those commands, not here.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from pathlib import Path
from typing import Iterable, Sequence

from . import dataio, manifest
from .corpus import build_corpus, source_files
from .index import TermIndex, build_index, corpus_hash, load_index, rank, save_index
from .stopwords import DEFAULT_STOPWORDS, load_stopwords, read_utf8

logger = logging.getLogger(__name__)

STAT_METRICS = ("top1", "top5", "top10", "mrr", "map")


class UsageError(ValueError):
    """Bad flags or bad input data; mapped to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _stopwords(args) -> frozenset[str]:
    if getattr(args, "stopwords", None):
        return load_stopwords(args.stopwords)
    return DEFAULT_STOPWORDS


def _format(args, default: str = "csv") -> str:
    fmt = getattr(args, "format", None) or default
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    return fmt


def _jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        return 1
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")
    return jobs


def _require_dir(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{what} directory not found: {path}")
    return p


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return p


def _load_selectors(path: str | None) -> dict[str, frozenset[str]]:
    """Read a JSON object mapping selector names to arrays of smell types.

    Without a file, s1 (every smell type) is the only selector.
    """
    from .smells import ALL_TYPE_NAMES

    if not path:
        return {"s1": ALL_TYPE_NAMES}
    try:
        raw = json.loads(read_utf8(_require_file(path, "selectors")))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
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


# ---------------------------------------------------------------- commands


def cmd_index(args) -> int:
    snapshot = _require_dir(args.snapshot, "snapshot")
    corpus = build_corpus(
        snapshot,
        extensions=tuple(args.extensions),
        stopwords=_stopwords(args),
        jobs=_jobs(args),
    )
    if not corpus:
        raise UsageError(f"no source files under {snapshot}")
    term_index = build_index(corpus)
    digest = corpus_hash(corpus)
    save_index(term_index, args.out, digest)
    manifest.write_sidecar_manifest(
        args.out,
        manifest.build_manifest(
            sys.argv[1:], {}, notes=(f"corpus sha256 {digest}",)
        ),
    )
    print(
        f"indexed {term_index.size} documents, "
        f"{len(term_index.vocabulary)} terms -> {args.out}"
    )
    return 0


def _term_index(args, stopwords: frozenset[str]) -> TermIndex:
    """The index of ``--snapshot``, or the ``--index`` cache checked against it."""
    if not (args.index or args.snapshot):
        raise UsageError("native techniques need --snapshot or --index")
    corpus = None
    if args.snapshot:
        corpus = build_corpus(
            _require_dir(args.snapshot, "snapshot"),
            stopwords=stopwords,
            jobs=_jobs(args),
        )
        if not corpus:
            raise UsageError(f"no source files under {args.snapshot}")
    if args.index:
        # With a snapshot too, the cache must match its tokens under the
        # current stopwords; without one there is nothing to check against.
        return load_index(
            _require_file(args.index, "index cache"),
            corpus_hash(corpus) if corpus else None,
        )
    return build_index(corpus)


def cmd_rank(args) -> int:
    technique = args.technique
    reports = dataio.load_bug_reports(_require_file(args.bugs, "bug reports"))
    if args.bug is not None:
        reports = tuple(r for r in reports if r.id == args.bug)
        if not reports:
            raise UsageError(f"bug id {args.bug!r} not found in {args.bugs}")
    if technique in dataio.NATIVE_TECHNIQUES:
        stopwords = _stopwords(args)
        rankings = [
            rank(scores, bug_id, technique)
            for bug_id, scores in dataio.native_scores(
                _term_index(args, stopwords), reports, technique, stopwords
            )
        ]
        inputs = {"bugs": args.bugs}
    elif technique.startswith("external:"):
        name = technique.split(":", 1)[1]
        if not args.scores:
            raise UsageError("external techniques need --scores")
        scores = dataio.load_external_scores(
            _require_file(args.scores, "scores"), name, known_bugs=[r.id for r in reports]
        )
        rankings = []
        for report in reports:
            per_bug = scores.by_bug.get(report.id)
            if per_bug is None:
                raise UsageError(f"no scores for bug {report.id!r} in {args.scores}")
            rankings.append(rank(per_bug, report.id, name))
        inputs = {"bugs": args.bugs, "scores": args.scores}
    else:
        raise UsageError(
            f"unknown technique {technique!r} (use vsm, rvsm, or external:<name>)"
        )
    dataio.write_score_lines(args.out, rankings)
    manifest.write_sidecar_manifest(
        args.out, manifest.build_manifest(sys.argv[1:], inputs)
    )
    print(f"wrote {len(rankings)} rankings -> {args.out}")
    return 0


def _combine_inputs(args):
    """Shared loading for the blend command: scores, smells, optional gold."""
    from . import combine
    from .smells import ALL_TYPE_NAMES

    scores_path = _require_file(args.scores, "scores")
    smells_path = _require_file(args.smells, "smell report")
    known = None
    reports = ()
    if args.bugs:
        reports = dataio.load_bug_reports(_require_file(args.bugs, "bug reports"))
        known = [r.id for r in reports]
    scores = dataio.load_external_scores(scores_path, "input", known_bugs=known)
    smells = dataio.load_smell_report(smells_path)
    universe = tuple(sorted({m for per_bug in scores.by_bug.values() for m in per_bug}))
    if not universe:
        raise UsageError(f"no scores in {scores_path}")
    selectors = _load_selectors(args.selectors)
    try:
        g_label, aggregator, s_label = combine.parse_config_label(args.config)
        if s_label not in selectors and s_label not in ALL_TYPE_NAMES:
            raise UsageError(
                f"selector {s_label!r} is not derived (pass --selectors) "
                "and is not a smell type"
            )
        config = combine.make_config(g_label, aggregator, s_label, selectors)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    notes = []
    overall_min = min(
        (v for per_bug in scores.by_bug.values() for v in per_bug.values()),
        default=0.0,
    )
    if overall_min < 0:
        notes.append("negative raw scores min-shifted before normalization")
    return scores, smells, universe, config, reports, notes


def cmd_combine(args) -> int:
    from . import combine
    from .smells import smell_values

    scores, smells, universe, config, reports, notes = _combine_inputs(args)
    inputs = {"scores": args.scores, "smells": args.smells}
    if args.bugs:
        inputs["bugs"] = args.bugs
    run_manifest = manifest.build_manifest(
        sys.argv[1:], inputs, config_path=args.run_config, notes=notes
    )

    if args.sweep:
        if not args.bugs:
            raise UsageError("--sweep needs --bugs for the gold sets")
        metric = args.metric or "map"
        if metric not in STAT_METRICS:
            raise UsageError(f"unknown metric {metric!r}")
        bug_ids = tuple(r.id for r in reports if r.id in scores.by_bug)
        if not bug_ids:
            raise UsageError("no bug report in --bugs has scores")
        system = combine.System(
            name="input",
            modules=universe,
            bug_ids=bug_ids,
            gold={r.id: r.gold for r in reports},
            smells=smells,
        )
        result = combine.sweep_alpha(system, scores, config, metric)
        shape = combine.curve_shape(result)
        if _format(args) == "json":
            payload = {
                "config": config.label(),
                "metric": metric,
                "alphas": [round(a, 2) for a in combine.ALPHA_GRID],
                "values": list(result.values),
                "best_alphas": list(result.best_alphas),
                "best_alpha": combine.optimize_alpha(result),
                "best_value": result.best_value,
                "shape": shape,
            }
            manifest.write_json_report(payload, args.out, run_manifest)
        else:
            import csv

            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["alpha", metric])
                for alpha, value in zip(combine.ALPHA_GRID, result.values):
                    writer.writerow([_fmt(alpha), _fmt(value)])
            manifest.write_sidecar_manifest(args.out, run_manifest)
        print(
            f"swept {config.label()} on {metric}: best {_fmt(result.best_value)} "
            f"at alpha {_fmt(combine.optimize_alpha(result))} ({shape})"
        )
        return 0

    alpha = args.alpha
    if alpha is None:
        raise UsageError("pass --alpha for a single blend or --sweep for the grid")
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"--alpha {alpha} outside [0, 1]")
    norm_smell = combine.normalize(smell_values(universe, smells, config))
    rankings = []
    for bug_id, per_bug in scores.by_bug.items():
        norm_score = combine.normalize({m: per_bug.get(m, 0.0) for m in universe})
        blended = combine.blend(norm_score, norm_smell, alpha)
        rankings.append(rank(blended, bug_id, f"blend:{config.label()}"))
    dataio.write_score_lines(args.out, rankings)
    manifest.write_sidecar_manifest(args.out, run_manifest)
    print(f"blended {len(rankings)} rankings at alpha {alpha:g} -> {args.out}")
    return 0


def _outcomes_from_dump(path: Path, reports) -> list:
    from .metrics import evaluate_ranking

    scores = dataio.load_external_scores(path, "eval", known_bugs=[r.id for r in reports])
    missing = [r.id for r in reports if r.id not in scores.by_bug]
    if missing:
        raise UsageError(f"{path}: no scores for bug reports {missing[:5]}")
    outcomes = []
    for report in reports:
        try:
            ranking = rank(scores.by_bug[report.id], report.id)
        except ValueError as exc:
            raise UsageError(f"{path}: bug {report.id!r}: {exc}") from exc
        outcomes.append(
            evaluate_ranking(ranking.modules(), report.gold, report.id)
        )
    return outcomes


def cmd_evaluate(args) -> int:
    from .metrics import comparison_stats, metric_report, per_report_values

    reports = dataio.load_bug_reports(_require_file(args.bugs, "bug reports"))
    if not reports:
        raise UsageError(f"no bug reports in {args.bugs}")
    outcomes = _outcomes_from_dump(_require_file(args.rankings, "rankings"), reports)
    report = metric_report(outcomes)
    inputs = {"rankings": args.rankings, "bugs": args.bugs}
    comparison = None
    if args.compare:
        baseline = _outcomes_from_dump(_require_file(args.compare, "baseline"), reports)
        inputs["baseline"] = args.compare
        comparison = {
            metric: comparison_stats(
                per_report_values(outcomes, metric),
                per_report_values(baseline, metric),
            )
            for metric in STAT_METRICS
        }
    run_manifest = manifest.build_manifest(
        sys.argv[1:], inputs, config_path=args.run_config
    )
    if _format(args, default="json") == "json":
        payload = {
            "reports": len(outcomes),
            "top": {str(n): report.top[n] for n in sorted(report.top)},
            "counts": {str(n): report.counts[n] for n in sorted(report.counts)},
            "mrr": report.mrr,
            "map": report.mean_ap,
            "per_report": [
                {
                    "bug": o.bug_id,
                    "rank_of_first_gold": o.rank_of_first_gold,
                    "reciprocal_rank": 1.0 / o.rank_of_first_gold
                    if o.rank_of_first_gold
                    else 0.0,
                    "average_precision": o.average_precision,
                }
                for o in outcomes
            ],
        }
        if comparison is not None:
            payload["comparison"] = comparison
        manifest.write_json_report(payload, args.out, run_manifest)
    else:
        import csv

        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value", "count"])
            for n in sorted(report.top):
                writer.writerow([f"top{n}", _fmt(report.top[n]), report.counts[n]])
            writer.writerow(["mrr", _fmt(report.mrr), ""])
            writer.writerow(["map", _fmt(report.mean_ap), ""])
            if comparison is not None:
                writer.writerow([])
                writer.writerow(["metric", "p_value", "cliffs_delta", "label", "note"])
                for metric, block in comparison.items():
                    writer.writerow(
                        [
                            metric,
                            _fmt(block["p_value"]) if block["p_value"] is not None else "",
                            _fmt(block["cliffs_delta"]),
                            block["label"],
                            block.get("note", ""),
                        ]
                    )
        manifest.write_sidecar_manifest(args.out, run_manifest)
    print(
        f"evaluated {len(outcomes)} reports: map {_fmt(report.mean_ap)}, "
        f"mrr {_fmt(report.mrr)} -> {args.out}"
    )
    return 0


def cmd_risk(args) -> int:
    from . import risk

    smells = dataio.load_smell_report(_require_file(args.smells, "smell report"))
    if not smells:
        raise UsageError(f"smell report {args.smells} contains no instances")
    if args.modules:
        lines = read_utf8(_require_file(args.modules, "modules")).splitlines()
        universe = {line.strip() for line in lines if line.strip()}
        universe_input = args.modules
    elif args.snapshot:
        snapshot = _require_dir(args.snapshot, "snapshot")
        universe = {doc_id for doc_id, _ in source_files(snapshot)}
        universe_input = args.snapshot
    else:
        raise UsageError("pass --modules or --snapshot for the module universe")
    if not universe:
        raise UsageError("module universe is empty")

    buggy: set[str] = set()
    for bugs_path in args.bugs:
        for report in dataio.load_bug_reports(_require_file(bugs_path, "bug reports")):
            buggy |= report.gold
    stray_buggy = buggy - universe
    if stray_buggy:
        logger.warning(
            "%d buggy modules outside the universe dropped (e.g. %s)",
            len(stray_buggy),
            sorted(stray_buggy)[0],
        )
        buggy &= universe
    kept_smells = [i for i in smells if i.module in universe]
    if len(kept_smells) < len(smells):
        logger.warning(
            "%d smell instances outside the universe dropped",
            len(smells) - len(kept_smells),
        )
    if not kept_smells:
        raise UsageError("no smell instance lies inside the module universe")

    table = risk.relative_risk(universe, buggy, kept_smells)
    risk.write_risk_csv(table, args.out)
    inputs = {"smells": args.smells}
    notes = []
    if args.modules:
        inputs["universe"] = universe_input
    else:
        notes.append(f"universe from snapshot {universe_input}")
    for i, path in enumerate(args.bugs):
        inputs[f"bugs{i}" if len(args.bugs) > 1 else "bugs"] = path
    run_manifest = manifest.build_manifest(
        sys.argv[1:], inputs, config_path=args.run_config, notes=notes
    )
    manifest.write_sidecar_manifest(args.out, run_manifest)
    selectors = risk.derive_selectors(table)
    if args.selectors_out:
        manifest.write_json_report(
            {name: sorted(types) for name, types in selectors.items()},
            args.selectors_out,
            run_manifest,
        )
    total = table.total
    print(
        f"risk table over {table.module_total} modules "
        f"({table.buggy_total} buggy) -> {args.out}; "
        f"total rr {_fmt(total.relative_risk) if total.relative_risk is not None else 'n/a'}"
    )
    return 0


def cmd_config_search(args) -> int:
    from . import combine, risk

    pairs = []
    for desc_path in args.systems:
        descriptor = dataio.load_descriptor(_require_file(desc_path, "descriptor"))
        snapshot = dataio.load_system(descriptor, jobs=_jobs(args))
        pairs.append(dataio.prepare_system(snapshot, args.technique))
    kept, validation = dataio.filter_dataset(pairs)
    for line in validation.to_text().splitlines():
        logger.info("%s", line)

    selectors = (
        _load_selectors(args.selectors)
        if args.selectors
        else risk.pooled_selectors(system for system, _ in kept)
    )
    missing = [s for s in ("s1", "s2", "s3", "s4", "s5") if s not in selectors]
    if missing:
        raise UsageError(f"selector sets missing: {missing}")
    empty = [s for s in ("s2", "s3", "s4", "s5") if not selectors[s]]
    if empty:
        raise UsageError(
            f"derived selector sets are empty: {empty}; "
            "the dataset has no smell type with elevated risk"
        )
    configs = combine.enumerate_configs(
        selectors, include_single_type=args.include_single_type
    )
    report = combine.config_search(kept, configs, jobs=_jobs(args))

    inputs = {
        f"descriptor{i}": path for i, path in enumerate(args.systems)
    }
    run_manifest = manifest.build_manifest(
        sys.argv[1:], inputs, config_path=args.run_config
    )
    if _format(args) == "json":
        payload = {
            "technique": report.technique,
            "systems": list(report.systems),
            "selectors": {name: sorted(types) for name, types in selectors.items()},
            "rows": [
                {
                    "config": row.config.label(),
                    "original_index": row.original_index,
                    "systems_improved": row.systems_improved,
                    "metrics": {
                        metric: {
                            "value": outcome.value,
                            "chosen_alpha": outcome.chosen_alpha,
                            "maximizers": {
                                name: list(alphas)
                                for name, alphas in outcome.maximizers.items()
                            },
                        }
                        for metric, outcome in row.outcomes.items()
                    },
                    "curves": {
                        name: {m: list(c) for m, c in per_metric.items()}
                        for name, per_metric in row.curves.items()
                    },
                }
                for row in report.rows
            ],
            "ideal": report.ideal,
            "ideal_choice": {
                metric: {name: list(pick) for name, pick in choice.items()}
                for metric, choice in report.ideal_choice.items()
            },
            "validation": validation.to_json_dict(),
        }
        manifest.write_json_report(payload, args.out, run_manifest)
    else:
        import csv

        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["config", "top1", "top5", "top10", "mrr", "map", "#systems", "original"]
            )
            for row in report.rows:
                writer.writerow(
                    [row.config.label()]
                    + [_fmt(row.outcomes[m].value) for m in STAT_METRICS]
                    + [row.systems_improved, "yes" if row.original_index else ""]
                )
            writer.writerow(
                ["(ideal)"]
                + [_fmt(report.ideal[m]) for m in STAT_METRICS]
                + [report.ideal_systems_improved, ""]
            )
        manifest.write_sidecar_manifest(args.out, run_manifest)
    best = report.rows[0]
    print(
        f"searched {len(configs)} configurations over {len(kept)} systems: "
        f"best map {_fmt(best.outcomes['map'].value)} ({best.config.label()}), "
        f"ideal map {_fmt(report.ideal['map'])} -> {args.out}"
    )
    return 0


def cmd_convert(args) -> int:
    """Best-effort converter for benchmark bug repositories in XML form.

    Expects <bug id=...> elements with <buginformation><summary> and
    <description>, and <fixedFiles><file> children naming the gold modules.
    Path separators are normalized to forward slashes; layouts that deviate
    from this shape need manual conversion.
    """
    import xml.etree.ElementTree as ElementTree

    path = _require_file(args.bugrepo, "bug repository")
    try:
        tree = ElementTree.parse(path)
    except ElementTree.ParseError as exc:
        raise UsageError(f"{path}: malformed XML: {exc}") from exc
    records = []
    for bug in tree.getroot().iter("bug"):
        bug_id = bug.get("id")
        if not bug_id:
            continue
        summary = bug.findtext(".//summary") or ""
        description = bug.findtext(".//description") or ""
        gold = []
        for file_el in bug.iter("file"):
            text = (file_el.text or "").strip()
            if text:
                module = text.replace("\\", "/")
                if args.strip_prefix and module.startswith(args.strip_prefix):
                    module = module[len(args.strip_prefix):]
                gold.append(module)
        if not gold:
            logger.warning("bug %s has no fixed files; skipped", bug_id)
            continue
        records.append(
            {
                "id": bug_id,
                "summary": summary.strip(),
                "description": description.strip(),
                "gold": sorted(set(gold)),
            }
        )
    if not records:
        raise UsageError(f"{path}: no convertible bug entries found")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    print(f"converted {len(records)} bug reports -> {args.out}")
    return 0


# ---------------------------------------------------------------- wiring


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=None, help="worker count (default 1)")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument(
        "--run-config",
        default=None,
        help="JSON file of default flag values; explicit flags win",
    )
    common.add_argument("--verbose", action="store_true", help="log at INFO level")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smelloc",
        description="Smell-aware re-ranking for bug localization",
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[common], help="build a TF-IDF index cache")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extensions", nargs="+", default=[".java"])
    p.add_argument("--stopwords")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("rank", parents=[common], help="rank modules per bug report")
    p.add_argument("--technique", required=True, help="vsm, rvsm, or external:<name>")
    p.add_argument("--bugs", required=True)
    p.add_argument("--snapshot")
    p.add_argument("--index")
    p.add_argument("--scores", help="score file for external techniques")
    p.add_argument("--bug", help="single bug id (default: all)")
    p.add_argument("--stopwords")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("combine", parents=[common], help="blend scores with smells")
    p.add_argument("--scores", required=True)
    p.add_argument("--smells", required=True)
    p.add_argument("--bugs")
    p.add_argument(
        "--config",
        default="g1,a1,s1",
        help="granularity,aggregator,selector triple (default g1,a1,s1)",
    )
    p.add_argument("--selectors", help="selector-set JSON from the risk command")
    p.add_argument("--alpha", type=float)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--metric", choices=STAT_METRICS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("evaluate", parents=[common], help="score rankings against gold sets")
    p.add_argument("--rankings", required=True)
    p.add_argument("--bugs", required=True)
    p.add_argument("--compare", help="baseline ranking dump for paired statistics")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("risk", parents=[common], help="relative-risk table and selectors")
    p.add_argument("--smells", required=True)
    p.add_argument("--modules", help="text file with one module id per line")
    p.add_argument("--snapshot", help="derive the universe from a source tree")
    p.add_argument("--bugs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--selectors-out")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser(
        "config-search", parents=[common], help="evaluate every smell configuration"
    )
    p.add_argument("--systems", nargs="+", required=True, help="system descriptor JSON files")
    p.add_argument("--technique", required=True)
    p.add_argument("--selectors", help="selector-set JSON (default: derived from the data)")
    p.add_argument("--include-single-type", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_config_search)

    p = sub.add_parser(
        "convert", parents=[common], help="convert an XML bug repository to bug-report JSON"
    )
    p.add_argument("--bugrepo", required=True)
    p.add_argument("--strip-prefix", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def _flag_dests(command: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {a.dest: a for a in command._actions if a.option_strings}


def _run_config_defaults(
    path: str,
    command: argparse.ArgumentParser,
    commands: Iterable[argparse.ArgumentParser],
) -> dict:
    """The run config's values for the command's flags, converted and checked.

    Keys name flags without the leading dashes (``"alpha"``, ``"selectors-out"``).
    A key that names a flag of another command only is ignored, so one file
    can serve several commands; a key that names no flag of any command is
    an error, so a misspelt key is not dropped silently. A switch takes true
    or false; any other flag takes one string or number, read as if typed
    after the flag.
    """
    try:
        cfg = json.loads(read_utf8(_require_file(path, "run config")))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: run config must be a JSON object")
    actions = _flag_dests(command)
    known = {dest for other in commands for dest in _flag_dests(other)}
    defaults = {}
    for key, value in cfg.items():
        where = f"{path}: key {key!r}"
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            if dest not in known:
                raise UsageError(f"{where} names no flag of any command")
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"{where}: expected true or false, got {value!r}")
            defaults[action.dest] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"{where}: expected a string or a number, got {value!r}")
        try:
            converted = action.type(str(value)) if action.type else str(value)
        except (TypeError, ValueError):
            raise UsageError(
                f"{where}: invalid value {value!r} for {action.option_strings[0]}"
            ) from None
        if action.choices is not None and converted not in action.choices:
            raise UsageError(f"{where}: {value!r} is not one of {list(action.choices)}")
        defaults[action.dest] = converted if action.nargs is None else [converted]
    return defaults


def _apply_run_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv
) -> argparse.Namespace:
    """Parse argv again with the run config's values as the command's defaults.

    argparse then applies its own rule: a default holds only for a flag the
    command line leaves out, so explicit flags win.
    """
    commands = next(a for a in parser._actions if a.dest == "command").choices
    command = commands[args.command]
    command.set_defaults(
        **_run_config_defaults(args.run_config, command, commands.values())
    )
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.run_config:
            args = _apply_run_config(parser, args, argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
