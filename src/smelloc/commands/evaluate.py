"""``smelloc evaluate``: score a ranking dump against the gold sets, and
optionally compare it with a baseline dump."""

from __future__ import annotations

from pathlib import Path

from .. import dataio, index, manifest, metrics
from . import STAT_METRICS, UsageError, dump_scores, fmt, require_file, run_manifest
from . import write_csv


def _outcomes_from_dump(path: Path, reports) -> list:
    bug_ids = [r.id for r in reports]
    scores = dataio.load_external_scores(path, "eval", known_bugs=bug_ids)
    return [
        metrics.evaluate_ranking(
            [module for module, _ in index.rank(per_bug)], report.gold, report.id
        )
        for report, per_bug in zip(reports, dump_scores(path, scores.by_bug, bug_ids))
    ]


def run(args) -> int:
    reports = dataio.load_bug_reports(require_file(args.bugs, "bug reports"))
    if not reports:
        raise UsageError(f"no bug reports in {args.bugs}")
    outcomes = _outcomes_from_dump(require_file(args.rankings, "rankings"), reports)
    report = metrics.metric_report(outcomes)
    inputs = {"rankings": args.rankings, "bugs": args.bugs}
    comparison = None
    if args.compare:
        baseline = _outcomes_from_dump(require_file(args.compare, "baseline"), reports)
        inputs["baseline"] = args.compare
        comparison = {
            metric: metrics.comparison_stats(
                metrics.per_report_values(outcomes, metric),
                metrics.per_report_values(baseline, metric),
            )
            for metric in STAT_METRICS
        }
    provenance = run_manifest(args, inputs)
    if args.format == "json":
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
                    "reciprocal_rank": o.stats[3],
                    "average_precision": o.stats[4],
                }
                for o in outcomes
            ],
        }
        if comparison is not None:
            payload["comparison"] = comparison
        manifest.write_json_report(payload, args.out, provenance)
    else:
        rows = [["metric", "value", "count"]]
        rows += [[f"top{n}", fmt(report.top[n]), report.counts[n]] for n in sorted(report.top)]
        rows += [["mrr", fmt(report.mrr), ""], ["map", fmt(report.mean_ap), ""]]
        if comparison is not None:
            rows += [[], ["metric", "p_value", "cliffs_delta", "label", "note"]]
            rows += [
                [
                    metric,
                    fmt(block["p_value"]) if block["p_value"] is not None else "",
                    fmt(block["cliffs_delta"]),
                    block["label"],
                    block.get("note", ""),
                ]
                for metric, block in comparison.items()
            ]
        write_csv(args.out, rows, provenance)
    print(
        f"evaluated {len(outcomes)} reports: map {fmt(report.mean_ap)}, "
        f"mrr {fmt(report.mrr)} -> {args.out}"
    )
    return 0
