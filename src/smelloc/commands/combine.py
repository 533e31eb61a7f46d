"""``smelloc combine``: blend a score dump with smell values, at one alpha or
over the whole alpha grid."""

from __future__ import annotations

from .. import combine, dataio, index, manifest, smells
from . import UsageError, dump_scores, fmt, load_selectors, logger, require_file
from . import run_manifest, write_csv


def _inputs(args):
    """Shared loading for the blend command: scores, smells, optional gold."""
    scores_path = require_file(args.scores, "scores")
    smells_path = require_file(args.smells, "smell report")
    known = None
    reports = ()
    if args.bugs:
        reports = dataio.load_bug_reports(require_file(args.bugs, "bug reports"))
        known = [r.id for r in reports]
    scores = dataio.load_external_scores(scores_path, "input", known_bugs=known)
    instances = dataio.load_smell_report(smells_path)
    universe = tuple(sorted({m for per_bug in scores.by_bug.values() for m in per_bug}))
    if not universe:
        raise UsageError(f"no scores in {scores_path}")
    selectors = load_selectors(args.selectors)
    g_label, aggregator, s_label = combine.parse_config_label(args.config)
    if s_label not in selectors and s_label not in smells.ALL_TYPE_NAMES:
        raise UsageError(
            f"selector {s_label!r} is not derived (pass --selectors) and is not a smell type"
        )
    config = combine.make_config(g_label, aggregator, s_label, selectors)
    notes = []
    overall_min = min(
        (v for per_bug in scores.by_bug.values() for v in per_bug.values()),
        default=0.0,
    )
    if overall_min < 0:
        notes.append("negative raw scores min-shifted before normalization")
    return scores, instances, universe, config, reports, notes


def run(args) -> int:
    # Flag rules first, so that a bad command line reads and hashes no file.
    if args.sweep == (args.alpha is not None):
        raise UsageError(
            "pass exactly one of --alpha (a single blend) and --sweep (the grid)"
        )
    if args.sweep and not args.bugs:
        raise UsageError("--sweep needs --bugs for the gold sets")
    if args.alpha is not None and not 0.0 <= args.alpha <= 1.0:
        raise UsageError(f"--alpha {args.alpha} outside [0, 1]")
    scores, instances, universe, config, reports, notes = _inputs(args)
    inputs = {"scores": args.scores, "smells": args.smells}
    if args.bugs:
        inputs["bugs"] = args.bugs
    if args.selectors:
        inputs["selectors"] = args.selectors
    provenance = run_manifest(args, inputs, notes)

    if args.sweep:
        metric = args.metric
        bug_ids = tuple(r.id for r in reports if r.id in scores.by_bug)
        if not bug_ids:
            raise UsageError("no bug report in --bugs has scores")
        unscored = [r.id for r in reports if r.id not in scores.by_bug]
        if unscored:
            logger.warning(
                "%s: %d bug reports in --bugs have no scores and are left out "
                "of the sweep (e.g. %s)",
                args.scores,
                len(unscored),
                ", ".join(unscored[:5]),
            )
        dump_scores(args.scores, scores.by_bug, bug_ids)
        system = combine.System(
            name="input",
            modules=universe,
            bug_ids=bug_ids,
            gold={r.id: r.gold for r in reports},
            smells=instances,
        )
        result = combine.sweep_alpha(system, scores, config, metric)
        shape = combine.curve_shape(result)
        if args.format == "json":
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
            manifest.write_json_report(payload, args.out, provenance)
        else:
            rows = [(fmt(a), fmt(v)) for a, v in zip(combine.ALPHA_GRID, result.values)]
            write_csv(args.out, [("alpha", metric), *rows], provenance)
        print(
            f"swept {config.label()} on {metric}: best {fmt(result.best_value)} "
            f"at alpha {fmt(combine.optimize_alpha(result))} ({shape})"
        )
        return 0

    alpha = args.alpha
    # The rankings are written as they are made, so a bad score must stop
    # the run before --out is opened.
    dump_scores(args.scores, scores.by_bug, scores.by_bug)
    norm_smell = combine.normalize(smells.smell_values(universe, instances, config))
    rankings = (
        (bug_id, index.rank(combine.blend(
            combine.normalize({m: per_bug.get(m, 0.0) for m in universe}), norm_smell, alpha
        )))
        for bug_id, per_bug in scores.by_bug.items()
    )
    dataio.write_score_lines(args.out, rankings)
    manifest.write_sidecar_manifest(args.out, provenance)
    print(f"blended {len(scores.by_bug)} rankings at alpha {alpha:g} -> {args.out}")
    return 0
