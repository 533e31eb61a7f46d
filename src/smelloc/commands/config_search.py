"""``smelloc config-search``: evaluate every smell configuration over a set
of systems."""

from __future__ import annotations

from .. import combine, dataio, dataset, manifest, risk
from ..smells import SELECTOR_NAMES
from . import STAT_METRICS, UsageError, fmt, load_selectors, logger, require_file
from . import run_manifest, write_csv


def run(args) -> int:
    pairs = []
    for desc_path in args.systems:
        descriptor = dataset.load_descriptor(require_file(desc_path, "descriptor"))
        snapshot = dataio.load_system(descriptor)
        pairs.append(dataio.prepare_system(snapshot, args.technique))
    kept, validation = dataio.filter_dataset(pairs)
    for line in validation.to_text().splitlines():
        logger.info("%s", line)

    selectors = (
        load_selectors(args.selectors)
        if args.selectors
        else risk.pooled_selectors(system for system, _ in kept)
    )
    missing = [s for s in SELECTOR_NAMES if s not in selectors]
    if missing:
        raise UsageError(f"selector sets missing: {missing}")
    empty = [s for s in SELECTOR_NAMES[1:] if not selectors[s]]
    if empty:
        raise UsageError(
            f"derived selector sets are empty: {empty}; "
            "the dataset has no smell type with elevated risk"
        )
    configs = combine.enumerate_configs(
        selectors, include_single_type=args.include_single_type
    )
    report = combine.config_search(kept, configs, jobs=args.jobs)

    inputs = {f"descriptor{i}": path for i, path in enumerate(args.systems)}
    if args.selectors:
        inputs["selectors"] = args.selectors
    provenance = run_manifest(args, inputs)
    if args.format == "json":
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
                            "value": value,
                            "chosen_alpha": {
                                name: combine.optimize_alpha(sweeps[metric])
                                for name, sweeps in row.sweeps.items()
                            },
                            "maximizers": {
                                name: sweeps[metric].best_alphas
                                for name, sweeps in row.sweeps.items()
                            },
                        }
                        for metric, value in row.values.items()
                    },
                    "curves": row.curves,
                }
                for row in report.rows
            ],
            "ideal": report.ideal,
            "ideal_choice": report.ideal_choice,
            "validation": validation.to_json_dict(),
        }
        manifest.write_json_report(payload, args.out, provenance)
    else:
        rows = [
            [row.config.label()]
            + [fmt(row.values[m]) for m in STAT_METRICS]
            + [row.systems_improved, "yes" if row.original_index else ""]
            for row in report.rows
        ]
        ideal = [fmt(report.ideal[m]) for m in STAT_METRICS]
        write_csv(
            args.out,
            [
                ["config", *STAT_METRICS, "#systems", "original"],
                *rows,
                ["(ideal)", *ideal, report.ideal_systems_improved, ""],
            ],
            provenance,
        )
    best = report.rows[0]
    print(
        f"searched {len(configs)} configurations over {len(kept)} systems: "
        f"best map {fmt(best.values['map'])} ({best.config.label()}), "
        f"ideal map {fmt(report.ideal['map'])} -> {args.out}"
    )
    return 0
