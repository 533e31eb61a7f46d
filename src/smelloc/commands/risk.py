"""``smelloc risk``: the relative-risk table of smell types and the selector
sets derived from it."""

from __future__ import annotations

from .. import dataio, manifest, risk
from ..stopwords import read_lines
from . import UsageError, fmt, logger, require_dir, require_file, run_manifest
from . import write_csv


def run(args) -> int:
    smells = dataio.load_smell_report(require_file(args.smells, "smell report"))
    if not smells:
        raise UsageError(f"smell report {args.smells} contains no instances")
    if args.modules:
        universe = set(read_lines(require_file(args.modules, "modules")))
        universe_input = args.modules
    elif args.snapshot:
        from .. import corpus

        snapshot = require_dir(args.snapshot, "snapshot")
        universe = {doc_id for doc_id, _ in corpus.source_files(snapshot)}
        universe_input = args.snapshot
    else:
        raise UsageError("pass --modules or --snapshot for the module universe")
    if not universe:
        raise UsageError("module universe is empty")

    buggy: set[str] = set()
    for bugs_path in args.bugs:
        for report in dataio.load_bug_reports(require_file(bugs_path, "bug reports")):
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
    inputs = {"smells": args.smells}
    notes = []
    if args.modules:
        inputs["universe"] = universe_input
    else:
        notes.append(f"universe from snapshot {universe_input}")
    for i, path in enumerate(args.bugs):
        inputs[f"bugs{i}" if len(args.bugs) > 1 else "bugs"] = path
    provenance = run_manifest(args, inputs, notes)
    write_csv(args.out, risk.risk_rows(table), provenance)
    selectors = risk.derive_selectors(table)
    if args.selectors_out:
        manifest.write_json_report(
            {name: sorted(types) for name, types in selectors.items()},
            args.selectors_out,
            provenance,
        )
    total = table.total
    print(
        f"risk table over {table.module_total} modules "
        f"({table.buggy_total} buggy) -> {args.out}; "
        f"total rr {fmt(total.relative_risk) if total.relative_risk is not None else 'n/a'}"
    )
    return 0
