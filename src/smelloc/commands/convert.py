"""``smelloc convert``: convert an XML bug repository to bug-report JSON."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ElementTree

from .. import manifest
from . import UsageError, logger, require_file, run_manifest


def run(args) -> int:
    """Best-effort converter for benchmark bug repositories in XML form.

    Expects <bug id=...> elements with <buginformation><summary> and
    <description>, and <fixedFiles><file> children naming the gold modules.
    Path separators are normalized to forward slashes; layouts that deviate
    from this shape need manual conversion.
    """
    path = require_file(args.bugrepo, "bug repository")
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
    provenance = run_manifest(args, {"bugrepo": args.bugrepo})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    manifest.write_sidecar_manifest(args.out, provenance)
    print(f"converted {len(records)} bug reports -> {args.out}")
    return 0
