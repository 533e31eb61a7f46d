"""``smelloc rank``: rank modules per bug report, natively or from a dump."""

from __future__ import annotations

from .. import dataio, index, manifest
from . import UsageError, dump_scores, require_dir, require_file, run_manifest
from . import stopword_set


def _term_index(args, stopwords: frozenset[str]) -> index.TermIndex:
    """The index of ``--snapshot``, or the ``--index`` cache checked against it."""
    from .. import corpus

    if not (args.index or args.snapshot):
        raise UsageError("native techniques need --snapshot or --index")
    documents = None
    if args.snapshot:
        documents = corpus.build_corpus(
            require_dir(args.snapshot, "snapshot"), stopwords=stopwords
        )
    if args.index:
        # With a snapshot too, the cache must match its tokens under the
        # current stopwords; without one there is nothing to check against.
        return index.load_index(
            require_file(args.index, "index cache"),
            index.corpus_hash(documents) if documents else None,
        )
    return index.build_index(documents)


def run(args) -> int:
    technique = args.technique
    reports = dataio.load_bug_reports(require_file(args.bugs, "bug reports"))
    # A dump's other bugs are known even when --bug ranks only one of them.
    known = [r.id for r in reports]
    if args.bug is not None:
        reports = tuple(r for r in reports if r.id == args.bug)
        if not reports:
            raise UsageError(f"bug id {args.bug!r} not found in {args.bugs}")
    if technique in dataio.NATIVE_TECHNIQUES:
        stopwords = stopword_set(args)
        rankings = (
            (bug_id, index.rank(scores))
            for bug_id, scores in dataio.native_scores(
                _term_index(args, stopwords), reports, technique, stopwords
            )
        )
        inputs = {"bugs": args.bugs}
    elif technique.startswith("external:"):
        name = technique.split(":", 1)[1]
        if not args.scores:
            raise UsageError("external techniques need --scores")
        scores = dataio.load_external_scores(
            require_file(args.scores, "scores"), name, known_bugs=known
        )
        # The rankings are written as they are made, so a missing or bad
        # score must stop the run before --out is opened.
        per_bug = dump_scores(args.scores, scores.by_bug, [r.id for r in reports])
        rankings = ((r.id, index.rank(s)) for r, s in zip(reports, per_bug))
        inputs = {"bugs": args.bugs, "scores": args.scores}
    else:
        raise UsageError(
            f"unknown technique {technique!r} (use vsm, rvsm, or external:<name>)"
        )
    provenance = run_manifest(args, inputs)
    dataio.write_score_lines(args.out, rankings)
    manifest.write_sidecar_manifest(args.out, provenance)
    print(f"wrote {len(reports)} rankings -> {args.out}")
    return 0
