"""``smelloc index``: tokenize a snapshot and write its TF-IDF index cache."""

from __future__ import annotations

from .. import corpus, index, manifest
from . import require_dir, run_manifest, stopword_set


def run(args) -> int:
    snapshot = require_dir(args.snapshot, "snapshot")
    documents = corpus.build_corpus(
        snapshot, extensions=tuple(args.extensions), stopwords=stopword_set(args)
    )
    term_index = index.build_index(documents)
    digest = index.corpus_hash(documents)
    provenance = run_manifest(args, {}, (f"corpus sha256 {digest}",))
    index.save_index(term_index, args.out, digest, documents)
    manifest.write_sidecar_manifest(args.out, provenance)
    print(
        f"indexed {term_index.size} documents, "
        f"{len(term_index.vocabulary)} terms -> {args.out}"
    )
    return 0
