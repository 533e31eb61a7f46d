"""TF-IDF indexing and the two baseline rankers.

The index weights terms as (1 + ln tf) * ln(N / df). Plain cosine similarity
gives the first baseline; the second multiplies each cosine by a logistic
function of the document's min-max-normalized token count, which favors
larger modules. Both return per-module score maps that rank() turns into a
deterministic ordering.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import TokenDocument
from .stopwords import read_utf8

_CACHE_FORMAT = "smelloc-index"
_CACHE_VERSION = 1


@dataclass(frozen=True)
class TermIndex:
    """Immutable TF-IDF index over one corpus snapshot.

    postings and doc_norms are derived from doc_vectors at build time so
    queries touch only the documents that share a term.
    """

    vocabulary: dict[str, int]
    doc_freq: tuple[int, ...]
    doc_vectors: dict[str, dict[int, float]]
    doc_lengths: dict[str, int]
    doc_norms: dict[str, float]
    postings: dict[int, tuple[tuple[str, float], ...]]

    @property
    def size(self) -> int:
        return len(self.doc_vectors)

    def idf(self, term_id: int) -> float:
        return math.log(self.size / self.doc_freq[term_id])

    @cached_property
    def length_factors(self) -> dict[str, float]:
        """length_factor of this index, computed once on first use."""
        return length_factor(self)


@dataclass(frozen=True)
class ScoredRanking:
    """One technique's ordering of modules for one bug report."""

    bug_id: str
    technique: str
    entries: tuple[tuple[str, float], ...]

    def modules(self) -> tuple[str, ...]:
        return tuple(module for module, _ in self.entries)


def build_index(corpus: Sequence[TokenDocument]) -> TermIndex:
    """Index a corpus; raises ValueError on an empty corpus or duplicate ids."""
    if not corpus:
        raise ValueError("empty corpus")
    n = len(corpus)
    vocabulary: dict[str, int] = {}
    df_counts: list[int] = []
    tfs: dict[str, dict[int, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus:
        if doc.id in doc_lengths:
            raise ValueError(f"duplicate document id {doc.id!r}")
        counts: dict[int, int] = {}
        for term in doc.tokens:
            tid = vocabulary.get(term)
            if tid is None:
                tid = len(vocabulary)
                vocabulary[term] = tid
                df_counts.append(0)
            counts[tid] = counts.get(tid, 0) + 1
        for tid in counts:
            df_counts[tid] += 1
        tfs[doc.id] = counts
        doc_lengths[doc.id] = len(doc.tokens)

    doc_vectors: dict[str, dict[int, float]] = {}
    doc_norms: dict[str, float] = {}
    posting_lists: dict[int, list[tuple[str, float]]] = {}
    for doc_id, counts in tfs.items():
        vec: dict[int, float] = {}
        for tid, tf in counts.items():
            idf = math.log(n / df_counts[tid])
            weight = (1.0 + math.log(tf)) * idf
            if weight != 0.0:
                vec[tid] = weight
                posting_lists.setdefault(tid, []).append((doc_id, weight))
        doc_vectors[doc_id] = vec
        doc_norms[doc_id] = math.sqrt(math.fsum(w * w for w in vec.values()))
    postings = {tid: tuple(entries) for tid, entries in posting_lists.items()}
    return TermIndex(
        vocabulary=vocabulary,
        doc_freq=tuple(df_counts),
        doc_vectors=doc_vectors,
        doc_lengths=doc_lengths,
        doc_norms=doc_norms,
        postings=postings,
    )


def _query_vector(query: TokenDocument, index: TermIndex) -> dict[int, float]:
    # Terms outside the corpus vocabulary have no defined idf and are ignored.
    counts: dict[int, int] = {}
    for term in query.tokens:
        tid = index.vocabulary.get(term)
        if tid is not None:
            counts[tid] = counts.get(tid, 0) + 1
    vec: dict[int, float] = {}
    for tid, tf in counts.items():
        weight = (1.0 + math.log(tf)) * index.idf(tid)
        if weight != 0.0:
            vec[tid] = weight
    return vec


def cosine_score(query: TokenDocument, index: TermIndex) -> dict[str, float]:
    """Cosine similarity of the query against every document, in [0, 1].

    A zero-norm query or document scores 0 against everything.
    """
    scores = {doc_id: 0.0 for doc_id in index.doc_vectors}
    qvec = _query_vector(query, index)
    qnorm = math.sqrt(math.fsum(w * w for w in qvec.values()))
    if qnorm == 0.0:
        return scores
    dots: dict[str, float] = {}
    for tid, qweight in qvec.items():
        for doc_id, dweight in index.postings.get(tid, ()):
            dots[doc_id] = dots.get(doc_id, 0.0) + qweight * dweight
    for doc_id, dot in dots.items():
        dnorm = index.doc_norms[doc_id]
        if dnorm > 0.0:
            # Floating error can push a self-match a hair past 1.
            scores[doc_id] = min(1.0, dot / (qnorm * dnorm))
    return scores


def length_factor(index: TermIndex) -> dict[str, float]:
    """Logistic weight per document from min-max-normalized token counts.

    All documents the same length collapses the normalization to 0, so every
    document gets the logistic midpoint 0.5.
    """
    lengths = index.doc_lengths
    lo = min(lengths.values())
    hi = max(lengths.values())
    span = hi - lo
    factors = {}
    for doc_id, length in lengths.items():
        norm = (length - lo) / span if span else 0.0
        factors[doc_id] = 1.0 / (1.0 + math.exp(-norm))
    return factors


def rvsm_score(query: TokenDocument, index: TermIndex) -> dict[str, float]:
    """Cosine similarity scaled by the document length factor."""
    factors = index.length_factors
    return {
        doc_id: factors[doc_id] * sim
        for doc_id, sim in cosine_score(query, index).items()
    }


def rank(
    scores: Mapping[str, float], bug_id: str = "", technique: str = ""
) -> ScoredRanking:
    """Order modules by score descending, ties by ascending module id."""
    for module, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"invalid score for module {module!r}: {score}")
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ScoredRanking(bug_id=bug_id, technique=technique, entries=tuple(ordered))


def corpus_hash(corpus: Iterable[TokenDocument]) -> str:
    """Content hash of a corpus, used to invalidate cached indexes."""
    digest = hashlib.sha256()
    for doc in corpus:
        digest.update(json.dumps([doc.id, list(doc.tokens)]).encode("utf-8"))
    return digest.hexdigest()


def save_index(index: TermIndex, path: str | Path, corpus_digest: str) -> None:
    """Write a single-file index cache keyed by the corpus content hash."""
    payload = {
        "format": _CACHE_FORMAT,
        "version": _CACHE_VERSION,
        "corpus_hash": corpus_digest,
        "vocabulary": index.vocabulary,
        "doc_freq": list(index.doc_freq),
        "doc_vectors": {
            doc_id: {str(tid): w for tid, w in vec.items()}
            for doc_id, vec in index.doc_vectors.items()
        },
        "doc_lengths": index.doc_lengths,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_index(path: str | Path, corpus_digest: str | None = None) -> TermIndex:
    """Read an index cache; raises ValueError if stale or unrecognized.

    Passing the current corpus hash enforces that the cache still matches.
    Every error message starts with the path.
    """
    try:
        payload = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    unrecognized = f"{path}: unrecognized index cache"
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _CACHE_FORMAT
        or payload.get("version") != _CACHE_VERSION
    ):
        raise ValueError(unrecognized)
    try:
        built_from = payload["corpus_hash"]
        doc_vectors = {
            doc_id: {int(tid): float(w) for tid, w in vec.items()}
            for doc_id, vec in payload["doc_vectors"].items()
        }
        vocabulary = dict(payload["vocabulary"])
        doc_freq = tuple(payload["doc_freq"])
        doc_lengths = {k: int(v) for k, v in payload["doc_lengths"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(unrecognized) from exc
    if corpus_digest is not None and built_from != corpus_digest:
        raise ValueError(
            f"stale index cache {path}: built from other files or other "
            "tokenizer settings than the current corpus"
        )
    doc_norms = {
        doc_id: math.sqrt(math.fsum(w * w for w in vec.values()))
        for doc_id, vec in doc_vectors.items()
    }
    posting_lists: dict[int, list[tuple[str, float]]] = {}
    for doc_id, vec in doc_vectors.items():
        for tid, weight in vec.items():
            posting_lists.setdefault(tid, []).append((doc_id, weight))
    return TermIndex(
        vocabulary=vocabulary,
        doc_freq=doc_freq,
        doc_vectors=doc_vectors,
        doc_lengths=doc_lengths,
        doc_norms=doc_norms,
        postings={tid: tuple(v) for tid, v in posting_lists.items()},
    )
