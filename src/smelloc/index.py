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
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import TokenDocument
from .stopwords import read_json

_CACHE_FORMAT = "smelloc-index"
_CACHE_VERSION = 1


class TermIndex:
    """TF-IDF index over one corpus snapshot, held as postings.

    Documents are numbered in corpus order: document i is doc_ids[i], and
    doc_norms[i] is the norm of its vector. postings[tid] lists, in document
    order, the documents whose weight for term tid is nonzero, and
    weights[tid] those weights; a term with no nonzero weight has no entry.
    doc_terms[i] lists document i's weighted terms in order of first
    occurrence, the order the cache writes them in. Treat it as immutable.
    """

    __slots__ = (
        "vocabulary", "doc_freq", "doc_ids", "doc_lengths", "doc_norms",
        "postings", "weights", "doc_terms", "_length_factors",
    )

    def __init__(
        self,
        vocabulary: dict[str, int],
        doc_freq: tuple[int, ...],
        doc_ids: list[str],
        doc_lengths: dict[str, int],
        doc_norms: list[float],
        postings: dict[int, list[int]],
        weights: dict[int, list[float]],
        doc_terms: list[list[int]],
    ):
        self.vocabulary = vocabulary
        self.doc_freq = doc_freq
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.doc_norms = doc_norms
        self.postings = postings
        self.weights = weights
        self.doc_terms = doc_terms
        self._length_factors = None

    @property
    def size(self) -> int:
        return len(self.doc_ids)

    def idf(self, term_id: int) -> float:
        return math.log(self.size / self.doc_freq[term_id])

    @property
    def length_factors(self) -> dict[str, float]:
        """length_factor of this index, computed once on first use."""
        if self._length_factors is None:
            self._length_factors = length_factor(self)
        return self._length_factors


class ScoredRanking(NamedTuple):
    """One technique's ordering of modules for one bug report."""

    bug_id: str
    technique: str
    entries: tuple[tuple[str, float], ...]

    def modules(self) -> tuple[str, ...]:
        return tuple(module for module, _ in self.entries)


def _index(
    vocabulary: dict[str, int],
    doc_freq: tuple[int, ...],
    doc_ids: list[str],
    doc_lengths: dict[str, int],
    vectors: Iterable[tuple[list[int], list[float]]],
) -> TermIndex:
    """The index of each document's (term ids, weights), in doc_ids order.

    build_index and load_index both go through here, so a built and a loaded
    index hold the same floats in the same order.
    """
    doc_lists: list[list[int]] = [[] for _ in vocabulary]
    weight_lists: list[list[float]] = [[] for _ in vocabulary]
    doc_norms = []
    doc_terms = []
    for i, (terms, weights) in enumerate(vectors):
        for tid, weight in zip(terms, weights):
            doc_lists[tid].append(i)
            weight_lists[tid].append(weight)
        doc_terms.append(terms)
        doc_norms.append(math.sqrt(math.fsum([w * w for w in weights])))
    postings = {tid: docs for tid, docs in enumerate(doc_lists) if docs}
    weights_by_term = {tid: weight_lists[tid] for tid in postings}
    return TermIndex(
        vocabulary, doc_freq, doc_ids, doc_lengths,
        doc_norms, postings, weights_by_term, doc_terms,
    )


def build_index(corpus: Sequence[TokenDocument]) -> TermIndex:
    """Index a corpus; raises ValueError on an empty corpus or duplicate ids."""
    if not corpus:
        raise ValueError("empty corpus")
    n = len(corpus)
    vocabulary: dict[str, int] = {}
    df_counts: list[int] = []
    tfs: list[dict[int, int]] = []
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
        tfs.append(counts)
        doc_lengths[doc.id] = len(doc.tokens)

    idfs = [math.log(n / df) for df in df_counts]

    def vectors():
        for counts in tfs:
            terms = []
            weights = []
            for tid, tf in counts.items():
                weight = (1.0 + math.log(tf)) * idfs[tid]
                if weight != 0.0:
                    terms.append(tid)
                    weights.append(weight)
            yield terms, weights

    return _index(
        vocabulary, tuple(df_counts), list(doc_lengths), doc_lengths, vectors()
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

    A zero-norm query or document scores 0 against everything. Each dot
    product adds its terms in query-vector order.
    """
    qvec = _query_vector(query, index)
    qnorm = math.sqrt(math.fsum(w * w for w in qvec.values()))
    if qnorm == 0.0:
        return dict.fromkeys(index.doc_ids, 0.0)
    dots = [0.0] * index.size
    postings = index.postings
    weights = index.weights
    for tid, qweight in qvec.items():
        docs = postings.get(tid)
        if docs is not None:
            for i, dweight in zip(docs, weights[tid]):
                dots[i] += qweight * dweight
    # A document that shares no term has dot 0 and may have norm 0. Floating
    # error can push a self-match a hair past 1.
    return {
        doc_id: min(1.0, dot / (qnorm * dnorm)) if dot else 0.0
        for doc_id, dot, dnorm in zip(index.doc_ids, dots, index.doc_norms)
    }


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


def _doc_vectors(index: TermIndex) -> dict[str, dict[str, float]]:
    """Each document's weights by term id string, in first-occurrence order.

    Postings are in document order, so document i is the next unread entry
    of every term it has.
    """
    read = dict.fromkeys(index.postings, 0)
    vectors = {}
    for doc_id, terms in zip(index.doc_ids, index.doc_terms):
        vec = {}
        for tid in terms:
            k = read[tid]
            read[tid] = k + 1
            vec[str(tid)] = index.weights[tid][k]
        vectors[doc_id] = vec
    return vectors


def save_index(index: TermIndex, path: str | Path, corpus_digest: str) -> None:
    """Write a single-file index cache keyed by the corpus content hash."""
    payload = {
        "format": _CACHE_FORMAT,
        "version": _CACHE_VERSION,
        "corpus_hash": corpus_digest,
        "vocabulary": index.vocabulary,
        "doc_freq": list(index.doc_freq),
        "doc_vectors": _doc_vectors(index),
        "doc_lengths": index.doc_lengths,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _ints(values: Iterable) -> bool:
    # bool is an int subclass, so isinstance would let true through.
    return all(type(v) is int for v in values)


def _from_payload(payload: dict) -> TermIndex:
    """The index a cache payload describes.

    Raises AttributeError, KeyError, TypeError or ValueError on anything
    save_index would not have written: term keys that are not a term id's
    decimal string, weights that are not positive finite floats, lengths
    for other documents than the vectors, or document frequencies that
    disagree with the postings.
    """
    vocabulary = payload["vocabulary"]
    doc_freq = payload["doc_freq"]
    vectors = payload["doc_vectors"]
    doc_lengths = payload["doc_lengths"]
    if not (
        type(payload["corpus_hash"]) is str
        and type(vocabulary) is dict
        and type(doc_freq) is list
        and type(vectors) is dict
        and type(doc_lengths) is dict
    ):
        raise TypeError("wrong container types")
    n = len(vectors)
    v = len(vocabulary)
    if not (
        n
        and _ints(vocabulary.values())
        and sorted(vocabulary.values()) == list(range(v))
        and doc_lengths.keys() == vectors.keys()
        and _ints(doc_lengths.values())
        and min(doc_lengths.values()) >= 0
        and len(doc_freq) == v
        and _ints(doc_freq)
    ):
        raise ValueError("inconsistent vocabulary, lengths or frequencies")
    # Only the distinct term keys are converted; a key that is out of range
    # or not canonical ("07") is missing here.
    tid_of = {str(tid): tid for tid in range(v)}.__getitem__

    def parsed():
        for vec in vectors.values():
            weights = list(vec.values())
            if not set(map(type, weights)) <= {float} or (weights and min(weights) <= 0.0):
                raise ValueError("weights must be positive floats")
            yield list(map(tid_of, vec)), weights

    index = _index(vocabulary, tuple(doc_freq), list(vectors), doc_lengths, parsed())
    if not all(map(math.isfinite, index.doc_norms)):
        raise ValueError("weights must be finite")
    # A term in every document has idf 0, so no posting; any other term has
    # one per document that contains it.
    postings = index.postings
    expected = [len(postings.get(tid, ())) or n for tid in range(v)]
    if doc_freq != expected or any(len(docs) == n for docs in postings.values()):
        raise ValueError("document frequencies disagree with the postings")
    return index


def load_index(path: str | Path, corpus_digest: str | None = None) -> TermIndex:
    """Read an index cache; raises ValueError if stale or unrecognized.

    Passing the current corpus hash enforces that the cache still matches.
    Every error message starts with the path.
    """
    payload = read_json(path)
    unrecognized = f"{path}: unrecognized index cache"
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _CACHE_FORMAT
        or payload.get("version") != _CACHE_VERSION
    ):
        raise ValueError(unrecognized)
    try:
        index = _from_payload(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(unrecognized) from exc
    if corpus_digest is not None and payload["corpus_hash"] != corpus_digest:
        raise ValueError(
            f"stale index cache {path}: built from other files or other "
            "tokenizer settings than the current corpus"
        )
    return index
