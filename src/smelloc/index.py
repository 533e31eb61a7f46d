"""TF-IDF indexing and the two baseline rankers.

The index weights terms as (1 + ln tf) * ln(N / df). Plain cosine similarity
gives the first baseline; the second multiplies each cosine by a logistic
function of the document's min-max-normalized token count, which favors
larger modules. Both return per-module score maps; rank() orders one by
score, ties by module id.

Building counts each document's tokens with Counter, in C, and saving
joins each document's text once. Within one call, each distinct 1 + ln tf
is computed once and each distinct weight formatted once; those memos go
with the call. The per-posting steps stay plain loops, which CPython 3.11
runs faster than the same steps as chains of map.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from itertools import chain, count
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .stopwords import read_json

if TYPE_CHECKING:
    from .corpus import TokenDocument

_CACHE_FORMAT = "smelloc-index"
_CACHE_VERSION = 1


class TermIndex:
    """TF-IDF index over one corpus snapshot, held as postings.

    Documents are numbered in corpus order: document i is doc_ids[i], and
    doc_norms[i] is the norm of its vector. postings[tid] lists, in document
    order, the documents whose weight for term tid is nonzero, and
    weights[tid] those weights; a term with no nonzero weight has no entry.
    Treat it as immutable.
    """

    __slots__ = (
        "vocabulary", "doc_freq", "doc_ids", "doc_lengths", "doc_norms",
        "postings", "weights", "_length_factors",
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
    ):
        self.vocabulary = vocabulary
        self.doc_freq = doc_freq
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.doc_norms = doc_norms
        self.postings = postings
        self.weights = weights
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
    # A loop, not map(list.append, ...): CPython 3.11 specializes these
    # appends, and the loop measured faster.
    for i, (terms, weights) in enumerate(vectors):
        for tid, weight in zip(terms, weights):
            doc_lists[tid].append(i)
            weight_lists[tid].append(weight)
        doc_norms.append(math.sqrt(math.fsum(map(mul, weights, weights))))
    postings = {tid: docs for tid, docs in enumerate(doc_lists) if docs}
    weights_by_term = {tid: weight_lists[tid] for tid in postings}
    return TermIndex(
        vocabulary, doc_freq, doc_ids, doc_lengths,
        doc_norms, postings, weights_by_term,
    )


def build_index(corpus: Sequence[TokenDocument]) -> TermIndex:
    """Index a corpus; raises ValueError on an empty corpus or duplicate ids.

    Term ids number the terms in order of first occurrence. Each distinct
    term frequency's 1 + ln tf is computed once, and every weight is that
    factor times the term's idf, as the query side computes it.
    """
    if not corpus:
        raise ValueError("empty corpus")
    n = len(corpus)
    doc_ids = [doc.id for doc in corpus]
    tokens = [doc.tokens for doc in corpus]
    doc_lengths = dict(zip(doc_ids, map(len, tokens)))
    if len(doc_lengths) != n:
        seen: set[str] = set()
        duplicate = next(d for d in doc_ids if d in seen or seen.add(d))
        raise ValueError(f"duplicate document id {duplicate!r}")
    # Each document's term frequencies, its terms in order of first
    # occurrence; so are the keys of their concatenation.
    tfs = list(map(Counter, tokens))
    df_by_term = Counter(chain.from_iterable(tfs))
    vocabulary = dict(zip(df_by_term, count()))
    doc_freq = tuple(df_by_term.values())
    idfs = [math.log(n / df) for df in doc_freq]
    tf_factor = {
        tf: 1.0 + math.log(tf) for tf in set(chain.from_iterable(map(Counter.values, tfs)))
    }

    def vectors():
        for counts in tfs:
            terms = []
            weights = []
            for term, tf in counts.items():
                tid = vocabulary[term]
                weight = tf_factor[tf] * idfs[tid]
                if weight != 0.0:
                    terms.append(tid)
                    weights.append(weight)
            yield terms, weights

    return _index(vocabulary, doc_freq, doc_ids, doc_lengths, vectors())


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


def rank(scores: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    """(module, score) pairs by score descending, ties by ascending module id."""
    for module, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"invalid score for module {module!r}: {score}")
    return tuple(sorted(scores.items(), key=lambda item: (-item[1], item[0])))


def corpus_hash(corpus: Iterable[TokenDocument]) -> str:
    """Content hash of a corpus, used to invalidate cached indexes."""
    digest = hashlib.sha256()
    for doc in corpus:
        digest.update(json.dumps([doc.id, list(doc.tokens)]).encode("utf-8"))
    return digest.hexdigest()


def save_index(
    index: TermIndex, path: str | Path, corpus_digest: str, corpus: Sequence[TokenDocument]
) -> None:
    """Write a single-file index cache keyed by the corpus content hash.

    corpus is the one the index was built from and gives each document's
    term order; other document ids, or another order, raise ValueError
    naming path before anything is written.

    The text is what json.dump of the payload writes, keys in this order,
    with each document's weights by term id string in the order its tokens
    first occur. The head goes through json.dumps, which runs the C encoder
    where json.dump runs the pure-Python one. Each distinct weight is
    formatted once, with the float.__repr__ that json uses, and the document
    vectors are written one at a time, so the whole text is never held in
    memory.
    """
    if [doc.id for doc in corpus] != index.doc_ids:
        raise ValueError(f"{path}: the corpus is not the one the index was built from")
    head = json.dumps(
        {
            "format": _CACHE_FORMAT,
            "version": _CACHE_VERSION,
            "corpus_hash": corpus_digest,
            "vocabulary": index.vocabulary,
            "doc_freq": list(index.doc_freq),
        }
    )
    # A term has a posting exactly when its weight is nonzero, and then one
    # per document that has it, in document order: document i's weight is
    # the next unread entry of each of its terms.
    read = dict.fromkeys(index.postings, 0)
    # Each entry's text starts with its separator; a vector drops the first.
    key = {tid: f', "{tid}": ' for tid in read}
    distinct = set(chain.from_iterable(index.weights.values()))
    text = dict(zip(distinct, map(float.__repr__, distinct)))
    vocabulary = index.vocabulary
    weights = index.weights
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "doc_vectors": {')
        sep = ""
        for doc_id, doc in zip(index.doc_ids, corpus):
            parts = []
            for tid in map(vocabulary.get, dict.fromkeys(doc.tokens)):
                k = read.get(tid)
                if k is not None:
                    read[tid] = k + 1
                    parts.append(key[tid])
                    parts.append(text[weights[tid][k]])
            fh.write(f"{sep}{json.dumps(doc_id)}: {{{''.join(parts)[2:]}}}")
            sep = ", "
        fh.write('}, "doc_lengths": ' + json.dumps(index.doc_lengths) + "}")


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
