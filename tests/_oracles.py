"""Independent reference implementations used only to cross-check the package.

Each oracle takes a deliberately different route from the implementation
under test: the stemmer is a procedural buffer-and-offsets port and,
separately, the package's former suffix-scanning stemmer, the splitter
is a character loop and, separately, a two-stage regex, cosine goes through
dense numpy vectors and, separately, the former per-document dict index
with its dict-keyed dot products, the rank metrics count positions exhaustively
and, separately, aggregate from each report's first gold rank, Cliff's
delta is the O(n*m) double loop, relative risk is direct set counting,
the alpha sweep fully sorts the universe at every grid point, the ahead
counts keep the former min/max clamps and per-module updates and,
separately, the former expansion into all 101 counts, the sweep's segments
come from grouping the zipped counts, its pooling compares the zipped
per-report columns at every grid point, a smell
value is aggregated one module at a time from the whole report, score
dumps go through one json.loads or json.dumps call per line, and JSON
reports and the index cache go through json.dump and, for reports,
separately through the former chain of generators. Token normalizing, index
building and the cache writer also keep their former one-item-at-a-time
loops, which the package's memoized versions must match.
"""

from __future__ import annotations

import io
import json
import logging
import math
import re
import string
from fractions import Fraction
from itertools import accumulate, groupby
from pathlib import Path

import numpy as np

from smelloc.combine import (
    _BETA_GRID,
    _N_STATS,
    _NEAR_TIE,
    _STEPS,
    ALPHA_GRID,
    TechniqueScores,
    normalize,
)
from smelloc.corpus import _stem_fixpoint
from smelloc.index import TermIndex, _from_payload
from smelloc.manifest import _escape, _scalar
from smelloc.metrics import ranking_stats, report_stats
from smelloc.smells import _aggregator, select_instances
from smelloc.stopwords import read_json

# The score-dump oracles warn under the loader's own logger name.
logger = logging.getLogger("smelloc.dataio")


class PorterReference:
    """Procedural stemmer port operating on a buffer with k/j offsets."""

    def __init__(self):
        self.b = ""
        self.k = 0
        self.j = 0

    def _cons(self, i: int) -> bool:
        ch = self.b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            return i == 0 or not self._cons(i - 1)
        return True

    def _m(self) -> int:
        n = 0
        i = 0
        while True:
            if i > self.j:
                return n
            if not self._cons(i):
                break
            i += 1
        i += 1
        while True:
            while True:
                if i > self.j:
                    return n
                if self._cons(i):
                    break
                i += 1
            i += 1
            n += 1
            while True:
                if i > self.j:
                    return n
                if not self._cons(i):
                    break
                i += 1
            i += 1

    def _vowel_in_stem(self) -> bool:
        return any(not self._cons(i) for i in range(self.j + 1))

    def _doublec(self, j: int) -> bool:
        return j >= 1 and self.b[j] == self.b[j - 1] and self._cons(j)

    def _cvc(self, i: int) -> bool:
        if i < 2 or not self._cons(i) or self._cons(i - 1) or not self._cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def _ends(self, s: str) -> bool:
        if len(s) > self.k + 1:
            return False
        if self.b[self.k - len(s) + 1 : self.k + 1] != s:
            return False
        self.j = self.k - len(s)
        return True

    # b is a fixed buffer with logical end k, like the original in-place
    # version: characters past k are stale, never part of the result.
    def _setto(self, s: str) -> None:
        self.b = self.b[: self.j + 1] + s + self.b[self.j + 1 + len(s) :]
        self.k = self.j + len(s)

    def _r(self, s: str) -> None:
        if self._m() > 0:
            self._setto(s)

    def _step1ab(self) -> None:
        if self.b[self.k] == "s":
            if self._ends("sses"):
                self.k -= 2
            elif self._ends("ies"):
                self._setto("i")
            elif self.b[self.k - 1] != "s":
                self.k -= 1
        if self._ends("eed"):
            if self._m() > 0:
                self.k -= 1
        elif (self._ends("ed") or self._ends("ing")) and self._vowel_in_stem():
            self.k = self.j
            if self._ends("at"):
                self._setto("ate")
            elif self._ends("bl"):
                self._setto("ble")
            elif self._ends("iz"):
                self._setto("ize")
            elif self._doublec(self.k):
                if self.b[self.k] not in "lsz":
                    self.k -= 1
            elif self._m() == 1 and self._cvc(self.k):
                self._setto("e")

    def _step1c(self) -> None:
        if self._ends("y") and self._vowel_in_stem():
            self.b = self.b[: self.k] + "i" + self.b[self.k + 1 :]

    _STEP2 = {
        "a": (("ational", "ate"), ("tional", "tion")),
        "c": (("enci", "ence"), ("anci", "ance")),
        "e": (("izer", "ize"),),
        "l": (
            ("bli", "ble"),
            ("alli", "al"),
            ("entli", "ent"),
            ("eli", "e"),
            ("ousli", "ous"),
        ),
        "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
        "s": (
            ("alism", "al"),
            ("iveness", "ive"),
            ("fulness", "ful"),
            ("ousness", "ous"),
        ),
        "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
        "g": (("logi", "log"),),
    }

    _STEP3 = {
        "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
        "i": (("iciti", "ic"),),
        "l": (("ical", "ic"), ("ful", "")),
        "s": (("ness", ""),),
    }

    _STEP4 = {
        "a": ("al",),
        "c": ("ance", "ence"),
        "e": ("er",),
        "i": ("ic",),
        "l": ("able", "ible"),
        "n": ("ant", "ement", "ment", "ent"),
        "o": ("ion", "ou"),
        "s": ("ism",),
        "t": ("ate", "iti"),
        "u": ("ous",),
        "v": ("ive",),
        "z": ("ize",),
    }

    def _step2(self) -> None:
        if self.k < 1:
            return
        for suffix, repl in self._STEP2.get(self.b[self.k - 1], ()):
            if self._ends(suffix):
                self._r(repl)
                return

    def _step3(self) -> None:
        for suffix, repl in self._STEP3.get(self.b[self.k], ()):
            if self._ends(suffix):
                self._r(repl)
                return

    def _step4(self) -> None:
        if self.k < 1:
            return
        for suffix in self._STEP4.get(self.b[self.k - 1], ()):
            if self._ends(suffix):
                if suffix == "ion" and self.b[self.j] not in "st":
                    continue
                if self._m() > 1:
                    self.k = self.j
                return

    def _step5(self) -> None:
        self.j = self.k
        if self.b[self.k] == "e":
            a = self._m()
            if a > 1 or (a == 1 and not self._cvc(self.k - 1)):
                self.k -= 1
        if self.b[self.k] == "l" and self._doublec(self.k) and self._m() > 1:
            self.k -= 1

    def stem(self, word: str) -> str:
        if len(word) <= 2:
            return word
        self.b = word
        self.k = len(word) - 1
        self.j = 0
        self._step1ab()
        self._step1c()
        self._step2()
        self._step3()
        self._step4()
        self._step5()
        return self.b[: self.k + 1]


# The package's stemmer before its rule tables became dicts (see
# stem_by_scanning), kept whole so the table-driven one can be compared
# against it word for word.

_scan_VOWELS = "aeiou"


def _scan_is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _scan_VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _scan_is_consonant(word, i - 1)
    return True


def _scan_measure(stem: str) -> int:
    """Count vowel-consonant sequences ("m" in the algorithm's notation)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _scan_is_consonant(stem, i)
        if cons and prev_vowel:
            m += 1
        prev_vowel = not cons
    return m


def _scan_has_vowel(stem: str) -> bool:
    return any(not _scan_is_consonant(stem, i) for i in range(len(stem)))


def _scan_ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _scan_is_consonant(word, len(word) - 1)
    )


def _scan_ends_cvc(word: str) -> bool:
    """Consonant-vowel-consonant ending where the last consonant is not w, x, y."""
    if len(word) < 3:
        return False
    return (
        _scan_is_consonant(word, len(word) - 3)
        and not _scan_is_consonant(word, len(word) - 2)
        and _scan_is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement, minimum measure of the remaining stem) triples for the
# dictionary-driven steps. Within a step only the longest matching suffix is
# considered; if its condition fails, no rule of that step fires.
_scan_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_scan_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_scan_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _scan_longest_suffix(word: str, suffixes) -> str | None:
    best = None
    for suf in suffixes:
        if word.endswith(suf) and (best is None or len(suf) > len(best)):
            best = suf
    return best


def _scan_step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _scan_step1b(word: str) -> str:
    if word.endswith("eed"):
        if _scan_measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _scan_has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _scan_has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # cleanup after a successful ed/ing removal
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _scan_ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _scan_measure(word) == 1 and _scan_ends_cvc(word):
        return word + "e"
    return word


def _scan_step1c(word: str) -> str:
    if word.endswith("y") and _scan_has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _scan_step2(word: str) -> str:
    suf = _scan_longest_suffix(word, [s for s, _ in _scan_STEP2])
    if suf is None:
        return word
    repl = dict(_scan_STEP2)[suf]
    stem = word[: -len(suf)]
    if _scan_measure(stem) > 0:
        return stem + repl
    return word


def _scan_step3(word: str) -> str:
    suf = _scan_longest_suffix(word, [s for s, _ in _scan_STEP3])
    if suf is None:
        return word
    repl = dict(_scan_STEP3)[suf]
    stem = word[: -len(suf)]
    if _scan_measure(stem) > 0:
        return stem + repl
    return word


def _scan_step4(word: str) -> str:
    suf = _scan_longest_suffix(word, _scan_STEP4)
    if suf is None:
        return word
    stem = word[: -len(suf)]
    if suf == "ion" and not stem.endswith(("s", "t")):
        return word
    if _scan_measure(stem) > 1:
        return stem
    return word


def _scan_step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _scan_measure(stem)
        if m > 1 or (m == 1 and not _scan_ends_cvc(stem)):
            return stem
    return word


def _scan_step5b(word: str) -> str:
    if word.endswith("ll") and _scan_measure(word) > 1:
        return word[:-1]
    return word


def stem_by_scanning(word: str) -> str:
    """The package's stemmer before its rule tables became dicts: each step
    scans every suffix with endswith, and conditions test one letter at a
    time."""
    if len(word) <= 2:
        return word
    word = _scan_step1a(word)
    word = _scan_step1b(word)
    word = _scan_step1c(word)
    word = _scan_step2(word)
    word = _scan_step3(word)
    word = _scan_step4(word)
    word = _scan_step5a(word)
    word = _scan_step5b(word)
    return word


_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")
_RUN_RE = re.compile(r"[A-Za-z0-9]+")


def split_identifiers_re(text: str) -> list[str]:
    """Regex route to the same camelCase/digit subtoken split."""
    out = []
    for run in _RUN_RE.findall(text):
        out.extend(_SUBTOKEN_RE.findall(run))
    return out


_UPPER = frozenset(string.ascii_uppercase)
_LOWER = frozenset(string.ascii_lowercase)
_DIGIT = frozenset(string.digits)
_ALNUM = _UPPER | _LOWER | _DIGIT


def split_identifiers_loop(text: str) -> list[str]:
    """Character-by-character route to the same subtoken split.

    This was the package's splitter before the single-pass regex replaced it.
    """
    tokens: list[str] = []
    start = None  # index where the current subtoken began
    prev = ""
    n = len(text)
    for i in range(n):
        ch = text[i]
        if ch not in _ALNUM:
            if start is not None:
                tokens.append(text[start:i])
                start = None
            prev = ""
            continue
        if start is None:
            start = i
        else:
            boundary = (
                (prev in _LOWER and ch in _UPPER)
                or (prev in _DIGIT and ch not in _DIGIT)
                or (prev not in _DIGIT and ch in _DIGIT)
                or (
                    prev in _UPPER
                    and ch in _UPPER
                    and i + 1 < n
                    and text[i + 1] in _LOWER
                )
            )
            if boundary:
                tokens.append(text[start:i])
                start = i
        prev = ch
    if start is not None:
        tokens.append(text[start:])
    return tokens


def cosine_dense(query: dict[int, float], doc: dict[int, float]) -> float:
    """Cosine via dense numpy vectors over the union of term ids."""
    ids = sorted(set(query) | set(doc))
    if not ids:
        return 0.0
    q = np.array([query.get(t, 0.0) for t in ids])
    d = np.array([doc.get(t, 0.0) for t in ids])
    qn = np.linalg.norm(q)
    dn = np.linalg.norm(d)
    if qn == 0.0 or dn == 0.0:
        return 0.0
    return min(1.0, float(np.dot(q, d) / (qn * dn)))


class VectorIndex:
    """The former index layout: one {term id: weight} dict per document,
    with norms and (doc id, weight) postings derived from those dicts."""

    def __init__(self, vocabulary, doc_freq, doc_vectors, doc_lengths):
        self.vocabulary = vocabulary
        self.doc_freq = doc_freq
        self.doc_vectors = doc_vectors
        self.doc_lengths = doc_lengths
        self.doc_norms = {}
        posting_lists = {}
        for doc_id, vec in doc_vectors.items():
            self.doc_norms[doc_id] = math.sqrt(math.fsum(w * w for w in vec.values()))
            for tid, weight in vec.items():
                posting_lists.setdefault(tid, []).append((doc_id, weight))
        self.postings = {tid: tuple(entries) for tid, entries in posting_lists.items()}

    @property
    def size(self) -> int:
        return len(self.doc_vectors)

    def idf(self, term_id: int) -> float:
        return math.log(self.size / self.doc_freq[term_id])


def build_vector_index(corpus) -> VectorIndex:
    """TF-IDF vectors per document, then the postings derived from them."""
    n = len(corpus)
    vocabulary: dict[str, int] = {}
    df_counts: list[int] = []
    tfs: dict[str, dict[int, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus:
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
    for doc_id, counts in tfs.items():
        vec = {}
        for tid, tf in counts.items():
            weight = (1.0 + math.log(tf)) * math.log(n / df_counts[tid])
            if weight != 0.0:
                vec[tid] = weight
        doc_vectors[doc_id] = vec
    return VectorIndex(vocabulary, tuple(df_counts), doc_vectors, doc_lengths)


def save_vector_index(index: VectorIndex, path, corpus_digest: str) -> None:
    """The index cache, written straight from the per-document dicts through
    json.dump."""
    payload = {
        "format": "smelloc-index",
        "version": 1,
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


def load_vector_index(path) -> VectorIndex:
    """An index cache read back into per-document dicts, converting every
    term key with int() and every weight with float()."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    doc_vectors = {
        doc_id: {int(tid): float(w) for tid, w in vec.items()}
        for doc_id, vec in payload["doc_vectors"].items()
    }
    return VectorIndex(
        dict(payload["vocabulary"]),
        tuple(payload["doc_freq"]),
        doc_vectors,
        {k: int(v) for k, v in payload["doc_lengths"].items()},
    )


def cosine_score_by_dicts(query, index: VectorIndex) -> dict[str, float]:
    """Cosine scores with the dot products kept in a dict keyed by doc id."""
    scores = {doc_id: 0.0 for doc_id in index.doc_vectors}
    counts: dict[int, int] = {}
    for term in query.tokens:
        tid = index.vocabulary.get(term)
        if tid is not None:
            counts[tid] = counts.get(tid, 0) + 1
    qvec = {}
    for tid, tf in counts.items():
        weight = (1.0 + math.log(tf)) * index.idf(tid)
        if weight != 0.0:
            qvec[tid] = weight
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
            scores[doc_id] = min(1.0, dot / (qnorm * dnorm))
    return scores


def normalize_tokens_by_loop(tokens, stopwords) -> tuple[str, ...]:
    """The former normalize_tokens: one Python step per raw token, no memo
    per stopword set (the stem fixpoints are still the package's)."""

    def keep(token):
        return len(token) > 1 and token not in stopwords and not token.isdigit()

    out = []
    for token in tokens:
        token = token.lower()
        if not keep(token):
            continue
        stem = _stem_fixpoint(token)
        if stem == token or keep(stem):
            out.append(stem)
    return tuple(out)


def _index_by_loop(vocabulary, doc_freq, doc_ids, doc_lengths, vectors) -> TermIndex:
    """The former _index: postings appended and norms squared one weight at
    a time."""
    doc_lists: list[list[int]] = [[] for _ in vocabulary]
    weight_lists: list[list[float]] = [[] for _ in vocabulary]
    doc_norms = []
    for i, (terms, weights) in enumerate(vectors):
        for tid, weight in zip(terms, weights):
            doc_lists[tid].append(i)
            weight_lists[tid].append(weight)
        doc_norms.append(math.sqrt(math.fsum([w * w for w in weights])))
    postings = {tid: docs for tid, docs in enumerate(doc_lists) if docs}
    weights_by_term = {tid: weight_lists[tid] for tid in postings}
    return TermIndex(
        vocabulary, doc_freq, doc_ids, doc_lengths,
        doc_norms, postings, weights_by_term,
    )


def build_index_by_loop(corpus) -> TermIndex:
    """The former build_index: term ids, counts and weights one token at a
    time, with 1 + ln tf computed per posting."""
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

    return _index_by_loop(
        vocabulary, tuple(df_counts), list(doc_lengths), doc_lengths, vectors()
    )


def save_index_by_loop(index: TermIndex, path, corpus_digest: str, corpus) -> None:
    """The former save_index: each document's {term id string: weight} dict
    rebuilt one term at a time and written through json.dumps."""
    head = json.dumps(
        {
            "format": "smelloc-index",
            "version": 1,
            "corpus_hash": corpus_digest,
            "vocabulary": index.vocabulary,
            "doc_freq": list(index.doc_freq),
        }
    )
    read = dict.fromkeys(index.postings, 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "doc_vectors": {')
        sep = ""
        for doc_id, doc in zip(index.doc_ids, corpus):
            vec = {}
            for tid in map(index.vocabulary.get, dict.fromkeys(doc.tokens)):
                k = read.get(tid)
                if k is not None:
                    read[tid] = k + 1
                    vec[str(tid)] = index.weights[tid][k]
            fh.write(f"{sep}{json.dumps(doc_id)}: {json.dumps(vec)}")
            sep = ", "
        fh.write('}, "doc_lengths": ' + json.dumps(index.doc_lengths) + "}")


def load_index_by_read_json(path, corpus_digest=None) -> TermIndex:
    """The former load_index: the cache decoded by plain read_json, which
    parses every weight where it appears."""
    payload = read_json(path)
    unrecognized = f"{path}: unrecognized index cache"
    if (
        not isinstance(payload, dict)
        or payload.get("format") != "smelloc-index"
        or payload.get("version") != 1
    ):
        raise ValueError(unrecognized)
    try:
        index = _from_payload(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(unrecognized) from exc
    if corpus_digest is not None and payload["corpus_hash"] != corpus_digest:
        raise ValueError(f"stale index cache {path}")
    return index


def average_precision_exhaustive(ordered, gold) -> float:
    """AP by literally walking every rank position."""
    gold = set(gold)
    if not gold:
        raise ValueError("empty gold set")
    hits = 0
    total = Fraction(0)
    for pos, module in enumerate(ordered, start=1):
        if module in gold:
            hits += 1
            total += Fraction(hits, pos)
    return float(total / len(gold))


def first_gold_rank_exhaustive(ordered, gold):
    gold = set(gold)
    for pos, module in enumerate(ordered, start=1):
        if module in gold:
            return pos
    return None


def top_hit_exhaustive(ordered, gold, n: int) -> bool:
    return any(m in set(gold) for m in list(ordered)[:n])


# The metrics' aggregates as they were before they read report_stats: hits
# and reciprocal ranks come from each outcome's first gold rank.


def reciprocal_rank(outcome) -> float:
    """1 / rank of the first gold module; 0 when no gold module is ranked."""
    rank = outcome.rank_of_first_gold
    return 1.0 / rank if rank is not None else 0.0


def top_count(outcomes, n: int) -> int:
    """Integer number of reports with a gold module in the top n."""
    if n < 1:
        raise ValueError(f"cutoff must be at least 1, got {n}")
    return sum(
        1
        for o in outcomes
        if o.rank_of_first_gold is not None and o.rank_of_first_gold <= n
    )


def mean_reciprocal_rank(outcomes) -> float:
    if not outcomes:
        raise ValueError("no bug reports")
    return math.fsum(reciprocal_rank(o) for o in outcomes) / len(outcomes)


def mean_average_precision(outcomes) -> float:
    if not outcomes:
        raise ValueError("no bug reports")
    return math.fsum(o.stats[4] for o in outcomes) / len(outcomes)


def per_report_values_by_rank(outcomes, metric: str) -> list[float]:
    """One value per bug report for a metric, for paired statistics."""
    if metric == "map":
        return [o.stats[4] for o in outcomes]
    if metric == "mrr":
        return [reciprocal_rank(o) for o in outcomes]
    if metric.startswith("top"):
        n = int(metric[3:])
        return [
            1.0 if o.rank_of_first_gold is not None and o.rank_of_first_gold <= n else 0.0
            for o in outcomes
        ]
    raise ValueError(f"unknown metric {metric!r}")


def cliffs_delta_pairwise(x, y) -> float:
    """O(n*m) definition: mean sign over all pairs."""
    greater = sum(1 for a in x for b in y if a > b)
    less = sum(1 for a in x for b in y if a < b)
    return (greater - less) / (len(x) * len(y))


def relative_risk_by_counting(universe, buggy, typed_modules):
    """Per-type (risk, complement risk, ratio) by direct set counting.

    typed_modules maps type name -> set of modules carrying that type.
    Returns {type: (risk, risk_complement, rr)} with None for undefined
    entries, mirroring the contract under test.
    """
    universe = set(universe)
    buggy = set(buggy)
    out = {}
    for name, smelly in typed_modules.items():
        smelly = set(smelly) & universe
        clean = universe - smelly
        risk = len(smelly & buggy) / len(smelly) if smelly else None
        complement = len(clean & buggy) / len(clean) if clean else None
        if risk is None or complement is None:
            rr = None
        elif risk == 0.0:
            rr = 0.0
        elif complement == 0.0:
            rr = float("inf")
        else:
            rr = risk / complement
        out[name] = (risk, complement, rr)
    return out


def sweep_stats_by_sorting(system, scores, norm_smell):
    """Per grid alpha: pooled outcome stats over the system's bug reports.

    Returns, for each alpha, (top1 hits, top5 hits, top10 hits, sum of
    reciprocal ranks, sum of average precisions, report count). This is the
    sweep that ranks the whole universe with a full sort at every grid point.
    """
    modules = tuple(sorted(system.modules))
    m_count = len(modules)
    indices = range(m_count)
    smell_vec = [norm_smell[m] for m in modules]
    per_alpha = [[0.0] * _N_STATS for _ in ALPHA_GRID]
    for bug_id in system.bug_ids:
        raw = scores.by_bug.get(bug_id, {})
        norm_score = normalize({m: raw.get(m, 0.0) for m in modules})
        score_vec = [norm_score[m] for m in modules]
        # Gold modules the universe lacks still dilute precision; negative
        # sentinels keep them countable without ever matching a ranked index.
        gold = system.gold[bug_id]
        gold_idx = {i for i in indices if modules[i] in gold}
        gold_idx.update(-(k + 1) for k in range(len(gold - set(modules))))
        outcome_cache: dict[tuple[int, ...], tuple[float, float, float, float, float]] = {}
        for ai, alpha in enumerate(ALPHA_GRID):
            beta = 1.0 - alpha
            combined = [
                beta * score_vec[i] + alpha * smell_vec[i] for i in indices
            ]
            # Stable reverse sort: ties stay in ascending index order, and
            # indices follow ascending module id.
            order = tuple(sorted(indices, key=combined.__getitem__, reverse=True))
            stats = outcome_cache.get(order)
            if stats is None:
                rank, (*_, ap) = ranking_stats(order, gold_idx)
                stats = (
                    1.0 if rank is not None and rank <= 1 else 0.0,
                    1.0 if rank is not None and rank <= 5 else 0.0,
                    1.0 if rank is not None and rank <= 10 else 0.0,
                    1.0 / rank if rank is not None else 0.0,
                    ap,
                )
                outcome_cache[order] = stats
            row = per_alpha[ai]
            for k in range(5):
                row[k] += stats[k]
            row[5] += 1.0
    return [tuple(row) for row in per_alpha]


def sweep_stats_by_columns(reports, smell_vec):
    """Per grid alpha: pooled outcome stats over the given bug reports.

    Takes combine._Report inputs, as combine._sweep_stats does. Each
    report's stats are spelled out at all 101 grid points, and the rows are
    pooled wherever the zipped columns change. This was the package's
    pooling before it summed only at the reports' change points.
    """
    columns = []  # per report, its stats at every grid alpha
    for report in reports:
        ahead = [ahead_counts_by_grid(report.scores, smell_vec, g) for g in report.gold]
        if not ahead:
            columns.append([report_stats((), report.gold_count)] * len(ALPHA_GRID))
            continue
        column = []
        for counts, run in groupby(zip(*ahead)):
            stats = report_stats(sorted(c + 1 for c in counts), report.gold_count)
            column.extend([stats] * len(list(run)))
        columns.append(column)
    out = []
    for key, run in groupby(zip(*columns) if columns else [()] * len(ALPHA_GRID)):
        row = [0.0] * _N_STATS
        for stats in key:
            for k in range(5):
                row[k] += stats[k]
            row[5] += 1.0
        out.extend([tuple(row)] * len(list(run)))
    return out


def ahead_counts_by_grid(
    score_vec: Sequence[float], smell_vec: Sequence[float], g: int
) -> list[int]:
    """Per grid alpha, how many modules rank ahead of module g.

    This was combine._ahead_counts before it returned its difference array:
    it accumulates the array into all 101 counts.

    Module j is ahead when its blended score is larger, or equal with j < g:
    the order of a stable reverse sort over ascending module indices. The
    blend is linear in alpha, so c_j - c_g follows the line
    ds + alpha * (dh - ds) through the endpoint differences and changes sign
    at most once; a difference array over the grid records where j is ahead.
    Grid points where the line is within _NEAR_TIE of zero compare the
    blended floats themselves.
    """
    sg = score_vec[g]
    hg = smell_vec[g]
    tol = _NEAR_TIE
    neg = -tol
    wide = tol * _STEPS
    steps = float(_STEPS)
    last = _STEPS
    top = last + 1.0
    ceil = math.ceil
    floor = math.floor
    alphas = ALPHA_GRID
    betas = _BETA_GRID
    diff = [0] * (last + 2)
    ahead = 0  # modules ahead at every grid point, added to diff[0] at the end
    cg = None
    # The modules before g win exact ties, those from g on lose them.
    for before, scores, smells in (
        (True, score_vec[:g], smell_vec[:g]),
        (False, score_vec[g:], smell_vec[g:]),
    ):
        for sj, hj in zip(scores, smells):
            ds = sj - sg
            dh = hj - hg
            if ds > tol:
                if dh > tol:
                    ahead += 1
                    continue
            elif ds < neg and dh < neg:
                continue
            if dh == 0.0:
                if ds == 0.0:
                    # Equal inputs blend to equal floats at every alpha.
                    if before:
                        ahead += 1
                    continue
                if ds > wide or ds < -wide:
                    # Equal smell: the score order holds below alpha 1, where
                    # both blends are exactly h and the index breaks the tie.
                    if ds > 0.0:
                        ahead += 1
                        diff[last] -= 1
                    if before:
                        diff[last] += 1
                    continue
            slope = dh - ds
            if slope == 0.0:
                # The line stays within tol of zero: every point is a near tie.
                lo = 0
                hi = last
            else:
                # Grid indices where |ds + alpha * slope| <= tol: lo in
                # [0, last + 1] and hi in [-1, last], so an empty band keeps
                # its side of the grid.
                x0 = (neg - ds) / slope * steps
                x1 = (tol - ds) / slope * steps
                if x0 > x1:
                    x0, x1 = x1, x0
                if x0 <= 0.0:
                    lo = 0
                elif x0 >= top:
                    lo = last + 1
                else:
                    lo = ceil(x0)
                if x1 >= last:
                    hi = last
                elif x1 < 0.0:
                    hi = -1
                else:
                    hi = floor(x1)
                if slope > 0.0:  # behind before the band, ahead after it
                    diff[hi + 1] += 1
                else:  # ahead before the band, behind after it
                    ahead += 1
                    diff[lo] -= 1
            if lo > hi:
                continue
            if cg is None:
                cg = [b * sg + a * hg for a, b in zip(alphas, betas)]
            for i in range(lo, hi + 1):
                cj = betas[i] * sj + alphas[i] * hj
                if cj > cg[i] or (cj == cg[i] and before):
                    diff[i] += 1
                    diff[i + 1] -= 1
    diff[0] += ahead
    return list(accumulate(diff[: last + 1]))


def sweep_stats_by_groupby(
    reports,
    smell_vec: Sequence[float],
    memo: dict[tuple[tuple[int, ...], int], tuple[float, ...]] | None = None,
) -> list[tuple[float, ...]]:
    """Per grid alpha: pooled outcome stats, as combine._sweep_stats gives.

    This was combine._sweep_stats before it took segments from the change
    points of the ahead counts: it zips every gold module's 101 counts from
    ahead_counts_by_grid and finds the segments with groupby. memo is shared
    across calls as the package's is.
    """
    if memo is None:
        memo = {}
    points = len(ALPHA_GRID)
    # Per grid index, the reports whose stats change there: every report
    # starts a segment at index 0, and another where a gold position moves.
    starts: list[list[tuple[int, tuple[float, ...]]]] = [[] for _ in range(points)]
    for r, report in enumerate(reports):
        gold_count = report.gold_count
        ahead = [ahead_counts_by_grid(report.scores, smell_vec, g) for g in report.gold]
        if not ahead:
            starts[0].append((r, report_stats((), gold_count)))
            continue
        i = 0
        for counts, run in groupby(zip(*ahead)):
            key = (counts, gold_count)
            stats = memo.get(key)
            if stats is None:
                stats = memo[key] = report_stats(
                    sorted(c + 1 for c in counts), gold_count
                )
            starts[i].append((r, stats))
            i += len(list(run))
    current: list[tuple[float, ...]] = [()] * len(reports)
    count = float(len(reports))
    row = (0.0,) * _N_STATS
    out = []
    for changes in starts:
        if changes:
            for r, stats in changes:
                current[r] = stats
            # A left fold from 0.0 in report order, as pooling at every grid
            # point would add them; sum() compensates on Python 3.12+ and
            # would change the last bits.
            top1 = top5 = top10 = rr = ap = 0.0
            for h1, h5, h10, r_r, a_p in current:
                top1 += h1
                top5 += h5
                top10 += h10
                rr += r_r
                ap += a_p
            row = (top1, top5, top10, rr, ap, count)
        out.append(row)
    return out


def ahead_counts_by_line(
    score_vec: Sequence[float], smell_vec: Sequence[float], g: int
) -> list[int]:
    """Per grid alpha, how many modules rank ahead of module g.

    This was combine._ahead_counts before it clamped with comparisons and
    counted the always-ahead modules in one int; it keeps the min/max clamps,
    enumerate and a diff[0] update per module.

    Module j is ahead when its blended score is larger, or equal with j < g:
    the order of a stable reverse sort over ascending module indices. The
    blend is linear in alpha, so c_j - c_g follows the line
    ds + alpha * (dh - ds) through the endpoint differences and changes sign
    at most once; a difference array over the grid records where j is ahead.
    Grid points where the line is within _NEAR_TIE of zero compare the
    blended floats themselves.
    """
    sg = score_vec[g]
    hg = smell_vec[g]
    tol = _NEAR_TIE
    wide = tol * _STEPS
    last = _STEPS
    diff = [0] * (last + 3)
    cg = None
    for j, (sj, hj) in enumerate(zip(score_vec, smell_vec)):
        ds = sj - sg
        dh = hj - hg
        if ds > tol:
            if dh > tol:
                diff[0] += 1
                continue
        elif ds < -tol and dh < -tol:
            continue
        if dh == 0.0:
            if ds == 0.0:
                # Equal inputs blend to equal floats at every alpha.
                if j < g:
                    diff[0] += 1
                continue
            if ds > wide or ds < -wide:
                # Equal smell: the score order holds below alpha 1, where
                # both blends are exactly h and the index breaks the tie.
                if ds > 0.0:
                    diff[0] += 1
                    diff[last] -= 1
                if j < g:
                    diff[last] += 1
                continue
        slope = dh - ds
        if slope == 0.0:
            # The line stays within tol of zero: every point is a near tie.
            lo, hi = 0, last
        else:
            # Grid indices where |ds + alpha * slope| <= tol, clamped to
            # [-1, last + 1] so an empty band keeps its side of the grid.
            x0 = (-tol - ds) / slope * _STEPS
            x1 = (tol - ds) / slope * _STEPS
            if x0 > x1:
                x0, x1 = x1, x0
            lo = math.ceil(min(max(x0, -1.0), last + 1.0))
            hi = math.floor(min(max(x1, -1.0), last + 1.0))
            if slope > 0.0:  # behind before the band, ahead after it
                diff[max(hi + 1, 0)] += 1
            else:  # ahead before the band, behind after it
                diff[0] += 1
                diff[max(lo, 0)] -= 1
        if lo > hi:
            continue
        if cg is None:
            cg = [b * sg + a * hg for a, b in zip(ALPHA_GRID, _BETA_GRID)]
        for i in range(max(lo, 0), min(hi, last) + 1):
            cj = _BETA_GRID[i] * sj + ALPHA_GRID[i] * hj
            if cj > cg[i] or (cj == cg[i] and j < g):
                diff[i] += 1
                diff[i + 1] -= 1
    return list(accumulate(diff[: last + 1]))


def aggregate(instances, aggregator: str) -> float:
    """Collapse a module's selected instances to one number; empty -> 0."""
    value = _aggregator(aggregator)
    return value(instances) if instances else 0.0


def smell_value(module, report, config) -> float:
    """Raw smell value of one module: filter the report, then aggregate."""
    mine = [inst for inst in report if inst.module == module]
    return aggregate(select_instances(mine, config), config.aggregator)


def load_external_scores_by_json_loads(path, technique, known_bugs=None):
    """Read JSON lines of {"bug", "module", "score"}, one json.loads per line.

    Non-finite scores are kept as parsed; the validity filter flags them
    later instead of this loader repairing them silently. Duplicate
    (bug, module) pairs are an error; bug ids outside known_bugs only warn.
    The whole file is decoded first, so a bad byte anywhere is reported
    before any bad entry, as the streaming loader does too.
    """
    by_bug: dict[str, dict[str, float]] = {}
    known = set(known_bugs) if known_bugs is not None else None
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not valid UTF-8: {exc.reason}") from None
    # newline=None splits lines as a file opened in text mode does.
    with io.StringIO(text, newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                bug = str(rec["bug"])
                module = str(rec["module"])
                score = float(rec["score"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad score entry: {exc}") from exc
            modules = by_bug.setdefault(bug, {})
            if module in modules:
                raise ValueError(
                    f"{path}:{lineno}: duplicate score for bug {bug!r}, module {module!r}"
                )
            if known is not None and bug not in known:
                logger.warning("%s:%d: score for unknown bug id %r", path, lineno, bug)
                known.add(bug)  # warn once per id
            modules[module] = score
    return TechniqueScores(technique=technique, by_bug=by_bug)


def write_score_lines_by_json_dumps(path, rankings) -> None:
    """Dump (bug id, (module, score) pairs) rankings in the interchange score
    format, one json.dumps per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for bug_id, entries in rankings:
            for module, score in entries:
                fh.write(json.dumps({"bug": bug_id, "module": module, "score": score}))
                fh.write("\n")


def _encode_by_generators(obj, level):
    """Yield the text json.dump(obj, indent=2, allow_nan=False) writes for
    obj nested level deep: manifest._encode before it appended to a list and
    memoized float text."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        pad = "\n" + "  " * (level + 1)
        if set(map(type, obj)) == {float}:
            text = ("," + pad).join(map(float.__repr__, obj))
            if "n" in text:
                for value in obj:
                    _scalar(value)
            yield "[" + pad + text + "\n" + "  " * level + "]"
            return
        sep = "[" + pad
        for value in obj:
            if isinstance(value, (list, tuple, dict)):
                yield sep
                yield from _encode_by_generators(value, level + 1)
            else:
                yield sep + _scalar(value)
            sep = "," + pad
        yield "\n" + "  " * level + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        pad = "\n" + "  " * (level + 1)
        sep = "{" + pad
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if isinstance(value, (list, tuple, dict)):
                yield sep + _escape(key) + ": "
                yield from _encode_by_generators(value, level + 1)
            else:
                yield sep + _escape(key) + ": " + _scalar(value)
            sep = "," + pad
        yield "\n" + "  " * level + "}"
    else:
        yield _scalar(obj)


def write_json_report_by_generators(payload, path, manifest) -> None:
    """Write a JSON report with the manifest embedded, one generated piece
    at a time, as manifest.write_json_report did before."""
    document = dict(payload)
    document["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode_by_generators(document, 0))
        fh.write("\n")


def write_json_report_by_json_dump(payload, path, manifest) -> None:
    """Write a JSON report with the manifest embedded, through json.dump."""
    document = dict(payload)
    document["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, allow_nan=False)
        fh.write("\n")
