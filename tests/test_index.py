"""Tests for TF-IDF indexing, the two baseline rankers, and the index cache."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc.corpus import TokenDocument
from smelloc.index import (
    build_index,
    corpus_hash,
    cosine_score,
    length_factor,
    load_index,
    rank,
    rvsm_score,
    save_index,
)

from _oracles import cosine_dense


def _doc(doc_id: str, *tokens: str) -> TokenDocument:
    return TokenDocument(id=doc_id, tokens=tuple(tokens))


def _hand_weight(tf: int, n: int, df: int) -> float:
    return (1.0 + math.log(tf)) * math.log(n / df)


def _query_weights(index, tokens) -> dict[int, float]:
    # Recomputed from the public index fields rather than the internal helper.
    counts: dict[int, int] = {}
    for term in tokens:
        tid = index.vocabulary.get(term)
        if tid is not None:
            counts[tid] = counts.get(tid, 0) + 1
    return {
        tid: w
        for tid, tf in counts.items()
        if (w := (1.0 + math.log(tf)) * index.idf(tid)) != 0.0
    }


def _random_corpus(rng: random.Random, n_docs: int) -> list[TokenDocument]:
    vocab = [f"t{i}" for i in range(12)]
    docs = []
    for i in range(n_docs):
        length = rng.randint(1, 30)
        tokens = tuple(rng.choice(vocab) for _ in range(length))
        # A token unique to the document keeps its vector off zero.
        docs.append(TokenDocument(id=f"d{i:03d}", tokens=tokens + (f"only{i}",)))
    return docs


class TestBuildIndex:
    def test_hand_computed_weights(self):
        corpus = [
            _doc("d1", "alpha", "alpha", "beta"),
            _doc("d2", "beta", "gamma"),
            _doc("d3", "gamma", "gamma", "gamma", "gamma"),
        ]
        idx = build_index(corpus)
        assert idx.size == 3
        a = idx.vocabulary["alpha"]
        b = idx.vocabulary["beta"]
        g = idx.vocabulary["gamma"]
        assert idx.doc_freq[a] == 1
        assert idx.doc_freq[b] == 2
        assert idx.doc_freq[g] == 2
        assert idx.doc_vectors["d1"][a] == pytest.approx(_hand_weight(2, 3, 1), abs=1e-12)
        assert idx.doc_vectors["d1"][b] == pytest.approx(_hand_weight(1, 3, 2), abs=1e-12)
        assert idx.doc_vectors["d2"][g] == pytest.approx(_hand_weight(1, 3, 2), abs=1e-12)
        assert idx.doc_vectors["d3"][g] == pytest.approx(_hand_weight(4, 3, 2), abs=1e-12)
        norm = math.sqrt(
            _hand_weight(2, 3, 1) ** 2 + _hand_weight(1, 3, 2) ** 2
        )
        assert idx.doc_norms["d1"] == pytest.approx(norm, abs=1e-12)
        assert idx.doc_lengths == {"d1": 3, "d2": 2, "d3": 4}

    def test_zero_weights_are_not_stored(self):
        # One document: every term has df == N, so idf and the weights are 0.
        idx = build_index([_doc("d1", "alpha", "beta", "beta")])
        assert idx.doc_vectors["d1"] == {}
        assert idx.doc_norms["d1"] == 0.0
        assert idx.postings == {}
        scores = cosine_score(_doc("q", "alpha"), idx)
        assert scores == {"d1": 0.0}

    def test_terms_in_every_document_carry_no_weight(self):
        corpus = [
            _doc("d1", "common", "left"),
            _doc("d2", "common", "right"),
        ]
        idx = build_index(corpus)
        common = idx.vocabulary["common"]
        assert common not in idx.doc_vectors["d1"]
        assert common not in idx.doc_vectors["d2"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_index([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate document id"):
            build_index([_doc("d1", "alpha"), _doc("d1", "beta")])


class TestCosine:
    def test_out_of_vocabulary_terms_ignored(self):
        corpus = [_doc("d1", "alpha", "omega"), _doc("d2", "beta", "psi")]
        idx = build_index(corpus)
        with_noise = cosine_score(_doc("q", "alpha", "zzz", "qqq"), idx)
        without = cosine_score(_doc("q", "alpha"), idx)
        assert with_noise == without
        assert with_noise["d1"] > 0.0
        assert with_noise["d2"] == 0.0

    def test_empty_query_scores_zero(self):
        idx = build_index([_doc("d1", "alpha", "x"), _doc("d2", "beta", "y")])
        assert cosine_score(_doc("q"), idx) == {"d1": 0.0, "d2": 0.0}

    def test_matches_dense_numpy_oracle(self):
        rng = random.Random(20240917)
        for trial in range(30):
            corpus = _random_corpus(rng, rng.randint(2, 8))
            idx = build_index(corpus)
            qtokens = tuple(
                rng.choice(corpus[rng.randrange(len(corpus))].tokens)
                for _ in range(rng.randint(1, 15))
            )
            got = cosine_score(_doc("q", *qtokens), idx)
            qvec = _query_weights(idx, qtokens)
            for doc in corpus:
                want = cosine_dense(qvec, idx.doc_vectors[doc.id])
                assert got[doc.id] == pytest.approx(want, abs=1e-12), doc.id

    def test_scores_clamped_to_unit_interval(self):
        rng = random.Random(7)
        corpus = _random_corpus(rng, 6)
        idx = build_index(corpus)
        for doc in corpus:
            scores = cosine_score(_doc("q", *doc.tokens), idx)
            assert all(0.0 <= s <= 1.0 for s in scores.values())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_self_retrieval(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        corpus = _random_corpus(rng, n)
        idx = build_index(corpus)
        target = corpus[rng.randrange(n)]
        scores = cosine_score(_doc("q", *target.tokens), idx)
        assert scores[target.id] == pytest.approx(1.0, abs=1e-9)
        assert scores[target.id] >= max(scores.values()) - 1e-12


class TestLengthFactor:
    def test_min_max_logistic_endpoints(self):
        idx = build_index(
            [_doc("short", "a1", "u1"), _doc("mid", "a1", "a1", "u2"), _doc("long", "a1", "a1", "a1", "u3")]
        )
        factors = length_factor(idx)
        assert factors["short"] == pytest.approx(0.5, abs=1e-12)
        assert factors["long"] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert factors["mid"] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-12)

    def test_uniform_lengths_collapse_to_midpoint(self):
        idx = build_index([_doc("d1", "alpha", "u1"), _doc("d2", "beta", "u2")])
        assert set(length_factor(idx).values()) == {0.5}

    def test_uniform_length_second_baseline_is_half_cosine(self):
        idx = build_index(
            [_doc("d1", "alpha", "u1"), _doc("d2", "alpha", "u2"), _doc("d3", "beta", "u3")]
        )
        query = _doc("q", "alpha", "u1")
        cos = cosine_score(query, idx)
        rv = rvsm_score(query, idx)
        for doc_id in cos:
            assert rv[doc_id] == 0.5 * cos[doc_id]

    def test_second_baseline_is_factor_times_cosine(self):
        rng = random.Random(41)
        corpus = _random_corpus(rng, 7)
        idx = build_index(corpus)
        factors = length_factor(idx)
        assert all(
            factors[a.id] <= factors[b.id]
            for a in corpus
            for b in corpus
            if len(a.tokens) <= len(b.tokens)
        )
        query = _doc("q", *corpus[2].tokens[:5])
        cos = cosine_score(query, idx)
        rv = rvsm_score(query, idx)
        assert rv == {doc_id: factors[doc_id] * cos[doc_id] for doc_id in cos}

    def test_factors_computed_once_per_index(self, monkeypatch):
        import smelloc.index as index_module

        idx = build_index(_random_corpus(random.Random(43), 6))
        want = length_factor(idx)
        calls = []
        monkeypatch.setattr(
            index_module, "length_factor", lambda i: calls.append(i) or want
        )
        for tokens in (("a1",), ("a2", "a3"), ("a1", "a4")):
            query = _doc("q", *tokens)
            cos = cosine_score(query, idx)
            assert rvsm_score(query, idx) == {d: want[d] * cos[d] for d in cos}
        assert calls == [idx]
        # A rebuilt index computes its own factors.
        rvsm_score(_doc("q", "a1"), build_index(_random_corpus(random.Random(43), 6)))
        assert len(calls) == 2


class TestRank:
    def test_orders_by_score_then_id(self):
        ranking = rank(
            {"b": 1.0, "a": 1.0, "c": 0.5, "d": 2.0}, bug_id="B-1", technique="vsm"
        )
        assert ranking.modules() == ("d", "a", "b", "c")
        assert ranking.bug_id == "B-1"
        assert ranking.technique == "vsm"
        assert ranking.entries[0] == ("d", 2.0)

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="invalid score for module"):
            rank({"a": float("nan")})
        with pytest.raises(ValueError, match="invalid score for module"):
            rank({"a": float("inf")})

    def test_empty_scores_allowed(self):
        assert rank({}).entries == ()


class TestCache:
    def _corpus(self):
        rng = random.Random(99)
        return _random_corpus(rng, 5)

    def test_roundtrip_preserves_scores(self, tmp_path):
        corpus = self._corpus()
        idx = build_index(corpus)
        digest = corpus_hash(corpus)
        path = tmp_path / "cache.json"
        save_index(idx, path, digest)
        loaded = load_index(path, digest)
        assert loaded.vocabulary == idx.vocabulary
        assert loaded.doc_freq == idx.doc_freq
        assert loaded.doc_vectors == idx.doc_vectors
        assert loaded.doc_lengths == idx.doc_lengths
        assert loaded.doc_norms == idx.doc_norms
        query = _doc("q", *corpus[0].tokens[:4])
        assert cosine_score(query, loaded) == cosine_score(query, idx)
        assert rvsm_score(query, loaded) == rvsm_score(query, idx)

    def test_stale_cache_rejected(self, tmp_path):
        corpus = self._corpus()
        idx = build_index(corpus)
        path = tmp_path / "cache.json"
        save_index(idx, path, corpus_hash(corpus))
        changed = corpus + [_doc("extra", "omega")]
        with pytest.raises(ValueError, match="stale index cache"):
            load_index(path, corpus_hash(changed))

    def test_unrecognized_cache_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError, match="unrecognized index cache"):
            load_index(path)

    def test_corpus_hash_tracks_content(self):
        a = [_doc("d1", "alpha")]
        b = [_doc("d1", "alpha")]
        c = [_doc("d1", "beta")]
        assert corpus_hash(a) == corpus_hash(b)
        assert corpus_hash(a) != corpus_hash(c)
        assert corpus_hash(a) != corpus_hash([_doc("d2", "alpha")])
