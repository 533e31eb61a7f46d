"""Tests for TF-IDF indexing, the two baseline rankers, and the index cache."""

import json
import math
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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

from _oracles import (
    build_index_by_loop,
    build_vector_index,
    cosine_dense,
    cosine_score_by_dicts,
    load_index_by_read_json,
    load_vector_index,
    save_index_by_loop,
    save_vector_index,
)


def _doc(doc_id: str, *tokens: str) -> TokenDocument:
    return TokenDocument(id=doc_id, tokens=tuple(tokens))


def _vector(index, doc_id: str) -> dict[int, float]:
    """A document's weights by term id, read back from the postings."""
    i = index.doc_ids.index(doc_id)
    return {
        tid: index.weights[tid][docs.index(i)]
        for tid, docs in index.postings.items()
        if i in docs
    }


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
        assert idx.doc_ids == ["d1", "d2", "d3"]
        assert _vector(idx, "d1")[a] == pytest.approx(_hand_weight(2, 3, 1), abs=1e-12)
        assert _vector(idx, "d1")[b] == pytest.approx(_hand_weight(1, 3, 2), abs=1e-12)
        assert _vector(idx, "d2")[g] == pytest.approx(_hand_weight(1, 3, 2), abs=1e-12)
        assert _vector(idx, "d3")[g] == pytest.approx(_hand_weight(4, 3, 2), abs=1e-12)
        assert idx.postings == {a: [0], b: [0, 1], g: [1, 2]}
        assert [set(_vector(idx, d)) for d in idx.doc_ids] == [{a, b}, {b, g}, {g}]
        norm = math.sqrt(
            _hand_weight(2, 3, 1) ** 2 + _hand_weight(1, 3, 2) ** 2
        )
        assert idx.doc_norms[0] == pytest.approx(norm, abs=1e-12)
        assert idx.doc_lengths == {"d1": 3, "d2": 2, "d3": 4}

    def test_zero_weights_are_not_stored(self, tmp_path):
        # One document: every term has df == N, so idf and the weights are 0.
        corpus = [_doc("d1", "alpha", "beta", "beta")]
        idx = build_index(corpus)
        assert _vector(idx, "d1") == {}
        assert idx.doc_norms == [0.0]
        assert idx.postings == {}
        assert idx.weights == {}
        cache = tmp_path / "cache.json"
        save_index(idx, cache, corpus_hash(corpus), corpus)
        assert json.loads(cache.read_text(encoding="utf-8"))["doc_vectors"] == {"d1": {}}
        scores = cosine_score(_doc("q", "alpha"), idx)
        assert scores == {"d1": 0.0}

    def test_terms_in_every_document_carry_no_weight(self):
        corpus = [
            _doc("d1", "common", "left"),
            _doc("d2", "common", "right"),
        ]
        idx = build_index(corpus)
        common = idx.vocabulary["common"]
        assert common not in _vector(idx, "d1")
        assert common not in _vector(idx, "d2")
        assert common not in idx.postings

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_index([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate document id"):
            build_index([_doc("d1", "alpha"), _doc("d1", "beta")])
        # The first id to repeat is named, as the loop oracle names it.
        corpus = [_doc("a", "x"), _doc("b", "y"), _doc("b", "z"), _doc("a", "w")]
        for build in (build_index, build_index_by_loop):
            with pytest.raises(ValueError, match="^duplicate document id 'b'$"):
                build(corpus)


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
                want = cosine_dense(qvec, _vector(idx, doc.id))
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


_TERMS = st.sampled_from(["alpha", "beta", "gamma", "delta", "eps", "zeta"])


class TestAgainstVectorOracle:
    """The postings index against the former per-document dict index."""

    @staticmethod
    def _hexed(scores: dict[str, float]) -> list[tuple[str, str]]:
        return [(doc_id, score.hex()) for doc_id, score in scores.items()]

    @settings(max_examples=150, deadline=None)
    @given(
        docs=st.lists(st.lists(_TERMS, max_size=12), min_size=1, max_size=8),
        queries=st.lists(st.lists(_TERMS | st.just("unseen"), max_size=10), max_size=4),
    )
    def test_scores_and_cache_bytes_equal_the_oracle(self, docs, queries):
        corpus = [TokenDocument(id=f"d{i}", tokens=tuple(t)) for i, t in enumerate(docs)]
        digest = corpus_hash(corpus)
        built = build_index(corpus)
        oracle = build_vector_index(corpus)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp, "ours.json"), Path(tmp, "theirs.json")
            save_index(built, ours, digest, corpus)
            save_vector_index(oracle, theirs, digest)
            assert ours.read_bytes() == theirs.read_bytes()
            loaded = load_index(ours, digest)
            oracle_loaded = load_vector_index(theirs)
        for tokens in queries:
            query = _doc("q", *tokens)
            want = cosine_score_by_dicts(query, oracle)
            assert self._hexed(cosine_score_by_dicts(query, oracle_loaded)) == self._hexed(want)
            factors = length_factor(oracle)
            want_rvsm = {doc_id: factors[doc_id] * sim for doc_id, sim in want.items()}
            for index in (built, loaded):
                assert self._hexed(cosine_score(query, index)) == self._hexed(want)
                assert self._hexed(rvsm_score(query, index)) == self._hexed(want_rvsm)


# Mostly small term frequencies, with a few large ones.
_TF = st.integers(1, 4) | st.sampled_from([250, 9999])


def _exact(index) -> tuple:
    """Every field of an index, in order, with floats as float.hex."""
    return (
        list(index.vocabulary.items()), index.doc_freq, index.doc_ids,
        list(index.doc_lengths.items()), [n.hex() for n in index.doc_norms],
        [(tid, docs, [w.hex() for w in index.weights[tid]])
         for tid, docs in index.postings.items()],
        list(index.weights),
    )


def _tf_corpus(docs, everywhere: bool) -> list[TokenDocument]:
    """Documents from (term, tf) pairs, each with "every" if everywhere."""
    return [
        TokenDocument(
            id=f"d{i}",
            tokens=tuple(term for term, tf in pairs for _ in range(tf))
            + (("every",) if everywhere else ()),
        )
        for i, pairs in enumerate(docs)
    ]


class TestAgainstLoopOracle:
    """build_index and save_index against their former one-item loops."""

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(st.tuples(_TERMS, _TF), max_size=5), min_size=1, max_size=6),
        everywhere=st.booleans(),
    )
    # A term in every document (weight 0), an empty document, and large tfs.
    @example(docs=[[("alpha", 1)], [("beta", 2), ("alpha", 3)]], everywhere=True)
    @example(docs=[[("beta", 2), ("alpha", 1)], [], [("alpha", 3)]], everywhere=False)
    @example(docs=[[("gamma", 9999), ("beta", 1)], [("beta", 250)]], everywhere=False)
    def test_index_and_cache_bytes_equal_the_loop_oracle(self, docs, everywhere):
        corpus = _tf_corpus(docs, everywhere)
        built = build_index(corpus)
        oracle = build_index_by_loop(corpus)
        assert _exact(built) == _exact(oracle)
        digest = corpus_hash(corpus)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp, "ours.json"), Path(tmp, "theirs.json")
            save_index(built, ours, digest, corpus)
            save_index_by_loop(oracle, theirs, digest, corpus)
            assert ours.read_bytes() == theirs.read_bytes()
            assert _exact(load_index(ours, digest)) == _exact(built)


class TestAgainstReadJsonOracle:
    """load_index, which parses each distinct weight text once, against the
    former decode by plain read_json."""

    # Repeated term frequencies give repeated weights, within a document
    # and across documents.
    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(st.tuples(_TERMS, _TF), max_size=6), min_size=1, max_size=8),
        everywhere=st.booleans(),
    )
    @example(docs=[[("alpha", 2), ("beta", 2)], [("gamma", 2), ("beta", 2)]], everywhere=False)
    def test_loaded_index_equals_the_oracle(self, docs, everywhere):
        corpus = _tf_corpus(docs, everywhere)
        built = build_index(corpus)
        digest = corpus_hash(corpus)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "cache.json")
            save_index(built, path, digest, corpus)
            loaded = load_index(path, digest)
            oracle = load_index_by_read_json(path, digest)
        assert _exact(loaded) == _exact(oracle) == _exact(built)


class TestRank:
    def test_orders_by_score_then_id(self):
        ranking = rank({"b": 1.0, "a": 1.0, "c": 0.5, "d": 2.0})
        assert ranking == (("d", 2.0), ("a", 1.0), ("b", 1.0), ("c", 0.5))

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="invalid score for module"):
            rank({"a": float("nan")})
        with pytest.raises(ValueError, match="invalid score for module"):
            rank({"a": float("inf")})

    def test_empty_scores_allowed(self):
        assert rank({}) == ()


class TestCache:
    def _corpus(self):
        rng = random.Random(99)
        return _random_corpus(rng, 5)

    def test_roundtrip_preserves_scores(self, tmp_path):
        corpus = self._corpus()
        idx = build_index(corpus)
        digest = corpus_hash(corpus)
        path = tmp_path / "cache.json"
        save_index(idx, path, digest, corpus)
        loaded = load_index(path, digest)
        assert loaded.vocabulary == idx.vocabulary
        assert loaded.doc_freq == idx.doc_freq
        assert loaded.doc_ids == idx.doc_ids
        assert all(_vector(loaded, d) == _vector(idx, d) for d in idx.doc_ids)
        assert loaded.doc_lengths == idx.doc_lengths
        assert loaded.doc_norms == idx.doc_norms
        assert loaded.postings == idx.postings

        def hexed(index):
            norms = [(doc_id, n.hex()) for doc_id, n in zip(index.doc_ids, index.doc_norms)]
            postings = [
                (tid, [(index.doc_ids[i], w.hex()) for i, w in zip(docs, index.weights[tid])])
                for tid, docs in index.postings.items()
            ]
            return norms, postings

        # Same floats in the same order, so scores add up the same way.
        assert hexed(loaded) == hexed(idx)
        query = _doc("q", *corpus[0].tokens[:4])
        assert cosine_score(query, loaded) == cosine_score(query, idx)
        assert rvsm_score(query, loaded) == rvsm_score(query, idx)
        # A loaded index saves back to the same bytes.
        again = tmp_path / "again.json"
        save_index(loaded, again, digest, corpus)
        assert again.read_bytes() == path.read_bytes()

    def test_cache_bytes_equal_the_json_dump_oracle(self, tmp_path):
        # save_index writes the payload in parts, each through json.dumps (the
        # C encoder); the oracle writes it through json.dump's pure-Python one.
        corpus = _random_corpus(random.Random(7), 60) + [
            _doc("src/Caf\u00e9.java", "gr\u00f6\u00dfe", "t1", "na\u00efve"),
            _doc('q"uote\\d.java', "t2", "line\u2028sep", "\U0001f41b"),
        ]
        digest = corpus_hash(corpus)
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        save_index(build_index(corpus), ours, digest, corpus)
        save_vector_index(build_vector_index(corpus), theirs, digest)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_stale_cache_rejected(self, tmp_path):
        corpus = self._corpus()
        idx = build_index(corpus)
        path = tmp_path / "cache.json"
        save_index(idx, path, corpus_hash(corpus), corpus)
        changed = corpus + [_doc("extra", "omega")]
        with pytest.raises(ValueError, match="stale index cache"):
            load_index(path, corpus_hash(changed))

    @pytest.mark.parametrize("change", ["other-id", "reordered", "one-fewer", "one-more"])
    def test_save_rejects_another_corpus(self, tmp_path, change):
        corpus = self._corpus()
        idx = build_index(corpus)
        other = {
            "other-id": [_doc("other", *corpus[0].tokens)] + corpus[1:],
            "reordered": corpus[1:] + corpus[:1],
            "one-fewer": corpus[:-1],
            "one-more": corpus + [_doc("extra", "omega")],
        }[change]
        path = tmp_path / "cache.json"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            save_index(idx, path, corpus_hash(corpus), other)
        assert not path.exists()

    # The index's corpus is a: x y, b: y z, c: z w; the saved one has the
    # same ids and other tokens.
    @pytest.mark.parametrize(
        "saved",
        [("y x", "z", "y z w"), ("x y", "y z", "z"), ("x y", "y z x", "z w")],
        ids=["posting-of-another-document", "posting-unused", "past-the-last-posting"],
    )
    def test_save_rejects_other_tokens(self, tmp_path, saved):
        corpus = [_doc("a", "x", "y"), _doc("b", "y", "z"), _doc("c", "z", "w")]
        other = [_doc(doc_id, *text.split()) for doc_id, text in zip("abc", saved)]
        path = tmp_path / "cache.json"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            save_index(build_index(corpus), path, corpus_hash(corpus), other)
        assert not path.exists()

    def test_unrecognized_cache_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError, match="unrecognized index cache"):
            load_index(path)

    @staticmethod
    def _first(payload):
        doc_id, vec = next(iter(payload["doc_vectors"].items()))
        return doc_id, vec, next(iter(vec))

    MUTATIONS = {
        "length-missing": lambda p, d, v, t: p["doc_lengths"].pop(d),
        "length-extra": lambda p, d, v, t: p["doc_lengths"].update(extra=3),
        "length-not-int": lambda p, d, v, t: p["doc_lengths"].update({d: True}),
        "term-out-of-range": lambda p, d, v, t: v.update({"9999999": 0.5}),
        "term-not-canonical": lambda p, d, v, t: v.update({"0" + t: v.pop(t)}),
        "term-negative": lambda p, d, v, t: v.update({"-1": 0.5}),
        "weight-int": lambda p, d, v, t: v.update({t: 1}),
        "weight-string": lambda p, d, v, t: v.update({t: "0.5"}),
        "weight-bool": lambda p, d, v, t: v.update({t: True}),
        "weight-zero": lambda p, d, v, t: v.update({t: 0.0}),
        "weight-negative": lambda p, d, v, t: v.update({t: -0.5}),
        "weight-nan": lambda p, d, v, t: v.update({t: math.nan}),
        "weight-infinite": lambda p, d, v, t: v.update({t: math.inf}),
        "vector-not-object": lambda p, d, v, t: p["doc_vectors"].update({d: [0.5]}),
        "doc-freq-off": lambda p, d, v, t: p["doc_freq"].__setitem__(int(t), 99),
        "doc-freq-short": lambda p, d, v, t: p["doc_freq"].pop(),
        # only0 is in one document, and true == 1.
        "doc-freq-bool": lambda p, d, v, t: p["doc_freq"].__setitem__(
            p["vocabulary"]["only0"], True),
        "vocabulary-gap": lambda p, d, v, t: p["vocabulary"].update(
            {next(iter(p["vocabulary"])): len(p["vocabulary"])}),
        "no-documents": lambda p, d, v, t: p.update(doc_vectors={}, doc_lengths={}),
        "hash-not-string": lambda p, d, v, t: p.update(corpus_hash=None),
    }

    @pytest.mark.parametrize("shape", sorted(MUTATIONS))
    def test_inconsistent_cache_rejected(self, tmp_path, shape):
        corpus = self._corpus()
        path = tmp_path / "cache.json"
        save_index(build_index(corpus), path, corpus_hash(corpus), corpus)
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.MUTATIONS[shape](payload, *self._first(payload))
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unrecognized index cache$"):
            load_index(path)

    def test_corpus_hash_tracks_content(self):
        a = [_doc("d1", "alpha")]
        b = [_doc("d1", "alpha")]
        c = [_doc("d1", "beta")]
        assert corpus_hash(a) == corpus_hash(b)
        assert corpus_hash(a) != corpus_hash(c)
        assert corpus_hash(a) != corpus_hash([_doc("d2", "alpha")])
