"""Identifier splitting, token normalization, and corpus construction."""

from __future__ import annotations

import errno
import random
import string
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc import corpus as corpus_mod
from smelloc.corpus import (
    build_corpus,
    build_query,
    module_id,
    normalize_tokens,
    source_files,
    split_identifiers,
    tokenize_text,
)
from smelloc.dataio import BugReport
from smelloc.stemming import stem
from smelloc.stopwords import DEFAULT_STOPWORDS, load_stopwords

from _oracles import normalize_tokens_by_loop, split_identifiers_loop, split_identifiers_re
from conftest import JAVA_SNAPSHOT, write_java_system


class TestSplitIdentifiers:
    def test_camel_case(self):
        assert split_identifiers("camelCase") == ["camel", "Case"]

    def test_acronym_boundary(self):
        assert split_identifiers("HTTPServer2x") == ["HTTP", "Server", "2", "x"]

    def test_snake_case_and_punctuation(self):
        assert split_identifiers("foo_bar.baz(qux)") == ["foo", "bar", "baz", "qux"]

    def test_digit_boundaries_both_directions(self):
        assert split_identifiers("sha256sum") == ["sha", "256", "sum"]
        assert split_identifiers("X11y") == ["X", "11", "y"]

    def test_upper_runs(self):
        assert split_identifiers("ABc") == ["A", "Bc"]
        assert split_identifiers("ABC") == ["ABC"]

    def test_empty_and_nonascii_are_separators(self):
        assert split_identifiers("") == []
        assert split_identifiers("naïve café") == ["na", "ve", "caf"]

    def test_matches_regex_oracle_on_random_text(self):
        rng = random.Random(7)
        chars = string.ascii_letters + string.digits + "_.,;(){}<>/* \n\t"
        for _ in range(5000):
            text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 60)))
            assert split_identifiers(text) == split_identifiers_re(text), text


def _reference_tokens(text: str, stopwords: frozenset[str]) -> tuple[str, ...]:
    """Loop split, then an uncached stem fixpoint with the noise filter."""

    def keep(token):
        return len(token) > 1 and token not in stopwords and not token.isdigit()

    out = []
    for token in split_identifiers_loop(text):
        token = token.lower()
        if not keep(token):
            continue
        while (stemmed := stem(token)) != token:
            token = stemmed
        if keep(token):
            out.append(token)
    return tuple(out)


# Pieces that exercise every seam: acronym runs before a capitalized word,
# digits against letters, stopwords before and after stemming, non-ASCII
# letters (including ones whose lowercase is ASCII) and punctuation.
_PIECES = st.one_of(
    st.sampled_from([
        "HTTPServer", "XMLHttpRequest", "ABc", "ABC", "getURLs", "IDs", "A1B2",
        "sha256sum", "X11y", "StoreManager", "flushCacheEntries", "agreed",
        "beings", "ies", "the", "public", "is", "naïve", "café", "Straße",
        "\u212a", "\u0130x", "\u00e9A", "__init__", "a.b(c)", "\n\t ",
    ]),
    st.text(
        alphabet=string.ascii_letters + string.digits + "_.,;(){}<>/* \n\téßİKµ中",
        max_size=12,
    ),
)

# Stems that the pieces above produce, so this set removes tokens that
# DEFAULT_STOPWORDS keeps, and keeps "the", "public" and "is".
_OTHER_STOPWORDS = frozenset({"server", "manag", "agr", "url", "store", "request"})


class TestTokenizeAgainstOracles:
    @settings(max_examples=300)
    @given(st.lists(_PIECES, max_size=12).map("".join))
    def test_split_matches_loop_oracle(self, text):
        assert split_identifiers(text) == split_identifiers_loop(text)

    @settings(max_examples=300)
    @given(st.lists(_PIECES, max_size=12).map("".join))
    def test_tokenize_matches_uncached_reference(self, text):
        # Both stopword sets in one process: a memo that captured the
        # stopwords of its first caller would fail the second set.
        for stopwords in (DEFAULT_STOPWORDS, _OTHER_STOPWORDS, DEFAULT_STOPWORDS):
            assert tokenize_text(text, stopwords) == _reference_tokens(text, stopwords)


# Raw tokens as a caller may pass them: cased subtokens, stems that land
# on a stopword or a single letter ("beings" -> "be", "ies" -> "i"), stems
# that only _OTHER_STOPWORDS drops, numbers, and non-ASCII text.
_RAW_TOKENS = st.lists(
    st.sampled_from([
        "beings", "Beings", "ies", "IES", "being", "Server", "SERVER", "server",
        "Manager", "managers", "agreed", "URLs", "the", "The", "public", "is",
        "42", "x", "X", "Store", "requests", "connection", "naïve", "\u0130",
    ])
    | st.text(alphabet=string.ascii_letters + string.digits + "éßİK", max_size=10),
    max_size=20,
)


class TestNormalizeMemo:
    """normalize_tokens keeps one memo per stopword set for the process."""

    @settings(max_examples=300)
    @given(_RAW_TOKENS)
    def test_matches_loop_oracle_across_stopword_sets(self, tokens):
        # Memos of earlier examples and tests stay filled, so a memo that
        # served another set's tokens would differ from the oracle here.
        equal_default = frozenset(list(DEFAULT_STOPWORDS))
        assert equal_default == DEFAULT_STOPWORDS and equal_default is not DEFAULT_STOPWORDS
        for stopwords in (DEFAULT_STOPWORDS, _OTHER_STOPWORDS, DEFAULT_STOPWORDS, equal_default):
            assert normalize_tokens(tokens, stopwords) == normalize_tokens_by_loop(
                tokens, stopwords
            )

    @staticmethod
    def _text() -> str:
        """A fixed text of identifiers in every case style, over common and
        coined words."""
        rng = random.Random(12736)
        words = [
            "store", "manager", "flush", "cache", "entry", "http", "server",
            "connection", "agreed", "beings", "request", "url", "parse", "the",
        ] + ["".join(rng.choice("aeioubcdklmnprst") for _ in range(rng.randint(2, 9)))
             for _ in range(3000)]
        styles = (str.lower, str.capitalize, str.upper)
        identifiers = []
        for _ in range(6000):
            parts = [rng.choice(styles)(rng.choice(words)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.2:
                parts.append(str(rng.randint(0, 99)))
            identifiers.append(rng.choice(("", "_")).join(parts))
        return " ".join(identifiers)

    def test_one_entry_per_distinct_raw_subtoken(self, monkeypatch):
        monkeypatch.setattr(corpus_mod, "_NORMALIZED", {})
        text = self._text()
        # Another set first, so the stem memo that every set shares is warm
        # and only the default set's memo is new below.
        tokenize_text(text, _OTHER_STOPWORDS)
        tracemalloc.start()
        try:
            tokenize_text(text, DEFAULT_STOPWORDS)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        memo = corpus_mod._NORMALIZED[DEFAULT_STOPWORDS]
        subtokens = split_identifiers(text)
        assert len(memo) == len(set(subtokens)) == 7087
        assert memo.keys() == set(subtokens)
        # The memo and its raw-subtoken keys; the values are the stem memo's
        # strings or "". 600 kB, 85 bytes an entry, on CPython 3.11.
        assert held < 150 * len(memo)


class TestNormalizeTokens:
    def test_lowercase_stem_and_filter(self):
        tokens = split_identifiers("StoreManager flushCacheEntries")
        assert normalize_tokens(tokens, DEFAULT_STOPWORDS) == (
            "store", "manag", "flush", "cach", "entri",
        )

    def test_stopwords_and_keywords_dropped(self):
        text = "public static void the a an is interface class"
        assert tokenize_text(text, DEFAULT_STOPWORDS) == ()

    def test_single_chars_and_numbers_dropped(self):
        assert tokenize_text("x 42 i7 b2b", DEFAULT_STOPWORDS) == ()

    def test_stemming_output_refiltered(self):
        # "beings" stems to the stopword "be"; "ies" stems to one char
        assert normalize_tokens(["beings"], DEFAULT_STOPWORDS) == ()
        assert normalize_tokens(["ies"], DEFAULT_STOPWORDS) == ()

    def test_idempotent_on_own_output(self):
        text = "agreed controller dependencies initialization HTTPServer2x"
        once = tokenize_text(text, DEFAULT_STOPWORDS)
        assert normalize_tokens(once, DEFAULT_STOPWORDS) == once

    @settings(max_examples=200)
    @given(
        st.lists(
            st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=15),
            max_size=20,
        )
    )
    def test_idempotence_property(self, tokens):
        once = normalize_tokens(tokens, DEFAULT_STOPWORDS)
        assert normalize_tokens(once, DEFAULT_STOPWORDS) == once

    @settings(max_examples=200)
    @given(
        st.text(alphabet=string.ascii_letters + string.digits + " _.", max_size=40),
        st.text(alphabet=string.ascii_letters + string.digits + " _.", max_size=40),
    )
    def test_concatenation_property(self, a, b):
        joined = tokenize_text(a + " " + b, DEFAULT_STOPWORDS)
        assert joined == tokenize_text(a, DEFAULT_STOPWORDS) + tokenize_text(
            b, DEFAULT_STOPWORDS
        )

    @settings(max_examples=200)
    @given(st.text(alphabet=string.printable, max_size=60))
    def test_no_stopword_survives(self, text):
        for token in tokenize_text(text, DEFAULT_STOPWORDS):
            assert token not in DEFAULT_STOPWORDS
            assert len(token) > 1
            assert not token.isdigit()


class TestBuildCorpus:
    def test_documents_sorted_by_path(self, tmp_path):
        fixture = write_java_system(tmp_path)
        docs = build_corpus(fixture["src"])
        ids = [d.id for d in docs]
        assert ids == sorted(JAVA_SNAPSHOT)

    def test_extension_filter(self, tmp_path):
        (tmp_path / "A.java").write_text("class A {}", encoding="utf-8")
        (tmp_path / "B.txt").write_text("not source", encoding="utf-8")
        docs = build_corpus(tmp_path)
        assert [d.id for d in docs] == ["A.java"]
        both = build_corpus(tmp_path, extensions=(".java", ".txt"))
        assert [d.id for d in both] == ["A.java", "B.txt"]

    def test_undecodable_bytes_replaced(self, tmp_path):
        (tmp_path / "A.java").write_bytes(b"class Alpha { \xff\xfe int beta; }")
        docs = build_corpus(tmp_path)
        assert "alpha" in docs[0].tokens and "beta" in docs[0].tokens

    def test_unreadable_file_raises_naming_it(self, tmp_path, vanished_source):
        # Skipping it would drop a module that source_files lists.
        (tmp_path / "A.java").write_text("class Alpha {}", encoding="utf-8")
        (tmp_path / "B.java").write_text("class Beta {}", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            build_corpus(tmp_path)
        assert str(err.value).startswith(f"{tmp_path / vanished_source}: cannot read: ")

    def test_read_error_names_the_os_reason(self, tmp_path, monkeypatch):
        (tmp_path / "A.java").write_text("class Alpha {}", encoding="utf-8")

        def denied(path):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr(corpus_mod, "_read_file", denied)
        with pytest.raises(ValueError) as err:
            build_corpus(tmp_path)
        assert str(err.value) == f"{tmp_path / 'A.java'}: cannot read: Permission denied"

    def test_source_files_in_module_id_order(self, tmp_path):
        for rel in ("b/Z.java", "a/Y.JAVA", "a/X.txt", "C.java"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("class K {}", encoding="utf-8")
        (tmp_path / "d.java").mkdir()
        found = source_files(tmp_path)
        assert [doc_id for doc_id, _ in found] == ["C.java", "a/Y.JAVA", "b/Z.java"]
        assert all(path == tmp_path / doc_id for doc_id, path in found)
        assert [d.id for d in build_corpus(tmp_path)] == [doc_id for doc_id, _ in found]

    def test_module_id_is_posix_relative(self, tmp_path):
        nested = tmp_path / "a" / "b" / "C.java"
        nested.parent.mkdir(parents=True)
        nested.write_text("class C {}", encoding="utf-8")
        assert module_id(nested, tmp_path) == "a/b/C.java"


class TestQueriesAndSerialization:
    def test_query_joins_summary_and_description(self):
        report = BugReport(
            id="B-9",
            summary="StoreManager crash",
            description="flushCacheEntries overflows",
            gold=frozenset({"x"}),
        )
        assert build_query(report, DEFAULT_STOPWORDS).tokens == (
            "store", "manag", "crash", "flush", "cach", "entri", "overflow",
        )

    def test_custom_stopword_file(self, tmp_path):
        words = tmp_path / "stop.txt"
        words.write_text("Store\n\nmanag\n", encoding="utf-8")
        stopwords = load_stopwords(words)
        assert stopwords == frozenset({"store", "manag"})
        assert tokenize_text("StoreManager launches", stopwords) == ("launch",)
