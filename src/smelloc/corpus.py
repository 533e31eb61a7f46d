"""Text preprocessing for source snapshots and bug reports.

Files and reports go through the same pipeline: identifiers are split into
subtokens, tokens are lowercased, stopwords and noise dropped, and survivors
stemmed. Source files are treated as plain text, so comments and string
literals contribute tokens too.

Normalizing is memoized for the life of the process and never evicted: one
memo per stopword set maps each raw subtoken seen to its normalized token,
or to "" when it is dropped, and one memo shared by every stopword set maps
each token stemmed to its stem fixpoint. A memo hit runs no Python code, so
a snapshot costs one lookup per subtoken plus the work for its distinct
subtokens.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .stopwords import DEFAULT_STOPWORDS

DEFAULT_EXTENSIONS = (".java",)


class TokenDocument(NamedTuple):
    """A preprocessed document: ordered lowercase stemmed terms."""

    id: str
    tokens: tuple[str, ...]


# A capital starts a word, an acronym that stops before the capital of the
# next word, or a trailing acronym; this order reaches a lowercase run
# without first trying the acronym lookahead.
_SUBTOKEN = re.compile(r"[a-z]+|[A-Z](?:[a-z]+|[A-Z]*(?=[A-Z][a-z])|[A-Z]*)|[0-9]+")


def split_identifiers(text: str) -> list[str]:
    """Split text into subtokens on punctuation and identifier-internal seams.

    Splits happen at non-alphanumeric characters (which are dropped), at
    lower-to-upper case changes, at letter/digit changes in either direction,
    and before the last capital of an acronym run followed by a lowercase
    letter, so "HTTPServer2x" yields HTTP, Server, 2, x. The unsplit compound
    is not kept. Only ASCII letters and digits count as token characters.
    """
    return _SUBTOKEN.findall(text)


# Token -> its stem fixpoint, for every token stemmed so far, including the
# intermediate stems on the way to a fixpoint.
_FIXPOINTS: dict[str, str] = {}
# stemming.stem, imported on the first memo miss, so that listing source
# files loads no stemmer.
_stem = None


def _stem_fixpoint(token: str) -> str:
    # A single stemmer pass is not idempotent ("agreed" -> "agre" -> "agr"),
    # so iterate until stable; each changing pass shortens the token or turns
    # a trailing y into i, which bounds the loop. The result depends on the
    # token alone, so one memo serves every stopword set. Each intermediate
    # stem is memoized too: connected, connection and connecting all pass
    # through "connect", whose confirming pass then runs once. A loop, not
    # recursion, as a long token can take hundreds of passes.
    global _stem
    fixpoint = _FIXPOINTS.get(token)
    if fixpoint is not None:
        return fixpoint
    if _stem is None:
        from .stemming import stem as _stem
    chain = []
    while True:
        chain.append(token)
        stemmed = _stem(token)
        if stemmed == token:
            fixpoint = token
            break
        fixpoint = _FIXPOINTS.get(stemmed)
        if fixpoint is not None:
            break
        token = stemmed
    for token in chain:
        _FIXPOINTS[token] = fixpoint
    return fixpoint


def _keep(token: str, stopwords: frozenset[str]) -> bool:
    return len(token) > 1 and token not in stopwords and not token.isdigit()


class _Normalized(dict):
    """Raw subtoken -> its normalized token, or "" when normalizing drops it,
    for one stopword set; a missing subtoken is normalized and stored."""

    __slots__ = ("stopwords",)

    def __init__(self, stopwords: frozenset[str]):
        self.stopwords = stopwords

    def __missing__(self, raw: str) -> str:
        token = raw.lower()
        stem = ""
        if _keep(token, self.stopwords):
            stem = _stem_fixpoint(token)
            if stem != token and not _keep(stem, self.stopwords):
                stem = ""
        self[raw] = stem
        return stem


# Stopword set -> its memo. An equal set built elsewhere finds the same memo.
_NORMALIZED: dict[frozenset[str], _Normalized] = {}


def normalize_tokens(
    tokens: Iterable[str], stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> tuple[str, ...]:
    """Lowercase, drop stopwords / single characters / pure numbers, and stem.

    The noise filter runs again on a token that stemming changed, because a
    stem can land on a stopword or a single character ("beings" -> "be",
    "ies" -> "i"). Output tokens are fixpoints of the whole function, so
    normalizing an already normalized list is the identity.

    Each raw token is normalized once per process and stopword set; a kept
    token has at least two characters, so the memo's "" means dropped.
    """
    memo = _NORMALIZED.get(stopwords)
    if memo is None:
        memo = _NORMALIZED[stopwords] = _Normalized(stopwords)
    return tuple(filter(None, map(memo.__getitem__, tokens)))


def tokenize_text(
    text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> tuple[str, ...]:
    """Full pipeline from raw text to normalized tokens."""
    return normalize_tokens(split_identifiers(text), stopwords)


def _read_file(path: Path) -> str:
    # Snapshots in the wild mix encodings; a lone bad byte should cost one
    # replacement character, not the whole file.
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def module_id(path: Path, root: Path) -> str:
    """Snapshot-relative identity of a source file, with forward slashes."""
    return path.relative_to(root).as_posix()


def source_files(
    root: str | Path, extensions: Sequence[str] = DEFAULT_EXTENSIONS
) -> list[tuple[str, Path]]:
    """(module id, path) of every file under root whose suffix matches.

    Suffixes compare case-insensitively; the list is in module id order.
    """
    root = Path(root)
    suffixes = {ext.lower() for ext in extensions}
    return sorted(
        (module_id(p, root), p)
        for p in root.rglob("*")
        if p.is_file() and p.suffix.lower() in suffixes
    )


def build_corpus(
    root: str | Path,
    extensions: Sequence[str] = DEFAULT_EXTENSIONS,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> list[TokenDocument]:
    """Tokenize every file source_files lists under a snapshot root, in order.

    A file that cannot be read raises ValueError naming its path.
    """
    corpus = []
    for doc_id, path in source_files(root, extensions):
        try:
            text = _read_file(path)
        except OSError as exc:
            # A module that cannot be read would drop out of the universe
            # that source_files defines, so the whole run stops instead.
            raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from None
        corpus.append(TokenDocument(id=doc_id, tokens=tokenize_text(text, stopwords)))
    return corpus


def build_query(bug, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> TokenDocument:
    """Turn a bug report into a query document.

    The summary and description are joined with a single space and sent
    through the same pipeline as source files. Both fields empty is legal
    and produces an empty query.
    """
    text = f"{bug.summary} {bug.description}"
    return TokenDocument(id=bug.id, tokens=tokenize_text(text, stopwords))
