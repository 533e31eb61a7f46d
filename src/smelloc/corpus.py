"""Text preprocessing for source snapshots and bug reports.

Files and reports go through the same pipeline: identifiers are split into
subtokens, tokens are lowercased, stopwords and noise dropped, and survivors
stemmed. Source files are treated as plain text, so comments and string
literals contribute tokens too.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .stemming import stem
from .stopwords import DEFAULT_STOPWORDS

DEFAULT_EXTENSIONS = (".java",)


class TokenDocument(NamedTuple):
    """A preprocessed document: ordered lowercase stemmed terms."""

    id: str
    tokens: tuple[str, ...]


_SUBTOKEN = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


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


def _stem_fixpoint(token: str) -> str:
    # A single stemmer pass is not idempotent ("agreed" -> "agre" -> "agr"),
    # so iterate until stable; each changing pass shortens the token or turns
    # a trailing y into i, which bounds the loop. The result depends on the
    # token alone, so one memo serves every stopword set. Each intermediate
    # stem is memoized too: connected, connection and connecting all pass
    # through "connect", whose confirming pass then runs once. A loop, not
    # recursion, as a long token can take hundreds of passes.
    fixpoint = _FIXPOINTS.get(token)
    if fixpoint is not None:
        return fixpoint
    chain = []
    while True:
        chain.append(token)
        stemmed = stem(token)
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


def normalize_tokens(
    tokens: Iterable[str], stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> tuple[str, ...]:
    """Lowercase, drop stopwords / single characters / pure numbers, and stem.

    The noise filter runs again on a token that stemming changed, because a
    stem can land on a stopword or a single character ("beings" -> "be",
    "ies" -> "i"). Output tokens are fixpoints of the whole function, so
    normalizing an already normalized list is the identity.
    """
    out = []
    for token in tokens:
        token = token.lower()
        if not _keep(token, stopwords):
            continue
        stem = _stem_fixpoint(token)
        if stem == token or _keep(stem, stopwords):
            out.append(stem)
    return tuple(out)


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
