"""Default stopword sets, a loader for user-supplied lists, and the strict
UTF-8 and JSON readers that every user-supplied file goes through.

The default set is a standard English stopword list combined with the Java
reserved words, since Java source is the default corpus language and its
keywords carry no retrieval signal. Tokenization splits on punctuation, so
apostrophe contractions are listed by their alphabetic fragments.
"""

from __future__ import annotations

import json
from pathlib import Path

ENGLISH_STOPWORDS = frozenset("""
a about above after again against ain all am an and any are aren as at
be because been before being below between both but by
can couldn
d did didn do does doesn doing don down during
each
few for from further
had hadn has hasn have haven having he her here hers herself him himself his
how
i if in into is isn it its itself
just
ll
m ma me mightn more most mustn my myself
needn no nor not now
o of off on once only or other our ours ourselves out over own
re
s same shan she should shouldn so some such
t than that the their theirs them themselves then there these they this
those through to too
under until up
ve very
was wasn we were weren what when where which while who whom why will with
won wouldn
y you your yours yourself yourselves
""".split())

JAVA_KEYWORDS = frozenset("""
abstract assert boolean break byte case catch char class const continue
default do double else enum extends final finally float for goto if
implements import instanceof int interface long native new package private
protected public return short static strictfp super switch synchronized
this throw throws transient try void volatile while
true false null
""".split())

DEFAULT_STOPWORDS = ENGLISH_STOPWORDS | JAVA_KEYWORDS


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a bad byte raises a ValueError naming the
    file and line, instead of being replaced and silently misread."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise utf8_error(path) from None


def read_json(path: str | Path):
    """The JSON value of a UTF-8 file; malformed JSON raises a ValueError
    naming the file and line."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc


def utf8_error(path: str | Path) -> ValueError:
    """The error for a file that failed to decode as UTF-8, naming its first
    bad line: the lines are decoded again, in binary, to find it. A UTF-8
    sequence never contains a newline byte, so no line split cuts one."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}:{line}: not valid UTF-8: {exc.reason}")
    return ValueError(f"{path}: not valid UTF-8")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list, one term per line; blank lines are skipped.

    Entries are lowercased so the set meets the normalizer's contract.
    """
    terms = (line.strip().lower() for line in read_utf8(path).splitlines())
    return frozenset(term for term in terms if term)
