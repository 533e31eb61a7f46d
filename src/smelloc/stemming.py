"""Porter suffix-stripping stemmer (classic 1980 algorithm).

Implements the canonical variant distributed by the algorithm's author,
which differs from the journal text in two widely adopted rules in step 2
("bli" -> "ble" instead of "abli" -> "able", plus "logi" -> "log") and in
leaving words of length <= 2 untouched. Input must already be lowercase.

The rule tables are dicts keyed by suffix. A step looks up only the suffix
lengths that occur among its rules ending in the word's last letter, longest
first, so the first hit is the longest matching suffix. Conditions read a
consonant/vowel pattern of the candidate stem, one "c" or "v" per letter,
computed once per candidate.
"""

from __future__ import annotations


class _LetterClasses(dict):
    """str.translate table: vowels to "v", y kept for context, all else "c"."""

    def __missing__(self, key: int) -> str:
        return "c"


_CLASSES = _LetterClasses({ord(v): "v" for v in "aeiou"})
_CLASSES[ord("y")] = "y"


def _pattern(stem: str) -> str:
    """One "c" or "v" per letter. y is a consonant at the start or after a
    vowel and a vowel after a consonant."""
    classes = stem.translate(_CLASSES)
    if "y" not in classes:
        return classes
    out = []
    prev = "v"  # so a leading y reads as a consonant
    for ch in classes:
        if ch == "y":
            ch = "c" if prev == "v" else "v"
        out.append(ch)
        prev = ch
    return "".join(out)


# The measure m of a stem, [C](VC){m}[V] in the algorithm's notation, is
# pattern.count("vc"): the "vc" pairs cannot overlap.


def _ends_cvc(stem: str, pattern: str) -> bool:
    """Consonant-vowel-consonant ending where the last consonant is not w, x, y."""
    return pattern.endswith("cvc") and stem[-1] not in "wxy"


def _table(rules):
    """(suffix -> replacement, last letter -> suffix lengths, longest first)."""
    by_suffix = dict(rules)
    lengths: dict[str, set[int]] = {}
    for suffix in by_suffix:
        lengths.setdefault(suffix[-1], set()).add(len(suffix))
    return by_suffix, {
        last: tuple(sorted(ns, reverse=True)) for last, ns in lengths.items()
    }


# Within a step only the longest matching suffix is considered; if its
# condition fails, no rule of that step fires.
_STEP2, _STEP2_LENGTHS = _table((
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
))

_STEP3, _STEP3_LENGTHS = _table((
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
))

_STEP4, _STEP4_LENGTHS = _table((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
))


def _longest_suffix(word: str, rules: dict[str, str], lengths) -> str:
    """The longest suffix of word that rules name, or ""."""
    for n in lengths.get(word[-1], ()):
        suffix = word[-n:]  # the whole word when it is shorter than n
        if suffix in rules:
            return suffix
    return ""


def _step1ab(word: str) -> str:
    if word[-1] == "s":
        if word.endswith(("sses", "ies")):
            word = word[:-2]
        elif word[-2] != "s":
            word = word[:-1]
    if word.endswith("eed"):
        if _pattern(word[:-3]).count("vc") > 0:
            return word[:-1]
        return word
    if word.endswith("ed"):
        stem = word[:-2]
    elif word.endswith("ing"):
        stem = word[:-3]
    else:
        return word
    pattern = _pattern(stem)
    if "v" not in pattern:
        return word
    # cleanup after a successful ed/ing removal
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if stem[-1] == stem[-2:-1] and pattern[-1] == "c" and stem[-1] not in "lsz":
        return stem[:-1]
    if pattern.count("vc") == 1 and _ends_cvc(stem, pattern):
        return stem + "e"
    return stem


def _replace(word: str, rules: dict[str, str], lengths, measure: int) -> str:
    """Steps 2-4: rewrite the longest listed suffix if the stem's measure
    exceeds the given one."""
    suffix = _longest_suffix(word, rules, lengths)
    if not suffix:
        return word
    stem = word[: len(word) - len(suffix)]
    if suffix == "ion" and not stem.endswith(("s", "t")):  # step 4 only
        return word
    if _pattern(stem).count("vc") > measure:
        return stem + rules[suffix]
    return word


def stem(word: str) -> str:
    """Return the stem of a lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1ab(word)
    # step 1c
    if word[-1] == "y" and "v" in _pattern(word[:-1]):
        word = word[:-1] + "i"
    word = _replace(word, _STEP2, _STEP2_LENGTHS, 0)
    word = _replace(word, _STEP3, _STEP3_LENGTHS, 0)
    word = _replace(word, _STEP4, _STEP4_LENGTHS, 1)
    # step 5a
    if word[-1] == "e":
        stem = word[:-1]
        pattern = _pattern(stem)
        m = pattern.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, pattern)):
            word = stem
    # step 5b
    if word.endswith("ll") and _pattern(word).count("vc") > 1:
        word = word[:-1]
    return word
