"""Stemmer unit tests: named vectors, oracle agreement, and properties."""

from __future__ import annotations

import random
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc.corpus import _stem_fixpoint
from smelloc.stemming import stem

from _oracles import PorterReference, stem_by_scanning

VECTORS = {
    # step 1a
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    # step 1b
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi",
    "sky": "sky",
    # steps 2-4 compose; these are full-pipeline results
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "digitizer": "digit",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    # the two departures from the original rule table
    "bli": "bli",  # too short to stem at all
    "possibli": "possibl",
    "analogi": "analog",
    # software vocabulary
    "connection": "connect",
    "initialization": "initi",
    "dependencies": "depend",
    "serializer": "serial",
    "iterator": "iter",
    "listeners": "listen",
    "authentication": "authent",
}


def test_named_vectors():
    for word, expected in VECTORS.items():
        assert stem(word) == expected, f"{word!r} -> {stem(word)!r}, want {expected!r}"


def test_short_words_unchanged():
    for word in ("", "a", "is", "by", "ab", "zz"):
        assert stem(word) == word


def test_matches_reference_port_on_vocabulary():
    ref = PorterReference()
    words = list(VECTORS) + [
        "running", "flies", "denied", "agreement", "university", "universal",
        "maximum", "multiply", "crying", "meetings", "stating", "station",
    ]
    for word in words:
        assert stem(word) == ref.stem(word), word


def test_matches_reference_port_on_random_strings():
    ref = PorterReference()
    rng = random.Random(1234)
    for _ in range(20000):
        word = "".join(
            rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 12))
        )
        assert stem(word) == ref.stem(word), word


def test_matches_reference_port_on_suffix_compositions():
    ref = PorterReference()
    rng = random.Random(99)
    suffixes = [
        "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
        "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
        "fulness", "ousness", "aliti", "iviti", "biliti", "logi", "icate",
        "ative", "alize", "iciti", "ical", "ful", "ness", "al", "ance",
        "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent",
        "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "sses",
        "ies", "ss", "s", "eed", "ed", "ing", "e", "ll", "y", "bli",
    ]
    for _ in range(20000):
        base = "".join(
            rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 6))
        )
        word = base + rng.choice(suffixes)
        if rng.random() < 0.4:
            word += rng.choice(suffixes)
        assert stem(word) == ref.stem(word), word


@settings(max_examples=300)
@given(st.text(alphabet=string.ascii_lowercase, min_size=0, max_size=20))
def test_never_longer_and_tail_rewrites_only(word):
    result = stem(word)
    assert len(result) <= len(word)
    assert result == "" or result.islower()
    # every rule strips or rewrites a suffix; at most the result's final
    # character can deviate from the input (y->i, the -e restorations)
    assert word.startswith(result[:-1])


# Letters the rules and conditions single out, plus two plain consonants:
# vowels, y (a vowel or a consonant by context), w and x (no cvc ending),
# l, s, z (kept doubled) and the letters of every listed suffix.
_PORTER_LETTERS = "aeiouywxlszbcdegmnrtv"


def test_tables_match_scanning_stemmer_on_vectors():
    ref = PorterReference()
    for word in VECTORS:
        assert stem(word) == stem_by_scanning(word) == ref.stem(word), word


@settings(max_examples=3000)
@given(st.text(alphabet=_PORTER_LETTERS, min_size=0, max_size=14))
def test_tables_match_scanning_stemmer_on_porter_letters(word):
    assert stem(word) == stem_by_scanning(word) == PorterReference().stem(word)


_SUFFIXES = (
    "ational", "tional", "enci", "anci", "izer", "bli", "alli", "entli", "eli",
    "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness",
    "ousness", "aliti", "iviti", "biliti", "logi", "icate", "ative", "alize",
    "iciti", "ical", "ful", "ness", "al", "ance", "ence", "er", "ic", "able",
    "ible", "ant", "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize", "sses", "ies", "ss", "s", "eed", "ed", "ing", "e",
    "ll", "y",
)


@settings(max_examples=2000)
@given(
    st.text(alphabet=_PORTER_LETTERS, min_size=0, max_size=5),
    st.lists(st.sampled_from(_SUFFIXES), min_size=1, max_size=3),
)
def test_tables_match_scanning_stemmer_on_suffix_stacks(base, suffixes):
    word = base + "".join(suffixes)
    assert stem(word) == stem_by_scanning(word)


def _fixpoint_by_scanning(word):
    while True:
        stemmed = stem_by_scanning(word)
        if stemmed == word:
            return word
        word = stemmed


@settings(max_examples=500)
@given(
    st.text(alphabet=_PORTER_LETTERS, min_size=0, max_size=5),
    st.lists(st.sampled_from(_SUFFIXES), min_size=0, max_size=4),
)
def test_memoized_fixpoint_matches_iterated_scanning_stemmer(base, suffixes):
    word = base + "".join(suffixes)
    assert _stem_fixpoint(word) == _fixpoint_by_scanning(word)
    # Every stem on the way shares the memoized fixpoint.
    step = word
    while stem(step) != step:
        step = stem(step)
        assert _stem_fixpoint(step) == _fixpoint_by_scanning(word)


def test_fixpoint_of_a_token_needing_more_passes_than_the_recursion_limit():
    # Each pass strips one "ed", so the chain runs through "bed" + "ed" * 5.
    assert _stem_fixpoint("bed" + "ed" * 1500) == _fixpoint_by_scanning("bed" + "ed" * 5)
