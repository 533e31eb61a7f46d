"""Independent reference implementations used only to cross-check the package.

Each oracle takes a deliberately different route from the implementation
under test: the stemmer is a procedural buffer-and-offsets port and,
separately, the package's former suffix-scanning stemmer, the splitter
is a character loop and, separately, a two-stage regex, cosine goes through
dense numpy vectors, the rank metrics count positions exhaustively, Cliff's
delta is the O(n*m) double loop, relative risk is direct set counting,
the alpha sweep fully sorts the universe at every grid point, the ahead
counts keep the former min/max clamps and per-module updates, the sweep's
pooling compares the zipped per-report columns at every grid point, a smell
value is aggregated one module at a time from the whole report, score
dumps go through one json.loads or json.dumps call per line, and JSON
reports go through json.dump.
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
    _ahead_counts,
    _report_stats,
    normalize,
)
from smelloc.metrics import ranking_stats
from smelloc.smells import _aggregator, select_instances

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
                rank, ap = ranking_stats(order, gold_idx)
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
        ahead = [_ahead_counts(report.scores, smell_vec, g) for g in report.gold]
        if not ahead:
            columns.append([_report_stats((), report.gold_count)] * len(ALPHA_GRID))
            continue
        column = []
        for counts, run in groupby(zip(*ahead)):
            stats = _report_stats(sorted(c + 1 for c in counts), report.gold_count)
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
    before any bad entry, as the streaming loader does for a file within
    its decoder's first chunk.
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
    """Dump rankings in the interchange score format, one json.dumps per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for ranking in rankings:
            for module, score in ranking.entries:
                fh.write(
                    json.dumps(
                        {"bug": ranking.bug_id, "module": module, "score": score}
                    )
                )
                fh.write("\n")


def write_json_report_by_json_dump(payload, path, manifest) -> None:
    """Write a JSON report with the manifest embedded, through json.dump."""
    document = dict(payload)
    document["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, allow_nan=False)
        fh.write("\n")
