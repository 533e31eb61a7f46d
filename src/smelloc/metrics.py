"""Ranking-quality metrics and paired-comparison statistics.

Per bug report: the rank of the first gold module, hit flags at fixed
cutoffs, and average precision over the full ranking. Per technique: Top N
ratios (kept alongside their exact integer hit counts), mean reciprocal
rank, and mean average precision. Comparisons between two techniques use the
Wilcoxon signed-rank test (normal approximation) and Cliff's delta with the
Romano effect-size labels.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Hashable, Iterable, NamedTuple, Sequence

TOP_CUTOFFS = (1, 5, 10)

# The order of report_stats' values.
METRIC_NAMES = ("top1", "top5", "top10", "mrr", "map")

# Romano et al. thresholds on |d|.
_EFFECT_LABELS = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


class RankingOutcome(NamedTuple):
    """Everything the metrics need to know about one evaluated ranking."""

    bug_id: str
    rank_of_first_gold: int | None
    stats: tuple[float, ...]  # report_stats: one value per METRIC_NAMES


class MetricReport(NamedTuple):
    top: dict[int, float]  # cutoff -> hit ratio
    counts: dict[int, int]  # cutoff -> exact integer hit count
    mrr: float
    mean_ap: float


def report_stats(positions: Sequence[int], gold_count: int) -> tuple[float, ...]:
    """One report's values of METRIC_NAMES: hits at 1, 5 and 10, reciprocal
    rank and average precision, given the ascending 1-based positions of its
    ranked gold modules and its gold count, which also counts gold modules
    the ranking lacks."""
    if not positions:
        return (0.0,) * len(METRIC_NAMES)
    rank = positions[0]
    precision_sum = 0.0
    for hits, position in enumerate(positions, start=1):
        precision_sum += hits / position
    return (
        1.0 if rank <= 1 else 0.0,
        1.0 if rank <= 5 else 0.0,
        1.0 if rank <= 10 else 0.0,
        1.0 / rank,
        precision_sum / gold_count,
    )


def ranking_stats(
    ordered: Sequence[Hashable], gold_set: Iterable[Hashable]
) -> tuple[int | None, tuple[float, ...]]:
    """Rank of the first gold module (1-based, None if absent) and the
    report_stats of the full ranking.

    Gold modules missing from the ranking still count in the precision
    denominator, so an incomplete ranking cannot reach AP 1.
    """
    gold = set(gold_set)
    if not gold:
        raise ValueError("empty gold set")
    positions = [p for p, module in enumerate(ordered, start=1) if module in gold]
    return positions[0] if positions else None, report_stats(positions, len(gold))


def evaluate_ranking(
    ordered: Sequence[Hashable], gold_set: Iterable[Hashable], bug_id: str = ""
) -> RankingOutcome:
    """Evaluate one ranking against its gold set."""
    rank, stats = ranking_stats(ordered, gold_set)
    return RankingOutcome(bug_id, rank, stats)


def metric_report(outcomes: Sequence[RankingOutcome]) -> MetricReport:
    """Aggregate a batch of outcomes; ratios are derived from integer counts."""
    if not outcomes:
        raise ValueError("no bug reports")
    n = len(outcomes)
    counts = {
        cutoff: sum(1 for o in outcomes if o.stats[k])
        for k, cutoff in enumerate(TOP_CUTOFFS)
    }
    return MetricReport(
        top={cutoff: counts[cutoff] / n for cutoff in TOP_CUTOFFS},
        counts=counts,
        mrr=math.fsum(o.stats[3] for o in outcomes) / n,
        mean_ap=math.fsum(o.stats[4] for o in outcomes) / n,
    )


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sided p-value for paired samples, normal approximation.

    Zero differences are dropped; at least six nonzero pairs are required.
    Tied absolute differences get average ranks with the matching variance
    correction, and the statistic is continuity-corrected by 0.5 toward its
    mean before the z-score.
    """
    # Imported here so a process that only sweeps does not load statistics.
    from statistics import NormalDist

    if len(x) != len(y):
        raise ValueError(f"paired samples differ in length: {len(x)} vs {len(y)}")
    diffs = [a - b for a, b in zip(x, y) if a != b]
    n = len(diffs)
    if n < 6:
        raise ValueError(f"insufficient pairs: {n} nonzero differences, need 6")
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2  # average of 1-based positions
        span = j - i + 1
        tie_term += span**3 - span
        i = j + 1
    w_plus = math.fsum(r for d, r in zip(diffs, ranks) if d > 0)
    mean = n * (n + 1) / 4
    variance = n * (n + 1) * (2 * n + 1) / 24 - tie_term / 48
    shifted = w_plus - mean
    if shifted > 0:
        shifted -= 0.5
    elif shifted < 0:
        shifted += 0.5
    z = shifted / math.sqrt(variance)
    p = 2.0 * (1.0 - NormalDist().cdf(abs(z)))
    return min(1.0, p)


def effect_size_label(delta: float) -> str:
    """Romano interpretation of |d|; each upper boundary starts the next label."""
    magnitude = abs(delta)
    for threshold, label in _EFFECT_LABELS:
        if magnitude < threshold:
            return label
    return "large"


def cliffs_delta(x: Sequence[float], y: Sequence[float]) -> tuple[float, str]:
    """Cliff's delta of two samples and its effect-size label.

    d = (#{x_i > y_j} - #{x_i < y_j}) / (|x| * |y|), computed against a
    sorted copy of y so large samples stay tractable.
    """
    if not x or not y:
        raise ValueError("both samples must be nonempty")
    ys = sorted(y)
    m = len(ys)
    greater = 0
    less = 0
    for value in x:
        below = bisect_left(ys, value)
        above = m - bisect_right(ys, value)
        greater += below
        less += above
    d = (greater - less) / (len(x) * m)
    return d, effect_size_label(d)


def comparison_stats(
    candidate: Sequence[float], baseline: Sequence[float]
) -> dict:
    """Statistics block for one pairwise technique comparison.

    When the signed-rank test cannot run, the p-value is None and a note says
    why ("no difference" for elementwise-identical samples).
    """
    d, label = cliffs_delta(candidate, baseline)
    block: dict = {"cliffs_delta": d, "label": label}
    try:
        block["p_value"] = wilcoxon_signed_rank(candidate, baseline)
    except ValueError as exc:
        block["p_value"] = None
        if list(candidate) == list(baseline):
            block["note"] = "no difference"
        else:
            block["note"] = str(exc)
    return block


def per_report_values(
    outcomes: Sequence[RankingOutcome], metric: str
) -> list[float]:
    """One value per bug report for a metric, for paired statistics."""
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    k = METRIC_NAMES.index(metric)
    return [o.stats[k] for o in outcomes]
