"""Blending technique scores with smell values and searching the blend space.

A module's blended score is (1 - alpha) * score + alpha * smell, where
both inputs are max-normalized over the ranked module universe. alpha runs
over a fixed 101-point grid; for each (system, metric) pair the sweep records
the whole curve and the set of maximizing grid points, reported by the
smallest maximizer. The configuration search evaluates every smell
configuration this way and adds a pseudo-ideal bound that picks the best
(configuration, alpha) pair per system.

The sweep is exact: at every grid point it gives the ranking a full stable
sort by descending blended score would, with ties broken by ascending module
id. It never builds that ranking. Each blended score is linear in alpha, so
every other module passes a gold module at most once along the grid; the
sweep counts, per gold module, how many modules lead it at each grid point,
and compares the blended floats directly only next to a crossing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Mapping, Sequence

from .smells import (
    AGGREGATORS,
    BOTH_GRANULARITIES,
    CLASS_GRANULARITY,
    METHOD_GRANULARITY,
    SMELL_TYPES,
    SmellConfiguration,
    SmellInstance,
    is_original_index,
    smell_values,
)

logger = logging.getLogger(__name__)

ALPHA_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))

METRIC_NAMES = ("top1", "top5", "top10", "mrr", "map")

GRANULARITY_LABELS = {
    "g1": CLASS_GRANULARITY,
    "g2": METHOD_GRANULARITY,
    "g3": BOTH_GRANULARITIES,
}
LABEL_BY_GRANULARITY = {v: k for k, v in GRANULARITY_LABELS.items()}

# Shapes of a metric-versus-alpha curve, judged by where the maximizers sit:
# "flat" means every grid point ties, "baseline" means alpha 0 is already
# optimal, "plateau" means the optimum persists through alpha 1, and
# "mountain" means the optimum is interior only.
CURVE_SHAPES = ("flat", "baseline", "plateau", "mountain")


@dataclass(frozen=True)
class System:
    """One project version prepared for blending with one ranked universe."""

    name: str
    modules: tuple[str, ...]
    bug_ids: tuple[str, ...]
    gold: Mapping[str, frozenset[str]]
    smells: tuple[SmellInstance, ...]


@dataclass(frozen=True)
class TechniqueScores:
    """Raw per-bug score maps emitted by one localization technique."""

    technique: str
    by_bug: Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class AlphaSweepResult:
    config: SmellConfiguration
    metric: str
    values: tuple[float, ...]  # one point per grid alpha
    best_alphas: tuple[float, ...]
    best_value: float


@dataclass(frozen=True)
class ConfigOutcome:
    """One configuration's result for one metric across all systems."""

    value: float  # pooled over every bug report at per-system best alpha
    chosen_alpha: dict[str, float]  # system -> smallest maximizing alpha
    maximizers: dict[str, tuple[float, ...]]  # system -> full maximizer set


@dataclass(frozen=True)
class ConfigRow:
    config: SmellConfiguration
    outcomes: dict[str, ConfigOutcome]  # per metric
    systems_improved: int  # systems whose chosen alpha (for map) is > 0
    original_index: bool
    curves: dict[str, dict[str, tuple[float, ...]]]  # system -> metric -> curve


@dataclass(frozen=True)
class ConfigSearchReport:
    rows: tuple[ConfigRow, ...]  # sorted by map value descending
    ideal: dict[str, float]  # per metric, the pseudo-ideal pooled value
    ideal_choice: dict[str, dict[str, tuple[str, float]]]  # metric -> system -> (config label, alpha)
    ideal_systems_improved: int
    systems: tuple[str, ...]
    technique: str


def normalize(values: Mapping[str, float]) -> dict[str, float]:
    """Scale a score map into [0, 1] by dividing by the maximum.

    All-zero maps stay all zero. Techniques that emit negative scores are
    shifted so their minimum lands on 0 first; the normalization itself
    assumes nonnegative input.
    """
    for module, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite score for module {module!r}: {value}")
    if not values:
        return {}
    lo = min(values.values())
    if lo < 0:
        logger.warning("negative raw scores; shifting minimum %g to zero", lo)
        values = {m: v - lo for m, v in values.items()}
    hi = max(values.values())
    if hi == 0:
        return {m: 0.0 for m in values}
    return {m: v / hi for m, v in values.items()}


def blend(
    norm_score: Mapping[str, float],
    norm_smell: Mapping[str, float],
    alpha: float,
) -> dict[str, float]:
    """Convex combination of two normalized maps over the same modules."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    if norm_score.keys() != norm_smell.keys():
        diff = sorted(norm_score.keys() ^ norm_smell.keys())
        raise ValueError(f"score and smell module sets differ: {diff[:10]}")
    return {
        m: (1.0 - alpha) * norm_score[m] + alpha * norm_smell[m]
        for m in norm_score
    }


def normalized_smell(system: System, config: SmellConfiguration) -> dict[str, float]:
    """Normalized smell value of every module in the system's universe."""
    return normalize(smell_values(system.modules, system.smells, config))


_N_STATS = 6  # hits at 1, 5, 10, reciprocal-rank sum, precision sum, reports
_STAT_INDEX = {metric: k for k, metric in enumerate(METRIC_NAMES)}

_BETA_GRID = tuple(1.0 - alpha for alpha in ALPHA_GRID)
_STEPS = len(ALPHA_GRID) - 1  # grid point i is alpha i / _STEPS

# Where the line through two modules' endpoint differences lies within this
# distance of zero, the sweep compares the blended floats themselves. On
# inputs in [0, 1] evaluating beta * s + alpha * h is off by a few ulps
# (about 1e-16), so everywhere else the line's sign is the float order.
_NEAR_TIE = 1e-12


@dataclass(frozen=True)
class _Report:
    """One bug report, ready to sweep against any smell vector."""

    scores: tuple[float, ...]  # normalized scores in ascending module order
    gold: tuple[int, ...]  # indices of the gold modules in the universe
    gold_count: int  # gold modules, counting those the universe lacks


def _reports(system: System, scores: TechniqueScores) -> list[_Report]:
    """Normalize every bug report's scores over the sorted universe once."""
    modules = tuple(sorted(system.modules))
    universe = set(modules)
    reports = []
    for bug_id in system.bug_ids:
        raw = scores.by_bug.get(bug_id, {})
        norm_score = normalize({m: raw.get(m, 0.0) for m in modules})
        gold = system.gold[bug_id]
        if not gold:
            raise ValueError("empty gold set")
        gold_idx = tuple(i for i, m in enumerate(modules) if m in gold)
        reports.append(
            _Report(
                scores=tuple(norm_score[m] for m in modules),
                gold=gold_idx,
                # Gold modules the universe lacks still dilute precision.
                gold_count=len(gold_idx) + len(gold - universe),
            )
        )
    return reports


def _ahead_counts(
    score_vec: Sequence[float], smell_vec: Sequence[float], g: int
) -> list[int]:
    """Per grid alpha, how many modules rank ahead of module g.

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
    neg = -tol
    wide = tol * _STEPS
    steps = float(_STEPS)
    last = _STEPS
    top = last + 1.0
    ceil = math.ceil
    floor = math.floor
    alphas = ALPHA_GRID
    betas = _BETA_GRID
    diff = [0] * (last + 2)
    ahead = 0  # modules ahead at every grid point, added to diff[0] at the end
    cg = None
    # The modules before g win exact ties, those from g on lose them.
    for before, scores, smells in (
        (True, score_vec[:g], smell_vec[:g]),
        (False, score_vec[g:], smell_vec[g:]),
    ):
        for sj, hj in zip(scores, smells):
            ds = sj - sg
            dh = hj - hg
            if ds > tol:
                if dh > tol:
                    ahead += 1
                    continue
            elif ds < neg and dh < neg:
                continue
            if dh == 0.0:
                if ds == 0.0:
                    # Equal inputs blend to equal floats at every alpha.
                    if before:
                        ahead += 1
                    continue
                if ds > wide or ds < -wide:
                    # Equal smell: the score order holds below alpha 1, where
                    # both blends are exactly h and the index breaks the tie.
                    if ds > 0.0:
                        ahead += 1
                        diff[last] -= 1
                    if before:
                        diff[last] += 1
                    continue
            slope = dh - ds
            if slope == 0.0:
                # The line stays within tol of zero: every point is a near tie.
                lo = 0
                hi = last
            else:
                # Grid indices where |ds + alpha * slope| <= tol: lo in
                # [0, last + 1] and hi in [-1, last], so an empty band keeps
                # its side of the grid.
                x0 = (neg - ds) / slope * steps
                x1 = (tol - ds) / slope * steps
                if x0 > x1:
                    x0, x1 = x1, x0
                if x0 <= 0.0:
                    lo = 0
                elif x0 >= top:
                    lo = last + 1
                else:
                    lo = ceil(x0)
                if x1 >= last:
                    hi = last
                elif x1 < 0.0:
                    hi = -1
                else:
                    hi = floor(x1)
                if slope > 0.0:  # behind before the band, ahead after it
                    diff[hi + 1] += 1
                else:  # ahead before the band, behind after it
                    ahead += 1
                    diff[lo] -= 1
            if lo > hi:
                continue
            if cg is None:
                cg = [b * sg + a * hg for a, b in zip(alphas, betas)]
            for i in range(lo, hi + 1):
                cj = betas[i] * sj + alphas[i] * hj
                if cj > cg[i] or (cj == cg[i] and before):
                    diff[i] += 1
                    diff[i + 1] -= 1
    diff[0] += ahead
    return list(accumulate(diff[: last + 1]))


def _report_stats(positions: Sequence[int], gold_count: int) -> tuple[float, ...]:
    """Hits at 1, 5 and 10, reciprocal rank and average precision of one
    report whose ranked gold modules sit at the given ascending positions."""
    if not positions:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
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


def _sweep_stats(
    reports: Sequence[_Report],
    smell_vec: Sequence[float],
    memo: dict[tuple[tuple[int, ...], int], tuple[float, ...]] | None = None,
) -> list[tuple[float, ...]]:
    """Per grid alpha: pooled outcome stats over the given bug reports.

    Returns, for each alpha, (top1 hits, top5 hits, top10 hits, sum of
    reciprocal ranks, sum of average precisions, report count). smell_vec
    holds normalized smell values in ascending module order. The result
    equals ranking the universe by a stable reverse sort at every grid
    point, without building or sorting any ranking.

    A segment's stats depend only on its gold modules' ahead counts and the
    report's gold count, so they are computed once per such key; memo keeps
    them across calls, e.g. over every smell map of one system.
    """
    if memo is None:
        memo = {}
    points = len(ALPHA_GRID)
    # Per grid index, the reports whose stats change there: every report
    # starts a segment at index 0, and another where a gold position moves.
    starts: list[list[tuple[int, tuple[float, ...]]]] = [[] for _ in range(points)]
    for r, report in enumerate(reports):
        gold_count = report.gold_count
        ahead = [_ahead_counts(report.scores, smell_vec, g) for g in report.gold]
        if not ahead:
            starts[0].append((r, _report_stats((), gold_count)))
            continue
        i = 0
        for counts, run in groupby(zip(*ahead)):
            key = (counts, gold_count)
            stats = memo.get(key)
            if stats is None:
                stats = memo[key] = _report_stats(
                    sorted(c + 1 for c in counts), gold_count
                )
            starts[i].append((r, stats))
            i += len(list(run))
    current: list[tuple[float, ...]] = [()] * len(reports)
    count = float(len(reports))
    row = (0.0,) * _N_STATS
    out = []
    for changes in starts:
        if changes:
            for r, stats in changes:
                current[r] = stats
            # A left fold from 0.0 in report order, as pooling at every grid
            # point would add them; sum() compensates on Python 3.12+ and
            # would change the last bits.
            top1 = top5 = top10 = rr = ap = 0.0
            for h1, h5, h10, r_r, a_p in current:
                top1 += h1
                top5 += h5
                top10 += h10
                rr += r_r
                ap += a_p
            row = (top1, top5, top10, rr, ap, count)
        out.append(row)
    return out


def _metric_value(stats: tuple[float, ...], metric: str) -> float:
    n = stats[5]
    if n == 0:
        raise ValueError("no bug reports")
    return stats[_STAT_INDEX[metric]] / n


def _curve(stats_by_alpha: Sequence[tuple[float, ...]], metric: str) -> tuple[float, ...]:
    n = stats_by_alpha[0][5]  # every grid point pools the same reports
    if n == 0:
        raise ValueError("no bug reports")
    index = _STAT_INDEX[metric]
    return tuple(stats[index] / n for stats in stats_by_alpha)


def _best_alphas(curve: Sequence[float]) -> tuple[tuple[float, ...], float]:
    best = max(curve)
    return (
        tuple(ALPHA_GRID[i] for i, v in enumerate(curve) if v == best),
        best,
    )


def sweep_all_metrics(
    system: System,
    scores: TechniqueScores,
    config: SmellConfiguration,
) -> dict[str, AlphaSweepResult]:
    """Sweep the alpha grid once and read off every metric's curve."""
    norm_smell = normalized_smell(system, config)
    stats = _sweep_stats(
        _reports(system, scores), [norm_smell[m] for m in sorted(system.modules)]
    )
    results = {}
    for metric in METRIC_NAMES:
        curve = _curve(stats, metric)
        maximizers, best = _best_alphas(curve)
        results[metric] = AlphaSweepResult(
            config=config,
            metric=metric,
            values=curve,
            best_alphas=maximizers,
            best_value=best,
        )
    return results


def sweep_alpha(
    system: System,
    scores: TechniqueScores,
    config: SmellConfiguration,
    metric: str,
) -> AlphaSweepResult:
    """Evaluate one metric over the whole alpha grid for one configuration."""
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    return sweep_all_metrics(system, scores, config)[metric]


def optimize_alpha(result: AlphaSweepResult) -> float:
    """Deterministic representative of the maximizer set: its smallest alpha."""
    return min(result.best_alphas)


def curve_shape(result: AlphaSweepResult) -> str:
    """Classify a sweep curve by where its maximizers lie."""
    best = set(result.best_alphas)
    if len(best) == len(ALPHA_GRID):
        return "flat"
    if 0.0 in best:
        return "baseline"
    if 1.0 in best:
        return "plateau"
    return "mountain"


def parse_config_label(label: str) -> tuple[str, str, str]:
    """Split a "granularity,aggregator,selector" triple, e.g. "g1,a4,s2"."""
    parts = [p.strip() for p in label.split(",")]
    if len(parts) != 3 or not all(parts):
        raise ValueError(
            f"configuration {label!r} is not a granularity,aggregator,selector triple"
        )
    return parts[0], parts[1], parts[2]


def make_config(
    granularity_label: str,
    aggregator: str,
    selector_label: str,
    selectors: Mapping[str, frozenset[str]],
) -> SmellConfiguration:
    """Build a configuration from labels plus the derived selector sets.

    The selector may be one of the selector-set names or a single smell-type
    name; single types imply their own granularity only when the caller says
    "g1"/"g2" consistently, so the granularity label is always honored.
    """
    granularity = GRANULARITY_LABELS.get(granularity_label, granularity_label)
    if granularity not in GRANULARITY_LABELS.values():
        raise ValueError(f"unknown granularity {granularity_label!r}")
    if selector_label in selectors:
        selector = selectors[selector_label]
    else:
        selector = frozenset({selector_label})
    name = f"{LABEL_BY_GRANULARITY[granularity]},{aggregator},{selector_label}"
    return SmellConfiguration(
        granularity=granularity, aggregator=aggregator, selector=selector, name=name
    )


def enumerate_configs(
    selectors: Mapping[str, frozenset[str]],
    include_single_type: bool = False,
) -> list[SmellConfiguration]:
    """The full 3 x 10 x 5 configuration grid, optionally plus the 68
    single-type configurations (class types under a2/a3, method types under
    a1..a6, granularity implied by the type)."""
    configs = []
    for g_label in ("g1", "g2", "g3"):
        for aggregator in AGGREGATORS:
            for s_label in ("s1", "s2", "s3", "s4", "s5"):
                configs.append(make_config(g_label, aggregator, s_label, selectors))
    if include_single_type:
        for smell_type in SMELL_TYPES:
            if smell_type.granularity == CLASS_GRANULARITY:
                aggs = ("a2", "a3")
            else:
                aggs = ("a1", "a2", "a3", "a4", "a5", "a6")
            for aggregator in aggs:
                configs.append(
                    SmellConfiguration(
                        granularity=smell_type.granularity,
                        aggregator=aggregator,
                        selector=frozenset({smell_type.name}),
                        name=f"{smell_type.name},{aggregator}",
                    )
                )
    return configs


def _system_task(
    args: tuple[System, TechniqueScores, tuple[SmellConfiguration, ...]]
) -> tuple[list[list[tuple[float, ...]]], list[int]]:
    """Sweep stats for every configuration of one system (worker body).

    Every report's scores are normalized once; configurations that induce
    the same raw smell map share one sweep, and every sweep shares one memo
    of segment stats. Returns the distinct stats lists and, per
    configuration, the index of its list.
    """
    system, scores, configs = args
    reports = _reports(system, scores)
    memo: dict[tuple[tuple[int, ...], int], tuple[float, ...]] = {}
    position: dict[tuple[float, ...], int] = {}
    distinct: list[list[tuple[float, ...]]] = []
    index = []
    modules = tuple(sorted(system.modules))
    for config in configs:
        raw = smell_values(modules, system.smells, config)
        key = tuple(raw[m] for m in modules)
        d = position.get(key)
        if d is None:
            norm_smell = normalize(raw)
            d = position[key] = len(distinct)
            distinct.append(
                _sweep_stats(reports, [norm_smell[m] for m in modules], memo)
            )
        index.append(d)
    return distinct, index


@dataclass(frozen=True)
class _Best:
    """One metric's curve over a stats list and where it peaks."""

    curve: tuple[float, ...]
    maximizers: tuple[float, ...]
    value: float
    stats: tuple[float, ...]  # pooled stats at the smallest maximizer


def _best_by_metric(stats: list[tuple[float, ...]]) -> dict[str, _Best]:
    out = {}
    for metric in METRIC_NAMES:
        curve = _curve(stats, metric)
        maximizers, value = _best_alphas(curve)
        out[metric] = _Best(
            curve, maximizers, value, stats[ALPHA_GRID.index(min(maximizers))]
        )
    return out


def config_search(
    systems: Sequence[tuple[System, TechniqueScores]],
    configs: Sequence[SmellConfiguration],
    jobs: int = 1,
) -> ConfigSearchReport:
    """Optimize alpha per (system, metric) for every configuration.

    Each configuration row reports, per metric, the pooled value over every
    surviving bug report with each system evaluated at its own best alpha,
    plus how many systems preferred a nonzero alpha. The ideal entry instead
    lets every system pick its best configuration as well, which bounds every
    row from above.
    """
    if not systems:
        raise ValueError("no systems to search")
    if not configs:
        raise ValueError("no configurations to search")
    technique = systems[0][1].technique
    tasks = [(system, scores, tuple(configs)) for system, scores in systems]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_system = list(pool.map(_system_task, tasks))
    else:
        per_system = [_system_task(task) for task in tasks]

    system_names = tuple(system.name for system, _ in systems)
    # Per system, the best of every metric for each configuration, computed
    # once per distinct stats list.
    best: list[list[dict[str, _Best]]] = []
    for distinct, index in per_system:
        by_list = [_best_by_metric(stats) for stats in distinct]
        best.append([by_list[d] for d in index])

    rows = []
    for ci, config in enumerate(configs):
        outcomes = {}
        for metric in METRIC_NAMES:
            chosen: dict[str, float] = {}
            maximizers: dict[str, tuple[float, ...]] = {}
            pooled = [0.0] * _N_STATS
            for si, name in enumerate(system_names):
                b = best[si][ci][metric]
                chosen[name] = min(b.maximizers)
                maximizers[name] = b.maximizers
                for k in range(_N_STATS):
                    pooled[k] += b.stats[k]
            outcomes[metric] = ConfigOutcome(
                value=_metric_value(tuple(pooled), metric),
                chosen_alpha=chosen,
                maximizers=maximizers,
            )
        rows.append(
            ConfigRow(
                config=config,
                outcomes=outcomes,
                systems_improved=sum(
                    1 for a in outcomes["map"].chosen_alpha.values() if a > 0
                ),
                original_index=is_original_index(config),
                curves={
                    name: {m: b.curve for m, b in best[si][ci].items()}
                    for si, name in enumerate(system_names)
                },
            )
        )

    ideal: dict[str, float] = {}
    ideal_choice: dict[str, dict[str, tuple[str, float]]] = {}
    for metric in METRIC_NAMES:
        pooled = [0.0] * _N_STATS
        choice: dict[str, tuple[str, float]] = {}
        for si, name in enumerate(system_names):
            # The first configuration with the highest peak wins ties.
            top = None
            for ci, by_metric in enumerate(best[si]):
                b = by_metric[metric]
                if top is None or b.value > top[1].value:
                    top = (ci, b)
            ci, b = top
            choice[name] = (configs[ci].label(), min(b.maximizers))
            for k in range(_N_STATS):
                pooled[k] += b.stats[k]
        ideal[metric] = _metric_value(tuple(pooled), metric)
        ideal_choice[metric] = choice

    order = sorted(
        range(len(rows)),
        key=lambda i: (-rows[i].outcomes["map"].value, rows[i].config.label()),
    )
    return ConfigSearchReport(
        rows=tuple(rows[i] for i in order),
        ideal=ideal,
        ideal_choice=ideal_choice,
        ideal_systems_improved=sum(
            1 for _, alpha in ideal_choice["map"].values() if alpha > 0
        ),
        systems=system_names,
        technique=technique,
    )
