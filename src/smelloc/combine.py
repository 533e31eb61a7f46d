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
sweep finds, per gold module, the grid points where the count of modules
leading it changes, and compares the blended floats directly only next to a
crossing. A report's stats are constant between the change points of its
gold modules, so they are looked up once per such segment.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, truediv
from typing import Mapping, NamedTuple, Sequence

from .dataio import TechniqueScores
from .log import get_logger
from .metrics import METRIC_NAMES, report_stats
from .smells import (
    AGGREGATORS,
    BOTH_GRANULARITIES,
    CLASS_GRANULARITY,
    METHOD_GRANULARITY,
    SELECTOR_NAMES,
    SMELL_TYPES,
    SmellConfiguration,
    SmellInstance,
    is_original_index,
    smell_values,
)

logger = get_logger(__name__)

ALPHA_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))

GRANULARITY_LABELS = {
    "g1": CLASS_GRANULARITY,
    "g2": METHOD_GRANULARITY,
    "g3": BOTH_GRANULARITIES,
}
LABEL_BY_GRANULARITY = {v: k for k, v in GRANULARITY_LABELS.items()}


class System(NamedTuple):
    """One project version prepared for blending with one ranked universe."""

    name: str
    modules: tuple[str, ...]
    bug_ids: tuple[str, ...]
    gold: Mapping[str, frozenset[str]]
    smells: tuple[SmellInstance, ...]


class AlphaSweepResult(NamedTuple):
    """One metric's curve over the alpha grid and where it peaks."""

    values: tuple[float, ...]  # one point per grid alpha
    best_alphas: tuple[float, ...]  # every maximizing grid alpha, ascending
    best_value: float
    stats: tuple[float, ...]  # pooled stats at the smallest maximizer


class ConfigRow(NamedTuple):
    """One configuration's pooled values and the sweeps they were pooled from."""

    config: SmellConfiguration
    values: dict[str, float]  # per metric, pooled over every bug report
    # system -> metric -> sweep, shared by the configurations whose smell
    # maps are equal; each system's value is taken at optimize_alpha(sweep)
    sweeps: dict[str, dict[str, AlphaSweepResult]]
    original_index: bool

    @property
    def systems_improved(self) -> int:
        """Systems whose chosen alpha for map is above 0."""
        return sum(1 for s in self.sweeps.values() if optimize_alpha(s["map"]) > 0)

    @property
    def curves(self) -> dict[str, dict[str, tuple[float, ...]]]:
        """system -> metric -> the metric over ALPHA_GRID."""
        return {
            name: {metric: sweep.values for metric, sweep in by_metric.items()}
            for name, by_metric in self.sweeps.items()
        }


class ConfigSearchReport(NamedTuple):
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


_N_STATS = len(METRIC_NAMES) + 1  # report_stats' sums, then the report count
_STAT_INDEX = {metric: k for k, metric in enumerate(METRIC_NAMES)}

_BETA_GRID = tuple(1.0 - alpha for alpha in ALPHA_GRID)
_STEPS = len(ALPHA_GRID) - 1  # grid point i is alpha i / _STEPS
_CHANGE_POINTS = range(1, len(ALPHA_GRID))  # grid indices past alpha 0

# Where the line through two modules' endpoint differences lies within this
# distance of zero, the sweep compares the blended floats themselves. On
# inputs in [0, 1] evaluating beta * s + alpha * h is off by a few ulps
# (about 1e-16), so everywhere else the line's sign is the float order.
_NEAR_TIE = 1e-12


class _Report(NamedTuple):
    """One bug report, ready to sweep against any smell vector."""

    scores: tuple[float, ...]  # normalized scores in ascending module order
    gold: tuple[int, ...]  # indices of the gold modules in the universe
    gold_count: int  # gold modules, counting those the universe lacks


def _reports(
    system: System, scores: TechniqueScores, modules: tuple[str, ...]
) -> list[_Report]:
    """Normalize every bug report's scores once over modules, the sorted
    universe; modules a report's map skips score 0."""
    reports = []
    for bug_id in system.bug_ids:
        raw = scores.by_bug.get(bug_id, {})
        try:
            norm_score = normalize({m: raw.get(m, 0.0) for m in modules})
        except ValueError as exc:
            raise ValueError(f"bug {bug_id!r}: {exc}") from None
        gold = system.gold[bug_id]
        if not gold:
            raise ValueError("empty gold set")
        gold_idx = tuple(i for i, m in enumerate(modules) if m in gold)
        reports.append(
            _Report(
                scores=tuple(norm_score[m] for m in modules),
                gold=gold_idx,
                # Gold modules the universe lacks still dilute precision.
                gold_count=len(gold),
            )
        )
    return reports


def _ahead_counts(
    score_vec: Sequence[float], smell_vec: Sequence[float], g: int
) -> list[int]:
    """Where the count of modules ranked ahead of module g changes over the
    grid, as a difference array with one entry per grid alpha: entry 0 is
    the count at alpha 0 and entry i the change from grid point i - 1 to i.
    The count changes exactly at the nonzero entries; accumulating the
    array gives the count at every grid point.

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
    del diff[last + 1 :]
    return diff


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

    A report's segments start at alpha 0 and at every change point of its
    gold modules' ahead counts, merged over those modules. A segment's stats
    depend only on its gold modules' ahead counts and the report's gold
    count, so they are computed once per such key; memo keeps them across
    calls, e.g. over every smell map of one system.
    """
    if memo is None:
        memo = {}
    points = len(ALPHA_GRID)
    # Per grid index, the reports whose stats change there: every report
    # starts a segment at index 0, and another where a gold position moves.
    starts: list[list[tuple[int, tuple[float, ...]]]] = [[] for _ in range(points)]
    for r, report in enumerate(reports):
        gold_count = report.gold_count
        diffs = [_ahead_counts(report.scores, smell_vec, g) for g in report.gold]
        if not diffs:
            starts[0].append((r, report_stats((), gold_count)))
            continue
        changed = diffs[0] if len(diffs) == 1 else list(map(any, zip(*diffs)))
        change_points = list(compress(_CHANGE_POINTS, changed[1:]))
        # Each gold module's count at every segment start, zipped per segment.
        segments = zip(*[
            accumulate(map(diff.__getitem__, change_points), initial=diff[0])
            for diff in diffs
        ])
        for i, counts in zip(chain((0,), change_points), segments):
            key = (counts, gold_count)
            stats = memo.get(key)
            if stats is None:
                stats = memo[key] = report_stats(
                    sorted(c + 1 for c in counts), gold_count
                )
            starts[i].append((r, stats))
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


def _pooled(sweeps: Sequence[AlphaSweepResult], metric: str) -> float:
    """A metric over the bug reports of every sweep, each at its smallest
    maximizer. The stats are added in a left fold from 0.0 over the sweeps
    in their given order, the same bits for a row and for the ideal. Each
    sweep's curve already required reports, so the pooled count is not 0."""
    pooled = [0.0] * _N_STATS
    for sweep in sweeps:
        for k in range(_N_STATS):
            pooled[k] += sweep.stats[k]
    return pooled[_STAT_INDEX[metric]] / pooled[5]


def _curve(stats_by_alpha: Sequence[tuple[float, ...]], metric: str) -> tuple[float, ...]:
    n = stats_by_alpha[0][5]  # every grid point pools the same reports
    if n == 0:
        raise ValueError("no bug reports")
    stat = itemgetter(_STAT_INDEX[metric])
    return tuple(map(truediv, map(stat, stats_by_alpha), repeat(n)))


def _best_alphas(curve: Sequence[float]) -> tuple[tuple[float, ...], float]:
    best = max(curve)
    return tuple(compress(ALPHA_GRID, map(best.__eq__, curve))), best


def sweep_alpha(
    system: System,
    scores: TechniqueScores,
    config: SmellConfiguration,
    metric: str,
) -> AlphaSweepResult:
    """Evaluate one metric over the whole alpha grid for one configuration.

    This is config_search's sweep of one system under one configuration, so
    the curve equals that search's curve for the same inputs.
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    (stats,), _ = _system_task((system, scores, (config,)))
    return _best_by_metric(stats)[metric]


def optimize_alpha(result: AlphaSweepResult) -> float:
    """Deterministic representative of the maximizer set: its smallest alpha."""
    return min(result.best_alphas)


def curve_shape(result: AlphaSweepResult) -> str:
    """Classify a sweep curve by where its maximizers lie.

    "flat": every grid point ties. "baseline": alpha 0 is already optimal.
    "plateau": the optimum persists through alpha 1. "mountain": the
    optimum is interior only.
    """
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
            for s_label in SELECTOR_NAMES:
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
    modules = tuple(sorted(system.modules))
    reports = _reports(system, scores, modules)
    memo: dict[tuple[tuple[int, ...], int], tuple[float, ...]] = {}
    position: dict[tuple[float, ...], int] = {}
    distinct: list[list[tuple[float, ...]]] = []
    index = []
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


def _best_by_metric(stats: list[tuple[float, ...]]) -> dict[str, AlphaSweepResult]:
    out = {}
    for metric in METRIC_NAMES:
        curve = _curve(stats, metric)
        maximizers, value = _best_alphas(curve)
        out[metric] = AlphaSweepResult(
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
    system_names = tuple(system.name for system, _ in systems)
    for i, name in enumerate(system_names):
        if name in system_names[:i]:
            # Rows are keyed by system name and would pool one of the two.
            raise ValueError(f"system {name} is listed more than once")
    technique = systems[0][1].technique
    tasks = [(system, scores, tuple(configs)) for system, scores in systems]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_system = list(pool.map(_system_task, tasks))
    else:
        per_system = [_system_task(task) for task in tasks]

    # Per system, the best of every metric for each configuration, computed
    # once per distinct stats list.
    best: list[list[dict[str, AlphaSweepResult]]] = []
    for distinct, index in per_system:
        by_list = [_best_by_metric(stats) for stats in distinct]
        best.append([by_list[d] for d in index])

    rows = []
    for ci, config in enumerate(configs):
        sweeps = {name: best[si][ci] for si, name in enumerate(system_names)}
        rows.append(
            ConfigRow(
                config=config,
                values={
                    metric: _pooled([s[metric] for s in sweeps.values()], metric)
                    for metric in METRIC_NAMES
                },
                sweeps=sweeps,
                original_index=is_original_index(config),
            )
        )

    ideal: dict[str, float] = {}
    ideal_choice: dict[str, dict[str, tuple[str, float]]] = {}
    for metric in METRIC_NAMES:
        picks = []
        choice: dict[str, tuple[str, float]] = {}
        for name, by_config in zip(system_names, best):
            # The first configuration with the highest peak wins ties.
            ci = max(range(len(configs)), key=lambda c: by_config[c][metric].best_value)
            pick = by_config[ci][metric]
            picks.append(pick)
            choice[name] = (configs[ci].label(), optimize_alpha(pick))
        ideal[metric] = _pooled(picks, metric)
        ideal_choice[metric] = choice

    return ConfigSearchReport(
        rows=tuple(sorted(rows, key=lambda row: (-row.values["map"], row.config.label()))),
        ideal=ideal,
        ideal_choice=ideal_choice,
        ideal_systems_improved=sum(
            1 for _, alpha in ideal_choice["map"].values() if alpha > 0
        ),
        systems=system_names,
        technique=technique,
    )
