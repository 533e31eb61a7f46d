"""Tests for score blending, the alpha sweep, and the configuration search."""

import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc.combine import (
    ALPHA_GRID,
    METRIC_NAMES,
    AlphaSweepResult,
    System,
    TechniqueScores,
    _ahead_counts,
    _report_stats,
    _reports,
    _sweep_stats,
    _system_task,
    blend,
    config_search,
    curve_shape,
    enumerate_configs,
    make_config,
    normalize,
    normalized_smell,
    optimize_alpha,
    parse_config_label,
    sweep_all_metrics,
    sweep_alpha,
)
from smelloc.smells import (
    ALL_TYPE_NAMES,
    SMELL_TYPE_BY_NAME,
    SmellConfiguration,
    SmellInstance,
    is_original_index,
    smell_values,
)

from _oracles import (
    ahead_counts_by_line,
    average_precision_exhaustive,
    first_gold_rank_exhaustive,
    sweep_stats_by_columns,
    sweep_stats_by_sorting,
)
from conftest import random_system

GOD = SMELL_TYPE_BY_NAME["God Class"]

CLASS_ALL = SmellConfiguration("class", "a1", ALL_TYPE_NAMES)

TRIVIAL_SELECTORS = {
    "s1": ALL_TYPE_NAMES,
    "s2": ALL_TYPE_NAMES - {"Data Class"},
    "s3": ALL_TYPE_NAMES - {"Data Class", "Distorted Hierarchy"},
    "s4": frozenset({"Blob Class", "God Class", "Shotgun Surgery"}),
    "s5": frozenset({"Blob Class", "God Class"}),
}


def _system(modules, gold_by_bug, scores_by_bug, smells=()):
    return (
        System(
            name="sys",
            modules=tuple(modules),
            bug_ids=tuple(gold_by_bug),
            gold={b: frozenset(g) for b, g in gold_by_bug.items()},
            smells=tuple(smells),
        ),
        TechniqueScores(technique="t", by_bug=scores_by_bug),
    )


class TestNormalize:
    def test_divides_by_maximum(self):
        assert normalize({"a": 2.0, "b": 1.0, "c": 0.0}) == {
            "a": 1.0,
            "b": 0.5,
            "c": 0.0,
        }

    def test_all_zero_stays_zero(self):
        assert normalize({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}

    def test_empty_map(self):
        assert normalize({}) == {}

    def test_negative_scores_shift_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="smelloc.combine"):
            out = normalize({"a": -2.0, "b": 0.0, "c": 2.0})
        assert out == {"a": 0.0, "b": 0.5, "c": 1.0}
        assert any("negative raw scores" in r.message for r in caplog.records)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite score"):
            normalize({"a": float("nan")})
        with pytest.raises(ValueError, match="non-finite score"):
            normalize({"a": float("inf")})

    def test_idempotent(self):
        rng = random.Random(3)
        values = {f"m{i}": rng.uniform(0, 50) for i in range(20)}
        once = normalize(values)
        assert normalize(once) == once
        assert max(once.values()) == 1.0

    def test_subnormal_and_zero_maps(self):
        assert normalize({"a": 5e-324}) == {"a": 1.0}
        assert normalize({"a": 0.0}) == {"a": 0.0}

    # Values stay at 0 or at least 1e-6, so scaling by a factor in
    # [0.01, 100] never underflows a positive value to zero.
    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, values, factor):
        base = normalize(values)
        scaled = normalize({m: v * factor for m, v in values.items()})
        for module in values:
            assert scaled[module] == pytest.approx(base[module], abs=1e-12)


class TestBlend:
    def test_hand_computed(self):
        score = {"a": 0.582, "b": 1.0}
        smell = {"a": 1.0, "b": 0.0}
        out = blend(score, smell, 0.31)
        assert out["a"] == pytest.approx(0.69 * 0.582 + 0.31, abs=1e-12)
        assert out["b"] == pytest.approx(0.69, abs=1e-12)

    def test_endpoints_are_exact(self):
        rng = random.Random(11)
        score = {f"m{i}": rng.random() for i in range(25)}
        smell = {f"m{i}": rng.random() for i in range(25)}
        assert blend(score, smell, 0.0) == score
        assert blend(score, smell, 1.0) == smell

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            blend({"a": 1.0}, {"a": 1.0}, -0.01)
        with pytest.raises(ValueError, match="outside"):
            blend({"a": 1.0}, {"a": 1.0}, 1.01)

    def test_module_set_mismatch(self):
        with pytest.raises(ValueError, match="module sets differ"):
            blend({"a": 1.0, "b": 0.5}, {"a": 1.0, "c": 0.5}, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=100),
    )
    def test_convexity_and_symmetry(self, pairs, grid_point):
        alpha = grid_point / 100
        score = {f"m{i}": s for i, (s, _) in enumerate(pairs)}
        smell = {f"m{i}": v for i, (_, v) in enumerate(pairs)}
        out = blend(score, smell, alpha)
        mirrored = blend(smell, score, 1.0 - alpha)
        for module in score:
            lo = min(score[module], smell[module])
            hi = max(score[module], smell[module])
            assert lo - 1e-12 <= out[module] <= hi + 1e-12
            assert out[module] == pytest.approx(mirrored[module], abs=1e-12)


class TestNormalizedSmell:
    def test_severity_sums_normalized_over_universe(self):
        system, _ = _system(
            ["a", "b", "c"],
            {"bug": {"a"}},
            {"bug": {"a": 1.0, "b": 0.5, "c": 0.1}},
            smells=[
                SmellInstance(type=GOD, module="a", severity=9),
                SmellInstance(type=GOD, module="a", severity=4),
                SmellInstance(type=GOD, module="b", severity=10),
            ],
        )
        out = normalized_smell(system, CLASS_ALL)
        assert out == {"a": 1.0, "b": 10 / 13, "c": 0.0}


def _mountain_system():
    """Two reports pulling alpha in opposite directions.

    The smelly module "a" holds the gold for r1 and overtakes the leader at
    alpha > 1/11; for r2 the gold is the clean leader "b", which "a" passes
    at alpha > 2/7. Between the two crossings both reports rank their gold
    first, so every metric peaks strictly inside the grid.
    """
    return _system(
        ["a", "b", "c"],
        {"r1": {"a"}, "r2": {"b"}},
        {
            "r1": {"a": 0.9, "b": 1.0, "c": 0.1},
            "r2": {"a": 0.6, "b": 1.0, "c": 0.1},
        },
        smells=[SmellInstance(type=GOD, module="a", severity=5)],
    )


class TestSweep:
    def test_grid_has_101_points(self):
        assert len(ALPHA_GRID) == 101
        assert ALPHA_GRID[0] == 0.0
        assert ALPHA_GRID[-1] == 1.0
        assert ALPHA_GRID[31] == 0.31

    def test_unknown_metric_rejected(self):
        system, scores = _mountain_system()
        with pytest.raises(ValueError, match="unknown metric"):
            sweep_alpha(system, scores, CLASS_ALL, "ndcg")

    def test_mountain_curve(self):
        system, scores = _mountain_system()
        result = sweep_alpha(system, scores, CLASS_ALL, "mrr")
        assert len(result.values) == 101
        assert result.best_value == 1.0
        # Maximizers are exactly the grid points in (1/11, 2/7].
        assert result.best_alphas == tuple(
            a for a in ALPHA_GRID if 1 / 11 < a <= 2 / 7
        )
        assert optimize_alpha(result) == 0.10
        assert curve_shape(result) == "mountain"
        assert result.values[0] == 0.75
        assert result.values[100] == 0.75
        assert result.values[15] == 1.0

    def test_plateau_curve(self):
        system, scores = _system(
            ["a", "b", "c"],
            {"r1": {"a"}},
            {"r1": {"a": 0.9, "b": 1.0, "c": 0.1}},
            smells=[SmellInstance(type=GOD, module="a", severity=5)],
        )
        result = sweep_alpha(system, scores, CLASS_ALL, "top1")
        assert curve_shape(result) == "plateau"
        assert result.best_alphas[-1] == 1.0
        assert 0.0 not in result.best_alphas

    def test_baseline_curve(self):
        # Gold is the clean leader; any smell weight only hurts.
        system, scores = _system(
            ["a", "b"],
            {"r1": {"b"}},
            {"r1": {"a": 0.5, "b": 1.0}},
            smells=[SmellInstance(type=GOD, module="a", severity=5)],
        )
        result = sweep_alpha(system, scores, CLASS_ALL, "mrr")
        assert curve_shape(result) == "baseline"
        assert result.values[0] == 1.0
        assert result.values[100] == 0.5

    def test_flat_curve_when_smells_confirm_the_order(self):
        # All-zero smell map and a baseline order equal to the id order: the
        # alpha-1 collapse reproduces the same ranking, so the curve is flat.
        system, scores = _system(
            ["a", "b", "c"],
            {"r1": {"a"}},
            {"r1": {"a": 1.0, "b": 0.6, "c": 0.2}},
            smells=[],
        )
        result = sweep_alpha(system, scores, CLASS_ALL, "mrr")
        assert curve_shape(result) == "flat"
        assert set(result.values) == {1.0}
        assert result.best_alphas == ALPHA_GRID

    def test_all_zero_smells_constant_below_alpha_one(self):
        # Baseline order disagrees with the id order, so the collapse at
        # alpha 1 changes the ranking, but every alpha below 1 matches alpha 0.
        system, scores = _system(
            ["a", "b"],
            {"r1": {"b"}},
            {"r1": {"a": 0.4, "b": 1.0}},
            smells=[],
        )
        result = sweep_alpha(system, scores, CLASS_ALL, "mrr")
        assert set(result.values[:100]) == {1.0}
        assert result.values[100] == 0.5  # ties collapse to id order: a first

    def test_alpha_zero_matches_exhaustive_oracles(self):
        # Every grid alpha, not only 0: rank by (-blended, module id).
        rng = random.Random(90125)
        for trial in range(25):
            system, scores = random_system(rng, name=f"s{trial}")
            sweeps = sweep_all_metrics(system, scores, CLASS_ALL)
            norm_smell = normalized_smell(system, CLASS_ALL)
            modules = sorted(system.modules)
            norm_scores = {
                bug: normalize({m: scores.by_bug[bug].get(m, 0.0) for m in modules})
                for bug in system.bug_ids
            }
            for ai, alpha in enumerate(ALPHA_GRID):
                ranks = []
                aps = []
                for bug in system.bug_ids:
                    blended = blend(norm_scores[bug], norm_smell, alpha)
                    ordered = sorted(modules, key=lambda m: (-blended[m], m))
                    gold = system.gold[bug]
                    ranks.append(first_gold_rank_exhaustive(ordered, gold))
                    aps.append(average_precision_exhaustive(ordered, gold))
                n = len(ranks)
                assert sweeps["map"].values[ai] == pytest.approx(
                    sum(aps) / n, abs=1e-12
                )
                assert sweeps["mrr"].values[ai] == pytest.approx(
                    sum(1.0 / r for r in ranks if r is not None) / n, abs=1e-12
                )
                for cutoff, metric in ((1, "top1"), (5, "top5"), (10, "top10")):
                    want = sum(1 for r in ranks if r is not None and r <= cutoff) / n
                    assert sweeps[metric].values[ai] == want

    def test_gold_outside_universe_dilutes_precision(self):
        system, scores = _system(
            ["a", "b"],
            {"r1": {"a", "ghost"}},
            {"r1": {"a": 1.0, "b": 0.5}},
        )
        result = sweep_alpha(system, scores, CLASS_ALL, "map")
        # "a" is first, but the unrankable gold halves the denominator's hit.
        assert result.values[0] == 0.5
        mrr = sweep_alpha(system, scores, CLASS_ALL, "mrr")
        assert mrr.values[0] == 1.0

    def test_ties_rank_by_ascending_module_id(self):
        system, scores = _system(
            ["x", "m", "d"],
            {"r1": {"d"}, "r2": {"x"}},
            {
                "r1": {"x": 0.7, "m": 0.7, "d": 0.7},
                "r2": {"x": 0.7, "m": 0.7, "d": 0.7},
            },
        )
        mrr = sweep_alpha(system, scores, CLASS_ALL, "mrr")
        # Ties everywhere: order is d, m, x at every alpha.
        assert mrr.values[0] == pytest.approx((1.0 + 1 / 3) / 2, abs=1e-12)

    def test_curve_shapes_from_maximizer_sets(self):
        def fake(best):
            return AlphaSweepResult(
                config=CLASS_ALL,
                metric="map",
                values=(0.0,) * 101,
                best_alphas=best,
                best_value=1.0,
            )

        assert curve_shape(fake(ALPHA_GRID)) == "flat"
        assert curve_shape(fake((0.0, 0.5))) == "baseline"
        assert curve_shape(fake((0.4, 1.0))) == "plateau"
        assert curve_shape(fake((0.31,))) == "mountain"


def _hex(stats):
    return [tuple(value.hex() for value in row) for row in stats]


def _exact_sweep(system, scores, norm_smell):
    modules = sorted(system.modules)
    return _sweep_stats(_reports(system, scores), [norm_smell[m] for m in modules])


_POOL = (0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.1, 0.2, 0.3, 0.7, 0.9, 5e-324)


def _nudge(value, step):
    if step == "ulp":
        return math.nextafter(value, 2.0)
    return max(value + step, 0.0)


_VALUES = st.builds(
    _nudge, st.sampled_from(_POOL), st.sampled_from((0.0, 1e-12, -1e-12, "ulp"))
)


@st.composite
def _adversarial_universe(draw):
    """Tie-heavy inputs: pooled values with near-tie jitter and subnormals,
    shuffled module ids, gold the universe may lack, all-zero smell maps."""
    n = draw(st.integers(min_value=1, max_value=9))
    modules = draw(st.permutations([f"m{i}" for i in range(n)]))
    bugs = [f"b{k}" for k in range(draw(st.integers(min_value=1, max_value=3)))]
    gold = {}
    for bug in bugs:
        members = set(draw(st.sets(st.sampled_from(modules), max_size=3)))
        if not members or draw(st.booleans()):
            members.add("ghost")
        gold[bug] = frozenset(members)
    by_bug = {
        bug: draw(st.dictionaries(st.sampled_from(modules), _VALUES)) for bug in bugs
    }
    if draw(st.booleans()):
        smell = {m: 0.0 for m in modules}
    else:
        smell = normalize(
            draw(st.fixed_dictionaries({m: _VALUES for m in modules}))
        )
    system = System(
        name="adv",
        modules=tuple(modules),
        bug_ids=tuple(bugs),
        gold=gold,
        smells=(),
    )
    return system, TechniqueScores(technique="t", by_bug=by_bug), smell


# Endpoint differences that reach every branch of _ahead_counts: equal
# inputs, near ties inside and outside _NEAR_TIE * 100 (1e-10), slopes of
# +-1e-300 whose band clamps past either grid end, bands at alpha 0 (tiny
# ds) or alpha 1 (tiny dh), and plain crossings.
_DELTAS = (
    0.0, 1e-300, -1e-300, 2e-300, -2e-300, 1e-13, -1e-13, 5e-13, -5e-13,
    1e-12, -1e-12, 1e-11, -1e-11, 1e-10, -1e-10, 2e-10, -2e-10,
    0.25, -0.25, 0.5, -0.5,
)
_GOLD_POINTS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.3, 0.7))


def _ahead_by_blending(score_vec, smell_vec, g):
    """Per grid alpha, the modules whose blend beats g's or ties it with a
    smaller index: the definition, evaluated module by module."""
    out = []
    for alpha, beta in zip(ALPHA_GRID, (1.0 - a for a in ALPHA_GRID)):
        cg = beta * score_vec[g] + alpha * smell_vec[g]
        out.append(sum(
            1
            for j, (s, h) in enumerate(zip(score_vec, smell_vec))
            if (c := beta * s + alpha * h) > cg or (c == cg and j < g)
        ))
    return out


@st.composite
def _ahead_universe(draw):
    sg, hg = draw(st.sampled_from(_GOLD_POINTS))
    delta = st.one_of(
        st.sampled_from(_DELTAS), st.floats(-1.0, 1.0, allow_subnormal=True)
    )
    others = draw(st.lists(st.tuples(delta, delta), min_size=1, max_size=8))
    g = draw(st.integers(0, len(others)))
    rows = [(sg + ds, hg + dh) for ds, dh in others]
    rows.insert(g, (sg, hg))
    return [s for s, _ in rows], [h for _, h in rows], g


class TestAheadCounts:
    """The comparison-clamped counter equals the min/max one it replaced,
    list for list, and the blend-by-blend definition."""

    def test_matches_former_counter_on_every_delta_pair(self):
        for sg, hg in _GOLD_POINTS:
            for ds in _DELTAS:
                for dh in _DELTAS:
                    # The same module once before g and once after it.
                    scores = [sg + ds, sg, sg + ds]
                    smells = [hg + dh, hg, hg + dh]
                    got = _ahead_counts(scores, smells, 1)
                    assert got == ahead_counts_by_line(scores, smells, 1), (ds, dh)
                    assert got == _ahead_by_blending(scores, smells, 1), (ds, dh)

    @settings(max_examples=1500, deadline=None)
    @given(_ahead_universe())
    def test_matches_former_counter_on_small_universes(self, universe):
        scores, smells, g = universe
        got = _ahead_counts(scores, smells, g)
        assert got == ahead_counts_by_line(scores, smells, g)
        assert got == _ahead_by_blending(scores, smells, g)


class TestSegmentMemo:
    """Segment stats memoized on (ahead counts, gold count) equal
    _report_stats of the sorted gold ranks."""

    def test_one_memo_over_two_systems(self):
        rng = random.Random(808)
        memo = {}
        configs = enumerate_configs(TRIVIAL_SELECTORS)
        for trial in range(2):
            system, scores = random_system(rng, name=f"s{trial}")
            reports = _reports(system, scores)
            modules = sorted(system.modules)
            for config in rng.sample(configs, 10):
                norm_smell = normalized_smell(system, config)
                smell_vec = [norm_smell[m] for m in modules]
                assert _hex(_sweep_stats(reports, smell_vec, memo)) == _hex(
                    sweep_stats_by_columns(reports, smell_vec)
                )
        assert memo
        for (counts, gold_count), stats in memo.items():
            assert stats == _report_stats(sorted(c + 1 for c in counts), gold_count)

    def test_system_tasks_in_one_process_match_column_pooling(self):
        rng = random.Random(909)
        configs = tuple(enumerate_configs(TRIVIAL_SELECTORS)[::7])
        for trial in range(2):
            system, scores = random_system(rng, name=f"s{trial}", ensure_smells=True)
            reports = _reports(system, scores)
            modules = tuple(sorted(system.modules))
            distinct, index = _system_task((system, scores, configs))
            for config, d in zip(configs, index):
                norm_smell = normalize(smell_values(modules, system.smells, config))
                smell_vec = [norm_smell[m] for m in modules]
                assert _hex(distinct[d]) == _hex(
                    sweep_stats_by_columns(reports, smell_vec)
                )


class TestExactSweep:
    """The crossing-based sweep equals a full stable sort per grid point,
    float for float."""

    def test_matches_sorting_oracle_on_random_systems(self):
        rng = random.Random(4242)
        configs = enumerate_configs(TRIVIAL_SELECTORS)
        for trial in range(30):
            system, scores = random_system(rng, name=f"s{trial}")
            for config in rng.sample(configs, 5):
                norm_smell = normalized_smell(system, config)
                assert _hex(_exact_sweep(system, scores, norm_smell)) == _hex(
                    sweep_stats_by_sorting(system, scores, norm_smell)
                )

    def test_system_task_matches_sorting_oracle(self):
        rng = random.Random(515)
        configs = tuple(enumerate_configs(TRIVIAL_SELECTORS)[::10])
        for trial in range(5):
            system, scores = random_system(rng, name=f"s{trial}", ensure_smells=True)
            modules = tuple(sorted(system.modules))
            distinct, index = _system_task((system, scores, configs))
            got = [distinct[d] for d in index]
            want = [
                sweep_stats_by_sorting(
                    system, scores, normalize(smell_values(modules, system.smells, c))
                )
                for c in configs
            ]
            assert [_hex(s) for s in got] == [_hex(s) for s in want]

    @settings(max_examples=300, deadline=None)
    @given(_adversarial_universe())
    def test_matches_sorting_oracle_on_adversarial_universes(self, universe):
        system, scores, norm_smell = universe
        assert _hex(_exact_sweep(system, scores, norm_smell)) == _hex(
            sweep_stats_by_sorting(system, scores, norm_smell)
        )

    def test_matches_column_pooling_oracle_on_random_systems(self):
        rng = random.Random(4242)
        configs = enumerate_configs(TRIVIAL_SELECTORS)
        for trial in range(30):
            system, scores = random_system(rng, name=f"s{trial}")
            reports = _reports(system, scores)
            modules = sorted(system.modules)
            for config in rng.sample(configs, 5):
                norm_smell = normalized_smell(system, config)
                smell_vec = [norm_smell[m] for m in modules]
                assert _hex(_sweep_stats(reports, smell_vec)) == _hex(
                    sweep_stats_by_columns(reports, smell_vec)
                )

    @settings(max_examples=300, deadline=None)
    @given(_adversarial_universe())
    def test_matches_column_pooling_oracle_on_adversarial_universes(self, universe):
        system, scores, norm_smell = universe
        reports = _reports(system, scores)
        smell_vec = [norm_smell[m] for m in sorted(system.modules)]
        assert _hex(_sweep_stats(reports, smell_vec)) == _hex(
            sweep_stats_by_columns(reports, smell_vec)
        )

    def test_pools_by_left_fold_in_report_order(self):
        # Gold first at ranks 1, 3 and 1. Adding 1 + 1/3 + 1 from 0.0 rounds
        # down; a compensated sum (math.fsum, or sum() on Python 3.12+)
        # rounds up, so a rewrite to either changes the pooled floats.
        modules = ["m0", "m1", "m2", "m3"]
        ranks = (1, 3, 1)
        system, scores = _system(
            modules,
            {f"r{j}": {modules[k - 1]} for j, k in enumerate(ranks)},
            {
                f"r{j}": {m: 1.0 - i / 4 for i, m in enumerate(modules)}
                for j in range(len(ranks))
            },
        )
        left = 0.0
        for k in ranks:
            left += 1.0 / k
        assert left != math.fsum(1.0 / k for k in ranks)
        stats = _exact_sweep(system, scores, {m: 0.0 for m in modules})
        # One gold module per report: reciprocal rank and AP are both 1/k.
        assert {(row[3].hex(), row[4].hex()) for row in stats} == {
            (left.hex(), left.hex())
        }

    def test_crossing_on_a_grid_point(self):
        # c_a - c_b = 1 - 2 * alpha: the two tie at alpha 0.5, where the id
        # order puts "a" first, and "b" leads from the next grid point on.
        system, scores = _system(
            ["a", "b"],
            {"r1": {"b"}},
            {"r1": {"a": 1.0, "b": 0.0}},
        )
        norm_smell = {"a": 0.0, "b": 1.0}
        stats = _exact_sweep(system, scores, norm_smell)
        assert _hex(stats) == _hex(sweep_stats_by_sorting(system, scores, norm_smell))
        assert [row[0] for row in stats[49:52]] == [0.0, 0.0, 1.0]

    def test_empty_gold_set_rejected(self):
        system, scores = _system(["a", "b"], {"r1": set()}, {"r1": {"a": 1.0}})
        with pytest.raises(ValueError, match="empty gold set"):
            sweep_alpha(system, scores, CLASS_ALL, "map")
        with pytest.raises(ValueError, match="empty gold set"):
            config_search([(system, scores)], [CLASS_ALL])

    def test_report_without_ranked_gold_still_counts(self):
        system, scores = _system(
            ["a", "b"],
            {"r1": {"ghost"}, "r2": {"a"}},
            {"r1": {"a": 1.0, "b": 0.5}, "r2": {"a": 1.0, "b": 0.5}},
        )
        sweeps = sweep_all_metrics(system, scores, CLASS_ALL)
        for metric in METRIC_NAMES:
            assert set(sweeps[metric].values) == {0.5}
        stats = _exact_sweep(system, scores, normalized_smell(system, CLASS_ALL))
        assert set(stats) == {(1.0, 1.0, 1.0, 1.0, 1.0, 2.0)}

    def test_negative_scores_warn_once_per_report(self, caplog):
        rng = random.Random(99)
        system, scores = random_system(
            rng, name="neg", max_reports=4, ensure_smells=True
        )
        by_bug = {
            bug: {m: v - 0.5 for m, v in per_bug.items()}
            for bug, per_bug in scores.by_bug.items()
        }
        configs = enumerate_configs(TRIVIAL_SELECTORS)[:30]
        modules = tuple(sorted(system.modules))
        distinct = {
            tuple(smell_values(modules, system.smells, c).values()) for c in configs
        }
        assert len(distinct) > 1
        with caplog.at_level(logging.WARNING, logger="smelloc.combine"):
            config_search(
                [(system, TechniqueScores(technique="t", by_bug=by_bug))], configs
            )
        warnings = [r for r in caplog.records if "shifting minimum" in r.message]
        assert len(warnings) == len(system.bug_ids)


class TestConfigLabels:
    def test_parse_label(self):
        assert parse_config_label("g1,a4,s2") == ("g1", "a4", "s2")
        assert parse_config_label(" g3 , a10 , s5 ") == ("g3", "a10", "s5")
        for bad in ("g1,a4", "g1,a4,s2,x", "g1,,s2", ""):
            with pytest.raises(ValueError, match="triple"):
                parse_config_label(bad)

    def test_make_config_with_selector_set(self):
        selectors = {"s2": frozenset({"Blob Class", "God Class"})}
        config = make_config("g1", "a4", "s2", selectors)
        assert config.granularity == "class"
        assert config.aggregator == "a4"
        assert config.selector == selectors["s2"]
        assert config.label() == "g1,a4,s2"

    def test_make_config_accepts_granularity_words(self):
        config = make_config("class", "a1", "s1", TRIVIAL_SELECTORS)
        assert config.label() == "g1,a1,s1"

    def test_make_config_single_type(self):
        config = make_config("g2", "a2", "Feature Envy", {})
        assert config.selector == frozenset({"Feature Envy"})
        assert config.granularity == "method"

    def test_make_config_unknown_granularity(self):
        with pytest.raises(ValueError, match="unknown granularity"):
            make_config("g4", "a1", "s1", TRIVIAL_SELECTORS)

    def test_enumerate_grid_cardinality(self):
        configs = enumerate_configs(TRIVIAL_SELECTORS)
        assert len(configs) == 150
        labels = [c.label() for c in configs]
        assert len(set(labels)) == 150
        assert "g1,a1,s1" in labels
        originals = [c for c in configs if is_original_index(c)]
        assert len(originals) == 1
        assert originals[0].label() == "g1,a1,s1"

    def test_enumerate_with_single_types(self):
        configs = enumerate_configs(TRIVIAL_SELECTORS, include_single_type=True)
        assert len(configs) == 218
        singles = configs[150:]
        assert len(singles) == 68
        class_singles = [c for c in singles if c.granularity == "class"]
        method_singles = [c for c in singles if c.granularity == "method"]
        assert len(class_singles) == 7 * 2
        assert len(method_singles) == 9 * 6
        assert {c.aggregator for c in class_singles} == {"a2", "a3"}
        assert {c.aggregator for c in method_singles} == {
            "a1",
            "a2",
            "a3",
            "a4",
            "a5",
            "a6",
        }
        assert all(len(c.selector) == 1 for c in singles)


class TestConfigSearch:
    def _two_systems(self):
        sys1 = _system(
            ["a", "b"],
            {"r1": {"a"}},
            {"r1": {"a": 1.0, "b": 0.5}},
        )
        sys2 = (
            System(
                name="other",
                modules=("a", "b", "c"),
                bug_ids=("q1", "q2", "q3"),
                gold={
                    "q1": frozenset({"a"}),
                    "q2": frozenset({"c"}),
                    "q3": frozenset({"c"}),
                },
                smells=(),
            ),
            TechniqueScores(
                technique="t",
                by_bug={
                    "q1": {"a": 1.0, "b": 0.5, "c": 0.1},
                    "q2": {"a": 1.0, "b": 0.5, "c": 0.1},
                    "q3": {"a": 1.0, "b": 0.5, "c": 0.1},
                },
            ),
        )
        return [sys1, sys2]

    def test_pooled_over_reports_not_averaged_over_systems(self):
        report = config_search(self._two_systems(), [CLASS_ALL])
        row = report.rows[0]
        # top1 hits: sys1 1/1, sys2 1/3; pooled 2/4, not (1 + 1/3) / 2.
        assert row.outcomes["top1"].value == 0.5

    def test_mountain_system_improves_and_picks_smallest_alpha(self):
        report = config_search([_mountain_system()], [CLASS_ALL])
        row = report.rows[0]
        assert row.outcomes["mrr"].chosen_alpha["sys"] == 0.10
        assert row.outcomes["mrr"].maximizers["sys"] == tuple(
            a for a in ALPHA_GRID if 1 / 11 < a <= 2 / 7
        )
        assert row.outcomes["mrr"].value == 1.0
        assert row.systems_improved == 1

    def test_ideal_bounds_every_row(self):
        rng = random.Random(777)
        systems = [
            random_system(rng, name=f"s{i}", ensure_smells=True) for i in range(4)
        ]
        configs = enumerate_configs(TRIVIAL_SELECTORS)[:12]
        report = config_search(systems, configs)
        for metric in METRIC_NAMES:
            best_row = max(row.outcomes[metric].value for row in report.rows)
            assert report.ideal[metric] >= best_row - 1e-12
        for metric, choice in report.ideal_choice.items():
            assert set(choice) == set(report.systems)
            for label, alpha in choice.values():
                assert alpha in ALPHA_GRID
                assert any(c.label() == label for c in configs)

    def test_rows_sorted_by_map_then_label(self):
        rng = random.Random(31337)
        systems = [random_system(rng, name=f"s{i}") for i in range(3)]
        configs = enumerate_configs(TRIVIAL_SELECTORS)[:20]
        report = config_search(systems, configs)
        keys = [
            (-row.outcomes["map"].value, row.config.label()) for row in report.rows
        ]
        assert keys == sorted(keys)

    def test_parallel_equals_serial(self):
        rng = random.Random(2024)
        systems = [random_system(rng, name=f"s{i}") for i in range(3)]
        configs = enumerate_configs(TRIVIAL_SELECTORS)[:8]
        serial = config_search(systems, configs, jobs=1)
        parallel = config_search(systems, configs, jobs=2)
        assert serial == parallel

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="no systems"):
            config_search([], [CLASS_ALL])
        with pytest.raises(ValueError, match="no configurations"):
            config_search(self._two_systems(), [])

    def test_flat_curves_choose_alpha_zero(self):
        # No smells anywhere and baseline order equal to id order: flat
        # curves, so the chosen alpha is 0 and no system counts as improved.
        system = _system(
            ["a", "b"],
            {"r1": {"a"}},
            {"r1": {"a": 1.0, "b": 0.5}},
        )
        report = config_search([system], [CLASS_ALL])
        row = report.rows[0]
        assert row.outcomes["map"].chosen_alpha["sys"] == 0.0
        assert row.systems_improved == 0
        assert report.ideal_systems_improved == 0

    def test_ideal_ties_go_to_the_first_configuration(self):
        # Without smells every configuration has the same flat curves.
        system = _system(["a", "b"], {"r1": {"a"}}, {"r1": {"a": 1.0, "b": 0.5}})
        configs = enumerate_configs(TRIVIAL_SELECTORS)[:10]
        report = config_search([system], configs)
        for metric in METRIC_NAMES:
            assert report.ideal_choice[metric] == {"sys": (configs[0].label(), 0.0)}
