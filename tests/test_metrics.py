"""Tests for ranking metrics, the signed-rank test, and Cliff's delta."""

import random

import pytest
from scipy import stats as scipy_stats

from smelloc.metrics import (
    cliffs_delta,
    comparison_stats,
    effect_size_label,
    evaluate_ranking,
    mean_average_precision,
    mean_reciprocal_rank,
    metric_report,
    per_report_values,
    ranking_stats,
    reciprocal_rank,
    top_count,
    wilcoxon_signed_rank,
)

from _oracles import (
    average_precision_exhaustive,
    cliffs_delta_pairwise,
    first_gold_rank_exhaustive,
    top_hit_exhaustive,
)


def _random_ranking(rng: random.Random):
    n = rng.randint(1, 30)
    modules = [f"m{i}" for i in range(n)]
    rng.shuffle(modules)
    gold = set(rng.sample(modules, rng.randint(1, min(4, n))))
    # Sometimes the gold has modules the ranking misses entirely.
    if rng.random() < 0.4:
        gold.add("outside")
    return modules, gold


class TestRankingStats:
    def test_hand_example(self):
        ordered = ["w", "g1", "x", "g2", "y"]
        rank, ap = ranking_stats(ordered, {"g1", "g2"})
        assert rank == 2
        assert ap == pytest.approx((1 / 2 + 2 / 4) / 2, abs=1e-15)

    def test_missing_gold_inflates_denominator(self):
        rank, ap = ranking_stats(["g1", "x"], {"g1", "absent"})
        assert rank == 1
        assert ap == 0.5

    def test_no_gold_ranked(self):
        rank, ap = ranking_stats(["a", "b"], {"absent"})
        assert rank is None
        assert ap == 0.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError, match="empty gold set"):
            ranking_stats(["a"], set())

    def test_matches_exhaustive_oracles(self):
        rng = random.Random(60622)
        for _ in range(300):
            ordered, gold = _random_ranking(rng)
            rank, ap = ranking_stats(ordered, gold)
            assert rank == first_gold_rank_exhaustive(ordered, gold)
            assert ap == pytest.approx(
                average_precision_exhaustive(ordered, gold), abs=1e-12
            )

    def test_perfect_ranking_has_unit_ap(self):
        ordered = ["g1", "g2", "g3", "x", "y"]
        rank, ap = ranking_stats(ordered, {"g1", "g2", "g3"})
        assert rank == 1
        assert ap == 1.0

    def test_singleton_gold_ap_equals_reciprocal_rank(self):
        rng = random.Random(1618)
        for _ in range(100):
            n = rng.randint(1, 20)
            modules = [f"m{i}" for i in range(n)]
            rng.shuffle(modules)
            gold = {rng.choice(modules)}
            outcome = evaluate_ranking(modules, gold)
            assert outcome.average_precision == reciprocal_rank(outcome)


class TestTopAndAggregates:
    def _outcomes(self, ranks):
        outcomes = []
        for i, rank in enumerate(ranks):
            n = 30
            modules = [f"m{j}" for j in range(n)]
            gold = {modules[rank - 1]} if rank is not None else {"absent"}
            outcomes.append(evaluate_ranking(modules, gold, bug_id=f"b{i}"))
        return outcomes

    def test_counts_and_ratios(self):
        outcomes = self._outcomes([1, 2, 5, 6, 10, 11, None])
        assert top_count(outcomes, 1) == 1
        assert top_count(outcomes, 5) == 3
        assert top_count(outcomes, 10) == 5
        assert top_count(outcomes, 30) == 6  # all but the unranked gold
        report = metric_report(outcomes)
        assert report.counts == {1: 1, 5: 3, 10: 5}
        assert report.top == {1: 1 / 7, 5: 3 / 7, 10: 5 / 7}
        assert report.mrr == pytest.approx(
            (1 + 1 / 2 + 1 / 5 + 1 / 6 + 1 / 10 + 1 / 11 + 0) / 7, abs=1e-12
        )

    def test_top_hits_match_oracle(self):
        rng = random.Random(8812)
        for _ in range(200):
            ordered, gold = _random_ranking(rng)
            outcome = evaluate_ranking(ordered, gold)
            for n in (1, 5, 10):
                assert outcome.top_hits[n] == top_hit_exhaustive(ordered, gold, n)

    def test_monotone_in_cutoff(self):
        outcomes = self._outcomes([3, None, 8, 1, 12])
        assert (
            top_count(outcomes, 1)
            <= top_count(outcomes, 5)
            <= top_count(outcomes, 10)
            <= len(outcomes)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="cutoff"):
            top_count([], 0)
        assert top_count([], 5) == 0
        with pytest.raises(ValueError, match="no bug reports"):
            metric_report([])
        with pytest.raises(ValueError, match="no bug reports"):
            mean_reciprocal_rank([])
        with pytest.raises(ValueError, match="no bug reports"):
            mean_average_precision([])

    def test_per_report_values(self):
        outcomes = self._outcomes([1, 3, None])
        assert per_report_values(outcomes, "top1") == [1.0, 0.0, 0.0]
        assert per_report_values(outcomes, "top5") == [1.0, 1.0, 0.0]
        assert per_report_values(outcomes, "mrr") == [1.0, 1 / 3, 0.0]
        assert per_report_values(outcomes, "map") == [
            o.average_precision for o in outcomes
        ]
        with pytest.raises(ValueError, match="unknown metric"):
            per_report_values(outcomes, "ndcg")


class TestWilcoxon:
    def test_textbook_example(self):
        # Classic paired sample; scipy's normal approximation with the same
        # zero/tie handling gives this p-value.
        x = [125, 115, 130, 140, 140, 115, 140, 125, 140, 135]
        y = [110, 122, 125, 120, 140, 124, 123, 137, 135, 145]
        p = wilcoxon_signed_rank(x, y)
        want = scipy_stats.wilcoxon(
            x, y, zero_method="wilcox", correction=True, mode="approx"
        ).pvalue
        assert p == pytest.approx(want, abs=1e-12)
        assert p == pytest.approx(0.6352893188352069, abs=1e-9)

    def test_matches_scipy_on_random_pairs(self):
        rng = random.Random(271828)
        checked = 0
        while checked < 200:
            n = rng.randint(6, 40)
            x = [rng.uniform(0, 1) for _ in range(n)]
            # Mix exact ties, zero differences, and real movement.
            y = [
                a if rng.random() < 0.2 else max(0.0, a + rng.uniform(-0.3, 0.3))
                for a in x
            ]
            if sum(1 for a, b in zip(x, y) if a != b) < 6:
                continue
            p = wilcoxon_signed_rank(x, y)
            want = scipy_stats.wilcoxon(
                x, y, zero_method="wilcox", correction=True, mode="approx"
            ).pvalue
            assert p == pytest.approx(want, abs=1e-9)
            checked += 1

    def test_insufficient_pairs(self):
        with pytest.raises(ValueError, match="insufficient pairs"):
            wilcoxon_signed_rank([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    def test_symmetry(self):
        rng = random.Random(5)
        x = [rng.uniform(0, 1) for _ in range(20)]
        y = [rng.uniform(0, 1) for _ in range(20)]
        assert wilcoxon_signed_rank(x, y) == pytest.approx(
            wilcoxon_signed_rank(y, x), abs=1e-12
        )


class TestCliffsDelta:
    def test_matches_pairwise_oracle(self):
        rng = random.Random(1729)
        for _ in range(150):
            x = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(rng.randint(1, 25))]
            y = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(rng.randint(1, 25))]
            d, _ = cliffs_delta(x, y)
            assert d == pytest.approx(cliffs_delta_pairwise(x, y), abs=1e-12)

    def test_extremes_and_sign(self):
        d, label = cliffs_delta([1.0, 2.0], [0.0, 0.5])
        assert d == 1.0
        assert label == "large"
        d, label = cliffs_delta([0.0], [1.0, 2.0])
        assert d == -1.0
        assert label == "large"
        d, label = cliffs_delta([1.0, 1.0], [1.0, 1.0])
        assert d == 0.0
        assert label == "negligible"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            cliffs_delta([], [1.0])
        with pytest.raises(ValueError, match="nonempty"):
            cliffs_delta([1.0], [])

    def test_label_boundaries(self):
        assert effect_size_label(0.0) == "negligible"
        assert effect_size_label(0.146) == "negligible"
        assert effect_size_label(0.147) == "small"
        assert effect_size_label(0.329) == "small"
        assert effect_size_label(0.33) == "medium"
        assert effect_size_label(0.473) == "medium"
        assert effect_size_label(0.474) == "large"
        assert effect_size_label(1.0) == "large"
        assert effect_size_label(-0.5) == "large"


class TestComparisonStats:
    def test_full_block(self):
        rng = random.Random(14)
        baseline = [rng.uniform(0, 1) for _ in range(25)]
        candidate = [min(1.0, b + 0.2) for b in baseline]
        block = comparison_stats(candidate, baseline)
        assert block["cliffs_delta"] > 0
        assert block["label"] in {"negligible", "small", "medium", "large"}
        assert 0.0 <= block["p_value"] <= 1.0
        assert "note" not in block

    def test_identical_samples_note(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        block = comparison_stats(values, list(values))
        assert block["p_value"] is None
        assert block["note"] == "no difference"
        assert block["cliffs_delta"] == pytest.approx(
            cliffs_delta_pairwise(values, values), abs=1e-12
        )

    def test_too_few_moving_pairs_note(self):
        baseline = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        candidate = [0.1, 0.2, 0.3, 0.4, 0.5, 0.9]
        block = comparison_stats(candidate, baseline)
        assert block["p_value"] is None
        assert "insufficient pairs" in block["note"]
