"""Tests for smell instances, configurations, and aggregation."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc.smells import (
    AGGREGATORS,
    ALL_TYPE_NAMES,
    BOTH_GRANULARITIES,
    CLASS_GRANULARITY,
    CLASS_SMELL_TYPES,
    METHOD_GRANULARITY,
    METHOD_SMELL_TYPES,
    SMELL_TYPE_BY_NAME,
    SmellConfiguration,
    SmellInstance,
    is_original_index,
    select_instances,
    smell_values,
)

from _oracles import smell_value

BLOB = SMELL_TYPE_BY_NAME["Blob Class"]
GOD = SMELL_TYPE_BY_NAME["God Class"]
ENVY = SMELL_TYPE_BY_NAME["Feature Envy"]
CHAINS = SMELL_TYPE_BY_NAME["Message Chains"]


def _cls(type_, module, severity):
    return SmellInstance(type=type_, module=module, severity=severity)


def _meth(type_, module, severity, sig="run()"):
    return SmellInstance(
        type=type_, module=module, severity=severity, method_signature=sig
    )


class TestSmellInstance:
    def test_severity_bounds(self):
        _cls(BLOB, "A.java", 1)
        _cls(BLOB, "A.java", 10)
        with pytest.raises(ValueError, match="outside 1..10"):
            _cls(BLOB, "A.java", 0)
        with pytest.raises(ValueError, match="outside 1..10"):
            _cls(BLOB, "A.java", 11)

    def test_module_required(self):
        with pytest.raises(ValueError, match="nonempty module"):
            _cls(BLOB, "", 5)

    def test_method_signature_rules(self):
        with pytest.raises(ValueError, match="needs a method signature"):
            SmellInstance(type=ENVY, module="A.java", severity=5)
        with pytest.raises(ValueError, match="cannot carry a method signature"):
            SmellInstance(
                type=BLOB, module="A.java", severity=5, method_signature="run()"
            )


class TestSmellConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown granularity"):
            SmellConfiguration("file", "a1", ALL_TYPE_NAMES)
        with pytest.raises(ValueError, match="unknown aggregator"):
            SmellConfiguration(CLASS_GRANULARITY, "a11", ALL_TYPE_NAMES)
        with pytest.raises(ValueError, match="selector must be nonempty"):
            SmellConfiguration(CLASS_GRANULARITY, "a1", frozenset())
        with pytest.raises(ValueError, match="unknown smell types"):
            SmellConfiguration(
                CLASS_GRANULARITY, "a1", frozenset({"Blob Class", "Lazy Class"})
            )

    def test_label(self):
        named = SmellConfiguration(
            CLASS_GRANULARITY, "a1", ALL_TYPE_NAMES, name="g1,a1,s1"
        )
        assert named.label() == "g1,a1,s1"
        anon = SmellConfiguration(
            METHOD_GRANULARITY, "a2", frozenset({"Feature Envy", "Message Chains"})
        )
        assert anon.label() == "method,a2,{Feature Envy,Message Chains}"

    def test_original_index_detection(self):
        assert is_original_index(
            SmellConfiguration(CLASS_GRANULARITY, "a1", ALL_TYPE_NAMES)
        )
        assert not is_original_index(
            SmellConfiguration(CLASS_GRANULARITY, "a2", ALL_TYPE_NAMES)
        )
        assert not is_original_index(
            SmellConfiguration(BOTH_GRANULARITIES, "a1", ALL_TYPE_NAMES)
        )
        assert not is_original_index(
            SmellConfiguration(CLASS_GRANULARITY, "a1", frozenset({"Blob Class"}))
        )


class TestSelectInstances:
    REPORT = (
        _cls(BLOB, "A.java", 9),
        _cls(GOD, "A.java", 4),
        _meth(ENVY, "A.java", 7),
        _meth(CHAINS, "B.java", 2),
    )

    def test_granularity_filter(self):
        class_cfg = SmellConfiguration(CLASS_GRANULARITY, "a1", ALL_TYPE_NAMES)
        method_cfg = SmellConfiguration(METHOD_GRANULARITY, "a1", ALL_TYPE_NAMES)
        both_cfg = SmellConfiguration(BOTH_GRANULARITIES, "a1", ALL_TYPE_NAMES)
        assert select_instances(self.REPORT, class_cfg) == [
            self.REPORT[0],
            self.REPORT[1],
        ]
        assert select_instances(self.REPORT, method_cfg) == [
            self.REPORT[2],
            self.REPORT[3],
        ]
        assert select_instances(self.REPORT, both_cfg) == list(self.REPORT)

    def test_type_filter(self):
        cfg = SmellConfiguration(
            BOTH_GRANULARITIES, "a1", frozenset({"Blob Class", "Message Chains"})
        )
        assert select_instances(self.REPORT, cfg) == [self.REPORT[0], self.REPORT[3]]

    def test_selector_granularity_mismatch_yields_nothing(self):
        # A class-only selector under method granularity selects no instances.
        cfg = SmellConfiguration(
            METHOD_GRANULARITY, "a1", frozenset({"Blob Class"})
        )
        assert select_instances(self.REPORT, cfg) == []


def aggregate(instances, aggregator):
    """One module's value from smell_values over a universe of that module."""
    config = SmellConfiguration(BOTH_GRANULARITIES, aggregator, ALL_TYPE_NAMES)
    return smell_values(["A.java"], instances, config)["A.java"]


class TestAggregate:
    INSTANCES = (
        _cls(BLOB, "A.java", 9),
        _cls(BLOB, "A.java", 3),
        _cls(GOD, "A.java", 4),
        _meth(ENVY, "A.java", 7),
        _meth(ENVY, "A.java", 1),
        _meth(CHAINS, "A.java", 2),
    )

    def test_each_aggregator_by_hand(self):
        sev = [9, 3, 4, 7, 1, 2]
        per_type_max = [9, 4, 7, 2]  # Blob, God, Envy, Chains
        per_type_count = [2, 1, 2, 1]
        expected = {
            "a1": sum(sev),
            "a2": max(sev),
            "a3": 1.0,
            "a4": len(sev),
            "a5": statistics.mean(sev),
            "a6": statistics.median(sev),
            "a7": statistics.mean(per_type_max),
            "a8": statistics.median(per_type_max),
            "a9": statistics.mean(per_type_count),
            "a10": statistics.median(per_type_count),
        }
        for agg in AGGREGATORS:
            assert aggregate(self.INSTANCES, agg) == float(expected[agg]), agg

    def test_empty_is_zero(self):
        for agg in AGGREGATORS:
            assert aggregate((), agg) == 0.0

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            aggregate(self.INSTANCES, "sum")

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["Blob Class", "God Class", "Data Class"]),
                st.integers(min_value=1, max_value=10),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(AGGREGATORS),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, rows, agg, rng):
        instances = [
            _cls(SMELL_TYPE_BY_NAME[name], "A.java", sev) for name, sev in rows
        ]
        shuffled = list(instances)
        rng.shuffle(shuffled)
        # Integer severities keep mean/median exact, so equality is exact.
        assert aggregate(shuffled, agg) == aggregate(instances, agg)

    def test_existence_flag_ignores_severity(self):
        low = [_cls(BLOB, "A.java", 1)]
        high = [_cls(BLOB, "A.java", 10), _cls(GOD, "A.java", 10)]
        assert aggregate(low, "a3") == aggregate(high, "a3") == 1.0


class TestSmellValues:
    def test_single_module(self):
        report = TestAggregate.INSTANCES + (_cls(BLOB, "B.java", 5),)
        cfg = SmellConfiguration(CLASS_GRANULARITY, "a1", ALL_TYPE_NAMES)
        assert smell_value("A.java", report, cfg) == 16.0
        assert smell_value("B.java", report, cfg) == 5.0
        assert smell_value("C.java", report, cfg) == 0.0

    def test_universe_map_matches_per_module(self):
        rng = random.Random(5150)
        types = list(CLASS_SMELL_TYPES + METHOD_SMELL_TYPES)
        report = []
        modules = [f"m{i}.java" for i in range(8)]
        for _ in range(60):
            t = rng.choice(types)
            m = rng.choice(modules)
            sev = rng.randint(1, 10)
            if t.granularity == METHOD_GRANULARITY:
                report.append(_meth(t, m, sev, sig=f"f{rng.randint(0, 3)}()"))
            else:
                report.append(_cls(t, m, sev))
        for gran in (CLASS_GRANULARITY, METHOD_GRANULARITY, BOTH_GRANULARITIES):
            for agg in AGGREGATORS:
                cfg = SmellConfiguration(gran, agg, ALL_TYPE_NAMES)
                table = smell_values(modules, report, cfg)
                assert set(table) == set(modules)
                for m in modules:
                    assert table[m] == smell_value(m, report, cfg)

    def test_absent_modules_get_zero(self):
        cfg = SmellConfiguration(CLASS_GRANULARITY, "a1", ALL_TYPE_NAMES)
        table = smell_values(["X.java"], [_cls(BLOB, "A.java", 5)], cfg)
        assert table == {"X.java": 0.0}
