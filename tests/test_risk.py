"""Tests for the relative-risk table and the derived type selectors."""

import csv
import io
import logging
import math
import random

import pytest

from smelloc.smells import ALL_TYPE_NAMES, SMELL_TYPE_BY_NAME, SmellInstance
from smelloc.risk import (
    TOTAL_ROW_NAME,
    derive_selectors,
    relative_risk,
    risk_rows,
    sorted_rows,
)

from _oracles import relative_risk_by_counting
from conftest import (
    RISK_EXPECTED_S2,
    RISK_EXPECTED_S5,
    RISK_REFERENCE,
    RISK_TOTALS,
    build_risk_reference_dataset,
)


def _inst(type_name, module, severity=1):
    t = SMELL_TYPE_BY_NAME[type_name]
    return SmellInstance(
        type=t,
        module=module,
        severity=severity,
        method_signature="run()" if t.granularity == "method" else None,
    )


def _random_dataset(rng: random.Random):
    n = rng.randint(5, 40)
    universe = [f"m{i}" for i in range(n)]
    buggy = rng.sample(universe, rng.randint(0, n))
    types = rng.sample(sorted(ALL_TYPE_NAMES), rng.randint(1, 6))
    instances = []
    typed = {}
    for name in types:
        members = set(rng.sample(universe, rng.randint(0, n)))
        typed[name] = members
        for module in members:
            instances.append(_inst(name, module, rng.randint(1, 10)))
    return universe, buggy, instances, typed


class TestRelativeRisk:
    def test_matches_set_counting_oracle(self):
        rng = random.Random(424242)
        for _ in range(120):
            universe, buggy, instances, typed = _random_dataset(rng)
            table = relative_risk(universe, buggy, instances)
            want = relative_risk_by_counting(universe, buggy, typed)
            for name, (risk, complement, rr) in want.items():
                row = table.rows[name]
                assert row.module_count == len(typed[name])
                assert row.risk == risk, name
                assert row.risk_complement == complement, name
                assert row.relative_risk == rr, name
            any_smell = set().union(*typed.values()) if typed else set()
            total_want = relative_risk_by_counting(
                universe, buggy, {"any": any_smell}
            )["any"]
            assert (
                table.total.risk,
                table.total.risk_complement,
                table.total.relative_risk,
            ) == total_want

    def test_every_type_gets_a_row(self):
        table = relative_risk(["a", "b"], ["a"], [_inst("Blob Class", "a", 5)])
        assert set(table.rows) == set(ALL_TYPE_NAMES)
        absent = table.rows["God Class"]
        assert absent.module_count == 0
        assert absent.risk is None
        assert absent.relative_risk is None
        # The complement of an absent type is the whole universe.
        assert absent.risk_complement == 0.5

    def test_bug_free_smelly_side_is_zero(self):
        table = relative_risk(
            ["a", "b", "c"], ["c"], [_inst("Blob Class", "a", 5)]
        )
        row = table.rows["Blob Class"]
        assert row.risk == 0.0
        assert row.relative_risk == 0.0

    def test_bug_free_complement_is_infinite(self):
        table = relative_risk(
            ["a", "b"], ["a"], [_inst("Blob Class", "a", 5)]
        )
        row = table.rows["Blob Class"]
        assert row.risk == 1.0
        assert row.risk_complement == 0.0
        assert math.isinf(row.relative_risk)

    def test_both_sides_bug_free_is_zero_not_nan(self):
        table = relative_risk(
            ["a", "b"], [], [_inst("Blob Class", "a", 5)]
        )
        assert table.rows["Blob Class"].relative_risk == 0.0

    def test_type_covering_the_universe_has_no_complement(self):
        table = relative_risk(
            ["a", "b"],
            ["a"],
            [_inst("Blob Class", "a", 5), _inst("Blob Class", "b", 5)],
        )
        row = table.rows["Blob Class"]
        assert row.risk == 0.5
        assert row.risk_complement is None
        assert row.relative_risk is None

    def test_stray_modules_rejected(self):
        with pytest.raises(ValueError, match="buggy modules outside the universe"):
            relative_risk(["a"], ["ghost"], [])
        with pytest.raises(ValueError, match="smelly module outside the universe"):
            relative_risk(["a"], [], [_inst("Blob Class", "ghost", 5)])

    def test_duplicate_instances_count_modules_once(self):
        table = relative_risk(
            ["a", "b", "c"],
            ["a"],
            [
                _inst("Blob Class", "a", 5),
                _inst("Blob Class", "a", 9),
                _inst("Blob Class", "b", 1),
            ],
        )
        assert table.rows["Blob Class"].module_count == 2
        assert table.total.module_count == 2


class TestSortedRows:
    def test_descending_rr_with_undefined_last(self):
        universe = [f"m{i}" for i in range(8)]
        instances = [
            _inst("Blob Class", "m0"),  # rr inf (buggy m0, clean complement has bugs? see below)
            _inst("God Class", "m1"),
            _inst("God Class", "m2"),
            _inst("Data Class", "m3"),
        ]
        # buggy: m0 (Blob) and m1 (one of two God) -> Blob risk 1.0, God 0.5
        table = relative_risk(universe, ["m0", "m1"], instances)
        rows = sorted_rows(table)
        names = [r.type_name for r in rows]
        assert names.index("Blob Class") < names.index("God Class")
        assert names.index("God Class") < names.index("Data Class")
        # All the absent types sort after every defined row, alphabetically.
        defined = [r for r in rows if r.relative_risk is not None]
        undefined = [r for r in rows if r.relative_risk is None]
        assert rows == defined + undefined
        assert [r.type_name for r in undefined] == sorted(
            r.type_name for r in undefined
        )


@pytest.fixture(scope="module")
def reference_table():
    universe, buggy, instances = build_risk_reference_dataset()
    return relative_risk(universe, buggy, instances)


class TestReferenceCounts:

    def test_reference_rows(self, reference_table):
        for name, (m_t, b_t, risk, complement, rr) in RISK_REFERENCE.items():
            row = reference_table.rows[name]
            assert row.module_count == m_t, name
            assert row.buggy_count == b_t, name
            assert row.risk * 100 == pytest.approx(risk, abs=5e-4), name
            assert row.risk_complement * 100 == pytest.approx(
                complement, abs=5e-4
            ), name
            assert row.relative_risk == pytest.approx(rr, abs=5e-4), name

    def test_reference_totals(self, reference_table):
        total = reference_table.total
        assert total.module_count == RISK_TOTALS["smelly_modules"]
        assert total.buggy_count == RISK_TOTALS["smelly_buggy"]
        assert total.risk * 100 == pytest.approx(RISK_TOTALS["total_risk"], abs=5e-4)
        assert total.risk_complement * 100 == pytest.approx(
            RISK_TOTALS["total_risk_complement"], abs=5e-4
        )
        assert total.relative_risk == pytest.approx(
            RISK_TOTALS["total_rr"], abs=5e-4
        )
        assert reference_table.module_total == RISK_TOTALS["all_modules"]
        assert reference_table.buggy_total == RISK_TOTALS["all_buggy"]

    def test_reference_selectors(self, reference_table):
        selectors = derive_selectors(reference_table)
        assert selectors["s1"] == ALL_TYPE_NAMES
        assert selectors["s2"] == RISK_EXPECTED_S2
        # Strictly above the total risk (5.735%): the top 12 types.
        assert selectors["s3"] == frozenset(
            name
            for name, (_, _, risk, _, _) in RISK_REFERENCE.items()
            if risk > RISK_TOTALS["total_risk"]
        )
        assert len(selectors["s3"]) == 12
        # Strictly above the total rr (2.785): Message Chains (2.775) is out.
        assert selectors["s4"] == frozenset(
            name
            for name, (_, _, _, _, rr) in RISK_REFERENCE.items()
            if rr > RISK_TOTALS["total_rr"]
        )
        assert len(selectors["s4"]) == 10
        assert "Message Chains" not in selectors["s4"]
        assert selectors["s5"] == RISK_EXPECTED_S5


class TestDeriveSelectors:
    def test_selector_definitions_on_small_table(self):
        universe = [f"m{i}" for i in range(10)]
        buggy = ["m0", "m1", "m2"]
        instances = [
            _inst("Blob Class", "m0"),  # risk 1.0
            _inst("God Class", "m0"),
            _inst("God Class", "m3"),  # risk 0.5
            _inst("Data Class", "m4"),
            _inst("Data Class", "m5"),  # risk 0.0
        ]
        table = relative_risk(universe, buggy, instances)
        selectors = derive_selectors(table)
        assert selectors["s1"] == ALL_TYPE_NAMES
        assert selectors["s2"] == frozenset({"Blob Class", "God Class"})
        total_risk = table.total.risk  # 1 buggy of 4 smelly modules
        assert total_risk == 0.25
        assert selectors["s3"] == frozenset({"Blob Class", "God Class"})
        assert selectors["s4"] == frozenset({"Blob Class", "God Class"})
        # Only three types have defined rr, so s5 keeps them all.
        assert selectors["s5"] == frozenset(
            {"Blob Class", "God Class", "Data Class"}
        )

    def test_top_five_cut(self):
        universe = [f"m{i}" for i in range(40)]
        buggy = [f"m{i}" for i in range(8)]
        names = sorted(ALL_TYPE_NAMES)[:8]
        instances = []
        # Type k smells modules {m0..mk} plus clean padding, so each type has
        # a distinct risk and the rr order is deterministic.
        for k, name in enumerate(names):
            for i in range(k + 1):
                instances.append(_inst(name, f"m{i}"))
            for i in range(8, 8 + (8 - k)):
                instances.append(_inst(name, f"m{i}"))
        table = relative_risk(universe, buggy, instances)
        selectors = derive_selectors(table)
        ranked = [
            r.type_name for r in sorted_rows(table) if r.relative_risk is not None
        ]
        assert selectors["s5"] == frozenset(ranked[:5])
        assert len(selectors["s5"]) == 5

    def test_top_five_tie_at_cut_kept_whole(self, caplog):
        universe = [f"m{i}" for i in range(30)]
        buggy = [f"m{i}" for i in range(10)]
        names = sorted(ALL_TYPE_NAMES)[:7]
        instances = []
        # First four types: distinct risks above the rest. Last three tie.
        for k, name in enumerate(names[:4]):
            for i in range(6 - k):
                instances.append(_inst(name, f"m{i}"))
        for name in names[4:]:
            instances.append(_inst(name, "m0"))
            instances.append(_inst(name, "m20"))
        with caplog.at_level(logging.WARNING, logger="smelloc.risk"):
            table = relative_risk(universe, buggy, instances)
            selectors = derive_selectors(table)
        assert len(selectors["s5"]) == 7
        assert frozenset(names) == selectors["s5"]
        assert any("tie at the top-five cut" in r.message for r in caplog.records)

    def test_incomplete_table_rejected(self):
        table = relative_risk(["a"], [], [])
        pruned = table.rows.copy()
        del pruned["Blob Class"]
        broken = type(table)(
            rows=pruned,
            total=table.total,
            module_total=table.module_total,
            buggy_total=table.buggy_total,
        )
        with pytest.raises(ValueError, match="missing smell types"):
            derive_selectors(broken)

    def test_all_buggy_universe_empties_the_relative_selectors(self):
        universe = ["a", "b"]
        table = relative_risk(
            universe, universe, [_inst("Blob Class", "a"), _inst("God Class", "b")]
        )
        selectors = derive_selectors(table)
        # risk == complement == 1 everywhere defined, so nothing is elevated.
        assert selectors["s2"] == frozenset()
        assert selectors["s3"] == frozenset()
        assert selectors["s4"] == frozenset()


def _csv_rows(table):
    """risk_rows(table) written as CSV and read back, cell text as in the file."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(risk_rows(table))
    return list(csv.reader(io.StringIO(buf.getvalue(), newline="")))


class TestRiskCsv:
    def test_layout_and_formatting(self):
        universe = [f"m{i}" for i in range(6)]
        buggy = ["m0", "m1"]
        instances = [
            _inst("Blob Class", "m0"),
            _inst("Blob Class", "m2"),
            _inst("God Class", "m3"),
        ]
        rows = _csv_rows(relative_risk(universe, buggy, instances))
        assert rows[0] == ["type", "modules", "buggy", "risk%", "risk*%", "rr"]
        # 16 type rows, then Total, then the universe-wide line.
        assert len(rows) == 1 + 16 + 2
        assert rows[17][0] == TOTAL_ROW_NAME
        assert rows[18][0] == "All files"
        assert rows[18][1:3] == ["6", "2"]
        assert rows[18][3] == f"{2 / 6 * 100:.4f}"
        by_name = {r[0]: r for r in rows[1:17]}
        blob = by_name["Blob Class"]
        assert blob[1:3] == ["2", "1"]
        assert blob[3] == "50.0000"
        assert blob[4] == "25.0000"
        assert blob[5] == "2.0000"
        god = by_name["God Class"]
        assert god[5] == "0.0000"
        # Types with no instances print blank risk and rr cells.
        data = by_name["Data Class"]
        assert data[3] == ""
        assert data[5] == ""
        # Rows between the header and Total are rr-descending.
        assert rows[1][0] == "Blob Class"

    def test_infinite_ratio_prints_inf(self):
        table = relative_risk(["a", "b"], ["a"], [_inst("Blob Class", "a")])
        rows = {r[0]: r for r in _csv_rows(table)}
        assert rows["Blob Class"][5] == "inf"
        assert rows["Blob Class"][3] == "100.0000"
