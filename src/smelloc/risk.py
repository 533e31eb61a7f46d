"""Relative-risk analysis of smelly versus clean modules.

For each smell type t over a module universe M with buggy subset B, the
smelly modules M_t and their buggy part B_t give

    risk(t)  = |B_t| / |M_t|
    risk*(t) = |B \\ B_t| / |M \\ M_t|
    rr(t)    = risk(t) / risk*(t)

rr > 1 means modules carrying the smell are buggier than the rest. A Total
row treats "has any smell" as a pseudo-type. The resulting table drives the
five type-selector sets used by configurations.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .log import get_logger
from .smells import ALL_TYPE_NAMES, SELECTOR_NAMES, SmellInstance

if TYPE_CHECKING:
    from .combine import System

logger = get_logger(__name__)

TOTAL_ROW_NAME = "Total"


class RiskRow(NamedTuple):
    """Counts and ratios for one smell type (or the any-smell Total).

    risk is None when no module has the type; risk_complement is None when
    every module has it (empty complement); relative_risk is None when either
    input ratio is undefined, 0 whenever the smelly side is bug-free, and
    +inf when only the complement is bug-free.
    """

    type_name: str
    module_count: int
    buggy_count: int
    risk: float | None
    risk_complement: float | None
    relative_risk: float | None


class RiskTable(NamedTuple):
    rows: dict[str, RiskRow]  # per smell type
    total: RiskRow  # any-smell pseudo-type
    module_total: int  # |M|, whole universe
    buggy_total: int  # |B|


def _make_row(
    name: str, m_t: int, b_t: int, m_all: int, b_all: int
) -> RiskRow:
    risk = b_t / m_t if m_t > 0 else None
    rest_modules = m_all - m_t
    rest_buggy = b_all - b_t
    complement = rest_buggy / rest_modules if rest_modules > 0 else None
    if risk is None or complement is None:
        rr = None
    elif risk == 0.0:
        # A bug-free smelly side is "no elevated risk" even if the
        # complement is bug-free too.
        rr = 0.0
    elif complement == 0.0:
        rr = math.inf
    else:
        rr = risk / complement
    return RiskRow(
        type_name=name,
        module_count=m_t,
        buggy_count=b_t,
        risk=risk,
        risk_complement=complement,
        relative_risk=rr,
    )


def relative_risk(
    module_universe: Iterable[str],
    buggy_modules: Iterable[str],
    report: Iterable[SmellInstance],
) -> RiskTable:
    """Build the full risk table from a universe, its buggy subset, and smells.

    Raises ValueError when the buggy set or the smell report mention modules
    outside the universe. Every known smell type gets a row, including types
    with no instances.
    """
    universe = set(module_universe)
    buggy = set(buggy_modules)
    stray_buggy = buggy - universe
    if stray_buggy:
        raise ValueError(
            f"buggy modules outside the universe: {sorted(stray_buggy)[:5]}"
        )
    by_type: dict[str, set[str]] = {name: set() for name in ALL_TYPE_NAMES}
    any_smell: set[str] = set()
    for inst in report:
        if inst.module not in universe:
            raise ValueError(f"smelly module outside the universe: {inst.module!r}")
        by_type[inst.type.name].add(inst.module)
        any_smell.add(inst.module)

    m_all = len(universe)
    b_all = len(buggy)
    rows = {}
    for name in sorted(ALL_TYPE_NAMES):
        smelly = by_type[name]
        rows[name] = _make_row(
            name, len(smelly), len(smelly & buggy), m_all, b_all
        )
    total = _make_row(
        TOTAL_ROW_NAME, len(any_smell), len(any_smell & buggy), m_all, b_all
    )
    return RiskTable(rows=rows, total=total, module_total=m_all, buggy_total=b_all)


def _rr_sort_key(row: RiskRow) -> tuple:
    # Defined rr first, descending (inf on top), then name for determinism.
    rr = row.relative_risk
    return (rr is None, -(rr if rr is not None else 0.0), row.type_name)


def sorted_rows(table: RiskTable) -> list[RiskRow]:
    """Type rows ordered by descending relative risk."""
    return sorted(table.rows.values(), key=_rr_sort_key)


def derive_selectors(table: RiskTable) -> dict[str, frozenset[str]]:
    """Compute the five selector sets from a complete risk table.

    s1: every known type. s2: rr strictly above 1. s3: risk strictly above
    the Total row's risk. s4: rr strictly above the Total row's rr. s5: the
    five types with the highest rr; a tie at the cut is kept whole (with a
    warning) rather than broken arbitrarily.
    """
    missing = ALL_TYPE_NAMES - set(table.rows)
    if missing:
        raise ValueError(f"risk table missing smell types: {sorted(missing)}")

    # Types with a defined relative risk, and that risk.
    rr = {
        n: row.relative_risk for n, row in table.rows.items() if row.relative_risk is not None
    }
    s2 = {n for n, value in rr.items() if value > 1.0}
    total_risk = table.total.risk
    s3 = {
        n
        for n, row in table.rows.items()
        if row.risk is not None and total_risk is not None and row.risk > total_risk
    }
    total_rr = table.total.relative_risk
    s4 = {n for n, value in rr.items() if total_rr is not None and value > total_rr}
    ranked = [row for row in sorted_rows(table) if row.relative_risk is not None]
    if len(ranked) <= 5:
        s5 = {row.type_name for row in ranked}
    else:
        cut = ranked[4].relative_risk
        s5 = {row.type_name for row in ranked if row.relative_risk >= cut}
        if len(s5) > 5:
            logger.warning(
                "relative-risk tie at the top-five cut; keeping %d types", len(s5)
            )
    sets = (ALL_TYPE_NAMES, s2, s3, s4, s5)
    return {name: frozenset(types) for name, types in zip(SELECTOR_NAMES, sets)}


def pooled_selectors(systems: Iterable[System]) -> dict[str, frozenset[str]]:
    """Derive selector sets from the pooled risk table of all systems.

    Modules are namespaced by system so identical paths in different
    systems stay distinct. Each system contributes its ranked universe plus
    the gold modules of its bug reports and its smelly modules, so gold or
    smelly modules the universe lacks are kept, not dropped.
    """
    universe: set[str] = set()
    buggy: set[str] = set()
    instances = []
    for system in systems:
        gold = set().union(*(system.gold[b] for b in system.bug_ids))
        modules = set(system.modules) | gold | {i.module for i in system.smells}
        universe |= {f"{system.name}::{m}" for m in modules}
        buggy |= {f"{system.name}::{m}" for m in gold}
        instances.extend(
            SmellInstance(
                inst.type, f"{system.name}::{inst.module}", inst.severity,
                inst.method_signature,
            )
            for inst in system.smells
        )
    return derive_selectors(relative_risk(universe, buggy, instances))


def _fmt_pct(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value * 100:.4f}"


def _fmt_rr(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def risk_rows(table: RiskTable) -> list[list]:
    """The table as CSV rows: a header, one row per type by descending rr,
    then Total, then an all-files line giving the universe-wide counts and
    bug rate."""
    rows: list[list] = [["type", "modules", "buggy", "risk%", "risk*%", "rr"]]
    rows += [
        [
            row.type_name,
            row.module_count,
            row.buggy_count,
            _fmt_pct(row.risk),
            _fmt_pct(row.risk_complement),
            _fmt_rr(row.relative_risk),
        ]
        for row in sorted_rows(table) + [table.total]
    ]
    overall = table.buggy_total / table.module_total if table.module_total else None
    rows.append(
        ["All files", table.module_total, table.buggy_total, _fmt_pct(overall), "", ""]
    )
    return rows
