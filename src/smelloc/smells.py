"""Smell instances, configurations, and aggregation.

A smell report is a flat list of instances (type, module, optional method,
severity 1..10) coming from an external detector. A configuration picks a
granularity, an aggregator, and a set of smell types; applying it to a module
yields one nonnegative number, the module's raw smell value. Method-level
instances are attached to their enclosing file, since localization targets
are files.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

CLASS_GRANULARITY = "class"
METHOD_GRANULARITY = "method"
BOTH_GRANULARITIES = "both"

GRANULARITIES = (CLASS_GRANULARITY, METHOD_GRANULARITY, BOTH_GRANULARITIES)

AGGREGATORS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10")

# s1 selects every smell type; risk.derive_selectors defines s2-s5.
SELECTOR_NAMES = ("s1", "s2", "s3", "s4", "s5")


class _Record:
    """An immutable record whose fields are its class's __slots__.

    Records of one class are equal, and hash alike, when their _key() values
    are; by default that is every field. Slot fields are read faster than a
    named tuple's, and defining them loads no dataclasses.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    _key = _fields

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


class SmellType(_Record):
    __slots__ = ("name", "granularity")

    def __init__(self, name: str, granularity: str):  # "class" or "method"
        self._set(name, granularity)


CLASS_SMELL_TYPES = (
    SmellType("Blob Class", CLASS_GRANULARITY),
    SmellType("Data Class", CLASS_GRANULARITY),
    SmellType("Distorted Hierarchy", CLASS_GRANULARITY),
    SmellType("God Class", CLASS_GRANULARITY),
    SmellType("Refused Parent Bequest", CLASS_GRANULARITY),
    SmellType("Schizophrenic Class", CLASS_GRANULARITY),
    SmellType("Tradition Breaker", CLASS_GRANULARITY),
)

METHOD_SMELL_TYPES = (
    SmellType("Blob Operation", METHOD_GRANULARITY),
    SmellType("Data Clumps", METHOD_GRANULARITY),
    SmellType("External Duplication", METHOD_GRANULARITY),
    SmellType("Feature Envy", METHOD_GRANULARITY),
    SmellType("Intensive Coupling", METHOD_GRANULARITY),
    SmellType("Internal Duplication", METHOD_GRANULARITY),
    SmellType("Message Chains", METHOD_GRANULARITY),
    SmellType("Shotgun Surgery", METHOD_GRANULARITY),
    SmellType("Sibling Duplication", METHOD_GRANULARITY),
)

SMELL_TYPES = CLASS_SMELL_TYPES + METHOD_SMELL_TYPES
SMELL_TYPE_BY_NAME = {t.name: t for t in SMELL_TYPES}
ALL_TYPE_NAMES = frozenset(SMELL_TYPE_BY_NAME)


class SmellInstance(_Record):
    """One detected smell occurrence."""

    __slots__ = ("type", "module", "severity", "method_signature")

    def __init__(
        self,
        type: SmellType,
        module: str,
        severity: int,
        method_signature: str | None = None,
    ):
        if not module:
            raise ValueError("smell instance needs a nonempty module")
        if not 1 <= severity <= 10:
            raise ValueError(f"severity {severity} outside 1..10")
        if type.granularity == METHOD_GRANULARITY and not method_signature:
            raise ValueError(
                f"method-level smell {type.name!r} needs a method signature"
            )
        if type.granularity == CLASS_GRANULARITY and method_signature:
            raise ValueError(
                f"class-level smell {type.name!r} cannot carry a method signature"
            )
        self._set(type, module, severity, method_signature)


class SmellConfiguration(_Record):
    """Granularity + aggregator + smell-type selector.

    The name is a label only: equality and hashing ignore it.
    """

    __slots__ = ("granularity", "aggregator", "selector", "name")

    def __init__(
        self,
        granularity: str,
        aggregator: str,
        selector: frozenset[str],
        name: str = "",
    ):
        if granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {granularity!r}")
        if aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {aggregator!r}")
        if not selector:
            raise ValueError("selector must be nonempty")
        unknown = set(selector) - ALL_TYPE_NAMES
        if unknown:
            raise ValueError(f"unknown smell types in selector: {sorted(unknown)}")
        self._set(granularity, aggregator, selector, name)

    def _key(self) -> tuple[str, str, frozenset[str]]:
        return self.granularity, self.aggregator, self.selector

    def label(self) -> str:
        return self.name or "{},{},{{{}}}".format(
            self.granularity, self.aggregator, ",".join(sorted(self.selector))
        )


def is_original_index(config: SmellConfiguration) -> bool:
    """True for the class-granularity, severity-sum, all-types configuration.

    That corner of the configuration space is the ungeneralized index the
    rest of the space extends.
    """
    return (
        config.granularity == CLASS_GRANULARITY
        and config.aggregator == "a1"
        and config.selector == ALL_TYPE_NAMES
    )


def select_instances(
    instances: Iterable[SmellInstance], config: SmellConfiguration
) -> list[SmellInstance]:
    """Keep instances matching the configuration's types and granularity."""
    kept = []
    for inst in instances:
        if inst.type.name not in config.selector:
            continue
        if (
            config.granularity != BOTH_GRANULARITIES
            and inst.type.granularity != config.granularity
        ):
            continue
        kept.append(inst)
    return kept


def _per_type(instances: Sequence[SmellInstance]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for inst in instances:
        groups.setdefault(inst.type.name, []).append(inst.severity)
    return groups


def _mean(values: Sequence[int]) -> float:
    # int / int rounds the exact mean once, as statistics.mean's Fractions do.
    return sum(values) / len(values)


def _aggregator(aggregator: str) -> Callable[[Sequence[SmellInstance]], float]:
    """The function behind an aggregator label, for nonempty instance lists.

    Only the medians need ``statistics``; it is imported here, once per
    chosen aggregator, so commands that never take one load none of it.
    """
    if aggregator not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    if aggregator == "a1":
        return lambda instances: float(sum(i.severity for i in instances))
    if aggregator == "a2":
        return lambda instances: float(max(i.severity for i in instances))
    if aggregator == "a3":
        return lambda instances: 1.0
    if aggregator == "a4":
        return lambda instances: float(len(instances))
    if aggregator in ("a5", "a7", "a9"):
        center = _mean
    else:
        from statistics import median as center
    if aggregator in ("a5", "a6"):
        return lambda instances: float(center([i.severity for i in instances]))
    per_type = max if aggregator in ("a7", "a8") else len
    return lambda instances: float(
        center([per_type(sevs) for sevs in _per_type(instances).values()])
    )


def smell_values(
    modules: Iterable[str],
    report: Iterable[SmellInstance],
    config: SmellConfiguration,
) -> dict[str, float]:
    """Raw smell values for a whole module universe; absent modules get 0."""
    value = _aggregator(config.aggregator)
    by_module: dict[str, list[SmellInstance]] = {}
    for inst in select_instances(report, config):
        by_module.setdefault(inst.module, []).append(inst)
    return {
        module: value(by_module[module]) if module in by_module else 0.0
        for module in modules
    }
