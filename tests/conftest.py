"""Shared fixtures: reference datasets and random generators."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from smelloc import corpus as corpus_mod
from smelloc.combine import System, TechniqueScores
from smelloc.smells import (
    CLASS_SMELL_TYPES,
    METHOD_SMELL_TYPES,
    SMELL_TYPE_BY_NAME,
    SmellInstance,
)

# ----------------------------------------------------------------- HBase
# Worked re-ranking example for bug HBASE-1795: raw technique scores and
# class-smell severity sums chosen so the normalized inputs, the blended
# values at alpha = 0.31, and the resulting order are all known.

HBASE_BUG = "HBASE-1795"

HBASE_SCORES = {
    "TestTHLog": 1.000,
    "THLogRecoveryManager": 0.949,
    "HLog": 0.792,
    "TransactionalRegion": 0.784,
    "TestStoreScanner": 0.659,
    "HRegion": 0.642,
    "BatchMutation": 0.637,
    "TestTHLogRecovery": 0.619,
    "TestMinorCompactingStoreScanner": 0.600,
    "Store": 0.582,
    "ServerManager": 0.364,
    "IndexedRegion": 0.325,
}

# Class-level severity sums; max 13 so normalized values land on
# 1.000, 0.769..., 0.231... for the modules that carry smells.
HBASE_SMELL_SUMS = {
    "Store": (("Blob Class", 9), ("God Class", 4)),
    "HRegion": (("God Class", 10),),
    "ServerManager": (("Blob Class", 10),),
    "IndexedRegion": (("God Class", 10),),
    "HLog": (("Schizophrenic Class", 3),),
}

HBASE_EXPECTED_TOP10 = [
    ("Store", 0.711),
    ("TestTHLog", 0.690),
    ("HRegion", 0.681),
    ("THLogRecoveryManager", 0.655),
    ("HLog", 0.618),
    ("TransactionalRegion", 0.541),
    ("ServerManager", 0.489),
    ("IndexedRegion", 0.462),
    ("TestStoreScanner", 0.455),
    ("BatchMutation", 0.440),
]

HBASE_GOLD = frozenset({"Store"})


def write_hbase_fixture(directory: Path) -> dict[str, Path]:
    """Materialize the worked example as CLI input files."""
    scores = directory / "scores.jsonl"
    with open(scores, "w", encoding="utf-8") as fh:
        for module, value in HBASE_SCORES.items():
            fh.write(
                json.dumps({"bug": HBASE_BUG, "module": module, "score": value})
            )
            fh.write("\n")
    smells = directory / "smells.json"
    instances = [
        {"type": type_name, "module": module, "severity": severity}
        for module, per_module in HBASE_SMELL_SUMS.items()
        for type_name, severity in per_module
    ]
    smells.write_text(json.dumps(instances), encoding="utf-8")
    bugs = directory / "bugs.json"
    bugs.write_text(
        json.dumps(
            [
                {
                    "id": HBASE_BUG,
                    "summary": "scanner fails",
                    "description": "store scanner fails during log recovery",
                    "gold": sorted(HBASE_GOLD),
                }
            ]
        ),
        encoding="utf-8",
    )
    return {"scores": scores, "smells": smells, "bugs": bugs}


@pytest.fixture
def hbase_fixture(tmp_path):
    return write_hbase_fixture(tmp_path)


# ------------------------------------------------------- reference counts
# Relative-risk reference table: per-type module and buggy counts plus the
# expected percentages/ratios they induce. The Intensive Coupling risk cell
# is the recomputed 10.809 (see the build notes ledger): the adjacent RR
# cell only back-solves from 10.809, not from the commonly quoted 10.819.

RISK_REFERENCE = {
    # type: (modules, buggy, risk %, risk* %, rr)
    "Blob Class": (1151, 246, 21.373, 2.385, 8.960),
    "Shotgun Surgery": (357, 59, 16.527, 2.411, 6.855),
    "God Class": (6108, 959, 15.701, 2.294, 6.846),
    "Blob Operation": (6802, 1021, 15.010, 2.286, 6.565),
    "Intensive Coupling": (2683, 290, 10.809, 2.384, 4.534),
    "Data Clumps": (8928, 702, 7.863, 2.343, 3.355),
    "Refused Parent Bequest": (1519, 119, 7.834, 2.406, 3.256),
    "Internal Duplication": (3958, 306, 7.731, 2.386, 3.240),
    "External Duplication": (6875, 501, 7.287, 2.367, 3.079),
    "Feature Envy": (9614, 669, 6.959, 2.351, 2.960),
    "Message Chains": (2641, 176, 6.664, 2.401, 2.775),
    "Schizophrenic Class": (3675, 222, 6.041, 2.398, 2.519),
    "Tradition Breaker": (2159, 74, 3.428, 2.415, 1.419),
    "Sibling Duplication": (7860, 267, 3.397, 2.407, 1.411),
    "Data Class": (16028, 361, 2.252, 2.423, 0.930),
    "Distorted Hierarchy": (5, 0, 0.000, 2.419, 0.000),
}

RISK_TOTALS = {
    "smelly_modules": 63_953,
    "smelly_buggy": 3_668,
    "all_modules": 654_674,
    "all_buggy": 15_834,
    "total_risk": 5.735,
    "total_risk_complement": 2.060,
    "total_rr": 2.785,
}

RISK_EXPECTED_S5 = frozenset(
    {"Blob Class", "Shotgun Surgery", "God Class", "Blob Operation", "Intensive Coupling"}
)
RISK_EXPECTED_S2 = frozenset(RISK_REFERENCE) - {"Data Class", "Distorted Hierarchy"}


def build_risk_reference_dataset():
    """Synthesize (universe, buggy, instances) hitting every reference count.

    Module ids are integers rendered as m<k>. The smelly region is
    [0, 63953) with its buggy part [0, 3668); extra buggy modules fill
    [63953, 76119). Each type takes consecutive cyclic slots, first from
    the buggy-smelly region, then from the clean-smelly region; the count
    sums exceed both region sizes, so the regions are covered exactly.
    """
    smelly_buggy = RISK_TOTALS["smelly_buggy"]
    smelly_total = RISK_TOTALS["smelly_modules"]
    clean_smelly = smelly_total - smelly_buggy
    instances = []
    buggy_cursor = 0
    clean_cursor = 0
    for name, (m_t, b_t, *_rest) in RISK_REFERENCE.items():
        smell_type = SMELL_TYPE_BY_NAME[name]
        signature = "run()" if smell_type.granularity == "method" else None
        for k in range(b_t):
            idx = (buggy_cursor + k) % smelly_buggy
            instances.append(
                SmellInstance(
                    type=smell_type,
                    module=f"m{idx}",
                    severity=1,
                    method_signature=signature,
                )
            )
        buggy_cursor = (buggy_cursor + b_t) % smelly_buggy
        clean_count = m_t - b_t
        for k in range(clean_count):
            idx = smelly_buggy + (clean_cursor + k) % clean_smelly
            instances.append(
                SmellInstance(
                    type=smell_type,
                    module=f"m{idx}",
                    severity=1,
                    method_signature=signature,
                )
            )
        clean_cursor = (clean_cursor + clean_count) % clean_smelly
    universe = [f"m{i}" for i in range(RISK_TOTALS["all_modules"])]
    extra_buggy = RISK_TOTALS["all_buggy"] - smelly_buggy
    buggy = [f"m{i}" for i in range(smelly_buggy)] + [
        f"m{smelly_total + i}" for i in range(extra_buggy)
    ]
    return universe, buggy, instances


# -------------------------------------------------------- random systems

RANDOM_TYPE_POOL = (
    CLASS_SMELL_TYPES[0],  # Blob Class
    CLASS_SMELL_TYPES[3],  # God Class
    METHOD_SMELL_TYPES[3],  # Feature Envy
    METHOD_SMELL_TYPES[7],  # Shotgun Surgery
)


def random_system(
    rng: random.Random,
    name: str = "sys",
    max_modules: int = 30,
    max_reports: int = 10,
    ensure_smells: bool = False,
) -> tuple[System, TechniqueScores]:
    n = rng.randint(4, max_modules)
    modules = tuple(f"{name}/m{i:03d}.java" for i in range(n))
    report_count = rng.randint(1, max_reports)
    bug_ids = tuple(f"{name}-b{j}" for j in range(report_count))
    gold = {
        bug: frozenset(rng.sample(modules, rng.randint(1, min(3, n))))
        for bug in bug_ids
    }
    instances = []
    for module in modules:
        for smell_type in RANDOM_TYPE_POOL:
            if rng.random() < 0.3:
                instances.append(
                    SmellInstance(
                        type=smell_type,
                        module=module,
                        severity=rng.randint(1, 10),
                        method_signature="run()"
                        if smell_type.granularity == "method"
                        else None,
                    )
                )
    if ensure_smells and not instances:
        instances.append(
            SmellInstance(type=RANDOM_TYPE_POOL[0], module=modules[0], severity=5)
        )
    scores = {
        bug: {
            module: rng.random() if rng.random() > 0.1 else 0.0
            for module in modules
        }
        for bug in bug_ids
    }
    system = System(
        name=name,
        modules=modules,
        bug_ids=bug_ids,
        gold=gold,
        smells=tuple(instances),
    )
    return system, TechniqueScores(technique="t", by_bug=scores)


# ------------------------------------------------------------ snapshots

JAVA_SNAPSHOT = {
    "com/app/StoreManager.java": """
        package com.app;
        public class StoreManager {
            private HttpConnection connection;
            public void flushCacheEntries(int maxCount) {
                for (int i = 0; i < maxCount; i++) { evictOldest(); }
            }
        }
    """,
    "com/app/HttpConnection.java": """
        package com.app;
        public class HttpConnection {
            public void openSocketChannel(String hostName, int portNumber) {}
        }
    """,
    "com/app/LogWriter.java": """
        package com.app;
        public class LogWriter { public void appendRecord(String line) {} }
    """,
    "com/app/MathUtil.java": """
        package com.app;
        public class MathUtil {
            public static int clampValue(int lowBound, int highBound, int value) { return value; }
        }
    """,
    "com/app/StringPool.java": """
        package com.app;
        public class StringPool { public String internText(String rawText) { return rawText; } }
    """,
}

JAVA_BUGS = [
    {
        "id": "B-1",
        "summary": "store manager cache flush fails",
        "description": "flushing cache entries crashes the store manager",
        "gold": ["com/app/StoreManager.java"],
    },
    {
        "id": "B-2",
        "summary": "http connection socket",
        "description": "socket channel never opens on the http connection",
        "gold": ["com/app/HttpConnection.java"],
    },
    {
        "id": "B-3",
        "summary": "log writer append record",
        "description": "append record drops the line in the log writer",
        "gold": ["com/app/LogWriter.java"],
    },
    {
        "id": "B-4",
        "summary": "cache eviction overflow",
        "description": "evicting oldest entries overflows the store",
        "gold": ["com/app/StoreManager.java"],
    },
    {
        "id": "B-5",
        "summary": "host name port number",
        "description": "host name and port number mixed up opening the socket channel",
        "gold": ["com/app/HttpConnection.java"],
    },
]

JAVA_SMELLS = [
    {"type": "God Class", "module": "com/app/StoreManager.java", "severity": 9},
    {"type": "Blob Class", "module": "com/app/StoreManager.java", "severity": 7},
    {
        "type": "Feature Envy",
        "module": "com/app/HttpConnection.java",
        "method": "openSocketChannel(String,int)",
        "severity": 4,
    },
    {"type": "Data Class", "module": "com/app/MathUtil.java", "severity": 2},
]


def write_java_system(directory: Path) -> dict[str, Path]:
    """Materialize the small Java system: snapshot, bugs, smells, descriptor."""
    src = directory / "src"
    for rel, body in JAVA_SNAPSHOT.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
    bugs = directory / "bugs.json"
    bugs.write_text(json.dumps(JAVA_BUGS), encoding="utf-8")
    smells = directory / "smells.json"
    smells.write_text(json.dumps(JAVA_SMELLS), encoding="utf-8")
    descriptor = directory / "system.json"
    descriptor.write_text(
        json.dumps(
            {
                "project": "demo",
                "version": "1.0",
                "snapshot": "src",
                "bugs": "bugs.json",
                "smells": "smells.json",
            }
        ),
        encoding="utf-8",
    )
    return {"root": directory, "src": src, "bugs": bugs, "smells": smells, "descriptor": descriptor}


@pytest.fixture
def java_system(tmp_path):
    return write_java_system(tmp_path)


@pytest.fixture
def vanished_source(monkeypatch):
    """Make corpus.source_files list a Gone.java that no longer exists.

    Reading it fails as reading any unreadable source file does, also for
    root. Returns the missing file's module id.
    """
    real = corpus_mod.source_files

    def listing(root, *args, **kwargs):
        gone = ("Gone.java", Path(root) / "Gone.java")
        return sorted(real(root, *args, **kwargs) + [gone])

    monkeypatch.setattr(corpus_mod, "source_files", listing)
    return "Gone.java"
