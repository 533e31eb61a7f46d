"""No module of the package imports a source of random numbers, or anything
outside the standard library.

Every run is deterministic, so the package must not draw random numbers,
and the runtime is standard-library only. The scans read each source file's
syntax tree, so they see imports at any depth, including those inside
functions that a command may never call.
"""

import ast
import sys
from pathlib import Path

import smelloc

RANDOM_SOURCES = ("random", "secrets")

# Relative imports stay inside the package and are not listed by the scan.
ALLOWED_SOURCES = sys.stdlib_module_names | {"smelloc"}


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """Each absolute import in the code, as (line, module name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def random_imports(source: str) -> list[str]:
    """Each import of a random source in the code, as 'line N: name'."""
    return [
        f"line {line}: {name}"
        for line, name in absolute_imports(source)
        if name.split(".")[0] in RANDOM_SOURCES
    ]


def outside_imports(source: str) -> list[str]:
    """Each import of neither the standard library nor the package, as
    'line N: name'."""
    return [
        f"line {line}: {name}"
        for line, name in absolute_imports(source)
        if name.split(".")[0] not in ALLOWED_SOURCES
    ]


def _offenders(scan) -> dict[str, list[str]]:
    root = Path(smelloc.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert any(path.parent != root for path in sources), "no subpackage scanned"
    return {
        path.relative_to(root).as_posix(): found
        for path in sources
        if (found := scan(path.read_text(encoding="utf-8")))
    }


def test_no_module_imports_a_random_source():
    assert _offenders(random_imports) == {}


def test_no_module_imports_outside_the_standard_library():
    assert _offenders(outside_imports) == {}


def test_scan_sees_imports_at_any_depth():
    source = (
        "import os, random\n"
        "def pick():\n"
        "    from secrets import choice\n"
        "    class Inner:\n"
        "        import random.x as rx\n"
        "from . import random_walk\n"
    )
    assert random_imports(source) == [
        "line 1: random",
        "line 3: secrets",
        "line 5: random.x",
    ]


def test_outside_scan_allows_only_the_standard_library_and_the_package():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy\n"
        "from smelloc.index import rank\n"
        "from .corpus import build_corpus\n"
        "def load():\n"
        "    import scipy.stats as st\n"
        "    from xml.etree import ElementTree\n"
    )
    assert outside_imports(source) == ["line 2: numpy", "line 6: scipy.stats"]
