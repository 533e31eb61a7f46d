"""No module of the package imports a source of random numbers.

Every run is deterministic, so the package must not draw random numbers.
The scan reads each source file's syntax tree, so it sees imports at any
depth, including those inside functions that a command may never call.
"""

import ast
from pathlib import Path

import smelloc

RANDOM_SOURCES = ("random", "secrets")


def random_imports(source: str) -> list[str]:
    """Each import of a random source in the code, as 'line N: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[0] in RANDOM_SOURCES
        ]
    return found


def test_no_module_imports_a_random_source():
    sources = sorted(Path(smelloc.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    offenders = {
        path.name: found
        for path in sources
        if (found := random_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


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
