"""The benchmark tracer still finds every layer boundary where it looks.

``bench/tracing.py`` wraps each function in its ``BOUNDARIES`` table in the
module that defines it, and in the modules the table says import it by
name. A boundary moved to another module, or bound by name in a module the
table does not list, would run unwrapped in traced runs; these tests find
that before a traced benchmark run does. The table is read from the file's
syntax tree, so the benchmark code is neither run nor changed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import smelloc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _boundaries() -> tuple:
    """(span name, defining module, attribute, importers) rows of the table."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES table in {TRACING}")


BOUNDARIES = _boundaries()


def _package_modules() -> list:
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(smelloc.__path__, "smelloc.")
    ]


@pytest.mark.parametrize("span, module, attr, importers", BOUNDARIES)
def test_boundary_is_defined_in_its_module(span, module, attr, importers):
    fn = getattr(importlib.import_module(f"smelloc.{module}"), attr, None)
    assert callable(fn), f"{span}: smelloc.{module} has no {attr}"
    assert fn.__module__ == f"smelloc.{module}", span
    assert fn.__name__ == attr, span


def test_no_module_binds_a_boundary_the_tracer_misses():
    modules = _package_modules()
    assert any(m.__name__.startswith("smelloc.commands.") for m in modules)
    stray = []
    for span, module, attr, importers in BOUNDARIES:
        fn = getattr(importlib.import_module(f"smelloc.{module}"), attr)
        wrapped_in = {f"smelloc.{name}" for name in (module, *importers)}
        stray += [
            f"{m.__name__}.{attr}"
            for m in modules
            if m.__name__ not in wrapped_in and getattr(m, attr, None) is fn
        ]
    assert stray == []
