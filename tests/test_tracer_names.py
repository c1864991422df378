"""The names the benchmark's tracer wraps still exist in the package.

`perfbench/tracing.py` wraps package functions by name, domain classes'
`contains_batch`, and each golden field's `evaluate` and `closed_partial`.
A rename there would otherwise show only in a traced benchmark run.  The
tracer's name tables are read from its source, without importing it.
"""

import ast
import importlib
from pathlib import Path

from octoslice import domains
from octoslice.golden import field_names, get_field

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_table(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no {name}")


def test_every_traced_function_exists():
    functions = _tracer_table("FUNCTIONS")
    assert functions
    for short, names in functions.items():
        module = importlib.import_module(f"octoslice.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"octoslice.{short}.{name}"


def test_every_traced_domain_class_exists():
    for cls_name in _tracer_table("DOMAIN_CLASSES"):
        cls = getattr(domains, cls_name, None)
        assert isinstance(cls, type) and issubclass(cls, domains.Domain), cls_name
        assert "contains_batch" in cls.__dict__, cls_name


def test_every_golden_field_has_the_traced_methods():
    for name in field_names():
        field = get_field(name).field
        assert callable(field.evaluate) and callable(field.closed_partial), name
