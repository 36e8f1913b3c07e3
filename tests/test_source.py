"""Checks on the library source itself."""

import ast
import importlib.util
from pathlib import Path

import braidbracket.cli  # noqa: F401  (loads every library module)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidbracket"


def test_no_bare_assert_in_library():
    # ``python -O`` strips assert statements, so an invariant guard written
    # as one silently stops guarding; guards raise real exceptions instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_every_trace_target_resolves():
    # the benchmark's tracer wraps library functions by name; one that was
    # renamed or deleted would drop out of traced runs without an error
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == {}
    finally:
        tracer.uninstall()
