"""The names the benchmark in bench/ relies on still exist in the package.

bench/ is read as source, not imported: its span list and its `ftlab.<name>`
references are taken from the syntax trees, so a trim of the package that
would break a benchmark run fails here, in the unit tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ftlab
import ftlab.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}


def _traced():
    for node in TREES["spans.py"].body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED list")


def _references():
    """(file, name, attribute or None) for each `ftlab.<name>[.<attribute>]` in bench/."""
    refs = set()
    for file, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ftlab":
                raise AssertionError(f"bench/{file} imports from {node.module}; reference ftlab.<name>")
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ftlab" and not node.attr.startswith("__")):
                refs.add((file, node.attr, None))
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "ftlab"):
                refs.add((file, node.value.attr, node.attr))
    return sorted(refs, key=lambda r: (r[0], r[1], r[2] or ""))


@pytest.mark.parametrize("layer, name", _traced())
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"ftlab.{layer}"), name, None))


def test_cli_keeps_its_jsonschema_attribute():
    # the traced run swaps ftlab.cli.jsonschema for a stand-in that times validate
    assert ftlab.cli.jsonschema.validate


def test_bench_references_are_exported():
    refs = _references()
    assert refs, "no ftlab.<name> reference found in bench/"
    for file, name, attr in refs:
        where = f"bench/{file}: ftlab.{name}"
        if isinstance(getattr(ftlab, name, None), type(ftlab)):
            assert attr is None or hasattr(getattr(ftlab, name), attr), f"{where}.{attr}"
        else:
            assert name in ftlab.__all__, f"{where} is not exported"
