"""Unreached-code gate: no public definition that nothing runs.

A public top-level function or class of ``src/repro`` counts as reached
when its name appears in ``src/``, ``benchmarks/`` or ``examples/`` as an
identifier -- a name, an attribute, or a word inside a string (the stage
tracer names its targets in strings) -- outside import statements and
``__all__``.  Its own ``def``/``class`` name does not count.  Tests do
not count either: code only a test calls belongs in the test tree.
"""

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Set

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "benchmarks", "examples")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Identifiers(ast.NodeVisitor):
    """Every identifier of one module outside imports and ``__all__``."""

    def __init__(self):
        self.found: Set[str] = set()

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if not any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in node.targets):
            self.generic_visit(node)

    def visit_AugAssign(self, node):
        if not (isinstance(node.target, ast.Name)
                and node.target.id == "__all__"):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.found.add(node.id)

    def visit_Attribute(self, node):
        self.found.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.found.update(_WORD.findall(node.value))


def _scan() -> FrozenSet[str]:
    """Qualified names of the unreached public top-level definitions."""
    definitions: Dict[str, str] = {}
    identifiers: Set[str] = set()
    package = ROOT / "src" / "repro"
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            visitor = _Identifiers()
            visitor.visit(tree)
            identifiers |= visitor.found
            if package not in path.parents:
                continue
            module = ".".join(path.relative_to(ROOT / "src")
                              .with_suffix("").parts)
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and not node.name.startswith("_")):
                    definitions[f"{module}.{node.name}"] = node.name
    return frozenset(qualified for qualified, name in definitions.items()
                     if name not in identifiers)


def test_no_unreached_definitions():
    assert sorted(_scan()) == [], (
        "reach these from a CLI command, experiment, example or benchmark, "
        "or delete them"
    )
