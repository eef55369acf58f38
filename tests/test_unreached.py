"""Unreached-code gate: no definition that nothing runs.

Every function, class, method and property that ``src/repro`` defines at
module or class level -- private names included, dunders excluded (the
interpreter calls those) -- counts as reached when its name appears in
``src/``, ``benchmarks/`` or ``examples/`` as an identifier -- a name, an
attribute, or a word inside a string (the stage tracer names its targets
in strings) -- outside import statements, ``__all__`` and docstrings (the
leading string of a module, class or function body).  Its own
``def``/``class`` name does not count.  Tests do not count either: code
only a test calls belongs in the test tree.  A name counts wherever it
appears, so two definitions sharing a name are reached together.
"""

import ast
import re
import textwrap
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


class _Identifiers(ast.NodeVisitor):
    """Every identifier of one module outside imports, ``__all__`` and
    docstrings."""

    def __init__(self, tree: ast.Module):
        self.found: Set[str] = set()
        self.docstrings = {
            node.body[0].value for node in ast.walk(tree)
            if isinstance(node, _SCOPES)
            and ast.get_docstring(node, clean=False) is not None
        }

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
        if isinstance(node.value, str) and node not in self.docstrings:
            self.found.update(_WORD.findall(node.value))


def _identifiers(tree: ast.Module) -> Set[str]:
    """The identifiers of one parsed module that count as reach."""
    visitor = _Identifiers(tree)
    visitor.visit(tree)
    return visitor.found


def _definitions(tree: ast.Module, module: str) -> Iterator[Tuple[str, str]]:
    """``(qualified name, name)`` of every non-dunder function, class,
    method and property defined at module or class level."""
    scopes = [(tree, module)]
    while scopes:
        scope, prefix = scopes.pop()
        for node in scope.body:
            if not isinstance(node, _DEFINITIONS):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                scopes.append((node, f"{prefix}.{node.name}"))


def _unreached(package: Dict[str, ast.Module],
               searched: Iterable[ast.Module]) -> FrozenSet[str]:
    """Qualified names of the package's definitions no searched module
    names."""
    identifiers: Set[str] = set()
    for tree in searched:
        identifiers |= _identifiers(tree)
    return frozenset(
        qualified
        for module, tree in package.items()
        for qualified, name in _definitions(tree, module)
        if name not in identifiers
    )


def _scan() -> FrozenSet[str]:
    """Qualified names of the unreached definitions in ``src/repro``."""
    package: Dict[str, ast.Module] = {}
    searched = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            searched.append(tree)
            if PACKAGE in path.parents:
                module = ".".join(path.relative_to(ROOT / "src")
                                  .with_suffix("").parts)
                package[module] = tree
    return _unreached(package, searched)


def test_docstrings_do_not_count_as_reach():
    tree = ast.parse(textwrap.dedent('''
        """Module text naming named_in_module_docstring."""

        class Holder:
            """Class text naming named_in_class_docstring."""

            def method(self):
                """Function text naming named_in_function_docstring."""
                return "named_in_string_constant"
    '''))
    found = _identifiers(tree)
    assert "named_in_string_constant" in found
    assert not found & {"named_in_module_docstring",
                        "named_in_class_docstring",
                        "named_in_function_docstring"}


def test_gate_covers_methods_properties_and_private_helpers():
    caller = ast.parse(textwrap.dedent('''
        from lib import Store

        def main():
            store = Store()
            return store.called_elsewhere(), "traced_by_string target"
    '''))
    library = ast.parse(textwrap.dedent('''
        class Store:
            """Holds items; see _private_helper."""

            def __init__(self):
                self._items = []

            def __len__(self):
                return len(self._items)

            def called_elsewhere(self):
                return 1

            def never_called(self):
                """Only never_called's own docstring names never_called."""

            @property
            def unused_property(self):
                return 0

            def _private_helper(self):
                return 2

            def traced_by_string(self):
                return 3
    '''))
    assert _unreached({"lib": library}, [caller, library]) == {
        "lib.Store.never_called",
        "lib.Store.unused_property",
        "lib.Store._private_helper",
    }


def test_no_unreached_definitions():
    assert sorted(_scan()) == [], (
        "reach these from a CLI command, experiment, example or benchmark, "
        "or delete them"
    )
