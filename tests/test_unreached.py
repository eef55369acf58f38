"""Unreached-code gate: no definition that nothing runs.

Every function, class, method and property that ``src/repro`` defines at
module or class level -- private names included, dunders excluded (the
interpreter calls those) -- counts as reached when its name appears in
``src/``, ``benchmarks/`` or ``examples/`` as an identifier -- a name, an
attribute, or a word inside a string (the stage tracer names its targets
in strings) -- outside import statements, ``__all__`` and docstrings (the
leading string of a module, class or function body).  A definition at
class level is reached only through an attribute or a string word: code
calls a method or reads a property as ``obj.name`` (or by name in a
string, as ``getattr`` does), so a bare name -- a local variable, a
parameter, a module-level function -- that shares its name does not
reach it.  Its own ``def``/``class`` name does not count.  Tests do not
count either: code only a test calls belongs in the test tree.  A name
counts wherever it appears, so two definitions sharing a name are
reached together.
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
    docstrings: bare names in :attr:`names`, attributes and string words
    in :attr:`members`."""

    def __init__(self, tree: ast.Module):
        self.names: Set[str] = set()
        self.members: Set[str] = set()
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
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.members.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node not in self.docstrings:
            self.members.update(_WORD.findall(node.value))


def _identifiers(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """``(names, members)`` of one parsed module that count as reach:
    bare names, and attributes plus string words."""
    visitor = _Identifiers(tree)
    visitor.visit(tree)
    return visitor.names, visitor.members


def _definitions(tree: ast.Module,
                 module: str) -> Iterator[Tuple[str, str, bool]]:
    """``(qualified name, name, at class level)`` of every non-dunder
    function, class, method and property defined at module or class
    level."""
    scopes = [(tree, module)]
    while scopes:
        scope, prefix = scopes.pop()
        for node in scope.body:
            if not isinstance(node, _DEFINITIONS):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield (f"{prefix}.{node.name}", node.name,
                       isinstance(scope, ast.ClassDef))
            if isinstance(node, ast.ClassDef):
                scopes.append((node, f"{prefix}.{node.name}"))


def _unreached(package: Dict[str, ast.Module],
               searched: Iterable[ast.Module]) -> FrozenSet[str]:
    """Qualified names of the package's definitions no searched module
    reaches: a module-level one by any identifier, a class-level one by
    an attribute or a string word."""
    names: Set[str] = set()
    members: Set[str] = set()
    for tree in searched:
        tree_names, tree_members = _identifiers(tree)
        names |= tree_names
        members |= tree_members
    return frozenset(
        qualified
        for module, tree in package.items()
        for qualified, name, in_class in _definitions(tree, module)
        if name not in members and (in_class or name not in names)
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
    names, members = _identifiers(tree)
    assert "named_in_string_constant" in members
    assert not (names | members) & {"named_in_module_docstring",
                                    "named_in_class_docstring",
                                    "named_in_function_docstring"}


def test_a_shared_local_name_does_not_reach_a_method():
    caller = ast.parse(textwrap.dedent('''
        def main():
            rows = Series()
            shared_name = len(rows)
            module_helper = shared_name
            return module_helper, rows.read_by_attribute
    '''))
    library = ast.parse(textwrap.dedent('''
        def module_helper():
            return 0

        class Series:
            def shared_name(self):
                return 1

            @property
            def read_by_attribute(self):
                return 2
    '''))
    assert _unreached({"lib": library}, [caller, library]) == {
        "lib.Series.shared_name",
    }


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
