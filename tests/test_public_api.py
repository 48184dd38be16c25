"""The package's public surface: each submodule's ``__all__``, which
``modraft`` re-exports by ``from .<module> import *``."""

from __future__ import annotations

import ast
import importlib
import inspect

import modraft

# The submodules whose names the package re-exports, in import order.
STARRED = [node.module for node in ast.parse(inspect.getsource(modraft)).body
           if isinstance(node, ast.ImportFrom)
           and [alias.name for alias in node.names] == ["*"]]


def _defined_names(module) -> set[str]:
    """The names a module binds at top level by ``def``, ``class`` or an
    assignment: not the ones it imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_star_import_binds_exactly_the_package_all():
    namespace: dict = {}
    exec("from modraft import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(modraft.__all__)
    assert len(set(modraft.__all__)) == len(modraft.__all__)


def test_the_package_all_is_its_version_and_the_submodules_all():
    assert STARRED, "no star import found in modraft/__init__.py"
    expected = ["__version__"]
    for name in STARRED:
        expected += importlib.import_module(f"modraft.{name}").__all__
    assert modraft.__all__ == expected


def test_each_submodule_exports_only_names_it_defines():
    for name in [*STARRED, "cli", "generators"]:
        module = importlib.import_module(f"modraft.{name}")
        imported = set(module.__all__) - _defined_names(module)
        assert not imported, f"modraft.{name}.__all__ re-exports {sorted(imported)}"
