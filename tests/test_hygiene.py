"""Source hygiene: no module of the package imports a name it never uses,
every name a module lists in `__all__` is bound in it, the package imports
exactly the names it lists, each from its module's `__all__`, the
saturation reference and the certifier in `tests/` share no engine code
with the package, and the numeric reference reaches none of the scaled
arithmetic it checks."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leaktight"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
EVERY_MODULE = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [arguments.vararg, arguments.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


@pytest.mark.parametrize("path", EVERY_MODULE, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path: Path) -> None:
    name = "leaktight" if path.name == "__init__.py" else f"leaktight.{path.stem}"
    module = importlib.import_module(name)
    unbound = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not unbound, f"{path.name}: __all__ lists unbound names {unbound}"


def test_package_imports_exactly_its_public_names() -> None:
    path = PACKAGE / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exported = importlib.import_module("leaktight").__all__
    assert sorted(imported_names(tree)) == sorted(exported)
    unlisted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = importlib.import_module(f"leaktight.{node.module}")
            unlisted += [
                f"{alias.name} from .{node.module}"
                for alias in node.names
                if alias.name not in getattr(module, "__all__", ())
            ]
    assert not unlisted, "not in their module's __all__: " + ", ".join(unlisted)


TESTS = Path(__file__).resolve().parent

# What the files that check the engine may take from the closure modules.
# The saturation reference: the cap, the witness predicate and the pair
# type.  The certifier: the packed result it certifies and the pair type.
# No closure class, no engine, no kernel, no witness search and no private
# name, so neither can call the code it checks.
ENGINE_MODULES = ("leaktight.monoid", "leaktight.leaks")
MAY_IMPORT = {
    TESTS / "reference_saturation.py": {
        "DEFAULT_CAP", "is_value1_witness", "ExtendedLimitWord",
    },
    TESTS / "certify.py": {"Saturation", "ExtendedLimitWord"},
}


def test_saturation_reference_stays_independent_of_the_engine() -> None:
    engine_names = set()
    for name in ENGINE_MODULES:
        engine_names |= set(importlib.import_module(name).__all__)
    found = []
    for path, may_import in MAY_IMPORT.items():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # A module import would reach every name in it.
                found += [
                    f"{path.name}:{node.lineno}: import {alias.name}"
                    for alias in node.names
                    if alias.name.partition(".")[0] == "leaktight"
                ]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "leaktight"
            ):
                where = f"{path.name}:{node.lineno}"
                for alias in node.names:
                    name = alias.name
                    if name.startswith("_") or name == "*":
                        found.append(f"{where}: {name} from {node.module}")
                    elif node.module in ENGINE_MODULES or (
                        node.module == "leaktight" and name in engine_names
                    ):
                        if name not in may_import:
                            found.append(f"{where}: {name} from {node.module}")
                    elif node.module == "leaktight" and name in ("monoid", "leaks"):
                        found.append(f"{where}: module {name}")
    assert not found, "a check imports engine code:\n" + "\n".join(found)


NUMERIC_REFERENCE = Path(__file__).resolve().parent / "reference_numerics.py"

# What the numeric reference may take from `leaktight.automaton`: the model
# and its matrix types.  No product, power, step, scaling or reduction, so
# no reference can call the fast path it checks.
NUMERIC_REFERENCE_MAY_IMPORT = {"Automaton", "Matrix", "ScaledMatrix"}


def test_numeric_reference_stays_independent_of_the_fast_path() -> None:
    automaton_names = set(importlib.import_module("leaktight.automaton").__all__)
    tree = ast.parse(
        NUMERIC_REFERENCE.read_text(encoding="utf-8"), filename=str(NUMERIC_REFERENCE)
    )
    forbidden = automaton_names - NUMERIC_REFERENCE_MAY_IMPORT
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in forbidden:
            # Such as `oracle.scaled_product`, reached through another module.
            found.append(f"{node.lineno}: attribute {node.attr}")
        elif isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name == "leaktight.automaton"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "leaktight.automaton":
            found += [
                f"{node.lineno}: {alias.name} from {node.module}"
                for alias in node.names
                if alias.name not in NUMERIC_REFERENCE_MAY_IMPORT
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "leaktight":
            found += [
                f"{node.lineno}: {alias.name} from {node.module}"
                for alias in node.names
                if alias.name == "automaton" or alias.name in forbidden
            ]
    assert not found, "reference imports the fast path:\n" + "\n".join(found)


# Modules whose walks over expression trees must not recurse, so that no
# expression is too deep for them: each walk runs on an explicit stack.
RECURSION_FREE = ("sharpexpr.py", "oracle.py")


def self_references(tree: ast.Module) -> list[str]:
    """Each function that calls its own name, or reads an attribute of its
    own name (such as `self.left.render()` in `render`)."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = function.name
        for node in (n for statement in function.body for n in ast.walk(statement)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == name:
                    found.append(f"{node.lineno}: {name} calls {name}")
            elif isinstance(node, ast.Attribute) and node.attr == name:
                found.append(f"{node.lineno}: {name} reads .{name}")
    return found


@pytest.mark.parametrize("name", RECURSION_FREE)
def test_expression_walks_do_not_recurse(name: str) -> None:
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = self_references(tree)
    assert not found, f"{name}: recursive functions:\n" + "\n".join(found)


def test_no_module_raises_the_recursion_limit() -> None:
    found = []
    for path in EVERY_MODULE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.alias) and node.name == "setrecursionlimit":
                found.append(f"{path.name}: imports setrecursionlimit")
    assert not found, "sys.setrecursionlimit in:\n" + "\n".join(found)
