"""Static guards over the package source."""

import ast
from pathlib import Path
from types import FunctionType

import pytest

import shamsuddin

SOURCES = sorted(Path(shamsuddin.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so every check in the package must
    # raise explicitly (VerificationError for failed result checks)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"analysis.py", "linalg.py", "ode.py", "cli.py"}


def test_exports_match_imports():
    # every public name resolves, and every name the package imports into
    # __init__ is exported, so a renamed or removed function leaves no stale
    # entry in __all__
    init = Path(shamsuddin.__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert imported
    assert [name for name in shamsuddin.__all__ if not hasattr(shamsuddin, name)] == []
    assert sorted(imported - set(shamsuddin.__all__)) == []


def _public_members(cls: type) -> list[str]:
    """Public methods and properties a class defines itself."""
    kinds = (FunctionType, property, classmethod, staticmethod)
    return [attr for attr, val in vars(cls).items() if not attr.startswith("_") and isinstance(val, kinds)]


def test_every_export_is_used_outside_tests():
    # a public name that only tests call belongs in tests/conftest.py: each
    # name in __all__, and each public method and property of an exported
    # class the package defines, is read somewhere in the package other than
    # __init__.py (its own definition does not count) or in the benchmark
    bench = Path(__file__).resolve().parents[1] / "bench"
    paths = [p for p in SOURCES if p.name != "__init__.py"] + sorted(bench.glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(shamsuddin.__all__) - used) == []
    members = {
        f"{name}.{attr}"
        for name in shamsuddin.__all__
        if isinstance(cls := getattr(shamsuddin, name), type) and cls.__module__.startswith("shamsuddin.")
        for attr in _public_members(cls)
        if attr not in used
    }
    assert sorted(members) == []


def test_cli_raises_no_verification_error():
    # results are verified where the library makes them; the CLI only maps
    # VerificationError to exit 4
    path = Path(shamsuddin.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    raised = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "VerificationError" in ast.unparse(node.exc)
    ]
    assert not raised, f"cli.py raises VerificationError at lines {raised}"


def test_analysis_does_not_import_commutes():
    # isotropy maps are built, verified (by endos.affine_commutes) and
    # returned as AffineEndo; the generic substitution check serves only the
    # commute subcommand, and no PolyEndo is built and read back
    path = Path(shamsuddin.__file__).parent / "analysis.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "affine_commutes" in imported and "commutes" not in imported
    assert "PolyEndo" not in imported and "endo_to_affine" not in imported
