"""The reference walks in ``tests/oracles/`` stay out of production code.

Each oracle keeps the path its fast counterpart replaced. The
equivalence tests only mean something while no option, mode or hook
under ``src/`` can route a run through an oracle, so no module there
may import one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _imported_names(tree: ast.AST):
    """Every module name an import statement or dynamic import names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            yield str(node.args[0].value)


def test_no_src_module_imports_the_oracles():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
        if "oracles" in name.split(".")
    ]
    assert not offenders, offenders


def test_the_oracles_are_where_the_tests_import_them():
    oracles = Path(__file__).resolve().parent / "oracles"
    assert {p.stem for p in oracles.glob("*_walk.py")} >= {
        "fleet_walk", "layer_walk", "token_walk",
    }
