"""Declared dependencies match what the package imports, and every name the
bench traces exists in the package."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "vibronic").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_dependencies_equal_third_party_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in tomllib.load(fh)["project"]["dependencies"]}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"vibronic"}
    assert declared == third_party


def _bench_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs bench/tracer.py patches, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_bench_traced_names_exist():
    # the bench skips a missing name silently and its smoke test fails only there
    missing = []
    for module, attr in _bench_targets():
        owner = importlib.import_module(f"vibronic.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
