"""Declared dependencies match what the package imports."""

import ast
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
