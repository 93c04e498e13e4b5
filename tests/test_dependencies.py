"""The package imports only the standard library and the runtime
dependencies that pyproject.toml declares, and uses each of those."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_levels() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "treatise").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # "numpy>=1.22" -> "numpy"; a distribution name imports with _ for -
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in requirements}


def test_third_party_imports_are_the_declared_dependencies():
    third_party = _imported_top_levels() - set(sys.stdlib_module_names) - {"treatise"}
    assert third_party == _declared_dependencies()
