"""The package imports only the standard library and the runtime
dependencies that pyproject.toml declares, and uses each of those; only
record code loads the record module; each of its public names has a caller
in the package or the benchmark; and pyproject.toml packages every data
file and names the real entry point."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treatise import cli

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


def _pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _declared_dependencies() -> set[str]:
    requirements = _pyproject()["project"]["dependencies"]
    # "numpy>=1.22" -> "numpy"; a distribution name imports with _ for -
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in requirements}


def test_third_party_imports_are_the_declared_dependencies():
    third_party = _imported_top_levels() - set(sys.stdlib_module_names) - {"treatise"}
    assert third_party == _declared_dependencies()


# the JSON byte format lives in the package root: only record code
# (pipeline, evaluation, cli) loads catalog, and with it numpy
def test_only_record_code_loads_the_record_module():
    script = ("import sys\n"
              "import treatise.backends, treatise.retrieval, treatise.lexicon, treatise.ontology\n"
              "print(sorted({'numpy', 'treatise.catalog'} & set(sys.modules)))\n"
              "import treatise.mockserver, treatise.fixtures\n"
              "print(sorted({'treatise.catalog'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]


# Public names that nothing in src/ or bench/ calls, each kept on purpose.
_UNCALLED_ON_PURPOSE = {
    # http.server.BaseHTTPRequestHandler calls these hooks by name
    "mockserver._Handler.do_POST",
    "mockserver._Handler.do_GET",
    "mockserver._Handler.log_message",
    # the range-checked constructor that the demos build pages with
    "raster.ImageGrid.from_list",
    # packaged sample data, read by tests and demos
    "fixtures.frames_glossary",
}


def _definitions():
    """(qualified name, short name, path, first line, last line) of every
    public top-level function and class under src/treatise, and of every
    public method of a top-level class."""
    out = []
    for path in sorted((ROOT / "src" / "treatise").rglob("*.py")):
        module = path.parent.name if path.stem == "__init__" else path.stem
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((f"{module}.{node.name}", node.name, path,
                            node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{module}.{node.name}.{m.name}", m.name, path,
                            m.lineno, m.end_lineno)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                           and not _extends_base(m))
    return out


def _extends_base(method) -> bool:
    """True when the method calls super() under its own name: it extends a
    base-class method, which the base class calls."""
    return any(isinstance(n, ast.Attribute) and n.attr == method.name
               and isinstance(n.value, ast.Call) and isinstance(n.value.func, ast.Name)
               and n.value.func.id == "super"
               for n in ast.walk(method))


def _uses():
    """{name: [(path, line)]} of each identifier that code under src/ or
    bench/ refers to: as a name, an attribute, an import, or a string that
    is a dotted identifier (the benchmark names the functions it times)."""
    uses: dict[str, list] = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and all(p.isidentifier() for p in node.value.split(".")):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def test_every_public_name_has_a_caller_outside_tests():
    uses = _uses()
    uncalled = {qual for qual, name, path, first, last in _definitions()
                if not any(p != path or not first <= line <= last
                           for p, line in uses.get(name, ()))}
    assert uncalled == _UNCALLED_ON_PURPOSE


# tier-1 imports the package from src/, so a data file that no glob names, or
# a script entry that names no function, would fail only once installed
def test_every_data_file_is_packaged():
    package = ROOT / "src" / "treatise"
    globs = _pyproject()["tool"]["setuptools"]["package-data"]["treatise"]
    packaged = {path for glob in globs for path in package.glob(glob)}
    data = {path for path in package.rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")}
    assert data <= packaged


def test_the_treatise_script_is_cli_main():
    module, _, name = _pyproject()["project"]["scripts"]["treatise"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
