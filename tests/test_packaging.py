"""The dependencies declared in pyproject.toml cover the code's imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _project():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def _names(requirements) -> set[str]:
    """Import names of requirement strings such as "numpy>=2.0"."""
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
            .replace("-", "_") for req in requirements}


def _local(dirs) -> set[str]:
    """Modules and packages that live in the repo, importable by name."""
    names = {d.name for d in dirs}
    for d in dirs:
        names |= {p.stem for p in d.glob("*.py")}
        names |= {p.parent.name for p in d.glob("*/__init__.py")}
    return names


def _third_party(*dirs: Path) -> dict[str, Path]:
    """Top-level third-party imports under dirs, each with one importer."""
    local = _local([ROOT / "src", ROOT / "tests", ROOT / "benchmarks"])
    found = {}
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    mods = [node.module]
                else:
                    continue
                for mod in mods:
                    top = mod.split(".")[0]
                    if (top not in sys.stdlib_module_names
                            and top not in local and top != "__future__"):
                        found.setdefault(top, path)
    return found


def test_package_imports_are_declared():
    declared = _names(_project()["dependencies"])
    missing = {m: str(p) for m, p in _third_party(ROOT / "src").items()
               if m not in declared}
    assert not missing


def test_test_and_benchmark_imports_are_declared():
    project = _project()
    declared = _names(project["dependencies"])
    declared |= _names(project["optional-dependencies"]["test"])
    imports = _third_party(ROOT / "tests", ROOT / "benchmarks")
    missing = {m: str(p) for m, p in imports.items() if m not in declared}
    assert not missing
    # the scan sees the imports it is meant to check
    assert {"numpy", "pytest", "hypothesis", "scipy"} <= set(imports)
