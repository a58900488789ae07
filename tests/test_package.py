"""The shipped package depends on the standard library, numpy and click only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"numpy", "click", "funclag"}
MODULES = sorted((SRC / "funclag").rglob("*.py"))


def imported_roots(path: Path):
    """Top-level names of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_stay_inside_the_runtime_dependencies(path):
    foreign = {
        name for name in imported_roots(path)
        if name not in ALLOWED and name not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.relative_to(SRC)} imports {sorted(foreign)}"


def test_import_loads_no_test_dependency():
    code = (
        "import sys, funclag, funclag.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
