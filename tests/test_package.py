"""The shipped package depends on the standard library, numpy and click only,
each weight kind is the one home of its own semantics, and each inner solver
the one home of its bound's gradient."""

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


WEIGHT_KINDS = {"Deterministic", "DiagonalGaussian", "Dropout"}


def isinstance_kind_tests(path: Path):
    """Weight-kind names that an ``isinstance`` call in one module tests against."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            for name in ast.walk(node.args[1]):
                if isinstance(name, ast.Name) and name.id in WEIGHT_KINDS:
                    yield name.id
                elif isinstance(name, ast.Attribute) and name.attr in WEIGHT_KINDS:
                    yield name.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_dispatches_on_a_weight_kind(path):
    # moments, support, draws and JSON are methods of the kinds themselves
    found = sorted(set(isinstance_kind_tests(path)))
    assert not found, f"{path.relative_to(SRC)} calls isinstance on {found}"


def test_kind_guard_sees_a_dispatch(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(d):\n    return isinstance(d, (model.Dropout, int))\n")
    assert list(isinstance_kind_tests(probe)) == ["Dropout"]


INNER = SRC / "funclag" / "inner"


def attribute_reads(path: Path, attr: str):
    """Line numbers where one module reads ``<expr>.<attr>``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            yield node.lineno


def inner_calls(path: Path) -> set[str]:
    """Names ``<name>`` of the ``inner.<name>(...)`` calls in one module."""
    return {
        node.func.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "inner"
    }


@pytest.mark.parametrize(
    "path", [p for p in MODULES if INNER not in p.parents], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_the_solvers_read_their_internal_duals(path):
    # a solver's gradient travels in InnerResult.grads, not through its duals
    lines = list(attribute_reads(path, "internal_duals"))
    assert not lines, f"{path.relative_to(SRC)} reads .internal_duals on lines {lines}"


def test_inner_exports_exactly_the_solvers_dual_calls():
    import funclag.inner

    exported = set(funclag.inner.__all__) - {"InnerResult"}
    assert exported == inner_calls(SRC / "funclag" / "dual.py")


def test_solver_guards_see_a_violation(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(res, lam):\n"
        "    zeta = res.internal_duals['zeta']\n"
        "    return inner.inner_linear(lam, zeta), inner.InnerResult\n"
    )
    assert list(attribute_reads(probe, "internal_duals")) == [2]
    assert inner_calls(probe) == {"inner_linear"}


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
