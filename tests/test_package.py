"""What the package loads at start-up, whether pyproject declares what it imports,
whether the benchmark's timing shims still bind, and whether every public function
has a caller."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_entry_points_import_no_scipy():
    code = ("import sys, xorland, xorland.cli, xorland.acceptance, xorland.oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_benchmark_shims_bind_against_src():
    # perfbench/tracing.py reads every binding it patches at import, so a
    # binding missing from src/ fails here, not in a traced benchmark run
    code = ("import tracing; "
            "print(all(callable(getattr(owner, attr)) for owner, attr, _, _ in tracing._SHIMS))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (ROOT / "src" / "xorland").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"xorland"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == declared


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller_in_src():
    # A public function is reached from code outside its own body in a src/ module, or it
    # is package API in xorland.__all__.  oracles.py is reference code for the tests:
    # its functions need no caller and its calls count for none.  A name in a docstring
    # is no reference.
    import xorland

    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "xorland").glob("*.py")) if path.stem != "oracles"}
    uses = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    uncalled = [f"{module}.{fn.name}" for module, tree in modules.items() for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                and fn.name not in xorland.__all__
                and not any(fn.name in names for stmt, names in uses if stmt is not fn)]
    assert not uncalled, f"public functions that nothing in src/ calls: {uncalled}"
