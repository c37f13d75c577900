"""What the package loads at start-up, whether pyproject declares what it imports,
whether the benchmark's timing shims still bind, whether the README's code runs,
whether every definition is reached from package API, and whether every optional
parameter is set."""
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


def test_readme_python_blocks_run_against_src():
    # the README's library tour runs as written, so an API change cannot leave it stale
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for block in blocks:
        out = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr


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


def _names(node: ast.AST, imported: frozenset[str]) -> set[str]:
    # an attribute read off a name bound by a plain import (np.flatnonzero,
    # math.exp) is the library's, not a use of a src/ definition of that name
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, ast.Name)
            or isinstance(n, ast.Attribute)
            and not (isinstance(n.value, ast.Name) and n.value.id in imported)}


def _plain_imports(tree: ast.Module) -> frozenset[str]:
    """The names a module binds by ``import x`` or ``import x as y``."""
    return frozenset(alias.asname or alias.name.partition(".")[0]
                     for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names)


def _src_modules() -> dict[str, ast.Module]:
    # oracles.py is reference code for the tests: its functions need no caller
    # and its calls count for none
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "xorland").glob("*.py")) if path.stem != "oracles"}


def _console_script_target() -> str:
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    (target,) = scripts.values()
    return target.rpartition(":")[2]


def test_every_public_function_has_a_caller_in_src():
    # Every function, class and method defined in a src/ module is reachable from
    # package API: from xorland.__all__, the console-script target and the modules'
    # top-level statements, following the names each reached body uses.  A method of
    # an xorland.__all__ class is reached like any other definition, by a use of its
    # name, so API that only tests call fails here.  A name in a docstring is no use,
    # and a pair of functions that only call each other is reached by neither.
    import xorland

    modules = _src_modules()
    defs: dict[str, list[tuple[ast.AST, frozenset[str]]]] = {}
    roots = set(xorland.__all__) | {_console_script_target()}
    for tree in modules.values():
        imported = _plain_imports(tree)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                roots |= _names(stmt, imported)
                continue
            defs.setdefault(stmt.name, []).append((stmt, imported))
            for member in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef):
                    defs.setdefault(member.name, []).append((member, imported))
                    if member.name.startswith("__"):
                        roots.add(member.name)  # called by the language
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node, imported in defs.get(name, ()):
            # a reached class uses its bases, decorators and fields; its methods are
            # reached by name like functions
            parts = ([s for s in node.body if not isinstance(s, ast.FunctionDef)]
                     + node.bases + node.decorator_list
                     if isinstance(node, ast.ClassDef) else [node])
            todo.extend(set().union(*(_names(part, imported) for part in parts)) - reached)
    unreached = sorted(name for name in defs if name not in reached)
    assert not unreached, f"definitions that nothing reaches from package API: {unreached}"


def test_every_optional_parameter_is_set_by_a_caller_in_src():
    # Each parameter with a default of a public module-level function, or of a public
    # method or ``__init__`` of a class, is set by some call elsewhere in a src/
    # module, by keyword or by position; so is each field with a default of a
    # dataclass or NamedTuple.  Package API in xorland.__all__ is held to the same
    # rule: a default that no caller sets is a knob.  Only the console-script target
    # keeps its parameters for users.
    modules = _src_modules()
    exempt = {_console_script_target()}
    calls = [node for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call: ast.Call) -> str | None:
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    def sets(call: ast.Call, position: int | None, name: str) -> bool:
        # position is None for a keyword-only parameter; a *args or **kwargs may set any
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or position is not None and len(call.args) > position
                or any(kw.arg in (name, None) for kw in call.keywords))

    def uses(nodes: list[ast.AST], name: str) -> bool:
        return any(name in _names(node, frozenset()) for node in nodes)

    def optional(fn: ast.FunctionDef, skip: int) -> list[tuple[int | None, str]]:
        # skip: the leading parameters a call does not pass, self or cls
        positional = fn.args.posonlyargs + fn.args.args
        return ([(i - skip, a.arg) for i, a in enumerate(positional)
                 if i >= len(positional) - len(fn.args.defaults)]
                + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None])

    # (label, the name a call uses, the definition whose own calls do not count, if any,
    # and its optional parameters)
    targets = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_") and stmt.name not in exempt:
                targets.append((f"{module}.{stmt.name}", stmt.name, stmt, optional(stmt, 0)))
            if not isinstance(stmt, ast.ClassDef) or stmt.name in exempt:
                continue
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    static = uses(fn.decorator_list, "staticmethod")
                    targets.append((f"{module}.{stmt.name}.{fn.name}",
                                    stmt.name if fn.name == "__init__" else fn.name, fn,
                                    optional(fn, 0 if static else 1)))
            if uses(stmt.decorator_list, "dataclass") or uses(stmt.bases, "NamedTuple"):
                fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)]
                targets.append((f"{module}.{stmt.name}", stmt.name, None,
                                [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]))

    unset = []
    for label, name, definition, params in targets:
        own = set(ast.walk(definition)) if definition else set()
        own_calls = [call for call in calls if callee(call) == name and call not in own]
        unset += [f"{label}({param})" for position, param in params
                  if not any(sets(call, position, param) for call in own_calls)]
    assert not unset, f"optional parameters that no caller in src/ sets: {unset}"
