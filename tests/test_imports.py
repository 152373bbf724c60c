"""The package runs on numpy alone; scipy is a test-time cross-check only.
Every import in it is used, sits at module level and forms no cycle, and
every error class in it is raised."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib, pkgutil, sys
import expandercodes
for m in pkgutil.iter_modules(expandercodes.__path__):
    importlib.import_module("expandercodes." + m.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_package_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


# -- static dead-name checks --------------------------------------------------------

PACKAGE = ROOT / "src" / "expandercodes"


def parsed_modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue  # imports there are the public re-exports
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items()
                   if bound not in used]
    assert unused == []


def test_every_error_class_is_raised_or_subclassed():
    modules = parsed_modules()
    defined = [node.name for node in modules["errors.py"].body
               if isinstance(node, ast.ClassDef)]
    referenced = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    referenced.add(exc.id)
            elif isinstance(node, ast.ClassDef):
                referenced.update(base.id for base in node.bases
                                  if isinstance(base, ast.Name))
    assert [name for name in defined if name not in referenced] == []


def test_no_float_tolerance_decides_a_result():
    # A float literal in (0, 1e-3) is a tolerance.  The one allowed is
    # spectral.SYMMETRY_REL, a check on input matrices; results are decided
    # exactly.
    found = []
    for name, tree in parsed_modules().items():
        allowed = {id(node.value) for node in tree.body
                   if name == "spectral.py" and isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["SYMMETRY_REL"]}
        found += [f"{name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < node.value < 1e-3 and id(node) not in allowed]
    assert found == []


def test_polytope_builds_every_lp_in_one_place():
    # Every cone LP is the normalized section from polytope._section; a
    # second row layout would be a second lp( call site.
    tree = parsed_modules()["polytope.py"]
    sites = [(func.name, node.lineno)
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lp"]
    assert [name for name, _ in sites] == ["_section"], sites


def test_imports_sit_at_module_level():
    sites = [(name, func.name) for name, tree in parsed_modules().items()
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert sites == [], sites


def package_imports():
    """Each module's intra-package imports, from `from . import x` and
    `from .x import y` anywhere in it."""
    modules = {name[:-3]: tree for name, tree in parsed_modules().items()}
    graph = {}
    for name, tree in modules.items():
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module] if node.module
                               else [a.name for a in node.names if a.name in modules])
        graph[name] = targets
    return graph


def test_package_import_graph_has_no_cycle():
    graph = package_imports()
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(" -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
