"""scipy is loaded only when a numeric (tabulated) deformation is built.

The check runs in a fresh interpreter: in this process another test module
may already have imported scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import lagdeform

SRC = Path(lagdeform.__file__).resolve().parents[1]

_PROBE = r"""
import math
import sys
from dataclasses import replace

import lagdeform, lagdeform.cli
assert "scipy.interpolate" not in sys.modules, "loaded by import"

from lagdeform.corpus import CORPUS_NAMES, load_corpus_problem
from lagdeform.pipeline import emit_report, run_pipeline

docs = []
for name in CORPUS_NAMES:
    spec = load_corpus_problem(name)
    docs.append(run_pipeline(replace(spec, count=spec.count // 10), "report"))
assert "scipy.interpolate" not in sys.modules, "loaded by run_pipeline"
for doc in docs:
    emit_report(doc, "json")
assert "scipy.interpolate" not in sys.modules, "loaded by emit_report"

from lagdeform.deformation import synthesize_numeric

numeric = synthesize_numeric([(0.1 * i, math.sin(0.1 * i)) for i in range(12)])
assert "scipy.interpolate" in sys.modules, "numeric synthesis without scipy"
assert all(math.isfinite(v) for v in numeric.triple(0.55))
print("ok")
"""


def test_scipy_is_loaded_only_for_numeric_deformations():
    paths = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_no_module_level_scipy_import():
    # an indented import (inside a function or under TYPE_CHECKING) is fine
    module_level = re.compile(r"^(import scipy|from scipy[\s.])", re.MULTILINE)
    offenders = [
        path.name
        for path in sorted((SRC / "lagdeform").rglob("*.py"))
        if module_level.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def _unread_imports(path: Path) -> list:
    """The names ``path`` imports and never reads again."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    # the package __init__ imports to re-export, so it is exempt
    package = SRC / "lagdeform"
    files = [p for p in sorted(package.rglob("*.py")) if p != package / "__init__.py"]
    files += sorted(Path(__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("golden/*.py"))
    files += sorted(Path(__file__).parents[1].glob("demos/*.py"))
    assert [entry for path in files for entry in _unread_imports(path)] == []


def _callers(path: Path, names: tuple) -> list:
    """``module.function`` for each call in ``path`` of a builtin in
    ``names``, by the qualified name of the function that makes it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id in names:
                    found.append(".".join((path.stem,) + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_code_is_generated_only_for_rows_and_the_rk4_step():
    # column calls replay a kernel's records; only the row code and the
    # generated RK4 step are compiled from source
    files = sorted((SRC / "lagdeform").rglob("*.py"))
    callers = [caller for path in files for caller in _callers(path, ("exec", "eval"))]
    assert sorted(callers) == ["dynamics._step_code", "expressions._compile"]
