"""No module of the package imports a name it never uses, and the package
needs nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dirgeo"
MODULES = sorted(SRC.rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names a package re-exports through __all__
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert {"kernel.py", "search.py", "syntax.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _top_level_modules_after_importing_cli() -> set[str]:
    code = "import sys, dirgeo.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return {name.split(".")[0] for name in out.stdout.split()}


def test_cli_imports_no_numpy():
    assert "numpy" not in _top_level_modules_after_importing_cli()


def test_cli_imports_no_process_pool():
    assert not {"multiprocessing", "concurrent"} & _top_level_modules_after_importing_cli()
