"""No module of the package imports a name it never uses or defines a
public one that only tests name, and the package needs nothing outside the
standard library."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dirgeo"
MODULES = sorted(SRC.rglob("*.py"))
# where a program or the README may name a public definition; perfbench/out
# is run output, and tests do not count
READERS = [*MODULES, *ROOT.glob("tools/*.py"), *ROOT.glob("perfbench/*.py"),
           *ROOT.glob("perfbench/tests/*.py"), ROOT / "README.md"]


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


def _unnamed_definitions(path: Path) -> list[str]:
    """The public top-level defs and classes of path that no reader names
    outside the definition itself."""
    texts = {p: p.read_text(encoding="utf-8") for p in READERS}
    lines = texts[path].splitlines()
    unnamed = []
    for node in ast.parse(texts[path]).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            texts[path] = "\n".join(lines[: start - 1] + lines[node.end_lineno :])
            word = re.compile(rf"\b{node.name}\b")
            if not any(map(word.search, texts.values())):
                unnamed.append(node.name)
    return unnamed


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_public_definition_only_tests_name(path):
    assert _unnamed_definitions(path) == []


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
