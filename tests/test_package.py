import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import cfmseg


def test_import_loads_no_submodule():
    # the package re-exports nothing, so importing it loads only itself
    src = str(Path(cfmseg.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfmseg; print(sorted(m for m in sys.modules if m.startswith('cfmseg.')))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_label_bound_lives_in_core():
    # the uint16 label bound is core.MAX_LABEL; a copy of it elsewhere can drift
    found = []
    for path in sorted(Path(cfmseg.__file__).resolve().parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is int and (
                    node.value in (0xFFFF, 0x10000)):
                found.append(f"{path.name}:{node.lineno}: {node.value}")
    assert found == []


def test_every_top_level_definition_has_a_caller():
    # code that only tests reach belongs in tests/: a top-level function or class
    # must be named in src/ outside its own definition, in perfbench/ or in
    # pyproject.toml; perfbench is read as text, so no bytecode is written there
    package = Path(cfmseg.__file__).resolve().parent
    root = package.parent.parent
    outside = "\n".join(path.read_text(encoding="utf-8") for path in
                        [*sorted((root / "perfbench").glob("*.py")), root / "pyproject.toml"])
    defined, named = [], []  # named: (module, top-level statement, name)
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.append((path.stem, top, node.id))
                elif isinstance(node, ast.Attribute):
                    named.append((path.stem, top, node.attr))
                elif isinstance(node, ast.alias):
                    named.append((path.stem, top, node.name.rsplit(".", 1)[-1]))
    unused = [
        f"{module}.{top.name}" for module, top in defined
        if not any(name == top.name and where is not top for _, where, name in named)
        and not re.search(rf"\b{re.escape(top.name)}\b", outside)
    ]
    assert unused == []
