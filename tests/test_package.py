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


def _top_level_names(top) -> list:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds (module constants)."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else (
        [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def test_every_top_level_definition_has_a_caller():
    # code that only tests reach belongs in tests/: a top-level function, class
    # or module constant must be named in src/ outside its own definition, in
    # perfbench/ or in pyproject.toml; perfbench is read as text, so no bytecode
    # is written there
    package = Path(cfmseg.__file__).resolve().parent
    root = package.parent.parent
    outside = "\n".join(path.read_text(encoding="utf-8") for path in
                        [*sorted((root / "perfbench").glob("*.py")), root / "pyproject.toml"])
    defined, named = [], []  # defined: (module, statement, name); named likewise
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            defined += [(path.stem, top, name) for name in _top_level_names(top)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.append((path.stem, top, node.id))
                elif isinstance(node, ast.Attribute):
                    named.append((path.stem, top, node.attr))
                elif isinstance(node, ast.alias):
                    named.append((path.stem, top, node.name.rsplit(".", 1)[-1]))
    unused = [
        f"{module}.{name}" for module, top, name in defined
        if not any(used == name and where is not top for _, where, used in named)
        and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert unused == []


def test_no_module_imports_a_name_it_never_reads():
    # an import nothing reads is dead code; pipeline.mask_iou is the one
    # re-export, kept because the benchmark reads it from pipeline
    package = Path(cfmseg.__file__).resolve().parent
    kept = {("pipeline", "mask_iou")}
    unread = []
    for path in [*sorted(package.glob("*.py")), *sorted(Path(__file__).parent.glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (path.stem, name) not in kept:
                        unread.append(f"{path.parent.name}/{path.name}:{node.lineno}: {name}")
    assert unread == []
