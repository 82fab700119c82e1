import ast
import os
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
