import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
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


def _definitions(top) -> list:
    """The (statement, name, qualified name) of each definition a top-level
    statement makes: a function, a class and each method or property in its
    body, or the plain names an assignment binds (module constants). Dunder
    methods are called by Python itself, so they are left out."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(top, top.name, top.name)]
    if isinstance(top, ast.ClassDef):
        return [(top, top.name, top.name)] + [
            (node, node.name, f"{top.name}.{node.name}") for node in top.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
    targets = top.targets if isinstance(top, ast.Assign) else (
        [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [(top, node.id, node.id) for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def test_every_definition_has_a_caller():
    # code that only tests reach belongs in tests/: a top-level function, class
    # or module constant, or a method or property of a class, must be named in
    # src/ outside its own definition, in perfbench/ or in pyproject.toml;
    # perfbench is read as text, so no bytecode is written there
    package = Path(cfmseg.__file__).resolve().parent
    root = package.parent.parent
    outside = "\n".join(path.read_text(encoding="utf-8") for path in
                        [*sorted((root / "perfbench").glob("*.py")), root / "pyproject.toml"])
    defined, named = [], defaultdict(list)  # named: name -> each node that names it
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            defined += [(path.stem, *d) for d in _definitions(top)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named[node.id].append(node)
                elif isinstance(node, ast.Attribute):
                    named[node.attr].append(node)
                elif isinstance(node, ast.alias):
                    named[node.name.rsplit(".", 1)[-1]].append(node)
    unused = []
    for module, statement, name, qualified in defined:
        inside = {id(node) for node in ast.walk(statement)}
        if all(id(node) in inside for node in named[name]) and (
                not re.search(rf"\b{re.escape(name)}\b", outside)):
            unused.append(f"{module}.{qualified}")
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


def test_classify_calls_no_blas_reduction():
    # model and score bytes must not depend on the BLAS kernel, so every dot
    # product in classify is an einsum, whose sum order numpy fixes; any
    # `linalg` call is flagged too (`np.linalg.norm` of a vector is a BLAS dot)
    path = Path(cfmseg.__file__).resolve().parent / "classify.py"
    blas = {"dot", "matmul", "inner", "vdot", "linalg"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute | ast.Name) and (
            node.attr if isinstance(node, ast.Attribute) else node.id
        ) in blas:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not found, found


def test_half_rule_written_once():
    # both mask votes, the projection's and design B's grid, keep a cell at
    # least half covered through masking.vote; a second copy of the rule can drift
    found = []
    for path in sorted(Path(cfmseg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, ast.GtE | ast.LtE) for op in node.ops
            ) and any(
                isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                and 2 in [v.value for v in (side.left, side.right) if isinstance(v, ast.Constant)]
                for side in (node.left, *node.comparators)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("masking.py:"), found
