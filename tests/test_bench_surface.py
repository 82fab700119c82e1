"""Every function the benchmark's traced run wraps must exist in cfmseg.

perfbench/tracer.py lists the (module, function) pairs it wraps. A renamed
or deleted function would otherwise show only in the slow traced run, as
"traced functions never called". The tracer source is executed from its
text so that no bytecode cache is written next to it.
"""

import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    module = types.ModuleType("perfbench_tracer")
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module.TARGETS


def test_every_traced_target_is_a_cfmseg_function():
    targets = _tracer_targets()
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, name, *_ in targets
        if not inspect.isfunction(
            getattr(importlib.import_module(f"cfmseg.{mod}"), name, None)
        )
    ]
    assert missing == []
