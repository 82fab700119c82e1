"""Span recorder that wraps cfmseg's public functions from outside the package.

cfmseg modules import one another's functions by name (``from .core import
mask_iou``), so one function is reachable through several module attributes.
`Tracer.install` replaces every attribute of every loaded cfmseg module that
holds a traced function, so no lookup site escapes its wrapper, and
`Tracer.uninstall` puts the originals back.

Each call records a span (name, parent span, start, end) in memory. A span's
self time is its duration minus the durations of its traced children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _shorter_side(net, image, *rest, **kw):
    return f"s{min(image.height, image.width)}"


def _cli_command(argv=None, *rest, **kw):
    args = list(argv or ())
    if args[:1] == ["--threads"]:
        args = args[2:]
    return args[0] if args else "none"


def _count_queue(result, scored, *rest, **kw):
    return {"pipeline.paste.queue": sum(1 for r in scored if r.score > 0)}


def _count_features(result, proposals, *rest, **kw):
    return {"pipeline.proposal_features.proposals": len(proposals)}


def _count_forward(result, *args, tracer=None, **kw):
    if tracer.inside("pipeline.proposal_features"):
        return {"pipeline.proposal_features.forwards": 1}
    return {}


def _count_candidates(result, *rest, **kw):
    return {"pursuit.candidates": len(result)}


def _count_picks(result, *rest, **kw):
    return {"pursuit.picks": len(result[0])}


def _count_samples(result, positives, negatives, *rest, **kw):
    return {"classify.train_svm.samples": len(positives) + len(negatives)}


# (module, function, span-name tag, item counter). A tag splits the span into
# "<module>.<function>.<tag>" aggregates next to the plain one.
TARGETS = (
    ("toynet", "forward", _shorter_side, _count_forward),
    ("toynet", "forward_region", None, None),
    ("toynet", "init_toynet", None, None),
    ("pipeline", "scale_image", None, None),
    ("pipeline", "scale_proposal", None, None),
    ("pipeline", "proposal_features", None, _count_features),
    ("pipeline", "score_proposals", None, None),
    ("pipeline", "paste", None, _count_queue),
    ("pipeline", "collect_training_pools", None, None),
    ("pipeline", "mean_iou", None, None),
    ("pipeline", "benchmark", None, None),
    ("masking", "project_mask", None, None),
    ("pooling", "spp_pool", None, None),
    ("pooling", "downsample_mask_to_grid", None, None),
    ("pooling", "design_b_features", None, None),
    ("core", "mask_iou", None, None),
    ("core", "proposal_from_mask", None, None),
    ("core", "resize_nearest", None, None),
    ("pursuit", "stuff_samples", None, _count_picks),
    ("pursuit", "purity", None, None),
    ("pursuit", "label_object_samples", None, None),
    ("pursuit", "candidate_set", None, _count_candidates),
    ("classify", "train_svm", None, _count_samples),
    ("classify", "score", None, None),
    ("classify", "load_model", None, None),
    ("classify", "save_model", None, None),
    ("formats", "load_proposal_index", None, None),
    ("formats", "load_mask", None, None),
    ("formats", "load_feature_map", None, None),
    ("formats", "load_label_map", None, None),
    ("formats", "save_label_map", None, None),
    ("netgeom", "feature_extent", None, None),
    ("cli", "main", _cli_command, None),
)


class Tracer:
    """Wraps the `TARGETS` functions; records spans while installed and active."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, parent, start, end
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[list] = []  # [span index, name, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cfmseg" or n.startswith("cfmseg.")]
        for mod_name, fn_name, tag, count in TARGETS:
            original = getattr(importlib.import_module(f"cfmseg.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, tag, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # -- recording ------------------------------------------------------
    def _wrap(self, name, fn, tag, count):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            names = (name, f"{name}.{tag(*args, **kwargs)}") if tag else (name,)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, parent, 0, 0))
            frame = [index, name, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - start
                self.spans[index] = (names[-1], parent, start, end)
                if self._stack:
                    self._stack[-1][2] += duration
                for key in names:
                    self.calls[key] += 1
                    self.total_ns[key] += duration
                    self.self_ns[key] += duration - frame[2]
            if count is not None:
                for key, n in count(result, *args, tracer=self, **kwargs).items():
                    self.items[key] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """Dump every span as JSON: names once, then [name, parent, start, end] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], parent, start, end] for n, parent, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
