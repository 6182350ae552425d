"""Spans around the package's layer boundaries, recorded from outside it.

Each entry of ``WRAPS`` replaces one function in the module namespace where
the package looks it up, so calls made inside the package are traced as
well as calls from the command line.  Spans stay in memory and are written
when the pass ends.  A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

# (module, attribute, layer)
WRAPS = (
    ("tsvarlab.cli", "main", "cli.main"),
    ("tsvarlab.cli", "load_problem_file", "problemfile.load"),
    ("tsvarlab.cli", "build_problem", "problemfile.build"),
    ("tsvarlab.cli", "build_grid", "problemfile.build"),
    ("tsvarlab.cli", "build_generator", "problemfile.build"),
    ("tsvarlab.cli", "solver_options", "problemfile.build"),
    ("tsvarlab.problemfile", "make_timescale", "timescale.build"),
    ("tsvarlab.noether", "TimeScaleGrid", "timescale.build"),
    ("tsvarlab.expr", "parse", "expr.parse"),
    ("tsvarlab.expr", "evaluate", "expr.eval"),
    ("tsvarlab.expr", "diff_eval", "expr.eval"),
    ("tsvarlab.cli", "solve_el", "variational.solve_el"),
    ("tsvarlab.variational", "stationarity_gradient", "variational.stationarity_gradient"),
    ("tsvarlab.variational", "action", "variational.action"),
    ("tsvarlab.cli", "el_residual", "variational.el_residual"),
    ("tsvarlab.cli", "check_invariance_fixed_time", "noether.check_invariance"),
    ("tsvarlab.cli", "check_invariance_time_transform", "noether.check_invariance"),
    ("tsvarlab.noether", "validate_family", "noether.validate_family"),
    ("tsvarlab.cli", "noether_quantity", "noether.noether_quantity"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPS))


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, layer in WRAPS:
            try:
                namespace = importlib.import_module(module)
            except ImportError:
                namespace = None
            fn = getattr(namespace, attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(namespace, attr, self._wrap(fn, layer))

    def _wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # keeps inspect.signature of the original
        return traced

    def summary(self) -> tuple[dict, float]:
        """Per-layer totals, and the time covered by top-level spans.

        A layer's total and call count take only its outermost spans; its
        self time is each span's duration minus that of its direct children.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        layers = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYERS}
        covered = 0.0
        for i, (layer, start, end, parent) in enumerate(spans):
            entry = layers[layer]
            entry["self_s"] += end - start - children[i]
            if parent < 0:
                covered += end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
                entry["calls"] += 1
        return layers, covered

    def write(self, path: Path) -> None:
        """Writes every span as [pass id, layer, start, end, parent index]."""
        records = [[self.pass_id, *span] for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["pass_id", "layer", "start", "end", "parent"],
                       "absent": self.absent, "spans": records}, fh)
