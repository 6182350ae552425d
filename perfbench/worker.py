"""One benchmark process: times the import of tsvarlab.cli and, for a pass,
runs the pass's commands through ``tsvarlab.cli.main`` once.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``result`` (path of the JSON this process writes) and, for a pass,
``commands``, ``pass_id`` and ``spans`` (path for the span file, or null for
an untraced pass).  The parent starts one worker at a time.
"""

from __future__ import annotations

import gc
import inspect
import json
import resource
import sys
import time
import traceback


def _record_solves(cli, solves: list) -> None:
    """Keeps the Newton result of every solve, for the margin check."""
    solve_el = getattr(cli, "solve_el", None)
    if solve_el is None:
        return
    tol = inspect.signature(solve_el).parameters.get("tol")
    default_tol = None if tol is None else tol.default

    def recording(*args, **kwargs):
        result = solve_el(*args, **kwargs)
        solves.append({
            "iterations": result.iterations,
            "gradient_norm": float(result.gradient_norm),
            "action": float(result.action_value),
            "tol": kwargs.get("tol", default_tol),
        })
        return result

    cli.solve_el = recording


class _Pair:
    """A value with a tangent, as in forward-mode differentiation."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.a + other.a, self.b + other.b)
        return _Pair(self.a + other, self.b)

    def __mul__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Pair(self.a * other, self.b * other)


_TREE = ("+", ("*", "x", "y"), ("*", ("+", "x", 1.5), ("+", "y", ("*", "x", "x"))))


def _walk(node, env):
    if isinstance(node, str):
        return env[node]
    if isinstance(node, float):
        return node
    op, left, right = node
    a, b = _walk(left, env), _walk(right, env)
    return a + b if op == "+" else a * b


def gauge_s() -> float:
    """Wall time of fixed work that uses no tsvarlab code.

    It mixes what a pass does: a recursive walk of a small expression tree
    over floats and over value-tangent pairs, numpy calls on tiny arrays,
    and building and scanning a 2000-point tuple.  On a shared host the
    speed of one CPU drifts by up to 2x over minutes; pass time divided by
    this gauge, taken in the same process, cancels the drift.
    """
    import numpy as np

    collecting = gc.isenabled()
    gc.disable()  # the package's live objects must not slow the gauge
    try:
        start = time.perf_counter()
        x = 0.0
        for i in range(4_000):
            x += _walk(_TREE, {"x": 0.5, "y": float(i)})
            x += _walk(_TREE, {"x": _Pair(0.5, 1.0), "y": _Pair(float(i), 0.0)}).b
            x += sum(tuple(float(t) for t in range(i % 16)))
        a = np.eye(2) * 2.0
        for i in range(600):
            x += np.linalg.solve(a, np.array([1.0, float(i)]))[0]
        points = [1.0 + 0.001 * i for i in range(2_000)]
        for _ in range(6):
            grid = tuple(float(t) for t in points)
            x += all(right > left for left, right in zip(grid, grid[1:]))
            x += float(np.array(grid).sum())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def run_pass(cli, spec: dict, out: dict) -> None:
    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer(spec["pass_id"])
        tracer.install()
    solves: list = []
    _record_solves(cli, solves)
    codes, errors = [], []
    gauge_before = gauge_s()
    start = time.perf_counter()
    for argv in spec["commands"]:
        try:
            codes.append(cli.main(argv))
        except Exception:  # a crashing command is a failed pass, not a crashed run
            codes.append(None)
            errors.append(traceback.format_exc(limit=3))
    out["pass_s"] = time.perf_counter() - start
    out["gauge_s"] = (gauge_before + gauge_s()) / 2
    out.update(codes=codes, errors=errors, solves=solves)
    if tracer is not None:
        layers, covered = tracer.summary()
        out["layers"] = layers
        out["unattributed_s"] = out["pass_s"] - covered
        out["absent"] = tracer.absent
        tracer.write(spec["spans"])


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    from tsvarlab import cli

    out = {"import_s": time.perf_counter() - start, "cli_file": cli.__file__,
           "numpy": getattr(sys.modules.get("numpy"), "__version__", "not imported")}
    if "commands" in spec:
        run_pass(cli, spec, out)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
