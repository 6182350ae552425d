"""Smoke check of the benchmark itself; it asserts no timings.

Usage (from the root of a tsvarlab checkout):

    python3 perfbench/smoke.py

Runs one pass of every workload at a tiny size and requires its checks to
pass, then corrupts one number of an output and requires the checks to fail.
Finally runs ``run.py`` for one second per mode on scenarios-small and
requires the printed metrics to match BENCHMARK.json, with exact counts equal
across two traced runs.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from run import HERE, ROOT, Runner, check_pass
from workloads import WORKLOADS

TINY = {
    "solve-1d-long": {"n_cells": 40},
    "solve-chain-6d": {"n_cells": 20},
    "check-dilation-nonuniform": {"n_cells": 40},
    "scenarios-small": {},
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def _corrupt(path) -> None:
    """Moves the first value column of the middle data row by 1e-3."""
    lines = path.read_text(encoding="utf-8").splitlines()
    row = len(lines) // 2
    cells = lines[row].split(",")
    x = float(cells[1])
    cells[1] = repr(x + 1e-3 * (1.0 + abs(x)))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_verification() -> None:
    for name, size in TINY.items():
        work = ROOT / ".perfbench_work" / "smoke" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        plan = WORKLOADS[name](work, 1, **size)
        runner = Runner(work, time.monotonic() + 60.0)
        result, stderr = runner.spawn({"commands": plan.commands, "pass_id": 0, "spans": None})
        errors, digests = check_pass(plan, result, stderr, None)
        _require(not errors, f"{name}: clean pass reported {errors}")
        _corrupt(plan.outputs[0])
        _require(plan.check(), f"{name}: corrupted {plan.outputs[0].name} passed the check")
        errors, _ = check_pass(plan, result, stderr, digests)
        _require(any("differ" in e for e in errors), f"{name}: changed CSV bytes went unnoticed")
        print(f"{name}: checks pass on clean output and fail on corrupted output")


def _run_metrics(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scenarios-small",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    _require(proc.returncode == 0, f"run.py --trace {trace} exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    _require(set(out) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(out)}")
    _require(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1,
             f"result {out}")
    return out["metrics"]


def check_schema() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _run_metrics(trace)
        expected = {m["name"]: m["unit"] for m in spec[key]}
        _require(list(metrics) == list(expected), f"{key} names {list(metrics)}")
        for name, entry in metrics.items():
            _require(set(entry) == {"value", "unit"} and entry["unit"] == expected[name],
                     f"metric {name}: {entry}")
            _require(isinstance(entry["value"], (int, float)), f"metric {name} is not a number")
        if trace:
            again = _run_metrics(1)
            for name, unit in expected.items():
                if unit == "count":
                    _require(metrics[name] == again[name], f"count {name} differs between runs")
        print(f"run.py --trace {trace}: prints the {key} metrics of BENCHMARK.json")


if __name__ == "__main__":
    check_verification()
    check_schema()
    print("smoke check passed")
