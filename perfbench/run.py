"""Benchmark of the tsvarlab command line on seeded problem files.

Usage (from the root of a tsvarlab checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is one fresh Python process that imports ``tsvarlab.cli`` and runs the
workload's commands once through ``tsvarlab.cli.main``.  Passes run one after
another, never concurrently, for S seconds; every pass is checked against
the closed-form facts in ``workloads.py``.  Pass times are reported in units
of a CPU-speed gauge measured in the same process (see ``worker.gauge_s``).
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every second pass is traced (see
``tracer.py``) and the line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NEWTON_MARGIN, WORKLOADS, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # no pass starts, and none may run, past this point
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
TAIL_LOWEST = 75.0  # but the tail percentile is never below this one
# setup_s is the import time rescaled to a CPU on which one gauge takes this long
SETUP_GAUGE_S = 0.05


def _worker_env(work: Path) -> dict:
    env = dict(os.environ)
    # bytecode is read and written only under the work directory, which each
    # run empties: the untimed first import compiles numpy and the package,
    # and every timed import loads that bytecode, whatever __pycache__
    # directories the checkout or the installed packages hold
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _worker_env(work)

    def spawn(self, spec: dict) -> tuple[dict | None, str]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "run time limit reached"
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        result_path.unlink(missing_ok=True)
        spec_path.write_text(json.dumps({**spec, "result": str(result_path)}), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() kills the worker and waits for it
            return None, f"worker timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"worker exited with {proc.returncode}: {proc.stderr[-800:]}"
        return json.loads(result_path.read_text(encoding="utf-8")), proc.stderr


def _digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "" for p in paths]


def _newton_errors(solves: list[dict]) -> list[str]:
    errors = []
    for s in solves:
        if s["tol"] is None:
            continue
        limit = s["tol"] * (1.0 + abs(s["action"])) / NEWTON_MARGIN
        if not s["gradient_norm"] <= limit:
            errors.append(f"Newton final gradient {s['gradient_norm']:.3e} is not "
                          f"{NEWTON_MARGIN:g}x below the threshold")
    return errors


def check_pass(plan: Plan, result: dict | None, stderr: str, reference: list[str] | None):
    """Errors of one pass, and the digests of its CSV outputs."""
    if result is None:
        return [stderr], None
    errors = list(result["errors"])
    if any(code != 0 for code in result["codes"]):
        errors.append(f"exit codes {result['codes']}: {stderr[-800:]}")
    try:
        errors += plan.check()
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed CSV
        errors.append(f"outputs unreadable: {exc!r}")
    errors += _newton_errors(result["solves"])
    digests = _digest(plan.outputs)
    if reference is not None and digests != reference:
        errors.append("CSV bytes differ from the first pass of the run")
    return errors, digests


def _tail(samples: list[float]) -> tuple[float, float]:
    """Tail percentile of the samples, and its value.

    It is the highest percentile with TAIL_BEYOND samples above it, but not
    below TAIL_LOWEST: with fewer than 41 samples it is p75, interpolated
    between neighbouring samples, and fewer than TAIL_BEYOND lie above it.
    """
    ordered = sorted(samples)
    last = len(ordered) - 1
    pos = max(last - TAIL_BEYOND, last * TAIL_LOWEST / 100.0)
    i = int(pos)
    value = ordered[i] + (pos - i) * (ordered[min(i + 1, last)] - ordered[i])
    return (100.0 * pos / last if last else 100.0), value


def _rel(a: float, b: float) -> float:
    return a / b if b else 0.0


# per-layer metric: (name, unit, value from one traced pass's result and cell count)
PER_LAYER = (
    ("expr.eval.total_s", "s", lambda L, r, c: L["expr.eval"]["total_s"]),
    ("expr.eval.calls", "count", lambda L, r, c: L["expr.eval"]["calls"]),
    ("expr.eval.calls_per_cell", "calls/cell", lambda L, r, c: L["expr.eval"]["calls"] / c),
    ("variational.solve_el.total_s", "s", lambda L, r, c: L["variational.solve_el"]["total_s"]),
    ("variational.solve_el.self_s", "s", lambda L, r, c: L["variational.solve_el"]["self_s"]),
    ("variational.solve_el.calls", "count", lambda L, r, c: L["variational.solve_el"]["calls"]),
    ("variational.stationarity_gradient.total_s", "s",
     lambda L, r, c: L["variational.stationarity_gradient"]["total_s"]),
    ("variational.stationarity_gradient.calls", "count",
     lambda L, r, c: L["variational.stationarity_gradient"]["calls"]),
    ("variational.action.total_s", "s", lambda L, r, c: L["variational.action"]["total_s"]),
    ("variational.action.calls", "count", lambda L, r, c: L["variational.action"]["calls"]),
    ("variational.el_residual.total_s", "s",
     lambda L, r, c: L["variational.el_residual"]["total_s"]),
    ("variational.newton_iters", "count",
     lambda L, r, c: sum(s["iterations"] for s in r["solves"])),
    # Newton steps per line-search trial gradient (gradient calls beyond the
    # first one of each solve)
    ("variational.linesearch_accept_ratio", "ratio",
     lambda L, r, c: _rel(sum(s["iterations"] for s in r["solves"]),
                          L["variational.stationarity_gradient"]["calls"]
                          - L["variational.solve_el"]["calls"])),
    ("noether.check_invariance.total_s", "s",
     lambda L, r, c: L["noether.check_invariance"]["total_s"]),
    ("noether.check_invariance.self_s", "s",
     lambda L, r, c: L["noether.check_invariance"]["self_s"]),
    ("noether.validate_family.total_s", "s",
     lambda L, r, c: L["noether.validate_family"]["total_s"]),
    ("noether.noether_quantity.total_s", "s",
     lambda L, r, c: L["noether.noether_quantity"]["total_s"]),
    ("problemfile.load.total_s", "s", lambda L, r, c: L["problemfile.load"]["total_s"]),
    ("problemfile.build.total_s", "s", lambda L, r, c: L["problemfile.build"]["total_s"]),
    ("expr.parse.total_s", "s", lambda L, r, c: L["expr.parse"]["total_s"]),
    ("expr.parse.calls", "count", lambda L, r, c: L["expr.parse"]["calls"]),
    ("timescale.build.total_s", "s", lambda L, r, c: L["timescale.build"]["total_s"]),
    ("timescale.build.calls", "count", lambda L, r, c: L["timescale.build"]["calls"]),
    ("cli.main.self_s", "s", lambda L, r, c: L["cli.main"]["self_s"]),
    ("trace.unattributed_s", "s", lambda L, r, c: r["unattributed_s"]),
)


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[name](work, seed)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)

    # the first import compiles the bytecode and fills the file cache; it is
    # not timed
    warm, message = runner.spawn({})
    if warm is None:
        print(f"error: tsvarlab.cli does not import: {message}", file=sys.stderr)
        return 1
    if not Path(warm["cli_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: tsvarlab.cli was imported from {warm['cli_file']}", file=sys.stderr)
        return 1
    numpy_version = warm["numpy"]

    passes = []  # (traced, result or None)
    failures = []
    reference = None
    stop = time.monotonic() + seconds
    while len(passes) < (2 if trace else 1) or time.monotonic() < stop:
        traced = trace and len(passes) % 2 == 1
        for path in plan.outputs:
            path.unlink(missing_ok=True)
        # each traced pass replaces the span file, which keeps the last one
        spans = str(work / "spans.json") if traced else None
        result, stderr = runner.spawn({"commands": plan.commands, "pass_id": len(passes),
                                       "spans": spans})
        errors, digests = check_pass(plan, result, stderr, reference)
        if reference is None and digests is not None:
            reference = digests
        if errors:
            failures.append(errors)
            result = None  # a failed pass gives no timing sample
        passes.append((traced, result))
        if time.monotonic() >= runner.deadline:
            break

    done = [(traced, r) for traced, r in passes if r is not None]
    plain = [r["pass_s"] for traced, r in done if not traced]
    if not plain or (trace and len(done) == len(plain)):
        for errors in failures[:3]:
            print("failed pass: " + "; ".join(errors), file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    attempted, failed = len(passes), len(failures)

    print(f"workload={name} seed={seed} trace={int(trace)} python={sys.version.split()[0]} "
          f"numpy={numpy_version} nproc={os.cpu_count()} "
          f"loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} passes failed; "
          f"{plan.cells} cells per pass)")
    for errors in failures[:3]:
        print("failed pass: " + "; ".join(errors))
    metrics = {}
    if not trace:
        ref = [r["pass_s"] / r["gauge_s"] for _, r in done]
        pct, tail = _tail(ref)
        setup = [r["import_s"] / r["gauge_s"] * SETUP_GAUGE_S for _, r in done]
        metrics = {
            "setup_s": (statistics.median(setup), "s",
                        f"median import of tsvarlab.cli over {len(setup)} pass processes, "
                        f"scaled to a {SETUP_GAUGE_S:g} s gauge"),
            "pass_ref_p50": (statistics.median(ref), "ref", f"median of {len(ref)} passes"),
            "pass_ref_tail": (tail, "ref", f"p{pct:.0f} of {len(ref)} passes"),
            "cells_per_ref": (plan.cells * len(ref) / sum(ref), "cells/ref",
                              f"{plan.cells} cells per pass over total pass time"),
            "peak_rss_mb": (max(r["maxrss_kb"] for _, r in done) / 1024.0, "MB",
                            "largest ru_maxrss of the pass processes"),
        }
        pct, tail = _tail(plain)
        print(f"wall time: pass_s_p50 = {statistics.median(plain):.6g} s, pass_s_tail = "
              f"{tail:.6g} s (p{pct:.0f}), cells_per_s = {plan.cells * len(plain) / sum(plain):.6g}"
              f" 1/s; 1 ref = {statistics.median(r['gauge_s'] for _, r in done):.6g} s (median);"
              f" import = {statistics.median(r['import_s'] for _, r in done):.6g} s (median)")
    else:
        traced_results = [r for traced, r in done if traced]
        absent = sorted({a for r in traced_results for a in r["absent"]})
        if absent:
            print("absent wrapped names: " + ", ".join(absent))
        for metric, unit, value in PER_LAYER:
            samples = [value(r["layers"], r, plan.cells) for r in traced_results]
            metrics[metric] = (statistics.median(samples), unit,
                               f"median of {len(samples)} traced passes")
        ref = {flag: statistics.median(r["pass_s"] / r["gauge_s"] for t, r in done if t == flag)
               for flag in (False, True)}
        metrics["trace.overhead_ratio"] = (
            ref[True] / ref[False] - 1.0, "ratio",
            "traced over untraced median pass time in ref units, minus 1")
    for metric, (value, unit, note) in metrics.items():
        print(f"{metric} = {value:.6g} {unit} ({note})")
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "python": sys.version.split()[0], "numpy": numpy_version, "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "cells_per_pass": plan.cells,
        "attempted": attempted, "failed": failed, "failures": failures,
        "import_s": [r["import_s"] for _, r in done], "pass_s": [r["pass_s"] for _, r in done],
        "gauge_s": [r["gauge_s"] for _, r in done],
        "traced": [traced for traced, _ in done],
        "metrics": {m: {"value": v, "unit": u, "note": n} for m, (v, u, n) in metrics.items()},
    }
    (work / f"summary-trace{int(trace)}.json").write_text(json.dumps(record, indent=1),
                                                          encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tsvarlab" / "cli.py").is_file():
        print(f"error: {ROOT} is not a tsvarlab checkout (src/tsvarlab is missing)",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
