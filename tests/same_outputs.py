"""Compares the benchmark workloads' outputs of this checkout with another's.

Usage: python3 tests/same_outputs.py BASE_CHECKOUT

The plans of ``perfbench/workloads.py`` (this checkout's, only read) are
built at seeds 1, 2 and 7: 48 commands over the four workloads.  Each
checkout runs all of them through ``tsvarlab.cli.main`` in one Python
process of its own, with ``BASE_CHECKOUT/src`` or this checkout's ``src``
first on the path, in the same work directory, so that paths in messages
agree.  Exit codes, stdout, stderr and the bytes of every CSV a command
writes are compared; the script prints each difference and exits 1 if
there is one, else 0.  It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 7)

# One checkout's run: argv is SRC PERFBENCH WORK RESULT SEED...  Each command gives
# a record of its exit code (or the exception it raised), its stdout and
# stderr, and the bytes of every CSV of its plan as latin-1 text.
_CHILD = r"""
import contextlib, io, json, shutil, sys
from pathlib import Path
src, perfbench, work, result, *seeds = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import workloads
from tsvarlab import cli
records = []
for seed in map(int, seeds):
    for name, build in workloads.WORKLOADS.items():
        folder = Path(work) / f"{name}-{seed}"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        plan = build(folder, seed)
        for argv in plan.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = f"raised {type(exc).__name__}: {exc}"
            records.append({"command": [f"seed={seed}", name, *argv], "exit": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
        csvs = {p.name: p.read_bytes().decode("latin-1") for p in sorted(folder.glob("*.csv"))}
        records.append({"command": [f"seed={seed}", name, "CSV files"], "csv": csvs})
with open(result, "w", encoding="utf-8") as fh:
    json.dump(records, fh)
"""


def run_checkout(checkout: Path, work: Path, result: Path) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", _CHILD, str(checkout / "src"), str(ROOT / "perfbench"),
                    str(work), str(result), *map(str, SEEDS)], check=True, env=env)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "tsvarlab").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        base = run_checkout(Path(argv[0]).resolve(), work, Path(tmp) / "base.json")
        this = run_checkout(ROOT, work, Path(tmp) / "this.json")
    differences = 0
    for old, new in zip(base, this, strict=True):
        for key in ("exit", "stdout", "stderr", "csv"):
            if old.get(key) != new.get(key):
                differences += 1
                names = sorted(n for n in {**old[key], **new[key]}
                               if old[key].get(n) != new[key].get(n)) if key == "csv" else ""
                print(f"differs in {key}: {' '.join(new['command'])} {' '.join(names)}")
    commands = sum("csv" not in record for record in this)
    print(f"{commands} commands, {differences} differences in exit code, stdout, stderr "
          "or CSV bytes")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
