"""Command-line laboratory: solve, check, and sweep problem files.

Exit codes: 0 success, 2 solver failure, 3 invalid input, 4 tolerance
exceeded.  All CSV output uses '.' decimals, 17 significant digits, a header
row and LF line endings, and is written atomically (temp file + rename), so
repeated runs on the same platform are bit-stable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import expr as ex
from ._g17 import CHUNK_VALUES, encode_rows
from ._g17 import fmt as _fmt
from .calculus import GridFunction, grid_cells
from .noether import (
    check_invariance_fixed_time,
    check_invariance_time_transform,
    noether_quantity,
)
from .problemfile import (
    ProblemFileError,
    build_generator,
    build_grid,
    build_problem,
    load_problem_file,
    solver_options,
)
from .variational import SolverError, el_residual, solve_el

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_INPUT = 3
EXIT_TOLERANCE = 4

_EXACT_ORDER_FLOOR = 1e-12  # residuals at or below this count as exactly conserved


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _format_rows(body: np.ndarray, tail: np.ndarray | None = None) -> Iterator[bytes]:
    """CSV rows of %.17g values, a block of whole rows at a time: the columns of
    ``body``, then those of ``tail``.

    ``tail`` has one row fewer than ``body``; the final row leaves its cells blank.
    """
    stop = len(body) if tail is None else len(body) - 1
    if np.ndim(tail) == 1:
        tail = tail[:, None]
    width = body.shape[1] + (0 if tail is None else tail.shape[1])
    step = max(1, CHUNK_VALUES // width)
    for start in range(0, stop, step):
        block = body[start : min(start + step, stop)]
        if tail is not None:
            block = np.column_stack([block, tail[start : start + len(block)]])
        yield encode_rows(block)
    if tail is not None:
        yield encode_rows(body[-1:])[:-1] + b"," * tail.shape[1] + b"\n"


def _write_csv(path: Path, header: list[str], rows: Iterable[bytes]) -> None:
    """Writes the header line and then each block of rows, atomically (temp file + rename)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for block in rows:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _default_out(file: Path, suffix: str) -> Path:
    return file.with_name(f"{file.stem}_{suffix}.csv")


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"cannot parse {what} list {text!r}") from None
    if not values:
        raise _UsageError(f"empty {what} list")
    return values


def _read_guess_csv(path: Path, problem):
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ProblemFileError(f"cannot read guess file: {exc}") from None
    if not lines:
        raise ProblemFileError("guess file is empty")
    header = lines[0].split(",")
    n = problem.dim
    wanted = ["t"] + [f"q_{k + 1}" for k in range(n)]
    try:
        cols = [header.index(name) for name in wanted]
    except ValueError as exc:
        raise ProblemFileError(f"guess file is missing a column: {exc}") from None
    rows = [line.split(",") for line in lines[1:] if line]
    if len(rows) != len(problem.grid):
        raise ProblemFileError(
            f"guess file has {len(rows)} rows, grid has {len(problem.grid)} points"
        )
    table = np.empty((len(rows), len(cols)))
    for k, row in enumerate(rows):
        if len(row) <= max(cols):
            raise ProblemFileError(f"guess file row {k + 1} has {len(row)} of {len(header)} fields")
        for j, (c, name) in enumerate(zip(cols, wanted)):
            try:
                table[k, j] = float(row[c])
            except ValueError:
                raise ProblemFileError(
                    f"guess file row {k + 1}, column {name}: cannot parse {row[c]!r}"
                ) from None
    if not np.array_equal(table[:, 0], problem.grid.array):
        raise ProblemFileError("guess file times do not match the problem grid")
    return GridFunction(problem.grid, table[:, 1:])


def cmd_solve(args) -> int:
    pf = load_problem_file(args.file)
    problem = build_problem(pf)
    opts = solver_options(pf)
    guess = _read_guess_csv(args.guess, problem) if args.guess else None
    result = solve_el(problem, guess=guess, **opts)

    grid = problem.grid
    n = problem.dim
    vals = result.trajectory.values
    header = ["t"] + [f"q_{k + 1}" for k in range(n)] + [f"qd_{k + 1}" for k in range(n)]
    rows = _format_rows(np.column_stack([grid.array, vals]), grid_cells(grid.array, vals)[4])
    out = Path(args.out) if args.out else _default_out(Path(args.file), "solution")
    _write_csv(out, header, rows)
    if not args.quiet:
        print(
            f"action={_fmt(result.action_value)} "
            f"gradient_norm={_fmt(result.gradient_norm)} "
            f"iterations={result.iterations}"
        )
    return EXIT_OK


def cmd_check(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise _UsageError(f"--tol must be a non-negative finite number, got {args.tol!r}")
    eps_list = _parse_float_list(args.eps, "--eps")
    for eps in eps_list:
        if not math.isfinite(eps):
            raise _UsageError(f"--eps values must be finite, got {eps!r}")
    pf = load_problem_file(args.file)
    problem = build_problem(pf)
    opts = solver_options(pf)
    generator = build_generator(pf)
    if args.which in ("invariance", "conservation") and generator is None:
        raise ProblemFileError(f"check {args.which} requires a [symmetry] section")

    result = solve_el(problem, **opts)
    trajectory = result.trajectory
    n = problem.dim
    out = Path(args.out) if args.out else _default_out(Path(args.file), f"check_{args.which}")

    if args.which == "el":
        resid = el_residual(problem, trajectory)
        header = ["t"] + [f"r_{k + 1}" for k in range(n)]
        rows = _format_rows(np.column_stack([resid.grid.array, resid.values]))
        max_abs = float(np.max(np.abs(resid.values), initial=0.0))
    elif args.which == "invariance":
        time_transform = generator.has_family or generator.tau != ex.Num(0.0)
        check = check_invariance_time_transform if time_transform else check_invariance_fixed_time
        report = check(problem, trajectory, generator, eps_list)
        header = ["t"] + [f"disc_eps={e:g}" if float(f"{e:g}") == e else f"disc_eps={e!r}"
                          for e in report.eps_values]
        rows = _format_rows(np.column_stack([report.cell_times, report.discrepancies.T]))
        max_abs = report.max_discrepancy
    else:  # conservation
        report = noether_quantity(problem, trajectory, generator)
        header = ["t", "C", "residual"]
        rows = _format_rows(np.column_stack([report.times, report.values]), report.residuals)
        max_abs = report.max_abs_residual

    _write_csv(out, header, rows)
    if not args.quiet:
        print(f"max_abs={_fmt(max_abs)}")
        if args.which == "invariance":
            print(f"d_action_d_eps={_fmt(report.action_eps_derivative)}")
    if args.report_only:
        return EXIT_OK
    return EXIT_OK if max_abs <= args.tol else EXIT_TOLERANCE


def cmd_sweep(args) -> int:
    pf = load_problem_file(args.file)
    kind = pf.timescale.get("kind")
    if kind not in ("uniform", "sampled"):
        raise ProblemFileError(
            f"timescale.kind: sweep needs a uniform or sampled kind, got {kind!r}"
        )
    generator = build_generator(pf)
    if generator is None:
        raise ProblemFileError("sweep requires a [symmetry] section for the residual")
    opts = solver_options(pf)
    h_list = _parse_float_list(args.h_list, "--h-list")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ProblemFileError("--h-list must be strictly decreasing")

    residuals = []
    actions = []
    for h in h_list:
        grid = build_grid(pf, h_override=h)
        problem = build_problem(pf, grid=grid)
        result = solve_el(problem, **opts)
        report = noether_quantity(problem, result.trajectory, generator)
        residuals.append(report.max_abs_residual)
        actions.append(result.action_value)

    header = ["h", "action", "max_residual", "order"]
    rows = []
    for k, h in enumerate(h_list):
        order = ""
        if k > 0:
            prev_r, cur_r = residuals[k - 1], residuals[k]
            if prev_r <= _EXACT_ORDER_FLOOR and cur_r <= _EXACT_ORDER_FLOOR:
                order = "exact"
            elif prev_r > _EXACT_ORDER_FLOOR and cur_r > _EXACT_ORDER_FLOOR:
                order = _fmt(math.log(prev_r / cur_r) / math.log(h_list[k - 1] / h))
        rows.append(f"{_fmt(h)},{_fmt(actions[k])},{_fmt(residuals[k])},{order}\n".encode())
    out = Path(args.out) if args.out else _default_out(Path(args.file), "sweep")
    _write_csv(out, header, rows)
    return EXIT_OK


@functools.cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="tsvarlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the boundary-value problem")
    p_solve.add_argument("file")
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--guess", default=None, help="trajectory CSV used as initial guess")
    p_solve.add_argument("--quiet", action="store_true")

    p_check = sub.add_parser("check", help="evaluate a residual report along the extremal")
    p_check.add_argument("file")
    p_check.add_argument("which", choices=("el", "invariance", "conservation"))
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--eps", default="-0.5,-0.1,0.1,0.5")
    p_check.add_argument("--report-only", action="store_true")
    p_check.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="refinement study over sampling steps")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--h-list", required=True, help="comma-separated decreasing steps")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--quiet", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_sweep(args)
    except (_UsageError, ValueError) as exc:  # ProblemFileError, ParseError and EvalError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:
    raise SystemExit(main())
