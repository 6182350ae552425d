"""Command-line laboratory: solve, check, and sweep problem files.

Exit codes: 0 success, 2 solver failure, 3 invalid input, 4 tolerance
exceeded.  All CSV output uses '.' decimals, 17 significant digits, a header
row and LF line endings, and is written atomically (temp file + rename), so
repeated runs on the same platform are bit-stable.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import expr as ex
from ._g17 import encode_table
from ._g17 import fmt as _fmt
from .calculus import GridFunction, difference_quotient
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
    timescale_kind,
)
from .variational import Problem, SolverError, el_residual, solve_el

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_INPUT = 3
EXIT_TOLERANCE = 4

_EXACT_ORDER_FLOOR = 1e-12  # residuals at or below this count as exactly conserved


class _UsageError(Exception):
    pass


USAGE = """\
tsvarlab solve <file> [--out PATH] [--guess CSV] [--quiet]
tsvarlab check <file> el|invariance|conservation
                [--out PATH] [--tol X] [--eps LIST] [--report-only] [--quiet]
tsvarlab sweep <file> --h-list LIST [--out PATH] [--quiet]"""

_REQUIRED = object()  # the default of an option that must be given
# command -> (its positionals, its options with their defaults). A flag has the
# default False and takes no value; a float default makes the value a float.
_COMMANDS = {
    "solve": (("file",), {"--out": None, "--guess": None, "--quiet": False}),
    "check": (("file", "which"), {"--out": None, "--tol": 1e-8, "--eps": "-0.5,-0.1,0.1,0.5",
                                  "--report-only": False, "--quiet": False}),
    "sweep": (("file",), {"--h-list": _REQUIRED, "--out": None, "--quiet": False}),
}
_WHICH = ("el", "invariance", "conservation")
_HELP = {"-h": False, "--help": False}  # flags of every command
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's: a value, not an option


def _create_tmp(path: Path) -> tuple[int, Path]:
    """A new file beside ``path``, open for writing, with the mode ``open()`` gives
    (0o666 less the umask); a name that exists already is skipped."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for n in itertools.count():
        tmp = path.parent / f"tsvarlab-{os.getpid()}-{n}.tmp"
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            pass


def _write_csv(path: Path, header: list[str], rows: Iterable[bytes]) -> None:
    """Writes the header line and then each block of rows, atomically (temp file + rename).

    An OSError (a missing directory, ``path`` a directory) is a usage error that names ``path``.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = _create_tmp(path)
        with os.fdopen(fd, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for block in rows:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            reason = exc.strerror or exc
            raise _UsageError(f"cannot write output file {str(path)!r}: {reason}") from None
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
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"cannot read guess file {str(path)!r}: {exc}") from None
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
            if not math.isfinite(table[k, j]):
                raise ProblemFileError(
                    f"guess file row {k + 1}, column {name}: non-finite value {row[c]!r}")
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
    rows = encode_table(np.column_stack([grid.array, vals]), difference_quotient(grid.array, vals))
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
    for k, eps in enumerate(eps_list):
        if not math.isfinite(eps):
            raise _UsageError(f"--eps values must be finite, got {eps!r}")
        if eps in eps_list[:k]:  # as floats, so 0 and -0 are one value
            first = eps_list[eps_list.index(eps)]
            raise _UsageError(f"--eps values must be distinct, got {first!r} and {eps!r}")
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
        rows = encode_table(np.column_stack([resid.grid.array, resid.values]))
        max_abs = float(np.max(np.abs(resid.values), initial=0.0))
    elif args.which == "invariance":
        time_transform = generator.has_family or generator.tau != ex.Num(0.0)
        check = check_invariance_time_transform if time_transform else check_invariance_fixed_time
        report = check(problem, trajectory, generator, eps_list)
        header = ["t"] + [f"disc_eps={e:g}" if float(f"{e:g}") == e else f"disc_eps={e!r}"
                          for e in report.eps_values]
        rows = encode_table(np.column_stack([report.cell_times, report.discrepancies.T]))
        max_abs = report.max_discrepancy
    else:  # conservation
        report = noether_quantity(problem, trajectory, generator)
        header = ["t", "C", "residual"]
        rows = encode_table(np.column_stack([report.times, report.values]), report.residuals)
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
    timescale_kind(pf, swept=True)
    generator = build_generator(pf)
    if generator is None:
        raise ProblemFileError("sweep requires a [symmetry] section for the residual")
    opts = solver_options(pf)
    h_list = _parse_float_list(args.h_list, "--h-list")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ProblemFileError("--h-list must be strictly decreasing")

    residuals = []
    actions = []
    problem = None
    for h in h_list:
        grid = build_grid(pf, h_override=h)
        if problem is None:  # the Lagrangian is parsed and differentiated once
            problem = build_problem(pf, grid=grid)
        else:
            problem = Problem(grid, problem.lagrangian, problem.qa, problem.qb)
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


def _option(token: str, options: dict):
    """(name, value, token) of the option that ``token`` names, or None for a positional.

    The name is None for an unknown option. The value is the text after '=' (or,
    for -h, after its two characters), else None. An option's full name, or the
    start of one name alone, names it. '', '-', a token with a space and a
    negative number are positionals.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        matches = [name] if name in options else [o for o in options if o.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None, token
    elif token[:2] in options:
        return token[:2], token[2:] or None, token
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None, token


def _read_args(argv=None):
    """The ``args`` of the command in ``argv`` (``sys.argv[1:]`` when None), or None
    when argv asks for help; raises _UsageError for an argv that is not a command.

    Options may stand before, between or after the positionals, as ``--opt v`` or
    ``--opt=v``; the last of a repeated option counts. ``--`` makes every later
    token a positional. An option before ``--`` that is -h or --help asks for
    help wherever it stands.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    names, defaults = _COMMANDS.get(command, ((), {}))
    options = {**defaults, **_HELP}
    items = []  # a str for a positional, None for '--', a tuple for an option
    tokens = iter(argv[1:] if command in _COMMANDS else argv)
    for token in tokens:
        if token == "--":
            items += [None, *tokens]
        else:
            option = _option(token, options)
            items.append(token if option is None else option)
    if any(type(item) is tuple and item[0] in _HELP and item[1] is None for item in items):
        return None
    if command not in _COMMANDS:
        raise _UsageError(f"expected a command, one of {', '.join(_COMMANDS)}; got {command!r}"
                          if argv else f"expected a command, one of {', '.join(_COMMANDS)}")

    values = dict(defaults)
    given = {}  # positional name -> token
    after_positional = False
    k = 0
    while k < len(items):
        item = items[k]
        k += 1
        if item is None:  # '--' must lead to a positional or follow one
            if k == len(items) and not after_positional:
                raise _UsageError("unrecognized argument: --")
            continue
        after_positional = type(item) is str
        if after_positional:
            if len(given) == len(names):
                raise _UsageError(f"unrecognized argument: {item}")
            name = names[len(given)]
            if name == "which" and item not in _WHICH:
                raise _UsageError(f"argument which: invalid choice: {item!r} "
                                  f"(choose from {', '.join(_WHICH)})")
            given[name] = item
            continue
        name, value, token = item
        if name is None:
            raise _UsageError(f"unrecognized argument: {token}")
        default = options[name]
        if default is False:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if k == len(items) or type(items[k]) is not str:
                raise _UsageError(f"argument {name}: expected one argument")
            value = items[k]
            k += 1
        if type(default) is float:
            try:
                value = float(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid float value: {value!r}") from None
        values[name] = value
    missing = names[len(given):] + tuple(o for o, v in values.items() if v is _REQUIRED)
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **given,
                           **{o[2:].replace("-", "_"): v for o, v in values.items()})


def main(argv=None) -> int:
    try:
        args = _read_args(argv)
        if args is None:
            print(USAGE)
            return EXIT_OK
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
