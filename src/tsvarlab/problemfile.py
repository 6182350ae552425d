"""Flat sections-and-key=value problem files.

Example::

    # gravity on a uniform window
    [timescale]
    kind = uniform
    a = 0
    b = 1
    h = 0.1

    [problem]
    dim = 1
    lagrangian = "qd1^2 / 2 - qs1"
    qa = [0]
    qb = [0]

    [symmetry]
    tau = "1"
    xi = ["0"]

Values are numbers, bare words, quoted strings, or bracketed lists of
numbers/quoted strings.  ``#`` starts a comment outside quotes.  Validation
errors carry a section.key field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as ex
from .noether import SymmetryGenerator, make_generator
from .timescale import KINDS, TimeScaleGrid, make_timescale
from .variational import Problem, make_problem


class ProblemFileError(ValueError):
    pass


_SECTIONS = {"timescale", "problem", "symmetry", "solver"}


@dataclass
class ProblemFile:
    timescale: dict
    problem: dict
    symmetry: dict | None = None
    solver: dict = field(default_factory=dict)
    path: str = "<memory>"


def _split_unquoted(text: str, sep: str) -> list[str]:
    """text split at every ``sep`` outside double quotes."""
    if '"' not in text:
        return text.split(sep)
    parts, start, quoted = [], 0, False
    for i, ch in enumerate(text):
        if ch == '"':
            quoted = not quoted
        elif ch == sep and not quoted:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _strip_comment(line: str) -> str:
    return _split_unquoted(line, "#")[0]


def _parse_scalar(text: str, where: str):
    text = text.strip()
    if not text:
        raise ProblemFileError(f"{where}: empty value")
    if text.startswith('"'):
        if not text.endswith('"') or len(text) < 2:
            raise ProblemFileError(f"{where}: unterminated string")
        return text[1:-1]
    try:
        return float(text)
    except ValueError:
        pass
    if text.replace("_", "").replace("-", "").isalnum():
        return text  # bare word
    raise ProblemFileError(f"{where}: cannot parse value {text!r}")


def _parse_value(text: str, where: str):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ProblemFileError(f"{where}: unterminated list")
        inner = text[1:-1].strip()
        if not inner:
            return []
        parts = _split_unquoted(inner, ",")
        try:  # a list of numbers in one pass; strings, bare words and errors item by item
            return [float(part) for part in parts]
        except ValueError:
            return [_parse_scalar(part, where) for part in parts]
    return _parse_scalar(text, where)


def parse_problem_text(text: str, path: str = "<memory>") -> ProblemFile:
    sections: dict[str, dict] = {}
    current: dict | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ProblemFileError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ProblemFileError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = sections[name]
            current_name = name
            continue
        if "=" not in line:
            raise ProblemFileError(f"line {lineno}: expected key = value")
        if current is None:
            raise ProblemFileError(f"line {lineno}: key outside of any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ProblemFileError(f"line {lineno}: missing key")
        if key in current:
            raise ProblemFileError(f"line {lineno}: duplicate key {current_name}.{key}")
        current[key] = _parse_value(value, f"{current_name}.{key}")
    for required in ("timescale", "problem"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}]")
    return ProblemFile(
        timescale=sections["timescale"],
        problem=sections["problem"],
        symmetry=sections.get("symmetry"),
        solver=sections.get("solver", {}),
        path=path,
    )


def load_problem_file(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from None
    return parse_problem_text(text, path=str(path))


# ---------------------------------------------------------------------------
# Builders


def _need(section: dict, section_name: str, key: str):
    if key not in section:
        raise ProblemFileError(f"{section_name}.{key}: missing required key")
    return section[key]


def _as_number(value, where: str) -> float:
    if not isinstance(value, float):
        raise ProblemFileError(f"{where}: expected a number, got {value!r}")
    return value


def _as_int(value, where: str) -> int:
    v = _as_number(value, where)
    if not v.is_integer():
        raise ProblemFileError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def _as_text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ProblemFileError(f"{where}: expected a string, got {value!r}")
    return value


def _as_number_list(value, where: str, count: int | None = None) -> list[float]:
    if not isinstance(value, list) or not all(isinstance(x, float) for x in value):
        raise ProblemFileError(f"{where}: expected a bracketed numeric list")
    if count is not None and len(value) != count:
        raise ProblemFileError(f"{where}: expected {count} entries, got {len(value)}")
    return value


def _as_text_list(value, where: str, count: int) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ProblemFileError(f"{where}: expected a bracketed list of quoted strings")
    if len(value) != count:
        raise ProblemFileError(f"{where}: expected {count} entries, got {len(value)}")
    return value


def timescale_kind(pf: ProblemFile, swept: bool = False) -> str:
    """The kind of pf's time scale, one of timescale.KINDS; a swept kind needs a step h."""
    kind = _as_text(_need(pf.timescale, "timescale", "kind"), "timescale.kind")
    if kind not in KINDS:
        raise ProblemFileError(
            f"timescale.kind: unknown kind {kind!r}; expected one of {sorted(KINDS)}"
        )
    if swept and "h" not in KINDS[kind][1]:
        stepped = " or ".join(k for k, (_, keys) in KINDS.items() if "h" in keys)
        raise ProblemFileError(f"timescale.kind: sweep needs a {stepped} kind, got {kind!r}")
    return kind


def build_grid(pf: ProblemFile, h_override: float | None = None) -> TimeScaleGrid:
    sec = pf.timescale
    kind = timescale_kind(pf, swept=h_override is not None)
    allowed = KINDS[kind][1]
    for key in sec:
        if key != "kind" and key not in allowed:
            raise ProblemFileError(f"timescale.{key}: unknown key for kind {kind!r}")
    params = {}
    for key in allowed:
        value = _need(sec, "timescale", key)
        if key == "points":
            params[key] = _as_number_list(value, "timescale.points")
        else:
            params[key] = _as_number(value, f"timescale.{key}")
    if h_override is not None:
        params["h"] = h_override
    try:
        return make_timescale(kind, **params)
    except ValueError as exc:
        raise ProblemFileError(f"timescale: {exc}") from None


def build_problem(pf: ProblemFile, grid: TimeScaleGrid | None = None) -> Problem:
    sec = pf.problem
    dim = _as_int(_need(sec, "problem", "dim"), "problem.dim")
    if dim < 1:
        raise ProblemFileError("problem.dim: must be >= 1")
    for key in sec:
        if key not in ("dim", "lagrangian", "qa", "qb"):
            raise ProblemFileError(f"problem.{key}: unknown key")
    text = _as_text(_need(sec, "problem", "lagrangian"), "problem.lagrangian")
    qa = _as_number_list(_need(sec, "problem", "qa"), "problem.qa", dim)
    qb = _as_number_list(_need(sec, "problem", "qb"), "problem.qb", dim)
    if grid is None:
        grid = build_grid(pf)
    try:
        return make_problem(grid, text, dim, qa, qb)
    except ex.ParseError as exc:
        raise ProblemFileError(f"problem.lagrangian: {exc}") from None


def build_generator(pf: ProblemFile) -> SymmetryGenerator | None:
    if pf.symmetry is None:
        return None
    sec = pf.symmetry
    dim = _as_int(_need(pf.problem, "problem", "dim"), "problem.dim")
    for key in sec:
        if key not in ("tau", "xi", "tbar", "qbar"):
            raise ProblemFileError(f"symmetry.{key}: unknown key")
    tau = _as_text(sec.get("tau", "0"), "symmetry.tau")
    xi = _as_text_list(_need(sec, "symmetry", "xi"), "symmetry.xi", dim)
    tbar = sec.get("tbar")
    qbar = sec.get("qbar")
    if (tbar is None) != (qbar is None):
        raise ProblemFileError("symmetry.tbar/qbar: exact family needs both maps")
    if tbar is not None:
        tbar = _as_text(tbar, "symmetry.tbar")
        qbar = _as_text_list(qbar, "symmetry.qbar", dim)
    try:
        return make_generator(dim, tau=tau, xi=xi, tbar=tbar, qbar=qbar)
    except ex.ParseError as exc:
        raise ProblemFileError(f"symmetry: {exc}") from None


def solver_options(pf: ProblemFile) -> dict:
    sec = pf.solver
    for key in sec:
        if key not in ("tol", "max_iter"):
            raise ProblemFileError(f"solver.{key}: unknown key")
    out = {}
    if "tol" in sec:
        tol = _as_number(sec["tol"], "solver.tol")
        if not 0.0 < tol < math.inf:
            raise ProblemFileError("solver.tol: must be a positive finite number")
        out["tol"] = tol
    if "max_iter" in sec:
        mi = _as_int(sec["max_iter"], "solver.max_iter")
        if mi < 1:
            raise ProblemFileError("solver.max_iter: must be >= 1")
        out["max_iter"] = mi
    return out
