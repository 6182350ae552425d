"""Seeded random problem files through every command: each run ends located or clean.

The files cover the five grid kinds, with gaps down to 1e-310 and magnitudes
up to 1e300, random formulas over the six functions, ``^`` and extreme
constants, and random generators and families.  Every command goes through
``cli.main`` with warnings as errors, and its exit is checked against the
documented contract: 0 and 4 write their CSV, 2 and 3 write none and print
exactly one ``solver error: `` or ``error: `` line.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from tsvarlab.cli import main
from tsvarlab.expr import FUNCTIONS

FILES = 800
CONSTANTS = ("0", "1", "2", "0.5", "3", "1e10", "1e300", "1e-300", "3e-310")
EXPONENTS = ("2", "3", "0.5", "-1", "1e300")
PREFIX = {2: "solver error: ", 3: "error: "}


def _magnitude(rng, signed=False) -> float:
    sign = rng.choice([-1.0, 0.0, 1.0]) if signed else 1.0
    scale = rng.choice([1e-310, 1e-5, 1.0, 1e5, 1e300], p=[0.1, 0.2, 0.4, 0.2, 0.1])
    return float(sign * scale * rng.uniform(0.5, 2.0))


def _formula(rng, names, depth=3) -> str:
    r = rng.random()
    if depth == 0 or r < 0.3:
        return str(rng.choice([*names, *CONSTANTS]))
    if r < 0.5:
        return f"{rng.choice(FUNCTIONS)}({_formula(rng, names, depth - 1)})"
    if r < 0.55:
        return f"-{_formula(rng, names, depth - 1)}"
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    if op == "^" and rng.random() < 0.7:
        right = str(rng.choice(EXPONENTS))
    else:
        right = _formula(rng, names, depth - 1)
    return f"({_formula(rng, names, depth - 1)} {op} {right})"


def _timescale(rng, kind: str) -> list[str]:
    """The [timescale] lines of a grid of at most about 20 points, or of an invalid one."""
    if kind == "integers":
        a = int(rng.choice([0, -7, 2**53])) + int(rng.integers(-5, 5))
        return [f"a = {a}", f"b = {a + int(rng.integers(-1, 10))}"]
    if kind == "power2":
        n0 = int(rng.choice([-1074, -20, 0, 1015])) + int(rng.integers(0, 5))
        return [f"n0 = {n0}", f"n1 = {n0 + int(rng.integers(-1, 10))}"]
    if kind == "explicit":  # mostly points of one scale, sometimes of any
        scale = _magnitude(rng)
        gaps = [(scale * rng.uniform(0.5, 2.0) if rng.random() < 0.85 else _magnitude(rng))
                * (-1.0 if rng.random() < 0.03 else 1.0) for _ in range(int(rng.integers(0, 10)))]
        start = scale * rng.uniform(-10, 10) if rng.random() < 0.7 else _magnitude(rng, signed=True)
        points = np.cumsum([start, *gaps])
        return [f"points = [{', '.join(repr(float(x)) for x in points)}]"]
    a = _magnitude(rng, signed=True)
    h = abs(a) * rng.uniform(0.01, 1.0) if a and rng.random() < 0.5 else _magnitude(rng)
    if rng.random() < 0.05:
        h = -h
    steps = int(rng.integers(0, 10)) if kind == "uniform" else float(rng.uniform(0.0, 10.0))
    b = a + steps * h * (1.3 if rng.random() < 0.1 else 1.0)
    return [f"a = {a!r}", f"b = {b!r}", f"h = {h!r}"]


def _problem_text(rng, kind: str) -> str:
    dim = int(rng.integers(1, 3))
    q = [f"q{k + 1}" for k in range(dim)]
    cells = ["t", *(f"qs{k + 1}" for k in range(dim)), *(f"qd{k + 1}" for k in range(dim))]
    lagrangian = _formula(rng, cells)
    if rng.random() < 0.7:  # a kinetic term makes most of these solvable
        lagrangian = " + ".join([*(f"qd{k + 1}^2/2" for k in range(dim)), lagrangian])
    ends = [[repr(_magnitude(rng, signed=True)) for _ in range(dim)] for _ in range(2)]
    lines = ["[timescale]", f"kind = {kind}", *_timescale(rng, kind), "", "[problem]",
             f"dim = {dim}", f'lagrangian = "{lagrangian}"',
             f"qa = [{', '.join(ends[0])}]", f"qb = [{', '.join(ends[1])}]"]
    if rng.random() < 0.85:
        names = ["t", *q]
        tau = "0" if rng.random() < 0.5 else _formula(rng, names, 2)
        xi = [_formula(rng, names, 2) for _ in range(dim)]
        lines += ["", "[symmetry]", f'tau = "{tau}"', f"xi = [{', '.join(map(repr, xi))}]"]
        if rng.random() < 0.3:
            if rng.random() < 0.5:  # the family of the generator itself
                tbar, qbar = f"t + eps*({tau})", [f"{w} + eps*({x})" for w, x in zip(q, xi)]
            else:
                tbar, qbar = _formula(rng, ["t", "eps", *q], 2), [_formula(rng, ["eps", w], 2)
                                                                  for w in q]
            lines += [f'tbar = "{tbar}"', f"qbar = [{', '.join(map(repr, qbar))}]"]
    if rng.random() < 0.2:
        lines += ["", "[solver]", "tol = 1e-10", f"max_iter = {int(rng.integers(1, 30))}"]
    return "\n".join(lines).replace("'", '"') + "\n"


def test_random_problem_files_exit_clean_or_located(tmp_path, capsys):
    rng = np.random.default_rng(25)
    kinds = ("integers", "uniform", "power2", "explicit", "sampled")
    exits = Counter()
    for i in range(FILES):
        kind = kinds[i % len(kinds)]
        text = _problem_text(rng, kind)
        path = tmp_path / f"{i}.problem"
        path.write_text(text, encoding="utf-8")
        eps = str(rng.choice(["-0.5,-0.1,0.1,0.5", "1e-3,1", "1e10"]))
        commands = [["solve"], *(["check", which, f"--eps={eps}"]
                                 for which in ("el", "invariance", "conservation"))]
        if kind in ("uniform", "sampled"):  # the file's step, then half of it
            h = float(text.split("\nh = ", 1)[1].split("\n", 1)[0])
            commands.append(["sweep", f"--h-list={h!r},{h / 2!r}"])
        for k, command in enumerate(commands):
            out = tmp_path / f"{i}-{k}.csv"
            argv = [command[0], str(path), *command[1:], "--out", str(out), "--quiet"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main(argv)
                except Exception as exc:  # a warning raised as an error included
                    pytest.fail(f"{argv} raised {exc!r} on\n{text}")
            err = capsys.readouterr().err
            exits[code] += 1
            assert code in (0, 2, 3, 4), (argv, code, text)
            if code in (0, 4):
                assert out.exists() and err == "", (argv, err, text)
            else:
                assert not out.exists(), (argv, text)
                assert len(err.splitlines()) == 1 and err.startswith(PREFIX[code]), (argv, err)
    assert all(exits[code] for code in (0, 2, 3, 4)), exits
