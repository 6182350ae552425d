import importlib
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import tsvarlab as tv
from tsvarlab import timescale as ts
from tsvarlab._g17 import encode_table
from tsvarlab.cli import (
    USAGE, _option, _read_args, _UsageError, entrypoint, main,
)
from tsvarlab.problemfile import (
    ProblemFileError,
    build_generator,
    build_grid,
    build_problem,
    load_problem_file,
    solver_options,
)

from helpers import argparse_read_args

# Hypothesis caches what it reads from source files in its home directory;
# with database=None as well, a run writes nothing into the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tsvarlab-hypothesis")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FREE = str(SCENARIOS / "free_particle.problem")
GRAVITY = str(SCENARIOS / "gravity_uniform.problem")
DOUBLING = str(SCENARIOS / "power2_dilation.problem")


def run(argv):
    return main(argv)


def test_solve_free_particle_writes_line(tmp_path, capsys):
    out = tmp_path / "fp.csv"
    assert run(["solve", FREE, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,q_1,qd_1"
    q_col = [line.split(",")[1] for line in lines[1:]]
    assert q_col == ["0", "1", "2", "3", "4"]
    assert lines[-1].endswith(",")  # derivative blank at the final point
    assert "iterations=" in capsys.readouterr().out


def test_solve_doubling_grid_matches_recurrence(tmp_path):
    out = tmp_path / "pw.csv"
    assert run(["solve", DOUBLING, "--out", str(out), "--quiet"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    q = [float(r[1]) for r in rows]
    assert np.allclose(q, [1, 1, 2, 5, 13], atol=1e-10)


def test_solve_reingests_own_output_as_guess(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    assert run(["solve", GRAVITY, "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    out2 = tmp_path / "b.csv"
    assert run(["solve", GRAVITY, "--out", str(out2), "--guess", str(out1)]) == 0
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert "iterations=0" in second or "iterations=1" in second
    assert "iterations=1" in first


def test_solve_rejects_mismatched_guess(tmp_path):
    out = tmp_path / "fp.csv"
    assert run(["solve", FREE, "--out", str(out), "--quiet"]) == 0
    assert run(["solve", GRAVITY, "--out", str(tmp_path / "x.csv"), "--guess", str(out)]) == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_solve_rejects_non_finite_guess_value(tmp_path, capsys, value):
    guess = tmp_path / "guess.csv"
    out = tmp_path / "fp.csv"
    guess.write_text(f"t,q_1\n0,0\n1,{value}\n2,2\n3,3\n4,4\n")
    assert run(["solve", FREE, "--out", str(out), "--guess", str(guess)]) == 3
    assert capsys.readouterr().err == (
        f"error: guess file row 2, column q_1: non-finite value '{value}'\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "cannot read guess file: [Errno 2] No such file or directory: "),
    ("", "guess file is empty\n"),
    ("t,x\n0,0\n1,1\n2,2\n3,3\n4,4\n", "guess file is missing a column: 'q_1'"),
    ("t,q_1\n0,0\n1,1\n2,2\n3,3\n5,4\n", "guess file times do not match the problem grid\n"),
])
def test_solve_rejects_unreadable_guess_files(tmp_path, capsys, text, message):
    guess = tmp_path / "guess.csv"
    if text is not None:
        guess.write_text(text)
    out = tmp_path / "fp.csv"
    assert run(["solve", FREE, "--out", str(out), "--guess", str(guess)]) == 3
    # the messages of a missing file and a missing column end in Python's own error text
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_solve_rejects_short_guess_row(tmp_path, capsys):
    guess = tmp_path / "guess.csv"
    out = tmp_path / "fp.csv"
    for row, message in [("1", "row 2"),
                         ("1,zz", "error: guess file row 2, column q_1: cannot parse 'zz'\n")]:
        guess.write_text(f"t,q_1\n0,0\n{row}\n2,2\n3,3\n4,4\n")
        assert run(["solve", FREE, "--out", str(out), "--guess", str(guess)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_invalid_file_exits_3(tmp_path):
    bad = tmp_path / "bad.problem"
    bad.write_text("[problem]\ndim = 1\n")
    assert run(["solve", str(bad)]) == 3
    missing = tmp_path / "nope.problem"
    assert run(["solve", str(missing)]) == 3


def test_dimension_mismatch_exits_3(tmp_path):
    bad = tmp_path / "bad.problem"
    bad.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0, 1]\nqb = [4]\n'
    )
    assert run(["solve", str(bad)]) == 3


def test_no_class_in_the_package_is_a_dataclass():
    # @dataclass writes and compiles each class's methods when the module is
    # imported: about 1 ms of every command's start per class, so the records
    # are named tuples, and the formula nodes and core objects plain classes
    found = set()
    for info in pkgutil.iter_modules(tv.__path__, "tsvarlab."):
        if info.name != "tsvarlab.__main__":  # importing it runs the command line
            module = importlib.import_module(info.name)
            found |= {obj.__qualname__ for obj in vars(module).values()
                      if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")}
    assert found == set()


def _solve_under_recursion_limit_100(tmp_path, lagrangian):
    """`tsvarlab solve` of L on integers(0, 4), q from 0 to 4, in a fresh process.

    The process lowers Python's recursion limit to 100 after importing the package.
    """
    problem = tmp_path / "long.problem"
    problem.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        f'[problem]\ndim = 1\nlagrangian = "{lagrangian}"\nqa = [0]\nqb = [4]\n'
    )
    out = tmp_path / "long.csv"
    argv = ["solve", str(problem), "--out", str(out)]
    code = ("import sys, tsvarlab.cli; sys.setrecursionlimit(100); "
            f"sys.exit(tsvarlab.cli.main({argv}))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    return proc, out


def test_deep_formulas_solve(tmp_path):
    # no walk recurses: a 1500-term sum and 200 nested parentheses used to
    # exceed Python's recursion limit, and now solve under a limit of 100
    for lagrangian in (" + ".join(["qd1^2"] * 1500), "(" * 200 + "qd1^2" + ")" * 200):
        proc, out = _solve_under_recursion_limit_100(tmp_path, lagrangian)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == "t,q_1,qd_1\n0,0,1\n1,1,1\n2,2,1\n3,3,1\n4,4,\n"


def test_sum_of_ten_thousand_terms_solves(tmp_path):
    lagrangian = " + ".join(["qd1^2"] * 10_000)
    proc, out = _solve_under_recursion_limit_100(tmp_path, lagrangian)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "action=40000 gradient_norm=0 iterations=0\n"
    assert out.read_text() == "t,q_1,qd_1\n0,0,1\n1,1,1\n2,2,1\n3,3,1\n4,4,\n"


def test_sum_of_240_terms_solves(tmp_path):
    # the tree walks recurse once per level, so this is near the limit of a
    # command run at the top of a stack: a derivative in a variable that a
    # subtree lacks stops there and must not move it
    lagrangian = " + ".join(["qd1^2"] * 240)
    problem = tmp_path / "long.problem"
    problem.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        f'[problem]\ndim = 1\nlagrangian = "{lagrangian}"\nqa = [0]\nqb = [4]\n'
    )
    out = tmp_path / "long.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tsvarlab", "solve", str(problem), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text() == "t,q_1,qd_1\n0,0,1\n1,1,1\n2,2,1\n3,3,1\n4,4,\n"


def test_check_el_clean_on_solved_extremal(tmp_path, capsys):
    out = tmp_path / "el.csv"
    assert run(["check", FREE, "el", "--out", str(out)]) == 0
    assert "max_abs=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,r_1"
    assert len(lines) == 1 + 3  # residual on the first N-2 points


def test_check_invariance_paper_scenario(tmp_path):
    out = tmp_path / "inv.csv"
    assert run(["check", DOUBLING, "invariance", "--eps=0.3", "--tol", "1e-12", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,disc_eps=0.3"
    assert len(lines) == 1 + 4


def test_check_invariance_default_eps_columns(tmp_path):
    out = tmp_path / "inv.csv"
    assert run(["check", DOUBLING, "invariance", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,disc_eps=-0.5,disc_eps=-0.1,disc_eps=0.1,disc_eps=0.5"
    # %g when it reads back as the same number, the shortest round-trip form otherwise
    eps = "--eps=0.1000001,0.1000002,0.25,1e-07,0.30000000000000004"
    assert run(["check", DOUBLING, "invariance", eps, "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == ("t,disc_eps=0.1000001,disc_eps=0.1000002,disc_eps=0.25,disc_eps=1e-07,"
                      "disc_eps=0.30000000000000004")


def test_check_conservation_free_particle_momentum(tmp_path):
    out = tmp_path / "cons.csv"
    assert run(["check", FREE, "conservation", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,C,residual"
    assert lines[1].split(",")[1] == "2"  # momentum 2*qd = 2
    assert lines[-1].split(",")[2] == ""  # no residual at the last C sample


def test_check_conservation_gravity_tolerance_gate(tmp_path, capsys):
    out = tmp_path / "cons.csv"
    code = run(["check", GRAVITY, "conservation", "--out", str(out)])
    assert code == 4  # drift h/2 = 0.05 exceeds the default 1e-8
    assert "max_abs=0.05" in capsys.readouterr().out
    assert run(["check", GRAVITY, "conservation", "--report-only", "--out", str(out), "--quiet"]) == 0


def test_non_finite_cell_exits_3_without_csv(tmp_path, capsys):
    huge = tmp_path / "huge.problem"
    # L overflows on the first problem, the term mu * L on the second
    for text in (
        "[timescale]\nkind = integers\na = 0\nb = 2\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1e200]\n',
        "[timescale]\nkind = explicit\npoints = [0, 1e10, 2e10, 3e10]\n"
        '[problem]\ndim = 1\nlagrangian = "1e300 + qd1^2"\nqa = [0]\nqb = [1]\n',
    ):
        huge.write_text(text)
        out = tmp_path / "huge.csv"
        assert run(["solve", str(huge), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cell 0 at t=0.0: non-finite value inf")
        assert len(captured.err.splitlines()) == 1  # the error line, no numpy warnings
        assert "action=" not in captured.out
        assert not out.exists()


# the qd column's quotient (1e300 - 0) / 1e-300 at cell 0, and at eps = 1 the
# discrepancy |L(q + pi) - L(q)| = |-1e308 - 1e308| at cell 0
@pytest.mark.parametrize("text, argv", [
    ("[timescale]\nkind = explicit\npoints = [0, 1e-300, 1]\n"
     '[problem]\ndim = 1\nlagrangian = "t + 0 * qs1"\nqa = [0]\nqb = [0]\n',
     ["solve", "{problem}", "--guess", "{guess}"]),
    ("[timescale]\nkind = uniform\na = 0\nb = 1\nh = 0.25\n"
     '[problem]\ndim = 1\nlagrangian = "qd1^2/2 + 1e308*cos(qs1)"\nqa = [0]\nqb = [0]\n'
     '[symmetry]\nxi = ["3.141592653589793"]\n',
     ["check", "{problem}", "invariance", "--eps", "1"]),
], ids=["qd-column", "invariance-discrepancy"])
def test_overflowing_written_values_exit_3_without_csv(tmp_path, capsys, text, argv):
    problem, guess, out = tmp_path / "huge.problem", tmp_path / "guess.csv", tmp_path / "huge.csv"
    problem.write_text(text)
    guess.write_text("t,q_1\n0,0\n1.0000000000000001e-300,1e300\n1,0\n")
    assert run([a.format(problem=problem, guess=guess) for a in argv] + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: cell 0 at t=0.0: non-finite value inf (column 1)\n"
    assert captured.out == ""
    assert not out.exists()


# the family's d qbar/d eps = -1e308 and its xi = 1e308 differ by -inf, the grid's
# span 1e308 - -1e308 and the linear guess's qb - qa overflow, and on the guess
# file's first Newton step each Hessian block 1e308 is finite and interior point
# 1's diagonal block 2e308 is not; none may warn before its error
@pytest.mark.parametrize("text, argv, err", [
    ("[timescale]\nkind = uniform\na = 0\nb = 1\nh = 0.25\n"
     '[problem]\ndim = 1\nlagrangian = "qd1^2/2"\nqa = [0]\nqb = [0]\n'
     '[symmetry]\nxi = ["1e308"]\ntbar = "t"\nqbar = ["q1 - eps*1e308"]\n',
     ["check", "{problem}", "invariance", "--eps", "1"],
     "error: d qbar/d eps at 0 does not match xi at t=0.0\n"),
    ("[timescale]\nkind = explicit\npoints = [-1e308, 0, 1e308]\n"
     '[problem]\ndim = 1\nlagrangian = "qd1^2/2"\nqa = [0]\nqb = [0]\n',
     ["solve", "{problem}"],
     "error: timescale: time scale grid points from -1e+308 to 1e+308 span more than a double\n"),
    ("[timescale]\nkind = integers\na = 0\nb = 4\n"
     '[problem]\ndim = 1\nlagrangian = "qd1^2/2"\nqa = [-1e308]\nqb = [1e308]\n',
     ["solve", "{problem}"],
     "error: linear guess of component 1 from -1e+308 to 1e+308 spans more than a double\n"),
    ("[timescale]\nkind = explicit\npoints = [0, 1e-308, 2e-308, 3e-308]\n"
     '[problem]\ndim = 1\nlagrangian = "qd1^2/2"\nqa = [0]\nqb = [0]\n',
     ["solve", "{problem}", "--guess", "{guess}"],
     "error: cell 0 at t=0.0: non-finite value inf (column 1)\n"),
], ids=["family-check", "grid-span", "linear-guess", "hessian-diagonal"])
def test_overflowing_input_exits_3_without_a_warning_or_csv(tmp_path, capsys, text, argv, err):
    problem, guess, out = tmp_path / "huge.problem", tmp_path / "guess.csv", tmp_path / "huge.csv"
    problem.write_text(text)
    guess.write_text("t,q_1\n0,0\n1e-308,1e-310\n2e-308,0\n3e-308,0\n")
    assert run([a.format(problem=problem, guess=guess) for a in argv] + ["--out", str(out)]) == 3
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


def test_passes_evaluate_only_the_partials_they_use(tmp_path, capsys):
    # sqrt(t) has no slope at t = 0; only a quantity with tau != 0 needs dL/dt
    root = tmp_path / "root.problem"
    root.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2/2 + sqrt(t)*qs1"\nqa = [0]\nqb = [1]\n'
        '[symmetry]\ntau = "0"\nxi = ["1"]\n'
    )
    assert run(["solve", str(root), "--out", str(tmp_path / "s.csv"), "--quiet"]) == 0
    cons = ["check", str(root), "conservation", "--report-only", "--out", str(tmp_path / "c.csv")]
    assert run(cons + ["--quiet"]) == 0
    root.write_text(root.read_text().replace('tau = "0"', 'tau = "1"'))
    assert run(cons) == 3
    assert "cell 0 at t=0.0: sqrt derivative undefined at 0" in capsys.readouterr().err


def test_invariance_prints_the_exact_eps_derivative(tmp_path, capsys):
    # translation is an exact symmetry of the free particle: the first
    # variation vanishes cell by cell, so the derivative is 0 up to rounding
    assert run(["check", FREE, "invariance", "--out", str(tmp_path / "inv.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("d_action_d_eps=")
    assert abs(float(lines[1].split("=")[1])) <= 1e-13


def test_check_requires_symmetry_section(tmp_path):
    bare = tmp_path / "bare.problem"
    bare.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [4]\n'
    )
    assert run(["check", str(bare), "invariance"]) == 3
    assert run(["check", str(bare), "conservation"]) == 3
    assert run(["check", str(bare), "el", "--out", str(tmp_path / "el.csv"), "--quiet"]) == 0


def test_non_increasing_time_map_names_its_point(tmp_path, capsys):
    # t - eps*t^2 at eps = 0.5 maps 0, 1, 2, 3, 4 to 0, 0.5, 0, -1.5, -4
    folded = tmp_path / "folded.problem"
    folded.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2 / 2"\nqa = [0]\nqb = [1]\n'
        '[symmetry]\ntau = "-t^2"\nxi = ["0"]\ntbar = "t - eps*t^2"\nqbar = ["q1"]\n'
    )
    out = tmp_path / "i.csv"
    assert run(["check", str(folded), "invariance", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: point 2 at t=2.0: transformed times are not strictly increasing at eps=0.5"
        " (0.5 followed by 0.0)\n")
    assert not out.exists()


def test_check_non_monotone_eps_exits_3(tmp_path):
    shifty = tmp_path / "shifty.problem"
    shifty.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 3\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1]\n'
        '[symmetry]\ntau = "-t"\nxi = ["0"]\n'
    )
    assert run(["check", str(shifty), "invariance", "--eps=2.0", "--out", str(tmp_path / "i.csv")]) == 3


def test_sweep_gravity_first_order(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", GRAVITY, "--h-list", "0.1,0.01,0.001", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,action,max_residual,order"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[2]) for r in rows] == pytest.approx([5e-2, 5e-3, 5e-4], rel=1e-6)
    assert rows[0][3] == ""
    assert float(rows[1][3]) == pytest.approx(1.0, abs=0.2)
    assert float(rows[2][3]) == pytest.approx(1.0, abs=0.2)


def test_sweep_free_particle_exact(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", FREE, "--h-list", "0.5,0.25", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(float(r[2]) <= 1e-12 for r in rows)
    assert rows[1][3] == "exact"


def test_sweep_parses_the_lagrangian_once(tmp_path, monkeypatch):
    calls = []
    from_text = tv.Lagrangian.from_text

    def counting_from_text(text, dim):
        calls.append(text)
        return from_text(text, dim)

    monkeypatch.setattr(tv.Lagrangian, "from_text", counting_from_text)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", GRAVITY, "--h-list", "0.1,0.05,0.02,0.01", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5
    assert len(calls) == 1


def test_sweep_single_h_has_empty_order(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", GRAVITY, "--h-list", "0.1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 1 and rows[0][3] == ""


def test_sweep_rejects_non_sampled_kind(tmp_path, capsys):
    message = "timescale.kind: sweep needs a uniform or sampled kind, got 'power2'"
    assert run(["sweep", DOUBLING, "--h-list", "0.1,0.01", "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    # the kind is checked before the [symmetry] section and the --h-list
    bare = tmp_path / "bare.problem"
    bare.write_text(Path(DOUBLING).read_text().split("[symmetry]")[0])
    assert run(["sweep", str(bare), "--h-list", "0.01,0.1", "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ProblemFileError) as err:
        build_grid(load_problem_file(DOUBLING), h_override=0.1)
    assert str(err.value) == message
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    ("qa = [0]", "qa = [0", "problem.qa: unterminated list"),
    ("qa = [0]", "qa = []", "problem.qa: expected 1 entries, got 0"),
    ("[symmetry]", "[problem]", "line 15: duplicate section [problem]"),
    ("h = 1", "h 1", "line 7: expected key = value"),
    ("h = 1", "= 1", "line 7: missing key"),
    ("dim = 1", 'dim = "1"', "problem.dim: expected a number, got '1'"),
    ('lagrangian = "qd1^2"', "lagrangian = 2", "problem.lagrangian: expected a string, got 2.0"),
    ("qa = [0]", 'qa = ["0"]', "problem.qa: expected a bracketed numeric list"),
    ('xi = ["1"]', "xi = [1]", "symmetry.xi: expected a bracketed list of quoted strings"),
    ("dim = 1", "dim = 0", "problem.dim: must be >= 1"),
    ("dim = 1", "dim = 1\nmass = 2", "problem.mass: unknown key"),
    ('xi = ["1"]', 'xi = ["1"]\nzeta = "1"', "symmetry.zeta: unknown key"),
    ('xi = ["1"]', 'xi = ["1"]\n[solver]\nsteps = 3', "solver.steps: unknown key"),
    ('xi = ["1"]', 'xi = ["1"]\n[solver]\nmax_iter = 0', "solver.max_iter: must be >= 1"),
    ('xi = ["1"]', 'xi = ["qd1"]',
     "symmetry: variable 'qd1' is not allowed in this context (column 1)"),
])
def test_problem_file_errors_exit_3_with_their_message(tmp_path, capsys, old, new, message):
    text = Path(FREE).read_text()
    assert old in text
    problem = tmp_path / "bad.problem"
    problem.write_text(text.replace(old, new, 1))
    out = tmp_path / "c.csv"
    assert run(["check", str(problem), "conservation", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["check", FREE, "invariance", "--eps=0.1,x"], "cannot parse --eps list '0.1,x'"),
    (["check", FREE, "invariance", "--eps=,"], "empty --eps list"),
    (["sweep", GRAVITY, "--h-list=0.1,x"], "cannot parse --h-list list '0.1,x'"),
    (["sweep", GRAVITY, "--h-list="], "empty --h-list list"),
])
def test_value_lists_that_do_not_parse_or_are_empty_exit_3(tmp_path, capsys, argv, message):
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_requires_a_symmetry_section(tmp_path, capsys):
    bare = tmp_path / "bare.problem"
    bare.write_text(Path(GRAVITY).read_text().split("[symmetry]")[0])
    out = tmp_path / "s.csv"
    assert run(["sweep", str(bare), "--h-list=0.1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: sweep requires a [symmetry] section for the residual\n"
    assert not out.exists()


def test_sweep_rejects_increasing_h_list(tmp_path):
    assert run(["sweep", GRAVITY, "--h-list", "0.01,0.1", "--out", str(tmp_path / "s.csv")]) == 3


def test_each_command_writes_beside_its_problem_file_without_out(tmp_path, capsys):
    # <stem>_solution.csv, <stem>_check_<which>.csv and <stem>_sweep.csv, the
    # same bytes as the same command writes to --out
    problem = tmp_path / "free.problem"
    problem.write_text(Path(FREE).read_text())
    for argv, name in [(["solve"], "free_solution.csv"),
                       *((["check", which], f"free_check_{which}.csv")
                         for which in ("el", "invariance", "conservation")),
                       (["sweep", "--h-list=1,0.5"], "free_sweep.csv")]:
        command = [argv[0], str(problem), *argv[1:], "--quiet"]
        assert run(command) == 0
        assert run(command + ["--out", str(tmp_path / "given.csv")]) == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "given.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "free.problem", "free_check_conservation.csv", "free_check_el.csv",
        "free_check_invariance.csv", "free_solution.csv", "free_sweep.csv", "given.csv"]


def test_outputs_bit_stable_across_runs(tmp_path):
    pairs = []
    for name, argv in (
        ("solve", ["solve", DOUBLING]),
        ("check", ["check", DOUBLING, "invariance"]),
        ("sweep", ["sweep", GRAVITY, "--h-list", "0.1,0.05"]),
    ):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert run(argv + ["--out", str(a), "--quiet"]) == 0
        assert run(argv + ["--out", str(b), "--quiet"]) == 0
        pairs.append((a.read_bytes(), b.read_bytes()))
    for a_bytes, b_bytes in pairs:
        assert a_bytes == b_bytes
        assert b"\r" not in a_bytes


def test_usage_error_exits_3():
    assert run(["check", FREE, "everything"]) == 3
    assert run(["frobnicate"]) == 3


def test_module_entrypoint_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = tmp_path / "fp.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tsvarlab", "solve", FREE, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "action=4" in proc.stdout
    assert out.exists()


def _outcome(read, argv):
    try:
        args = read(argv)
    except _UsageError:
        return "usage error"
    # repr keeps the type of a value and lets nan equal nan
    return "help" if args is None else {name: repr(v) for name, v in vars(args).items()}


def _assert_read_as_argparse_did(argv):
    ours, theirs = _outcome(_read_args, argv), _outcome(argparse_read_args, argv)
    # -h or --help (or a prefix) asks for help wherever it stands before '--',
    # also after a token that argparse rejected first
    options = argv[:argv.index("--")] if "--" in argv else argv
    asks_help = any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in options)
    assert ours == theirs or (ours, theirs, asks_help) == ("help", "usage error", True), argv


PARITY_CORPUS = [
    # options before, between and after the positionals
    ["solve", "--quiet", "f"],
    ["check", "--tol", "1", "f", "--quiet", "el", "--out", "o"],
    ["check", "f", "el", "--report-only", "--eps", "0.1"],
    ["sweep", "--h-list", "0.1,0.05", "f"],
    # --opt=v, an empty value, a repeated option
    ["solve", "f", "--out=o", "--guess=g.csv"],
    ["solve", "f", "--out="],
    ["solve", "f", "--out", "a", "--out=b"],
    ["check", "f", "el", "--tol=1", "--tol", "2", "--out=a=b"],
    # unique and ambiguous prefixes
    ["solve", "f", "--qu"],
    ["check", "f", "el", "--rep", "--t=3", "--e", "1"],
    ["sweep", "f", "--h-l", "0.1"],
    ["sweep", "f", "--h", "0.1"],
    ["solve", "f", "--=x"],
    # negative numbers are values; other tokens that start with '-' are options
    ["check", "f", "el", "--tol", "-1"],
    ["check", "f", "el", "--eps", "-0.5"],
    ["check", "f", "el", "--eps", "-.5"],
    ["solve", "-5"],
    ["check", "f", "el", "--tol", "-1e-8"],
    ["check", "f", "el", "--eps", "-0.5,0.1"],
    ["check", "f", "el", "--eps=-0.5,0.1"],
    ["solve", "f", "--out", "--quiet"],
    ["solve", "f", "--out"],
    ["solve", "-x"],
    ["solve", "-a b"],
    ["solve", "f", "--out", "-"],
    ["solve", ""],
    # -- makes every later token a positional
    ["solve", "--", "-f"],
    ["solve", "--", "--"],
    ["solve", "f", "--"],
    ["solve", "f", "--quiet", "--"],
    ["solve", "f", "--out", "x", "--"],
    ["solve", "--out", "--", "x"],
    ["solve", "--out", "x", "--", "f"],
    ["check", "f", "--quiet", "--", "el"],
    ["check", "f", "el", "--", "x"],
    ["check", "f", "--", "--"],
    ["solve", "f", "--out=--"],
    ["check", "f", "el", "--tol=--"],
    # a flag takes no value
    ["solve", "f", "--quiet=1"],
    ["solve", "f", "--quiet="],
    ["check", "f", "el", "--report-only=yes"],
    # which, the required --h-list, the float --tol
    ["check", "f", "bogus"],
    ["check", "f", "-5"],
    ["check", "f"],
    ["sweep", "f"],
    ["sweep", "f", "--h-list="],
    ["check", "f", "el", "--tol=abc"],
    ["check", "f", "el", "--tol", "nan"],
    # the command
    [],
    ["frobnicate"],
    ["--quiet", "solve", "f"],
    ["-5"],
    ["solve"],
    ["solve", "f", "g"],
    # help
    ["-h"],
    ["--help"],
    ["--he"],
    ["solve", "f", "-h"],
    ["check", "--help"],
    ["sweep", "--he", "x"],
    ["solve", "--", "-h"],
    ["solve", "--help=1"],
    ["solve", "-hx"],
    ["solve", "-hx y"],
]


@pytest.mark.parametrize("argv", PARITY_CORPUS, ids=repr)
def test_reader_matches_argparse_on_the_parity_rules(argv):
    _assert_read_as_argparse_did(argv)


def test_an_exact_option_name_wins_over_a_longer_one():
    # as in argparse; no option of the CLI begins another, so only a table shows it
    options = {"--out": None, "--output": None}
    assert _option("--out", options) == ("--out", None, "--out")
    assert _option("--out=x", options) == ("--out", "x", "--out=x")
    with pytest.raises(_UsageError, match="ambiguous option: --ou could match --out, --output"):
        _option("--ou", options)


_OPTIONS = ["--out", "--guess", "--quiet", "--tol", "--eps", "--report-only", "--h-list", "--help"]
_PREFIXES = sorted({option[:k] for option in _OPTIONS for k in range(3, len(option))})
_VALUES = ["f", "el", "invariance", "conservation", "0.1,0.05", "1e-3", "abc", "", "-5", "-1e-8",
           "-0.5", "-.5", "-0.5,0.1", "-", "--", "a b", "-a b", "--bogus", "-x", "nan"]
_names = st.sampled_from(_OPTIONS) | st.sampled_from(_PREFIXES + ["-h"])
_values = st.sampled_from(_VALUES)
_phrases = st.one_of(
    _values.map(lambda value: [value]),
    _names.map(lambda name: [name]),
    st.tuples(_names, _values).map(list),
    st.tuples(_names, _values).map("=".join).map(lambda token: [token]),
    st.just(["--"]),
)
_ACCEPTED = {"solve": ["f"], "check": ["f", "el"], "sweep": ["f", "--h-list", "0.1"]}
_ACCEPTED_PHRASES = {
    "solve": [["--quiet"], ["--qu"], ["--out", "o"], ["--out="], ["--guess=-5"], ["--gu", "-.5"]],
    "check": [["--quiet"], ["--report-only"], ["--rep"], ["--tol", "-1"], ["--tol=1e-3"],
              ["--t", "nan"], ["--eps", "-0.5"], ["--eps=-0.5,0.1"], ["--out", "a b"]],
    "sweep": [["--quiet"], ["--q"], ["--out", "o"], ["--h-list", "-5"], ["--h-l=0.1,0.05"]],
}


def _argv(command):
    """Phrases put among the tokens of an accepted argv of the command, or among each other."""
    # three in four phrases are accepted ones
    phrase = st.tuples(st.integers(0, 3), st.sampled_from(_ACCEPTED_PHRASES[command]), _phrases)
    phrase = phrase.map(lambda drawn: drawn[2] if drawn[0] == 0 else drawn[1])
    return st.tuples(st.booleans(), st.lists(st.tuples(st.integers(0, 6), phrase), max_size=4))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(_ACCEPTED)).flatmap(lambda c: st.tuples(st.just(c), _argv(c))))
def test_reader_matches_argparse_on_generated_argv(drawn):
    command, (accepted, phrases) = drawn
    tokens = list(_ACCEPTED[command]) if accepted else []
    for at, phrase in phrases:
        tokens[at:at] = phrase
    _assert_read_as_argparse_did([command] + tokens)


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "expected a command"),
        (["frobnicate"], "'frobnicate'"),
        (["solve"], "file"),
        (["solve", FREE, "extra"], "extra"),
        (["solve", FREE, "--bogus"], "--bogus"),
        (["sweep", FREE, "--h", "0.1"], "--h could match"),
        (["sweep", FREE], "--h-list"),
        (["solve", FREE, "--guess"], "--guess"),
        (["solve", FREE, "--quiet=1"], "--quiet"),
        (["check", FREE, "el", "--tol", "-1e-8"], "--tol"),
        (["check", FREE, "el", "--tol=abc"], "'abc'"),
        (["check", FREE, "everything"], "'everything'"),
        (["solve", FREE, "--quiet", "--"], "--"),
    ],
)
def test_usage_error_names_the_token(tmp_path, capsys, argv, named):
    out = tmp_path / "out.csv"
    assert run(argv[:1] + ["--out", str(out)] + argv[1:] if argv else argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and named in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["solve", FREE, "-h"], ["sweep", "--he"],
                                  ["check", FREE, "nonsense", "--help"], ["frobnicate", "-h"]])
def test_help_prints_the_usage_and_exits_0(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr() == (USAGE + "\n", "")
    assert not (tmp_path / "out.csv").exists()


def test_main_reads_sys_argv_when_given_none(tmp_path, capsys, monkeypatch):
    out = tmp_path / "fp.csv"
    monkeypatch.setattr(sys, "argv", ["tsvarlab", "solve", FREE, "--out", str(out)])
    with pytest.raises(SystemExit) as exit_:
        entrypoint()
    assert exit_.value.code == 0
    assert "action=4" in capsys.readouterr().out and out.exists()


def test_command_imports_neither_argparse_nor_gettext_nor_locale(tmp_path):
    # argparse's first message lookup imports gettext and locale: about 4 ms a process
    out = tmp_path / "fp.csv"
    argv = ["solve", FREE, "--out", str(out), "--quiet"]
    code = ("import sys, tsvarlab.cli; code = tsvarlab.cli.main(%r); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))); "
            "sys.exit(code)" % argv)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    assert out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_solver_tol_must_be_positive_and_finite(tmp_path, capsys, tol):
    problem = tmp_path / "gravity.problem"
    problem.write_text(Path(GRAVITY).read_text() + f"\n[solver]\ntol = {tol}\n")
    out = tmp_path / "g.csv"
    assert run(["solve", str(problem), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: solver.tol: must be a positive finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_check_tol_must_be_non_negative_and_finite(tmp_path, capsys, tol):
    out = tmp_path / "fp.csv"
    assert run(["check", FREE, "el", f"--tol={tol}", "--out", str(out)]) == 3
    message = f"error: --tol must be a non-negative finite number, got {float(tol)!r}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()
    # the free particle's residual is exactly 0, which a tolerance of 0 admits
    assert run(["check", FREE, "el", "--tol=0", "--out", str(out), "--quiet"]) == 0


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0.1,nan"])
def test_check_eps_must_be_finite(tmp_path, capsys, eps):
    # rejected before the problem file is read, as --tol is
    out = tmp_path / "inv.csv"
    assert run(["check", str(tmp_path / "missing.problem"), "invariance", f"--eps={eps}"]) == 3
    bad = float(eps.split(",")[-1])
    assert capsys.readouterr().err == f"error: --eps values must be finite, got {bad!r}\n"
    assert run(["check", DOUBLING, "invariance", f"--eps={eps}", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("eps, first, again", [
    ("0.1,0.1", 0.1, 0.1), ("0,-0", 0.0, -0.0), ("-0.5,0.1,0.5,1e-1", 0.1, 0.1),
])
def test_check_eps_values_must_be_distinct(tmp_path, capsys, eps, first, again):
    # compared as floats and rejected before the problem file is read, as nan is
    out = tmp_path / "inv.csv"
    assert run(["check", str(tmp_path / "missing.problem"), "invariance", f"--eps={eps}"]) == 3
    message = f"error: --eps values must be distinct, got {first!r} and {again!r}\n"
    assert capsys.readouterr().err == message
    assert run(["check", DOUBLING, "invariance", f"--eps={eps}", "--out", str(out)]) == 3
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_non_finite_generator_value_exits_3_at_its_point(tmp_path, capsys):
    # q1 = 10.75 at point 1, where tau = q1^300 overflows
    huge = tmp_path / "huge.problem"
    huge.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2/2"\nqa = [1]\nqb = [40]\n'
        '[symmetry]\ntau = "q1^300"\nxi = ["0"]\n'
    )
    out = tmp_path / "inv.csv"
    assert run(["check", str(huge), "invariance", "--out", str(out)]) == 3
    message = "error: point 1 at t=1.0: non-finite value nan (column 1)\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize(
    "timescale, message",
    [
        ("kind = uniform\na = 0\nb = 1\nh = 1e-300", "uniform(a, b, h) would have 1e+300 points"),
        ("kind = sampled\na = 0\nb = 1\nh = 1e-300", "sampled(a, b, h) would have 1e+300 points"),
        ("kind = integers\na = 0\nb = 1e12", "integers(a, b) would have 1e+12 points"),
        ("kind = power2\nn0 = 0\nn1 = 1100", "power2(n0, n1) needs n1 < 1024"),
    ],
)
def test_oversized_grid_exits_3(tmp_path, capsys, timescale, message):
    problem = tmp_path / "big.problem"
    problem.write_text(
        f"[timescale]\n{timescale}\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1]\n'
    )
    assert run(["solve", str(problem), "--out", str(tmp_path / "big.csv")]) == 3
    assert capsys.readouterr().err.startswith(f"error: timescale: {message}")


@pytest.mark.parametrize("timescale, message", [
    ("kind = integers\na = 0.5\nb = 4", "timescale.a: expected an integer, got 0.5"),
    ("kind = integers\na = 0\nb = 4.5", "timescale.b: expected an integer, got 4.5"),
    ("kind = power2\nn0 = 0.5\nn1 = 4", "timescale.n0: expected an integer, got 0.5"),
])
def test_fractional_integer_bound_exits_3(tmp_path, capsys, timescale, message):
    # the grid constructors would truncate it: integers(0.5, 4) starts at 0
    problem = tmp_path / "frac.problem"
    problem.write_text(
        f"[timescale]\n{timescale}\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1]\n'
    )
    out = tmp_path / "frac.csv"
    assert run(["solve", str(problem), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unwritable_output_or_undecodable_input_exits_3_naming_the_file(tmp_path, capsys):
    latin1 = tmp_path / "latin1.problem"
    latin1.write_bytes(Path(FREE).read_bytes().replace(b"# ", b"# \xff", 1))
    guess = tmp_path / "guess.csv"
    guess.write_bytes(b"t,q_1\n\xff\n")
    missing, taken, out = tmp_path / "missing" / "fp.csv", tmp_path / "taken", tmp_path / "fp.csv"
    taken.mkdir()
    for argv, message in [
        (["solve", FREE, "--out", str(missing)],
         f"cannot write output file '{missing}': No such file or directory\n"),
        (["solve", FREE, "--out", str(taken)], f"cannot write output file '{taken}': Is a directory\n"),
        (["solve", str(latin1), "--out", str(out)], f"cannot read problem file '{latin1}': 'utf-8' codec"),
        (["solve", FREE, "--guess", str(guess), "--out", str(out)],
         f"cannot read guess file '{guess}': 'utf-8' codec"),
    ]:
        before = sorted(tmp_path.rglob("*"))
        assert run(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1, err
        assert sorted(tmp_path.rglob("*")) == before  # no CSV and no *.tmp left behind


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_file_mode_follows_the_umask(tmp_path, umask, mode):
    out = tmp_path / "fp.csv"
    old = os.umask(umask)
    try:
        assert run(["solve", FREE, "--out", str(out), "--quiet"]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode
    assert sorted(tmp_path.iterdir()) == [out]  # the temporary file was renamed


def test_oversized_explicit_list_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ts, "MAX_POINTS", 5)
    problem = tmp_path / "big.problem"
    problem.write_text(
        "[timescale]\nkind = explicit\npoints = [0, 1, 2, 3, 4, 5]\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1]\n'
    )
    assert run(["solve", str(problem), "--out", str(tmp_path / "big.csv")]) == 3
    assert capsys.readouterr().err == (
        "error: timescale: explicit(points) would have 6 points; the limit is 5\n")
    assert not (tmp_path / "big.csv").exists()


def test_sweep_step_goes_through_the_grid_size_limit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", GRAVITY, "--h-list", "1e-300", "--out", str(out)]) == 3
    assert "would have 1e+300 points; the limit is 10000000" in capsys.readouterr().err
    assert not out.exists()


def test_row_format_is_17_significant_digits():
    values = [0.0, -0.0, 1.0, 0.1, -2.5e-7, 1e22, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, math.pi, float("inf"), float("-inf"), float("nan")]
    body = np.array(values).reshape(-1, 1)
    assert b"".join(encode_table(body)).decode().splitlines() == [format(x, ".17g") for x in values]
    tail = np.array([[1.0, 2.0]] * (len(values) - 1))
    rows = b"".join(encode_table(body, tail)).decode().splitlines()
    assert rows[:-1] == [format(x, ".17g") + ",1,2" for x in values[:-1]]
    assert rows[-1] == "nan,,"


# ---------------------------------------------------------------------------
# Output bytes, rebuilt from the library results


def _g(x) -> str:
    return format(float(x), ".17g")


def _csv_bytes(header, rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def _expected_outputs(path, h_list, eps):
    """Every CSV the CLI writes for ``path``, formatted here value by value."""
    pf = load_problem_file(path)
    problem = build_problem(pf)
    opts = solver_options(pf)
    gen = build_generator(pf)
    n = problem.dim
    result = tv.solve_el(problem, **opts)
    q = result.trajectory.values
    t = problem.grid.points
    out = {}

    rows = []
    for i in range(len(t)):
        row = [_g(t[i])] + [_g(x) for x in q[i]]
        if i + 1 < len(t):
            row += [_g((q[i + 1][k] - q[i][k]) / (t[i + 1] - t[i])) for k in range(n)]
        else:
            row += [""] * n
        rows.append(row)
    header = ["t"] + [f"q_{k + 1}" for k in range(n)] + [f"qd_{k + 1}" for k in range(n)]
    out["solve"] = _csv_bytes(header, rows)

    resid = tv.el_residual(problem, result.trajectory)
    r = resid.values.reshape(len(resid.grid), n)
    rows = [[_g(ti)] + [_g(x) for x in r[i]] for i, ti in enumerate(resid.grid.points)]
    out["el"] = _csv_bytes(["t"] + [f"r_{k + 1}" for k in range(n)], rows)

    zero_tau = isinstance(gen.tau, tv.expr.Num) and gen.tau.value == 0.0
    if gen.has_family or not zero_tau:
        inv = tv.check_invariance_time_transform(problem, result.trajectory, gen, eps)
    else:
        inv = tv.check_invariance_fixed_time(problem, result.trajectory, gen, eps)
    rows = [
        [_g(ti)] + [_g(inv.discrepancies[e][i]) for e in range(len(eps))]
        for i, ti in enumerate(inv.cell_times)
    ]
    out["invariance"] = _csv_bytes(["t"] + [f"disc_eps={e:g}" for e in eps], rows)

    cons = tv.noether_quantity(problem, result.trajectory, gen)
    rows = [
        [_g(ti), _g(cons.values[i]), _g(cons.residuals[i]) if i < len(cons.residuals) else ""]
        for i, ti in enumerate(cons.times)
    ]
    out["conservation"] = _csv_bytes(["t", "C", "residual"], rows)

    if h_list:
        rows, prev = [], None
        for h in h_list:
            p = build_problem(pf, grid=build_grid(pf, h_override=h))
            sol = tv.solve_el(p, **opts)
            res = tv.noether_quantity(p, sol.trajectory, gen).max_abs_residual
            order = ""
            if prev is not None:
                if prev[1] <= 1e-12 and res <= 1e-12:
                    order = "exact"
                elif prev[1] > 1e-12 and res > 1e-12:
                    order = _g(math.log(prev[1] / res) / math.log(prev[0] / h))
            rows.append([_g(h), _g(sol.action_value), _g(res), order])
            prev = (h, res)
        out["sweep"] = _csv_bytes(["h", "action", "max_residual", "order"], rows)
    return out


def _random_explicit_problem(tmp_path):
    rng = np.random.default_rng(20)
    points = np.cumsum(np.concatenate([[rng.uniform(-1, 1)], rng.uniform(0.05, 0.4, 30)]))
    path = tmp_path / "random_explicit.problem"
    path.write_text(
        "[timescale]\nkind = explicit\n"
        f"points = [{', '.join(repr(float(p)) for p in points)}]\n"
        "[problem]\ndim = 2\n"
        'lagrangian = "qd1^2/2 + qd2^2/2 + 0.5*cos(qs1 - qs2)"\n'
        "qa = [0, 1]\nqb = [0.5, -0.25]\n"
        '[symmetry]\nxi = ["1", "1"]\n'
    )
    return str(path)


def _large_explicit_problem(tmp_path):
    # 2000 points and 16 eps: every CSV is above the encoder's size constant
    rng = np.random.default_rng(21)
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(5e-4, 1.5e-3, 1999))])
    path = tmp_path / "large_explicit.problem"
    path.write_text(
        "[timescale]\nkind = explicit\n"
        f"points = [{', '.join(repr(float(p)) for p in points)}]\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2/2 + cos(qs1)"\nqa = [0]\nqb = [1]\n'
        '[symmetry]\ntau = "1"\nxi = ["0"]\n'
    )
    return str(path)


@pytest.mark.parametrize(
    "name, h_list",
    [("power2_dilation", None), ("free_particle", "0.5,0.25,0.125"),
     ("gravity_uniform", "0.1,0.05,0.025"), ("random_explicit", None), ("large_explicit", None)],
)
def test_output_bytes_equal_values_formatted_one_by_one(tmp_path, name, h_list):
    eps = [-0.5, -0.1, 0.1, 0.5]
    if name == "random_explicit":
        path = _random_explicit_problem(tmp_path)
    elif name == "large_explicit":
        path = _large_explicit_problem(tmp_path)
        eps = [-0.5, -0.3, -0.2, -0.1, -0.05, -0.02, -0.01, -0.001,
               0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5]
    else:
        path = str(SCENARIOS / f"{name}.problem")
    commands = {
        "solve": ["solve", path],
        "el": ["check", path, "el", "--report-only"],
        "invariance": ["check", path, "invariance", "--report-only",
                       "--eps=" + ",".join(map(repr, eps))],
        "conservation": ["check", path, "conservation", "--report-only"],
    }
    if h_list:
        commands["sweep"] = ["sweep", path, "--h-list", h_list]
    expected = _expected_outputs(
        path, [float(h) for h in h_list.split(",")] if h_list else None, eps
    )
    assert sorted(expected) == sorted(commands)
    for kind, argv in commands.items():
        out = tmp_path / f"{kind}.csv"
        assert run(argv + ["--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == expected[kind], kind
