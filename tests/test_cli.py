import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsvarlab.cli import main

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


def test_solve_rejects_short_guess_row(tmp_path, capsys):
    guess = tmp_path / "guess.csv"
    guess.write_text("t,q_1\n0,0\n1\n2,2\n3,3\n4,4\n")
    out = tmp_path / "fp.csv"
    assert run(["solve", FREE, "--out", str(out), "--guess", str(guess)]) == 3
    assert "row 2" in capsys.readouterr().err
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
    huge.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 2\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1e200]\n'
    )
    out = tmp_path / "huge.csv"
    assert run(["solve", str(huge), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "cell 0 at t=0.0: non-finite value inf" in captured.err
    assert len(captured.err.splitlines()) == 1  # the error line, no numpy warnings
    assert "action=" not in captured.out
    assert not out.exists()


def test_check_requires_symmetry_section(tmp_path):
    bare = tmp_path / "bare.problem"
    bare.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 4\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [4]\n'
    )
    assert run(["check", str(bare), "invariance"]) == 3
    assert run(["check", str(bare), "conservation"]) == 3
    assert run(["check", str(bare), "el", "--out", str(tmp_path / "el.csv"), "--quiet"]) == 0


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


def test_sweep_single_h_has_empty_order(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", GRAVITY, "--h-list", "0.1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 1 and rows[0][3] == ""


def test_sweep_rejects_non_sampled_kind(tmp_path):
    assert run(["sweep", DOUBLING, "--h-list", "0.1,0.01", "--out", str(tmp_path / "s.csv")]) == 3


def test_sweep_rejects_increasing_h_list(tmp_path):
    assert run(["sweep", GRAVITY, "--h-list", "0.01,0.1", "--out", str(tmp_path / "s.csv")]) == 3


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
