import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab.cli import main
from tsvarlab.expr import BinOp, Call, Neg, Num, Var
from tsvarlab.problemfile import ProblemFile
from tsvarlab.timescale import Frozen, PointClassification

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    comment = re.search(r"result\.trajectory\.values\[:, 0\]\s+# -> ([\d, ]+)", block)
    expected = [float(x) for x in comment.group(1).split(",")]
    assert expected == [1, 1, 2, 5, 13]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert np.allclose(namespace["result"].trajectory.values[:, 0], expected, rtol=0, atol=1e-10)


def test_readme_usage_block_is_the_help_text(capsys):
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.match(r"\s*```\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == block


GRID = tv.uniform(0, 1, 0.5)
L = tv.Lagrangian.from_text("qd1^2 / 2", 1)

# each core object, built from its fields as keywords, in the constructor's order
CORE = [
    (tv.TimeScaleGrid, dict(points=(0.0, 0.5, 1.0))),
    (tv.GridFunction, dict(grid=GRID, values=np.array([0.0, 1.0, 4.0]))),
    (tv.Lagrangian, dict(dim=1, expression=L.expression)),
    (tv.Problem, dict(grid=GRID, lagrangian=L, qa=np.array([0.0]), qb=np.array([1.0]))),
    (tv.SymmetryGenerator, dict(dim=1, tau=tv.parse("1", 1), xi=(tv.parse("t", 1),),
                                tbar=None, qbar=None)),
    (Num, dict(value=2.0, pos=3)),
    (Var, dict(name="t", pos=1)),
    (Neg, dict(arg=Var("t", 2), pos=1)),
    (BinOp, dict(op="+", left=Num(1.0, 1), right=Var("t", 5), pos=3)),
    (Call, dict(fn="sin", arg=Var("t", 5), pos=1)),
]

# each result record and its fields, in their documented order
RECORDS = [
    (PointClassification, "t right_scattered right_dense left_scattered left_dense isolated "
                          "dense"),
    (tv.PushforwardResult, "image_grid lhs rhs"),
    (tv.SolveResult, "trajectory iterations gradient_norm action_value"),
    (tv.InvarianceReport, "eps_values cell_times discrepancies action_eps_derivative"),
    (tv.ConservationReport, "times values residuals"),
    (tv.ExtendedPartialsReport, "times d4_forward d5_forward max_value_error max_d4_error "
                                "max_d5_error"),
    (ProblemFile, "timescale problem symmetry solver"),
]


@pytest.mark.parametrize("cls, fields", [
    pytest.param(cls, fields, id=cls.__name__) for cls, fields in
    CORE + [(cls, {name: k for k, name in enumerate(names.split())}) for cls, names in RECORDS]
])
def test_everything_is_immutable_after_construction(cls, fields):
    # "Everything is immutable after construction": a field, a cached property
    # or a new attribute can be neither assigned nor deleted
    if hasattr(cls, "_fields"):
        assert cls._fields == tuple(fields)
    else:
        assert list(inspect.signature(cls).parameters) == list(fields)
    obj = cls(**fields)
    for name, value in fields.items():
        got = getattr(obj, name)
        assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value
    if cls is tv.TimeScaleGrid:
        assert obj.points is obj.points  # a cached property still caches
    frozen = issubclass(cls, Frozen)  # the records are named tuples, with Python's messages
    for name in [*fields, "extra"]:
        assigned, deleted = (f"cannot {verb} field '{name}'" if frozen else None
                             for verb in ("assign to", "delete"))
        with pytest.raises(AttributeError, match=assigned):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=deleted):
            delattr(obj, name)


def _arrays(obj) -> list:
    """Every array that obj holds, also through the core objects it holds."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, Frozen):
            found += _arrays(value)
    return found


@pytest.mark.parametrize("cls, fields", [pytest.param(cls, fields, id=cls.__name__)
                                         for cls, fields in CORE])
def test_copies_stay_equal_and_read_only(cls, fields):
    # a deep copy or an unpickled object keeps its arrays read-only, is equal
    # to the original where that is a value, and holds equal fields either way
    obj = cls(**fields)
    for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin is not obj
        assert [a.flags.writeable for a in _arrays(twin)] == [False] * len(_arrays(obj))
        if cls in (tv.GridFunction, tv.Problem):
            assert twin != obj
        else:
            assert twin == obj and hash(twin) == hash(obj)
        for name, value in fields.items():
            got = getattr(twin, name)
            assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value


def test_copies_leave_cached_values_out():
    # a grid's points tuple repeats its array as Python floats, and a
    # Lagrangian's second-derivative trees are rebuilt from its expression
    grid, lagrangian = tv.uniform(0.0, 1.0, 1e-3), tv.Lagrangian.from_text("qd1^2/2 + cos(qs1)", 1)
    sizes = [len(pickle.dumps(grid)), len(pickle.dumps(lagrangian))]
    assert grid.points and lagrangian._second_partials
    assert [len(pickle.dumps(grid)), len(pickle.dumps(lagrangian))] == sizes
    for obj in (grid, lagrangian):
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and hash(twin) == hash(obj)
            assert [a.flags.writeable for a in _arrays(twin)] == [False] * len(_arrays(obj))
    assert pickle.loads(pickle.dumps(grid)).points == grid.points
    assert pickle.loads(pickle.dumps(lagrangian))._second_partials == lagrangian._second_partials


def test_a_formula_pickled_in_another_process_equals_a_fresh_parse():
    # the hash of a node mixes the hashes of classes and strings, which differ
    # between processes: an unpickled tree is rebuilt with this process's
    text = "qd1^2 / 2 + 3 * cos(qs1) - t"
    script = ("import pickle, sys, tsvarlab as tv; L = tv.Lagrangian.from_text(%r, 1); "
              "sys.stdout.buffer.write(pickle.dumps((L.expression, L)))" % text)
    env = dict(os.environ, PYTHONHASHSEED="random",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=True)
    tree, lagrangian = pickle.loads(proc.stdout)
    fresh = tv.Lagrangian.from_text(text, 1)
    assert tree == fresh.expression and hash(tree) == hash(fresh.expression)
    assert lagrangian == fresh and hash(lagrangian) == hash(fresh)


def test_core_objects_compare_as_the_readme_says():
    # a grid is equal to one of the same points, a Lagrangian or a
    # generator to one with the same fields, a grid function or a problem only to itself
    for make in (lambda: tv.uniform(0, 1, 0.5), lambda: tv.Lagrangian.from_text("qd1^2 / 2", 1),
                 lambda: tv.make_generator(1, "1", ["t"], "t + eps", ["q1"])):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
    assert tv.Lagrangian.from_text("qd1^2", 1) != tv.Lagrangian.from_text("qd1^2", 2)
    assert tv.make_generator(1, "1", ["t"]) != tv.make_generator(1, "0", ["t"])
    for make in (lambda: tv.GridFunction(GRID, [0.0, 1.0, 4.0]),
                 lambda: tv.make_problem(GRID, "qd1^2", 1, [0.0], [1.0])):
        a, b = make(), make()
        assert a == a and a != b and len({a, b}) == 2


def test_the_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    assert [name for name in tv.__all__ if f"`{name}`" not in text] == []
