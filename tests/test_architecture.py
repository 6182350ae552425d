"""The module rules that the README states, read from the package's source with ast."""

import ast
import collections
import functools
import importlib
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsvarlab"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
TESTS = Path(__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


@functools.cache
def _places() -> dict[str, list[tuple[str, str]]]:
    """name -> (module file, innermost enclosing function or class, '' at module level) of
    every place that names it: a variable, an attribute or an imported name."""
    places = collections.defaultdict(list)
    for module, tree in MODULES.items():
        stack = [("", tree)]
        while stack:
            scope, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name
            names = ([node.id] if isinstance(node, ast.Name) else [node.attr]
                     if isinstance(node, ast.Attribute) else [node.name, node.asname]
                     if isinstance(node, ast.alias) else [])
            for name in set(names) - {None}:
                places[name].append((module, scope))
            stack += [(scope, child) for child in ast.iter_child_nodes(node)]
    return places


def _named(name: str) -> list[tuple[str, str]]:
    return _places().get(name, [])


def _imported(tree) -> list[str]:
    """The names that the imports of a module bind, apart from __future__ features."""
    return [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", "") != "__future__" for alias in node.names]


def test_cli_imports_only_the_table_encoder_and_fmt_from_g17():
    imported = [alias.name for node in ast.walk(MODULES["cli.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
                if "_g17" in (getattr(node, "module", None) or "").split(".") + alias.name.split(".")]
    assert sorted(imported) == ["encode_table", "fmt"]


def test_only_the_cell_layer_silences_numpy():
    # calculus.py, and two places whose arithmetic is not on cell values: the tree
    # walk, whose callers locate inf and nan, and the block solver's pivots
    places = _named("errstate")
    assert places and {(module, scope) for module, scope in places if module != "calculus.py"} == {
        ("expr.py", "evaluate"), ("variational.py", "_block_tridiag_solve")}


def test_only_the_cell_layer_names_non_finite_cells():
    places = _named("finite_cells")
    assert places and {module for module, _ in places} == {"calculus.py"}


def test_the_newton_driver_reads_no_grid():
    # solve_el hands the driver its interior values and the closures that pad them, and
    # the driver holds the loop: a new stop test changes only the driver, and new unknowns
    # or a new guess only solve_el
    grid_names = ["p", "grid", "lagrangian", "qa", "qb", "Problem", "GridFunction",
                  "_traj_values", "_action_and_gradient", "_interior_hessian"]
    assert [name for name in grid_names if ("variational.py", "_newton") in _named(name)] == []
    assert ("variational.py", "_newton") in _named("_block_tridiag_solve")
    solve_el = next(node for node in MODULES["variational.py"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "solve_el")
    assert not [node for node in ast.walk(solve_el) if isinstance(node, (ast.For, ast.While))]


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps functions by (module, attribute) name, so a rename
    # would silently leave its per-layer metric at 0; two names it wraps are already
    # gone (ROADMAP item 1 replaces the table)
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    wraps = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["WRAPS"])
    absent = {f"{module}.{attr}" for module, attr, _ in wraps
              if not hasattr(importlib.import_module(module), attr)}
    assert len(wraps) > 2 and absent <= {"tsvarlab.expr.diff_eval", "tsvarlab.noether.TimeScaleGrid"}


def test_every_private_definition_is_named_outside_itself():
    # a deletion that leaves a private helper behind leaves it named only where it is defined
    private = {node.name for tree in MODULES.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    unused = sorted(name for name in private if all(scope == name for _, scope in _named(name)))
    assert len(private) > 60 and unused == []


def test_every_import_is_used():
    unused = {module: sorted(set(_imported(tree)) - {node.id for node in ast.walk(tree)
                                                      if isinstance(node, ast.Name)})
              for module, tree in MODULES.items() if module != "__init__.py"}
    assert {module: names for module, names in unused.items() if names} == {}


def test_init_imports_exactly_all():
    imported = _imported(MODULES["__init__.py"])
    assert sorted(imported) == sorted(importlib.import_module("tsvarlab").__all__)


def test_every_public_field_and_member_is_read():
    # a record field, public method or property that nothing reads is built for no caller.
    # Reads are matched by name, like _named: a member that shares its name with one that
    # is read passes unseen, as a GridFunction.dim read nowhere would, since Problem.dim is
    trees = [*MODULES.values(),
             *(ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("*.py")))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    package = importlib.import_module("tsvarlab")
    kinds = (types.FunctionType, property, functools.cached_property, classmethod, staticmethod)
    members = set()
    for name in package.__all__:
        cls = getattr(package, name)
        if isinstance(cls, type):
            members |= {(name, field) for field in getattr(cls, "_fields", ())}
            members |= {(name, attr) for attr, value in vars(cls).items()
                        if not attr.startswith("_") and isinstance(value, kinds)}
    assert len(members) > 25 and sorted(f"{cls}.{attr}" for cls, attr in members
                                        if attr not in read) == []
