"""The module rules that the README states, read from the package's source with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsvarlab"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _named(name: str) -> list[tuple[str, str]]:
    """(module file, innermost enclosing function or class, '' at module level) of every
    place that names ``name``: a variable, an attribute or an imported name."""
    places = []
    for module, tree in MODULES.items():
        stack = [("", tree)]
        while stack:
            scope, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name
            names = ([node.id] if isinstance(node, ast.Name) else [node.attr]
                     if isinstance(node, ast.Attribute) else [node.name, node.asname]
                     if isinstance(node, ast.alias) else [])
            if name in names:
                places.append((module, scope))
            stack += [(scope, child) for child in ast.iter_child_nodes(node)]
    return places


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
