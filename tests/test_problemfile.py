import numpy as np
import pytest

from tsvarlab.problemfile import (
    ProblemFileError,
    _parse_value,
    _strip_comment,
    build_generator,
    build_grid,
    build_problem,
    parse_problem_text,
    solver_options,
)

GOOD = """
# a comment
[timescale]
kind = power2
n0 = 0
n1 = 4

[problem]
dim = 1
lagrangian = "qs1^2 / t + t * qd1^2"   # inline comment
qa = [1]
qb = [13]

[symmetry]
tau = "t"
xi = ["0"]
tbar = "t * exp(eps)"
qbar = ["q1"]

[solver]
tol = 1e-12
max_iter = 50
"""


def test_full_round_trip():
    pf = parse_problem_text(GOOD)
    grid = build_grid(pf)
    assert grid.points == (1.0, 2.0, 4.0, 8.0, 16.0)
    problem = build_problem(pf, grid=grid)
    assert problem.dim == 1
    assert problem.qa[0] == 1.0 and problem.qb[0] == 13.0
    gen = build_generator(pf)
    assert gen.has_family
    assert solver_options(pf) == {"tol": 1e-12, "max_iter": 50}


def test_symmetry_section_optional():
    text = GOOD.split("[symmetry]")[0]
    pf = parse_problem_text(text)
    assert pf.symmetry is None
    assert build_generator(pf) is None
    assert solver_options(pf) == {}


def test_missing_required_section():
    with pytest.raises(ProblemFileError, match=r"\[problem\]"):
        parse_problem_text("[timescale]\nkind = integers\na = 0\nb = 3\n")


def test_unknown_section():
    with pytest.raises(ProblemFileError, match="unknown section"):
        parse_problem_text("[grid]\nkind = integers\n")


def test_duplicate_key():
    with pytest.raises(ProblemFileError, match="duplicate key timescale.kind"):
        parse_problem_text("[timescale]\nkind = integers\nkind = power2\n")


def test_key_outside_section():
    with pytest.raises(ProblemFileError, match="outside"):
        parse_problem_text("kind = integers\n")


def test_boundary_dimension_mismatch_has_field_path():
    bad = GOOD.replace("qa = [1]", "qa = [1, 2]")
    with pytest.raises(ProblemFileError, match="problem.qa: expected 1 entries, got 2"):
        build_problem(parse_problem_text(bad))


def test_xi_dimension_checked():
    bad = GOOD.replace('xi = ["0"]', 'xi = ["0", "1"]')
    with pytest.raises(ProblemFileError, match="symmetry.xi: expected 1 entries"):
        build_generator(parse_problem_text(bad))


def test_lagrangian_parse_error_is_mapped():
    bad = GOOD.replace('"qs1^2 / t + t * qd1^2"', '"qs9 + t"')
    with pytest.raises(ProblemFileError, match="problem.lagrangian"):
        build_problem(parse_problem_text(bad))


def test_unknown_timescale_kind():
    bad = GOOD.replace("kind = power2", "kind = cantor")
    with pytest.raises(ProblemFileError, match="timescale.kind"):
        build_grid(parse_problem_text(bad))


def test_wrong_key_for_kind():
    bad = GOOD.replace("n0 = 0", "a = 0")
    with pytest.raises(ProblemFileError, match="timescale.a: unknown key"):
        build_grid(parse_problem_text(bad))


def test_family_requires_both_maps():
    bad = GOOD.replace('qbar = ["q1"]', "")
    with pytest.raises(ProblemFileError, match="tbar/qbar"):
        build_generator(parse_problem_text(bad))


def test_explicit_points_list():
    pf = parse_problem_text(
        "[timescale]\nkind = explicit\npoints = [1, 2, 4, 8]\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1]\n'
    )
    assert build_grid(pf).points == (1.0, 2.0, 4.0, 8.0)


def test_solver_options_validated():
    bad = GOOD.replace("tol = 1e-12", "tol = -1")
    with pytest.raises(ProblemFileError, match="solver.tol"):
        solver_options(parse_problem_text(bad))
    for max_iter in ("2.5", "inf", "nan"):
        bad = GOOD.replace("max_iter = 50", f"max_iter = {max_iter}")
        with pytest.raises(ProblemFileError, match="solver.max_iter: expected an integer"):
            solver_options(parse_problem_text(bad))
    for tol in ("nan", "inf"):
        bad = GOOD.replace("tol = 1e-12", f"tol = {tol}")
        with pytest.raises(ProblemFileError, match="solver.tol: must be a positive finite number"):
            solver_options(parse_problem_text(bad))


def test_dimension_must_be_a_finite_integer():
    for dim in ("inf", "nan", "1.5"):
        bad = GOOD.replace("dim = 1", f"dim = {dim}")
        with pytest.raises(ProblemFileError, match="problem.dim: expected an integer"):
            build_problem(parse_problem_text(bad))


def test_quoted_strings_keep_hash_and_spaces():
    pf = parse_problem_text(
        "[timescale]\nkind = integers\na = 0\nb = 3\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2 - 1"\nqa = [0]\nqb = [0]\n'
    )
    assert pf.problem["lagrangian"] == "qd1^2 - 1"


def _strip_comment_by_character(line):
    """Reference: cut at the first '#' outside double quotes."""
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _split_list_by_character(inner):
    """Reference: split a list body at the commas outside double quotes."""
    items, quoted, start = [], False, 0
    for idx, ch in enumerate(inner):
        if ch == '"':
            quoted = not quoted
        elif ch == "," and not quoted:
            items.append(inner[start:idx])
            start = idx + 1
    items.append(inner[start:])
    return items


LINES = [
    "",
    "# only a comment",
    "kind = uniform",
    "h = 0.1   # step",
    "points = [1, 2,3]#tail # more",
    'lagrangian = "qd1^2 # not a comment"   # comment',
    'xi = ["a, b # c", "#", ","]  # comment',
    'xi = ["unterminated # still quoted',
]


@pytest.mark.parametrize("line", LINES)
def test_comment_stripping_matches_the_character_loop(line):
    assert _strip_comment(line) == _strip_comment_by_character(line)


@pytest.mark.parametrize(
    "body", ["1, 2,3", " -1.5e3 ,2 ", "7", "1, word, 2", '"a, b # c", "#", ","', '"x","y"']
)
def test_list_splitting_matches_the_character_loop(body):
    expected = [_parse_value(item, "k") for item in _split_list_by_character(body)]
    assert _parse_value(f"[{body}]", "k") == expected


@pytest.mark.parametrize("body", ["1,,2", "1, 2,", ",", '"a",,"b"'])
def test_empty_list_items_are_rejected_on_both_paths(body):
    with pytest.raises(ProblemFileError, match="k: empty value"):
        _parse_value(f"[{body}]", "k")


def test_long_points_list_with_trailing_comment():
    rng = np.random.default_rng(3)
    points = np.cumsum(rng.uniform(0.01, 1.0, size=10**4)).tolist()
    line = "points = [" + ", ".join(repr(p) for p in points) + "]   # 10^4 points, a, b"
    pf = parse_problem_text(
        "[timescale]\nkind = explicit\n" + line + "\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [1]\n'
    )
    value = _strip_comment_by_character(line).partition("=")[2].strip()
    expected = [float(item) for item in _split_list_by_character(value[1:-1])]
    assert pf.timescale["points"] == expected == points
    assert build_grid(pf).points == tuple(points)


def test_quoted_list_keeps_hash_and_comma_inside_strings():
    pf = parse_problem_text(
        "[timescale]\nkind = integers\na = 0\nb = 3\n"
        '[problem]\ndim = 1\nlagrangian = "qd1^2"\nqa = [0]\nqb = [0]\n'
        '[symmetry]\nxi = ["q1 # x, y", ","]  # trailing, comment\n'
    )
    assert pf.symmetry["xi"] == ["q1 # x, y", ","]


@pytest.mark.parametrize(
    "body, expected",
    [
        ("1, 2.5, -3e2", [1.0, 2.5, -300.0]),
        (" 1 ,\t2 ", [1.0, 2.0]),
        ("1_000, inf", [1000.0, float("inf")]),
        ('1, "a"', [1.0, "a"]),
        ("1, word, 2", [1.0, "word", 2.0]),
        ('"x, y", 3', ["x, y", 3.0]),
    ],
)
def test_list_items_read_as_each_item_alone(body, expected):
    # numbers in one pass; a list that is not all numbers is read item by item
    assert _parse_value(f"[{body}]", "k") == expected
    assert expected == [_parse_value(item, "k") for item in _split_list_by_character(body)]


@pytest.mark.parametrize(
    "body, message",
    [
        ("1, , 2", "k: empty value"),
        ('1, "a', "k: unterminated string"),
        ("1, 2 3", "k: cannot parse value '2 3'"),
        ("1.5, a+b", "k: cannot parse value 'a+b'"),
    ],
)
def test_list_item_errors_name_the_item(body, message):
    with pytest.raises(ProblemFileError) as exc:
        _parse_value(f"[{body}]", "k")
    assert str(exc.value) == message
