import tracemalloc

import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab import timescale as ts
from tsvarlab.timescale import EXACT_DISCRETE, SAMPLED_CONTINUUM

import helpers
from helpers import random_grid


def test_integers_constructor():
    g = tv.make_timescale("integers", a=0, b=5)
    assert g.points == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert all(tv.mu(g, t) == 1.0 for t in g.points[:-1])


def test_power2_constructor():
    g = tv.make_timescale("power2", n0=0, n1=3)
    assert g.points == (1.0, 2.0, 4.0, 8.0)


def test_explicit_rejects_non_monotone():
    with pytest.raises(ValueError, match="strictly increasing"):
        tv.explicit([3, 1, 2])


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        tv.integers(2, 2)
    with pytest.raises(ValueError):
        tv.explicit([1.0])


def test_nonpositive_step_rejected():
    with pytest.raises(ValueError):
        tv.uniform(0, 1, 0)
    with pytest.raises(ValueError):
        tv.sampled(0, 1, -0.5)
    for ctor in (tv.uniform, tv.sampled):
        with pytest.raises(ValueError, match="step h must be positive"):
            ctor(0, 1, float("nan"))


def test_empty_or_reversed_window_rejected():
    # the same words in both stepped constructors, not a complaint about a multiple of h
    for ctor in (tv.uniform, tv.sampled):
        for a, b, h in ((1, 0, 0.5), (0, 0, 0.1), (3, -7, 0.25)):
            with pytest.raises(ValueError, match=rf"^{ctor.__name__}\(a, b, h\) needs b > a$"):
                ctor(a, b, h)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown time scale kind"):
        tv.make_timescale("cantor", a=0, b=1)


def test_sigma_examples():
    g = tv.integers(0, 5)
    assert tv.sigma(g, 2) == 3
    p2 = tv.power2(0, 3)
    assert tv.sigma(p2, 4) == 8
    assert tv.sigma(p2, 8) == 8  # fixed point at the maximum


def test_rho_examples():
    g = tv.integers(0, 5)
    assert tv.rho(g, 3) == 2
    assert tv.rho(g, 0) == 0  # fixed point at the minimum
    p2 = tv.power2(0, 3)
    assert tv.rho(p2, 8) == 4


def test_mu_examples():
    g = tv.integers(0, 5)
    assert tv.mu(g, 2) == 1
    p2 = tv.power2(0, 3)
    assert tv.mu(p2, 4) == 4
    assert tv.mu(p2, 8) == 0


def test_membership_is_exact():
    g = tv.power2(0, 3)
    with pytest.raises(ValueError, match="not a point"):
        tv.sigma(g, 3.0)
    with pytest.raises(ValueError, match="not a point"):
        tv.mu(g, 4.0000001)


def test_kappa_truncation():
    g = tv.explicit([0, 1, 2, 3])
    assert tv.kappa(g).points == (0.0, 1.0, 2.0)
    p2 = tv.power2(0, 3)
    assert tv.kappa(tv.kappa(p2)).points == (1.0, 2.0)
    two = tv.explicit([0, 1])
    once = tv.kappa(two)
    with pytest.raises(ValueError, match="empty"):
        tv.kappa(once)


def test_classify_interior_and_endpoints():
    g = tv.integers(0, 4)
    mid = tv.classify(g, 2)
    assert mid.isolated and mid.right_scattered and mid.left_scattered
    first = tv.classify(g, 0)
    assert first.left_dense and first.right_scattered and not first.isolated
    last = tv.classify(g, 4)
    assert last.right_dense and last.left_scattered and not last.dense


def test_classify_sampled_intent():
    g = tv.sampled(0, 1, 0.01)
    t = g.points[50]
    assert t == 0.5
    rec = tv.classify(g, t)
    assert rec.isolated
    assert rec.intent == SAMPLED_CONTINUUM
    assert tv.classify(tv.integers(0, 3), 1).intent == EXACT_DISCRETE


def test_sampled_clips_final_step():
    g = tv.sampled(0, 1, 0.3)
    assert g.points[-1] == 1.0
    assert len(g.points) == 5  # 0, .3, .6, .9, 1
    assert g.points[-1] - g.points[-2] < 0.3


def test_sampled_no_micro_cell_on_divisible_span():
    g = tv.sampled(0, 1, 0.1)
    assert len(g.points) == 11
    assert min(np.diff(g.array)) > 0.09
    # a step 1e-10 * h short of b is dropped; one 2e-9 * h short of b is kept,
    # so that grid ends in a cell of 2e-10
    assert len(tv.sampled(0, 1 + 1e-11, 0.1)) == 11
    g = tv.sampled(0, 1 + 2e-10, 0.1)
    assert len(g) == 12
    assert g.array[-2] == 1.0 and g.array[-1] - g.array[-2] == pytest.approx(2e-10, rel=1e-6)


def test_integers_equals_unit_uniform():
    assert tv.integers(-3, 7).points == tv.uniform(-3, 7, 1).points


def test_jump_round_trip_on_interior():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = random_grid(rng, max_points=20)
        for t in g.points[1:-1]:
            assert tv.rho(g, tv.sigma(g, t)) == t
            assert tv.sigma(g, tv.rho(g, t)) == t


def test_sigma_returns_stored_point():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_grid(rng, max_points=20)
        for i, t in enumerate(g.points[:-1]):
            assert tv.sigma(g, t) is g.points[i + 1] or tv.sigma(g, t) == g.points[i + 1]
            assert tv.mu(g, t) == g.points[i + 1] - g.points[i]
        for t in (g.a, g.points[len(g) // 2], g.b):
            assert type(tv.sigma(g, t)) is float
            assert type(tv.rho(g, t)) is float
            assert type(tv.mu(g, t)) is float
        assert type(g.a) is float and type(g.b) is float
        assert type(tv.classify(g, g.b).t) is float


def test_grid_is_immutable_value_object():
    g = tv.integers(0, 3)
    assert g == tv.integers(0, 3)
    with pytest.raises(Exception):
        g.points = (0.0,)
    arr = g.array
    with pytest.raises(ValueError):
        arr[0] = 5.0


def test_validation_reports_the_first_bad_pair():
    with pytest.raises(ValueError, match=r"got 2\.0 followed by 1\.0\)"):
        tv.explicit([0, 2, 1, 3, 2.5])
    with pytest.raises(ValueError, match="must be finite"):
        tv.explicit([0.0, float("nan"), 2.0])
    with pytest.raises(ValueError, match="must be finite"):
        tv.TimeScaleGrid((0.0, float("inf")))


def test_grid_from_an_array_stores_python_floats():
    src = np.array([0.0, 0.5, 2.0])
    g = tv.TimeScaleGrid(src)
    assert g.points == (0.0, 0.5, 2.0)
    assert all(type(t) is float for t in g.points)
    assert np.array_equal(g.array, src) and g.array is not src
    assert not g.array.flags.writeable and src.flags.writeable
    with pytest.raises(ValueError, match="flat sequence"):
        tv.TimeScaleGrid(np.zeros((2, 2)))


LIMIT = r" points; the limit is 10000000$"


@pytest.mark.parametrize(
    "ctor, args, message",
    [
        (tv.uniform, (0, 1, 1e-300), r"uniform\(a, b, h\) would have 1e\+300" + LIMIT),
        # b <= a is named first, as sampled names it, though (a - b) / h overflows
        (tv.uniform, (1, 0, 1e-320), r"uniform\(a, b, h\) needs b > a$"),
        (tv.sampled, (0, 1, 1e-300), r"sampled\(a, b, h\) would have 1e\+300" + LIMIT),
        (tv.sampled, (0, float("inf"), 1.0), r"sampled\(a, b, h\) would have inf" + LIMIT),
        (tv.integers, (0, 10**7), r"integers\(a, b\) would have 10000001" + LIMIT),
        (tv.integers, (-(10**15), 10**15), r"integers\(a, b\) would have 2e\+15" + LIMIT),
        (tv.power2, (-(10**7), 0), r"power2\(n0, n1\) would have 10000001" + LIMIT),
        (tv.sampled, (1, 0, 1e-320), r"sampled\(a, b, h\) needs b > a$"),
    ],
)
def test_oversized_grids_are_rejected_before_they_are_built(ctor, args, message):
    with pytest.raises(ValueError, match=message):
        ctor(*args)


def test_explicit_checks_the_size_before_the_copy(monkeypatch):
    # a small limit: the check, not a 10^7-point list, is what is tested
    monkeypatch.setattr(ts, "MAX_POINTS", 5)
    message = r"^explicit\(points\) would have 6 points; the limit is 5$"
    with pytest.raises(ValueError, match=message):
        tv.explicit(np.arange(6.0))
    assert len(tv.explicit(np.arange(5.0))) == 5


def test_power2_rejects_exponents_that_overflow():
    assert tv.power2(1021, 1023).points[-1] == 2.0**1023
    for n1 in (1024, 1100, float("inf")):
        with pytest.raises(ValueError, match=r"power2\(n0, n1\) needs n1 < 1024"):
            tv.power2(0, n1)


def test_a_grid_whose_span_overflows_is_rejected():
    # its graininess 1.7e308 - -1.7e308 would overflow; with a finite span no
    # difference of two points can
    message = r"^time scale grid points from -1\.7e\+308 to 1\.7e\+308 span more than a double$"
    with pytest.raises(ValueError, match=message):
        tv.TimeScaleGrid((-1.7e308, 1.7e308))
    g = tv.explicit([-8.9e307, 8.9e307])
    assert tv.graininess(g).tolist() == [2 * 8.9e307]


def test_index_of_finds_exactly_the_stored_points():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_grid(rng, max_points=30)
        for i, t in enumerate(g.array):
            assert g.index_of(t) == i and g.index_of(float(t)) == i
            for near in (np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
                with pytest.raises(ValueError, match="is not a point"):
                    g.index_of(near)
        outside = (np.nextafter(g.a, -np.inf), g.a - 1.0, g.b + 1.0, float("nan"),
                   float("inf"), float("-inf"))
        for t in outside:
            with pytest.raises(ValueError, match="is not a point"):
                g.index_of(t)
    g = tv.integers(-2, 2)
    assert g.index_of(-0.0) == g.index_of(0.0) == 2
    assert tv.explicit([-1.0, -0.0, 1.0]).index_of(0.0) == 1
    with pytest.raises(ValueError, match=r"^t=2\.5 is not a point of this time scale grid$"):
        g.index_of(2.5)


def test_grid_equality_and_hash_are_by_value():
    g = tv.integers(-2, 2)
    same = tv.explicit([-2.0, -1.0, -0.0, 1.0, 2.0])
    assert g == same and hash(g) == hash(same)
    assert g != tv.TimeScaleGrid(g.array, intent=SAMPLED_CONTINUUM)
    assert g != tv.integers(-2, 3) and g != tv.kappa(g)
    assert g != g.points and {g: 1}[same] == 1


def _outcome(ctor, args):
    try:
        return ctor(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


def _constructor_cases(rng):
    """(name, args) cases for the five constructors: valid and rejected ones."""
    for _ in range(150):
        a = int(rng.integers(-500, 500))
        yield "integers", (a, a + int(rng.integers(-2, 300)))
    for a in (2**53 - 3, 2**53 + 1, 2**63 + 3071, -(2**63) - 3072, 2**70 + 1, -(2**76)):
        for span in (1, 2, 5):
            yield "integers", (a, a + span)
    yield "integers", (-3.7, 4.2)
    yield "integers", (float(2**53), float(2**53) + 8.0)
    for _ in range(200):
        a = float(rng.uniform(-20, 20))
        h = float(rng.uniform(1e-3, 2.0)) if rng.random() < 0.5 else 1.0 / int(rng.integers(1, 1000))
        k = int(rng.integers(-1, 400))
        frac = (0.0, 1e-12, -1e-12, float(rng.uniform(0.01, 0.99)))[int(rng.integers(0, 4))]
        yield "uniform", (a, a + (k + frac) * h, h)
        yield "sampled", (a, a + (k + frac) * h, h)
        yield "sampled", (a, a + (k + float(rng.uniform(-3e-9, 3e-9))) * h, h)
    yield "uniform", (0, 1, 1e-5)
    yield "sampled", (0, 1, 0.1)
    yield "sampled", (-0.0, 1, 0.3)
    yield "uniform", (-0.0, 1, 0.25)
    yield "uniform", (1, 0, 0.5)
    yield "uniform", (0, 1, 1e-300)
    yield "sampled", (0, float("inf"), 1.0)
    yield "sampled", (1e16, 1e16 + 64, 3.0)
    for h in (0.0, -1.0, float("nan")):
        yield "uniform", (0, 1, h)
        yield "sampled", (0, 1, h)
    for _ in range(150):
        n0 = int(rng.integers(-1100, 1024))
        yield "power2", (n0, min(n0 + int(rng.integers(-1, 60)), 1023))
    for n0 in (-1080, -1075, -1074, -1060, -3, 0, 960, 1022):
        yield "power2", (n0, 1023)
    yield "power2", (-1100, -1070)
    yield "power2", (0, 1024)
    yield "power2", (2.5, 7.9)
    for _ in range(100):
        pts = np.cumsum(rng.uniform(-0.01, 1.0, size=int(rng.integers(0, 40)))) - 5
        yield "explicit", (pts,)
        yield "explicit", (pts.tolist(),)
    for pts in ([], [1.0], [0, 1, float("nan")], [0, float("inf")], [2, 2], ["0.5", 1, 2.5],
                [-0.0, 1.0], (1, 2, 3)):
        yield "explicit", (pts,)


def test_constructors_match_the_loop_forms_bit_for_bit():
    rng = np.random.default_rng(2024)
    built = 0
    for name, args in _constructor_cases(rng):
        got = _outcome(getattr(tv, name), args)
        want = _outcome(getattr(helpers, f"loop_{name}"), args)
        if isinstance(want, tv.TimeScaleGrid):
            assert isinstance(got, tv.TimeScaleGrid), (name, args, got)
            assert got.intent == want.intent
            assert np.array_equal(got.array.view(np.uint64), want.array.view(np.uint64)), (name, args)
            built += 1
        else:
            assert got == want, (name, args)
    assert built > 500


def test_a_grid_stores_its_points_once():
    # 8 bytes per point for the array; building may hold it and the caller's copy
    # at once (16), plus bool masks of 1 byte per point while the points are checked
    tv.uniform(0, 1, 0.5)
    tracemalloc.start()
    try:
        g = tv.uniform(0, 1, 1e-5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 100001
    assert peak < 3 * 8 * len(g)
    assert kept < 1.25 * 8 * len(g)
