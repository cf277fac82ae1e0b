"""The root finders: the library's safeguarded Newton iteration behind
every budget match, and the Illinois method of the prize-space oracle
in conftest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import illinois_root
from rankcontest import ConvergenceError
from rankcontest.rootfind import bracketed_root


def recorded(g):
    points = []

    def wrapped(x):
        points.append(x)
        return g(x)

    return wrapped, points


def test_returns_lo_without_evaluating_hi():
    g, points = recorded(lambda x: x - 1.0)
    assert illinois_root(g, 1.0 + 1e-10, 5.0, ftol=1e-8) == 1.0 + 1e-10
    assert points == [1.0 + 1e-10]
    # a g_lo the caller passes is trusted, not recomputed
    assert illinois_root(g, 3.0, 5.0, ftol=1e-8, g_lo=0.0) == 3.0
    assert points == [1.0 + 1e-10]


def test_expands_from_nonpositive_hi():
    g, points = recorded(lambda x: x - 0.5)
    root = illinois_root(g, -2.0, -1.0, ftol=1e-12)
    assert points[:3] == [-2.0, -1.0, 1.0]
    assert abs(root - 0.5) <= 1e-12


def test_expands_by_doubling():
    g, points = recorded(lambda x: x - 10.0)
    root = illinois_root(g, 0.0, 1.0, ftol=1e-12)
    assert points[:6] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
    assert abs(root - 10.0) <= 1e-12


def test_no_root_raises_after_bounded_work():
    g, points = recorded(lambda x: -1.0)
    with pytest.raises(ConvergenceError, match="could not bracket"):
        illinois_root(g, 0.0, 1.0, ftol=1e-8)
    # g(lo), g(hi) and one evaluation per doubling
    assert len(points) <= 62


@settings(max_examples=200, deadline=None)
@given(
    root=st.floats(-100.0, 100.0),
    slope=st.floats(0.01, 10.0),
    below=st.floats(1e-3, 50.0),
    # the doubling budget reaches 2**60 times hi, so hi is kept off tiny
    # positive values; callers start it at the problem's own scale
    hi=st.one_of(st.floats(-200.0, 0.0), st.floats(1e-3, 200.0)),
)
def test_increasing_cubic_solved_to_ftol(root, slope, below, hi):
    def g(x):
        return (x - root) ** 3 + slope * (x - root)

    x = illinois_root(g, root - below, hi, ftol=1e-8)
    assert abs(g(x)) <= 1e-8


def with_slope(g, dg):
    return lambda x: (g(x), dg(x))


def test_newton_starts_at_start_and_skips_the_ends():
    g, points = recorded(with_slope(lambda x: x**3 - 0.125, lambda x: 3.0 * x**2))
    root = bracketed_root(g, 0.0, 1.0, ftol=1e-15, start=0.4)
    assert points[0] == 0.4
    assert 0.0 not in points and 1.0 not in points
    assert abs(root - 0.5) <= 1e-15
    # quadratic convergence from a close start
    assert len(points) <= 6


def test_newton_without_start_inside_uses_midpoint():
    for start in (None, 1.0, -3.0):
        g, points = recorded(with_slope(lambda x: x - 0.3, lambda x: 1.0))
        root = bracketed_root(g, 0.0, 1.0, ftol=0.0, start=start)
        assert points[0] == 0.5
        assert abs(root - 0.3) <= 1e-15


def test_newton_bisects_without_a_usable_slope():
    # a zero or wrong-signed slope would step nowhere or out of the
    # bracket; bisection still closes in on the root
    for slope in (0.0, -1.0):
        g, points = recorded(with_slope(lambda x: x - 0.3, lambda x, s=slope: s))
        root = bracketed_root(g, 0.0, 1.0, ftol=1e-12, start=0.9)
        assert abs(root - 0.3) <= 1e-12
        assert len(points) <= 60


@pytest.mark.parametrize(
    "g, root",
    [
        # bisection alone: no usable slope
        (with_slope(lambda x: x - 1e-10, lambda x: 0.0), 1e-10),
        # Newton, halving its way down from the midpoint
        (with_slope(lambda x: x * x - 1e-26, lambda x: 2.0 * x), 1e-13),
    ],
    ids=["bisection", "newton"],
)
def test_tiny_root_resolved_to_relative_precision(g, root):
    # the stopping width is a few ulps of the bracket's ends, not of 1
    x = bracketed_root(g, 0.0, 1.0, ftol=0.0)
    assert abs(x - root) <= 1e-14 * root


def test_newton_refuses_a_value_that_is_not_finite():
    for bad in (float("nan"), float("inf")):
        g, points = recorded(lambda x, bad=bad: (bad, 1.0))
        with pytest.raises(ConvergenceError, match="objective is"):
            bracketed_root(g, 0.0, 1.0, ftol=1e-12, start=0.25)
        assert points == [0.25]


@settings(max_examples=200, deadline=None)
@given(
    root=st.floats(0.001, 0.999),
    slope=st.floats(0.01, 10.0),
    start=st.floats(0.0, 1.0),
)
def test_newton_increasing_cubic_solved(root, slope, start):
    def g(x):
        return (x - root) ** 3 + slope * (x - root)

    def dg(x):
        return 3.0 * (x - root) ** 2 + slope

    x = bracketed_root(with_slope(g, dg), 0.0, 1.0, ftol=1e-14, start=start)
    assert abs(x - root) <= 1e-14 / slope + 1e-15
