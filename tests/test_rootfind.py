"""The bracketing root finder behind every budget match."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert bracketed_root(g, 1.0 + 1e-10, 5.0, ftol=1e-8) == 1.0 + 1e-10
    assert points == [1.0 + 1e-10]
    # a g_lo the caller passes is trusted, not recomputed
    assert bracketed_root(g, 3.0, 5.0, ftol=1e-8, g_lo=0.0) == 3.0
    assert points == [1.0 + 1e-10]


def test_expands_from_nonpositive_hi():
    g, points = recorded(lambda x: x - 0.5)
    root = bracketed_root(g, -2.0, -1.0, ftol=1e-12)
    assert points[:3] == [-2.0, -1.0, 1.0]
    assert abs(root - 0.5) <= 1e-12


def test_expands_by_doubling():
    g, points = recorded(lambda x: x - 10.0)
    root = bracketed_root(g, 0.0, 1.0, ftol=1e-12)
    assert points[:6] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
    assert abs(root - 10.0) <= 1e-12


def test_no_root_raises_after_bounded_work():
    g, points = recorded(lambda x: -1.0)
    with pytest.raises(ConvergenceError, match="could not bracket"):
        bracketed_root(g, 0.0, 1.0, ftol=1e-8)
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

    x = bracketed_root(g, root - below, hi, ftol=1e-8)
    assert abs(g(x)) <= 1e-8
