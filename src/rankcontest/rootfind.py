"""Safeguarded Newton iteration for an increasing scalar objective, and
the stopping rules every root finder in the library shares: the
iteration cap, the ulp width that ends a step or bracket, and the
rounding noise of a sum."""

import math

from .errors import ConvergenceError

_MAX_ITER = 100
# a Newton step or bracket this many ulps of its ends wide stops it
_STOP_ULPS = 4.0
_EPS = 2.0**-52


def _rounding_noise(terms, scale):
    """Rounding noise of a sum of ``terms`` products of magnitude up to
    ``scale``: a residual below 4 terms eps scale is indistinguishable
    from zero."""
    return 4.0 * terms * _EPS * scale


def bracketed_root(g, lo: float, hi: float, *, ftol: float, start: float | None = None) -> float:
    """Root of an increasing ``g`` inside a bracket with g(lo) <= 0 <= g(hi).

    ``g(x)`` returns the value and the slope at x.  Neither end is
    evaluated: the iteration begins at ``start`` (the midpoint when it
    is None or outside the bracket) and takes Newton steps, each
    shrinking the bracket to the side the root lies on and bisecting
    wherever a step would leave it or the slope is not positive.  It
    ends with the step taken from the first point where |g| <= ftol, or
    once a step or the bracket is a few ulps of its ends wide, so a root
    near 1e-13 is resolved as finely as one near 1/2.  Raises
    :class:`ConvergenceError` on a value that is not finite, or if
    neither happens within a fixed number of steps; bisection alone
    from [0, 1] stops near a root r in about 51 + log2(1/r).
    """
    x = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        value, slope = g(x)
        if not math.isfinite(value):
            raise ConvergenceError(f"objective is {value} at {x}")
        if value < 0.0:
            lo = x
        elif value > 0.0:
            hi = x
        guess = x - value / slope if slope > 0.0 else lo
        inside = lo < guess < hi
        if abs(value) <= ftol:
            return guess if inside else x
        if not inside:
            guess = 0.5 * (lo + hi)
        xtol = _STOP_ULPS * _EPS * max(abs(lo), abs(hi))
        if abs(guess - x) <= xtol or hi - lo <= xtol:
            return guess
        x = guess
    raise ConvergenceError(f"no root to ftol={ftol} within {_MAX_ITER} iterations")
