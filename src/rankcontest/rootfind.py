"""Scalar root bracketing and refinement for increasing objectives."""

from .errors import ConvergenceError

_MAX_DOUBLINGS = 60
_XTOL = 1e-13
_MAX_ITER = 100


def bracketed_root(g, lo: float, hi: float, *, ftol: float, g_lo: float | None = None) -> float:
    """Root of an increasing ``g`` above ``lo`` by the Illinois method.

    Returns ``lo`` when |g(lo)| <= ftol.  Otherwise doubles ``hi`` (from
    1.0 when ``hi <= 0``), moving ``lo`` up behind it, until g(hi) >= 0,
    then refines until |g| <= ftol or the bracket shrinks below a fixed
    relative width.  A caller that has already evaluated ``g(lo)``
    passes it as ``g_lo``.  Raises :class:`ConvergenceError` when no
    bracket or no root is found within fixed budgets.
    """
    g_lo = g(lo) if g_lo is None else g_lo
    if abs(g_lo) <= ftol:
        return lo
    g_hi = g(hi)
    for _ in range(_MAX_DOUBLINGS):
        if g_hi >= 0.0:
            break
        lo, g_lo = hi, g_hi
        hi = hi * 2.0 if hi > 0 else 1.0
        g_hi = g(hi)
    else:
        raise ConvergenceError("could not bracket the root while doubling upward")
    if abs(g_lo) <= ftol:
        return lo
    if abs(g_hi) <= ftol:
        return hi
    if g_lo > 0.0:
        raise ConvergenceError(f"root not bracketed: g({lo})={g_lo}, g({hi})={g_hi}")
    side = 0
    for _ in range(_MAX_ITER):
        mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        span = hi - lo
        if not (lo < mid < hi):
            mid = lo + 0.5 * span
        g_mid = g(mid)
        if abs(g_mid) <= ftol:
            return mid
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
            if side == -1:
                g_hi *= 0.5
            side = -1
        else:
            hi, g_hi = mid, g_mid
            if side == 1:
                g_lo *= 0.5
            side = 1
        if hi - lo <= _XTOL * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    raise ConvergenceError(f"no root to ftol={ftol} within {_MAX_ITER} iterations")
