"""Scalar root bracketing and refinement for increasing objectives."""

from .errors import ConvergenceError


def expand_bracket(
    g, lo: float, hi: float, *, g_lo: float | None = None, max_doublings: int = 60
):
    """Grow ``hi`` until ``g(hi) >= 0`` for an increasing ``g`` with
    ``g(lo) < 0``.  Returns (lo, g(lo), hi, g(hi)); a caller that has
    already evaluated ``g(lo)`` passes it as ``g_lo``."""
    g_lo = g(lo) if g_lo is None else g_lo
    g_hi = g(hi)
    for _ in range(max_doublings):
        if g_hi >= 0.0:
            return lo, g_lo, hi, g_hi
        lo, g_lo = hi, g_hi
        hi = hi * 2.0 if hi > 0 else 1.0
        g_hi = g(hi)
    raise ConvergenceError("could not bracket the root while doubling upward")


def bracketed_root(
    g,
    lo: float,
    hi: float,
    *,
    g_lo: float | None = None,
    g_hi: float | None = None,
    ftol: float = 1e-8,
    xtol: float = 1e-13,
    max_iter: int = 100,
) -> float:
    """Root of an increasing ``g`` on [lo, hi] by the Illinois method.

    Stops when |g| <= ftol or the bracket shrinks below ``xtol`` relative
    to its scale; raises :class:`ConvergenceError` after ``max_iter``
    evaluations.
    """
    g_lo = g(lo) if g_lo is None else g_lo
    g_hi = g(hi) if g_hi is None else g_hi
    if abs(g_lo) <= ftol:
        return lo
    if abs(g_hi) <= ftol:
        return hi
    if g_lo > 0.0 or g_hi < 0.0:
        raise ConvergenceError(
            f"root not bracketed: g({lo})={g_lo}, g({hi})={g_hi}"
        )
    side = 0
    for _ in range(max_iter):
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
        if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    raise ConvergenceError(f"no root to ftol={ftol} within {max_iter} iterations")
