"""Composite Gauss-Legendre quadrature with panel-doubling refinement.

An integrand may return several rows of values for the same points, so
integrals that share costly work per node (the pressure inversion behind
both quality statistics) pay for it once.  Each row keeps its own
stopping test and its own reduction, so a row integrated alongside
others returns exactly what it returns alone.
"""

import numpy as np

from .errors import QuadratureError

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if nodes not in _NODE_CACHE:
        _NODE_CACHE[nodes] = np.polynomial.legendre.leggauss(nodes)
    return _NODE_CACHE[nodes]


def _composite(f, a: float, b: float, panels: int, nodes: int) -> np.ndarray:
    z, w = _gauss_nodes(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (b - a) / panels
    centers = 0.5 * (edges[:-1] + edges[1:])
    points = (centers[:, None] + half * z[None, :]).ravel()
    values = np.asarray(f(points), dtype=float)
    rows = values.reshape(values.shape[:-1] + (panels, nodes))
    out = np.empty(rows.shape[:-2])
    for row in np.ndindex(out.shape):
        # fixed panel order on each row's own contiguous block keeps the
        # reduction bit-stable and independent of the other rows
        out[row] = half * np.sum(rows[row] @ w)
    return out


def integrate(
    f,
    a: float,
    b: float,
    *,
    panels: int = 64,
    nodes: int = 8,
    tol: float = 1e-9,
    max_doublings: int = 6,
):
    """Integrate a vectorized ``f`` over [a, b].

    Starts from ``panels`` equal panels with an n-point Gauss-Legendre
    rule and doubles the panel count until two successive composite
    estimates agree to ``tol``.  Returns ``(value, error_estimate)``
    where the estimate is the last successive difference; raises
    :class:`QuadratureError` (carrying that estimate) if the node budget
    runs out first.

    ``f`` maps the points to values of shape (points,), or to (rows,
    points) for several integrands over the same points; then value and
    estimate are arrays with one entry per row.  Each row takes its value
    at the first doubling where its own estimate drops below ``tol``,
    refinement goes on until every row has, and the error carries the
    estimate of the first row that has not.  An empty interval gives
    ``(0.0, 0.0)`` without calling ``f``.
    """
    if b <= a:
        return 0.0, 0.0
    previous = _composite(f, a, b, panels, nodes)
    value = previous
    estimate = np.abs(previous)
    done = np.zeros(previous.shape, dtype=bool)
    for _ in range(max_doublings):
        panels *= 2
        current = _composite(f, a, b, panels, nodes)
        step = np.abs(current - previous)
        fresh = ~done & (step < tol)
        value = np.where(fresh, current, value)
        estimate = np.where(done, estimate, step)
        done |= fresh
        if done.all():
            if value.ndim == 0:
                return float(value), float(estimate)
            return value, estimate
        previous = current
    failed = np.flatnonzero(~done.ravel())[0]
    raise QuadratureError(
        f"quadrature did not reach tol={tol} within {panels} panels",
        float(estimate.ravel()[failed]),
    )
