"""Composite Gauss-Legendre quadrature with panel-doubling refinement.

The library has one rule, declared here and nowhere else: ``_PANELS``
panels of ``_NODES`` Gauss-Legendre nodes, doubled up to
``_MAX_DOUBLINGS`` times until two successive estimates agree to
``_TOL``.  Every integral in the package uses it, and no caller can
change it; a run record's ``version`` pins it, and each result's error
estimate says how well it was met.

An integrand may return several rows of values for the same points, so
integrals that share costly work per node (the pressure inversion behind
both quality statistics) pay for it once.  Each row keeps its own
stopping test and its own reduction, so a row integrated alongside
others returns exactly what it returns alone.

Every integral computes at least its first two levels, so the integrand
gets their nodes in one call and pays once for its per-call set-up (the
Newton passes, one Python step per degree of the kernel); the pressure
table belongs to the solution, which builds it once for all levels.
Each later level gets a call of its own, made only when the stopping
test asks for it.  Each level is still reduced on its own
block of values, so an integrand whose value at a point does not
depend on the points evaluated with it gives the same bits as one call
per level.
"""

import numpy as np

from .errors import QuadratureError

_PANELS = 64
_NODES = 8
_TOL = 1e-9
_MAX_DOUBLINGS = 6
# the _NODES-point Gauss-Legendre nodes and weights on [-1, 1], written
# as np.polynomial.legendre.leggauss(_NODES) returns them, to the bit (a
# test checks): importing numpy.polynomial would cost every process about
# 1.7 MB and 5 ms on a 2-CPU x86 host, and most commands never integrate
_Z = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


def _points(a: float, b: float, panels: int) -> np.ndarray:
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (b - a) / panels
    centers = 0.5 * (edges[:-1] + edges[1:])
    return (centers[:, None] + half * _Z[None, :]).ravel()


def _reduce(values, a: float, b: float, panels: int) -> np.ndarray:
    half = 0.5 * (b - a) / panels
    rows = values.reshape(values.shape[:-1] + (panels, _NODES))
    out = np.empty(rows.shape[:-2])
    for row in np.ndindex(out.shape):
        # fixed panel order on each row's own contiguous block keeps the
        # reduction bit-stable and independent of the other rows
        out[row] = half * np.sum(rows[row] @ _W)
    return out


def _composite(f, a: float, b: float, panels: int) -> np.ndarray:
    values = np.asarray(f(_points(a, b, panels)), dtype=float)
    return _reduce(values, a, b, panels)


def integrate(f, a: float, b: float):
    """Integrate a vectorized ``f`` over [a, b] with the library's rule.

    Starts from ``_PANELS`` equal panels of ``_NODES``-point
    Gauss-Legendre and doubles the panel count until two successive
    composite estimates agree to ``_TOL``.  Returns ``(value,
    error_estimate)`` where the estimate is the last successive
    difference; raises :class:`QuadratureError` (carrying that estimate)
    if ``_MAX_DOUBLINGS`` doublings run out first.

    ``f`` maps the points to values of shape (points,), or to (rows,
    points) for several integrands over the same points; then value and
    estimate are arrays with one entry per row.  Each row takes its value
    at the first doubling where its own estimate drops below ``_TOL``,
    refinement goes on until every row has, and the error carries the
    estimate of the first row that has not.  An empty interval gives
    ``(0.0, 0.0)`` without calling ``f``.

    ``f`` is called once for the first two levels together, on the
    ``_PANELS * _NODES`` = 512 points of the first followed by the 1,024
    of the second, and then once per further level, with 512 times 4,
    8, ... points.  So an integral that stops at level L makes L - 1
    calls.  Where ``f`` gives each point the value it gives that point
    alone, the result is that of one call per level, to the bit.
    """
    if b <= a:
        return 0.0, 0.0
    # the first two levels always run: one call evaluates both, and
    # each is reduced on its own block, as _composite does
    panels = 2 * _PANELS
    split = _PANELS * _NODES
    values = np.asarray(
        f(np.concatenate((_points(a, b, _PANELS), _points(a, b, panels)))), dtype=float
    )
    previous = _reduce(values[..., :split], a, b, _PANELS)
    current = _reduce(values[..., split:], a, b, panels)
    value = previous
    estimate = np.abs(previous)
    done = np.zeros(previous.shape, dtype=bool)
    for doubling in range(_MAX_DOUBLINGS):
        if doubling:
            panels *= 2
            current = _composite(f, a, b, panels)
        step = np.abs(current - previous)
        fresh = ~done & (step < _TOL)
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
        f"quadrature did not reach tol={_TOL} within {panels} panels",
        float(estimate.ravel()[failed]),
    )
