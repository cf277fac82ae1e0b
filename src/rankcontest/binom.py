"""Binomial probability masses and Bernstein sums, stable for large
trial counts.

Coefficients never materialize on their own: each mass is produced by
the ratio recurrence

    t_{i+1} = t_i * (m - i) / (i + 1) * x / (1 - x)

started from whichever endpoint mass, (1-x)**m or x**m, is larger.  The
start value is then at least 2**-m (well inside float range up to the
supported m <= 999) and intermediate terms only grow toward the mode, so
nothing overflows; masses that underflow on the far side are genuinely
negligible.  Endpoints x == 0 and x == 1 are exact point masses.

Two consumers share the recurrence.  :func:`pmf_matrix` stores every
mass, an (m+1, len(x)) array, for the rank probabilities and the
budget.  :func:`bernstein` accumulates sum_i c_i * t_i as the masses go
by, so a polynomial in Bernstein form is evaluated in O(len(x)) memory
without ever holding the mass matrix.
"""

import numpy as np

# points per pass of bernstein: its working set (a few vectors of this
# length per row) stays in cache and its memory stays bounded
_BLOCK = 4096


def pmf_matrix(m: int, x) -> np.ndarray:
    """Masses P[i, j] = C(m, i) * x_j**i * (1-x_j)**(m-i) for i = 0..m.

    ``x`` may be a scalar or 1-d array of values in [0, 1]; the result
    has shape (m+1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = np.zeros((m + 1, x.size))
    if m == 0:
        out[0] = 1.0
        return out
    at_zero = x <= 0.0
    at_one = x >= 1.0
    out[0, at_zero] = 1.0
    out[m, at_one] = 1.0
    interior = ~(at_zero | at_one)
    if np.any(interior):
        out[:, interior] = _interior_pmf(m, x[interior])
    return out


def _interior_pmf(m: int, x: np.ndarray) -> np.ndarray:
    P = np.empty((m + 1, x.size))
    up = x <= 0.5
    if np.any(up):
        xu = x[up]
        ratio = xu / (1.0 - xu)
        t = (1.0 - xu) ** m
        P[0, up] = t
        for i in range(m):
            t = t * ((m - i) / (i + 1)) * ratio
            P[i + 1, up] = t
    down = ~up
    if np.any(down):
        xd = x[down]
        ratio = (1.0 - xd) / xd
        t = xd**m
        P[m, down] = t
        for i in range(m, 0, -1):
            t = t * (i / (m - i + 1)) * ratio
            P[i - 1, down] = t
    return P


def pmf_vector(m: int, x: float) -> np.ndarray:
    """Mass vector of a Binomial(m, x) count, shape (m+1,)."""
    return pmf_matrix(m, x)[:, 0]


def tail_vector(m: int, x: float) -> np.ndarray:
    """T[k] = P(Binomial(m, x) >= k) for k = 0..m."""
    pmf = pmf_vector(m, x)
    return np.cumsum(pmf[::-1])[::-1]


def bernstein(coeffs, x) -> np.ndarray:
    """Bernstein sums sum_i c_i * C(m, i) * x**i * (1-x)**(m-i).

    ``coeffs`` has shape (m+1,) or (k, m+1), one polynomial per row;
    ``x`` is a scalar or 1-d array of values in [0, 1].  The result has
    shape (len(x),) or (k, len(x)).  Equals ``coeffs @ pmf_matrix(m, x)``
    but walks the masses once per block of points, from the heavier
    endpoint of each point, so besides the result it holds only
    O(k * _BLOCK) floats.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = c.reshape(-1, c.shape[-1])
    k, m = rows.shape[0], rows.shape[1] - 1
    # points above 1/2 walk down from x**m: in y = 1 - x (exact there)
    # that is the upward walk with the coefficients reversed, so both
    # halves share one recurrence and differ only in their rows
    cols = np.concatenate((rows, rows[:, ::-1])).T[:, :, None]
    out = np.empty((k, x.size))
    for start in range(0, x.size, _BLOCK):
        block = x[start : start + _BLOCK]
        far = block > 0.5
        y = np.where(far, 1.0 - block, block)
        ratio = y / (1.0 - y)
        t = (1.0 - y) ** m
        acc = cols[0] * t
        term = np.empty_like(acc)
        for i in range(m):
            t *= ratio
            t *= (m - i) / (i + 1)
            np.multiply(cols[i + 1], t, out=term)
            acc += term
        sums = out[:, start : start + _BLOCK]
        sums[...] = acc[:k]
        np.copyto(sums, acc[k:], where=far)
    return out.reshape(c.shape[:-1] + x.shape)
