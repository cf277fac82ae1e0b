"""Binomial probability masses and Bernstein sums, stable for large
trial counts.

Coefficients never materialize on their own: each mass is produced by
the ratio recurrence

    t_{i+1} = t_i * (m - i) / (i + 1) * x / (1 - x)

started from whichever endpoint mass, (1-x)**m or x**m, is larger.  The
start value is then at least 2**-m (well inside float range up to the
supported m <= 999) and intermediate terms only grow toward the mode, so
nothing overflows; masses that underflow on the far side are genuinely
negligible.  Endpoints x == 0 and x == 1 give exact point masses.  A
point above 1/2 walks down from x**m; in y = 1 - x (exact there) that is
the upward walk with the masses reversed, so every walk runs upward.

Two consumers share the recurrence, and neither stores a mass matrix
over all points.  :func:`bernstein` splits every set at 1/2 and sums
each side in blocks of at most ``_BLOCK`` rows times points, so every
block lies on one side and its rows are oriented once per block: plain
at or below 1/2, reversed above.  A side that is one run of consecutive
points (sorted points, a set on one side) is blocked as slices; a side
that interleaves with the other is gathered by index one block at a
time and each block's sums are scattered back.  A block is summed in
one of two loop orders that do the same products and the same
left-to-right sums and so agree to the bit.  A block of more than
``_WALK`` points loops over the degrees in Python, each step one vector
operation across the block, and holds a few vectors of the block's
length per row.  A block of at most ``_WALK`` points, where the loop's
per-step overhead would dominate, walks the degree axis inside numpy
instead: every factor of every point in one array, one cumulative
product for the masses, one cumulative sum per row.  That holds 3m+2
floats per point, about 3 MB at m = 999 and ``_WALK`` points.  At
degree 2 or less the loop has only a step or two, fewer calls than the
walk, and takes every block.
:func:`tail_vector` needs every mass at one point, for the budget and
the rank odds, and takes them from the walk's cumulative product, so
its tails are the kernel's masses summed from the right, to the bit.
"""

import numpy as np

# rows times points per pass of bernstein: its working set (a few
# vectors of the block's length per row) stays in cache and its memory
# stays bounded.  One row at m = 99 on 50,000 random points took 11.0,
# 8.3, 7.2 and 7.3 ms in blocks of 4096, 8192, 16384 and 32768 points;
# two rows at degree 1 to 3 took up to twice as long in blocks of 16384
# points as in blocks of 4096, so the block is counted in rows times
# points
_BLOCK = 16384
# blocks of at most this many points walk the degree axis inside numpy;
# past it the walk's sequential accumulates cost more per point than the
# loop's per-step Python overhead saves
_WALK = 128
# blocks of at most this degree take the loop whatever their size: its
# one or two steps cost less than the walk's dozen numpy calls
_LOOP_DEGREE = 2


def tail_vector(m: int, x: float) -> np.ndarray:
    """T[k] = P(Binomial(m, x) >= k) for k = 0..m, with x in [0, 1]."""
    far = x > 0.5
    y = np.array([1.0 - x if far else x])
    pmf = _masses(y, y / (1.0 - y), m)[0]
    if far:
        pmf = pmf[::-1]
    return np.cumsum(pmf[::-1])[::-1]


def bernstein(coeffs, x) -> np.ndarray:
    """Bernstein sums sum_i c_i * C(m, i) * x**i * (1-x)**(m-i).

    ``coeffs`` has shape (m+1,) or (k, m+1), one polynomial per row;
    ``x`` is a scalar or 1-d array of values in [0, 1].  The result has
    shape (len(x),) or (k, len(x)).  The masses are walked once per
    block of points, from the heavier endpoint of each point, so besides
    the result it holds O(_BLOCK + m * _WALK) floats, and one index per
    point of a set whose sides interleave.  A point gets the same bits
    whatever block it shares.  A unit row e_i gives the single mass
    C(m, i) * x**i * (1-x)**(m-i).
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = c.reshape(-1, c.shape[-1])
    out = np.empty((rows.shape[0], x.size))
    far = x > 0.5
    count = int(np.count_nonzero(far))
    # the near side, then the far side: two runs where the far points
    # lead or trail the set, else each side's indices
    if far[:count].all():
        sides = (range(count, x.size), range(count))
    elif far[x.size - count :].all():
        sides = (range(x.size - count), range(x.size - count, x.size))
    else:
        sides = (np.flatnonzero(~far), np.flatnonzero(far))
    width = max(1, _BLOCK // rows.shape[0])
    # a point above 1/2 walks upward in y = 1 - x with the coefficients
    # reversed, so both sides share one recurrence
    for at, oriented, flip in zip(sides, (rows, rows[:, ::-1]), (False, True)):
        for start in range(0, len(at), width):
            part = at[start : start + width]
            run = isinstance(part, range)
            if run:
                part = slice(part.start, part.stop)
            sums = out[:, part] if run else np.empty((rows.shape[0], part.size))
            _sum_block(oriented, 1.0 - x[part] if flip else x[part], sums)
            if not run:
                # row by row: numpy scatters a 1-d row faster than a 2-d block
                for row, values in zip(out, sums):
                    row[part] = values
    return out.reshape(c.shape[:-1] + x.shape)


def _sum_block(rows, y, sums):
    """Write the sums of the oriented rows at one block of points y, all
    at most 1/2, walked or looped."""
    ratio = y / (1.0 - y)
    walk = y.size <= _WALK and rows.shape[1] - 1 > _LOOP_DEGREE
    order = _walk_degrees if walk else _loop_degrees
    order(rows, y, ratio, sums)


def _loop_degrees(rows, y, ratio, sums):
    """Write one block's sums, one Python step per degree."""
    m = rows.shape[1] - 1
    cols = rows.T[:, :, None]
    t = (1.0 - y) ** m
    np.multiply(cols[0], t, out=sums)
    term = np.empty_like(sums)
    for i in range(m):
        t *= ratio
        t *= (m - i) / (i + 1)
        np.multiply(cols[i + 1], t, out=term)
        sums += term


def _walk_degrees(rows, y, ratio, sums):
    """Write one block's sums with the degree axis walked inside numpy:
    the products of :func:`_loop_degrees` in the same order, then the
    same left-to-right sums, so the bits agree."""
    masses = _masses(y, ratio, rows.shape[1] - 1)
    # one buffer of m+1 floats per point serves every row; an array for
    # all rows at once costs more memory and, freshly mapped, page faults
    terms = np.empty_like(masses)
    for row, c in zip(sums, rows):
        np.copyto(terms, c)
        terms *= masses
        np.add.accumulate(terms, axis=1, out=terms)
        row[...] = terms[:, -1]


def _masses(y, ratio, m):
    """The masses t_0..t_m at each point of ``y`` (all at most 1/2), one
    row per point, walked upward from (1-y)**m in one cumulative
    product."""
    # per point: start, ratio, (m-0)/1, ratio, (m-1)/2, ..., the order in
    # which the loop multiplies them, so every other partial product is
    # a mass
    f = np.empty((y.size, 2 * m + 1))
    f[:, 0] = (1.0 - y) ** m
    f[:, 1::2] = ratio[:, None]
    f[:, 2::2] = np.arange(m, 0, -1) / np.arange(1, m + 1)
    np.multiply.accumulate(f, axis=1, out=f)
    return f[:, ::2]
