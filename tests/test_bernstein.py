"""Property tests of the Bernstein kernel, the one-point tail vector and
the benefit inversion against the matrix-route oracles in conftest.py."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcontest import LinearCost, RewardVector, benefit_slope, binom, expected_benefit, solve
from rankcontest.binom import (
    _BLOCK,
    _SPLIT,
    _WALK,
    _loop_degrees,
    _walk_degrees,
    bernstein,
    tail_vector,
)
from conftest import (
    GOLDEN_COST,
    bisect_benefit,
    invert_benefit,
    kind_instance,
    matrix_benefit,
    matrix_slope,
    matrix_tails,
    pmf_matrix,
    random_cost,
    random_instance,
    random_rewards,
)

EPS = np.finfo(float).eps
# exact ends and midpoint, their neighbours, and points within 1e-300 of
# either end (1 - 1e-300 rounds to 1, the nearest float below 1 is
# 1 - 2**-53)
EDGE_POINTS = np.array(
    [0.0, 5e-324, 1e-300, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
     1.0 - 2.0**-53, 1.0 - 1e-300, 1.0]
)
SEEDS = st.integers(0, 2**32 - 1)


def rounding_bound(m, coeffs):
    """Both routes carry O(m) roundings per mass, on the scale of the
    largest coefficient."""
    return 8.0 * (m + 1) * EPS * max(1.0, float(np.max(np.abs(coeffs))))


def inversion_noise(rewards):
    return 4.0 * rewards.n * EPS * float(np.max(np.abs(rewards.as_array())))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 999),
    seed=SEEDS,
    drawn=st.lists(st.floats(0.0, 1.0), max_size=8),
    # both loop orders: blocks on either side of _WALK, and a last block
    # below _WALK after a full one
    size=st.one_of(st.integers(0, 2 * _WALK), st.integers(_BLOCK, _BLOCK + _WALK // 2)),
)
def test_bernstein_matches_mass_matrix(m, seed, drawn, size):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=m + 1) * 10.0 ** rng.uniform(-3, 3)
    x = np.concatenate((EDGE_POINTS, drawn, rng.random(size), EDGE_POINTS))
    want = coeffs @ pmf_matrix(m, x)
    got = bernstein(coeffs, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) <= rounding_bound(m, coeffs)
    for ends in (got[: EDGE_POINTS.size], got[-EDGE_POINTS.size :]):
        assert ends[0] == coeffs[0] and ends[-1] == coeffs[-1]
    rows = np.stack((coeffs, -2.0 * coeffs[::-1]))
    both = bernstein(rows, x)
    assert both.shape == (2, x.size)
    assert np.max(np.abs(both - rows @ pmf_matrix(m, x))) <= rounding_bound(m, rows)


def one_sided_blocks(rng, size):
    """A block of ``size`` points at or below 1/2, 0 and 0.5 among them,
    and one of points above 1/2, 1 among them: the loop sums one
    orientation of the rows on each."""
    near = np.concatenate(
        ([0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5], 0.5 * rng.random(size - 4))
    )
    far = np.concatenate(
        ([np.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0], 1.0 - 0.5 * rng.random(size - 3))
    )
    assert np.all(near <= 0.5) and np.all(far > 0.5)
    return near, far


@pytest.mark.parametrize("m", [0, 1, 2, 10, 199, 999])
def test_bernstein_value_does_not_depend_on_batch(m):
    # a point gets the same bits alone, in a block the walk takes (the
    # loop's, at m <= 2) and in a block the loop takes
    rng = np.random.default_rng(m)
    walked = np.concatenate((EDGE_POINTS, rng.random(_WALK - EDGE_POINTS.size)))
    looped = np.concatenate((walked, rng.random(_WALK)))
    coeffs = rng.normal(size=m + 1)
    for c in (coeffs, np.stack((coeffs[::-1], rng.normal(size=m + 1)))):
        in_walk = bernstein(c, walked)
        in_loop = bernstein(c, looped)[..., : walked.size]
        alone = np.stack([bernstein(c, float(v))[..., 0] for v in walked], axis=-1)
        assert np.array_equal(in_walk, in_loop)
        assert np.array_equal(in_walk, alone)
    # blocks the loop takes with only one orientation of the rows, and
    # the same points inside a block that holds both
    for side in one_sided_blocks(rng, _WALK + 8):
        mixed = np.concatenate((side, 1.0 - side))
        for k in (1, 3):
            rows = rng.normal(size=(k, m + 1))
            in_side = bernstein(rows, side)
            alone = np.stack([bernstein(rows, float(v))[:, 0] for v in side], axis=-1)
            assert np.array_equal(in_side, bernstein(rows, mixed)[:, : side.size])
            assert np.array_equal(in_side, alone)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 10])
def test_walk_and_loop_orders_agree_to_the_bit(m):
    # bernstein sends every block of degree <= 2 to the loop, so the two
    # orders meet only here at those degrees; the one-sided blocks are
    # longer than _WALK, where bernstein itself takes the loop
    rng = np.random.default_rng(m)
    mixed = np.concatenate((EDGE_POINTS, rng.random(_WALK - EDGE_POINTS.size)))
    for x in (mixed, *one_sided_blocks(rng, 2 * _WALK)):
        far = x > 0.5
        y = np.where(far, 1.0 - x, x)
        ratio = y / (1.0 - y)
        for k in (1, 3):
            rows = rng.normal(size=(k, m + 1))
            walked = np.empty((k, x.size))
            looped = np.empty((k, x.size))
            _walk_degrees(rows, far, y, ratio, walked)
            _loop_degrees(rows, far, y, ratio, looped)
            assert np.array_equal(walked, looped)
            assert np.array_equal(walked, bernstein(rows, x))


@pytest.mark.parametrize("order", ["drawn", "ascending", "descending"])
@pytest.mark.parametrize("k", [1, 2])
def test_straddling_set_sums_each_point_in_one_orientation(monkeypatch, k, order):
    # rows x points x m summed by the two orders: the loop sums one
    # orientation of the rows for each side of 1/2 its block holds, the
    # walk one per point.  Every point of a large set on both sides of
    # 1/2, its sides interleaved or in two runs, must be summed in one
    # orientation, and get the bits a small set with both sides gives it.
    work = []

    def counted(kernel, orientations):
        def run(rows, far, y, ratio, sums):
            work.append(rows.shape[0] * orientations(far) * y.size * (rows.shape[1] - 1))
            kernel(rows, far, y, ratio, sums)

        return run

    monkeypatch.setattr(
        binom, "_loop_degrees",
        counted(binom._loop_degrees, lambda far: int(far.any()) + int(not far.all())),
    )
    monkeypatch.setattr(binom, "_walk_degrees", counted(binom._walk_degrees, lambda far: 1))
    rng = np.random.default_rng(k)
    m = 99
    x = np.concatenate((EDGE_POINTS, rng.random(2 * _BLOCK - EDGE_POINTS.size)))
    x = {"drawn": x, "ascending": np.sort(x), "descending": np.sort(x)[::-1]}[order]
    rows = rng.normal(size=(k, m + 1))
    got = bernstein(rows, x)
    assert sum(work) == k * x.size * m
    monkeypatch.undo()
    small = _SPLIT // k
    pieces = [bernstein(rows, x[i : i + small]) for i in range(0, x.size, small)]
    assert np.array_equal(got, np.concatenate(pieces, axis=1))


def test_bernstein_memory_is_bounded_per_block():
    # m = 999 (MAX_AGENTS ranks) on the solver's two-row pairs, over one
    # block for the loop and one for the walk: peak is the result plus
    # the larger working set, never a mass matrix of (m+1) * x.size.
    # Sorted points are summed as two runs split at 1/2, shuffled ones
    # gathered by side and scattered back, which holds an index per
    # point more (2.15 MB against 1.89 MB sorted)
    m, k = 999, 2
    rng = np.random.default_rng(0)
    rows = rng.random((k, m + 1))
    x = np.linspace(0.0, 1.0, _BLOCK + _WALK)
    loop_set = (4 * k + 8) * _BLOCK
    walk_set = (3 * m + 2) * _WALK
    bound = 1.1 * 8 * (k * x.size + max(loop_set, walk_set))
    for points in (x, rng.permutation(x)):
        tracemalloc.start()
        try:
            bernstein(rows, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 999), drawn=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_tail_vector_matches_mass_matrix_exactly(m, drawn):
    # same factors multiplied in the same order as the oracle's walk
    for x in np.concatenate((EDGE_POINTS, drawn)):
        assert np.array_equal(tail_vector(m, float(x)), matrix_tails(m, x))


def test_tail_vector_sums_the_kernels_masses():
    # one mass recurrence: the tails are the unit rows' Bernstein sums,
    # summed from the right, to the bit
    rng = np.random.default_rng(13)
    cases = [(int(m), float(x)) for m, x in zip(rng.integers(0, 301, 200), rng.random(200))]
    for m, x in cases + [(m, x) for m in (0, 1, 2, 3, 300) for x in EDGE_POINTS]:
        masses = bernstein(np.eye(m + 1), x)
        assert np.array_equal(tail_vector(m, x), np.cumsum(masses[::-1])[::-1])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_benefit_and_slope_match_matrix_route(seed):
    rng = np.random.default_rng(seed)
    rewards, _ = random_instance(rng, n_max=200)
    x = np.concatenate((EDGE_POINTS, rng.random(17)))
    bound = rounding_bound(rewards.n, rewards.as_array())
    assert np.max(np.abs(expected_benefit(x, rewards) - matrix_benefit(x, rewards))) <= bound
    slope_bound = rewards.n * rounding_bound(rewards.n, np.diff(rewards.as_array()))
    assert np.max(np.abs(benefit_slope(x, rewards) - matrix_slope(x, rewards))) <= slope_bound


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_equilibrium_matches_bisection_oracle(seed):
    # the acceptance bounds of the Newton route: 1e-12 on p and on
    # quantiles, 1e-9 on pressure
    rng = np.random.default_rng(seed)
    rewards, cost = random_instance(rng, n_max=200)
    sol = solve(rewards, cost)
    if sol.regime == "no_entry":
        return
    if sol.regime == "interior":
        oracle_p = bisect_benefit([cost.entry_cost], rewards, 1.0)[0]
        assert abs(sol.p - oracle_p) <= 1e-12
    q = np.linspace(0.0, sol.qbar, 33)
    targets = np.asarray(cost.value(q)) + sol.shift
    oracle_x = bisect_benefit(targets, rewards, sol.p)
    assert np.max(np.abs(sol.pressure(q) - oracle_x)) <= 1e-9
    u = np.concatenate(([0.0, 1.0], rng.random(31)))
    levels = matrix_benefit(sol.p * (1.0 - u), rewards) - sol.shift
    oracle_q = np.clip(cost.inverse(levels), 0.0, sol.qbar)
    assert np.max(np.abs(sol.quantile(u) - oracle_q)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=SEEDS,
    kind=st.sampled_from(("drawn", "full", "tie", "last_tie", "near_tie")),
    n=st.integers(2, 1000),
)
def test_pressure_within_rounding_of_bisection(seed, kind, n):
    # every pressure lies within the rounding noise of the benefit over
    # its slope of the bisection oracle, the bound of test_exact_top_ties
    # at 1e-12: no stopping rule may end a target short of that
    rng = np.random.default_rng(seed)
    rewards, cost = kind_instance(rng, n, kind)
    sol = solve(rewards, cost)
    q = np.concatenate((np.linspace(0.0, sol.qbar, 33), rng.uniform(0.0, sol.qbar, 31)))
    targets = np.asarray(cost.value(q)) + sol.shift
    oracle = bisect_benefit(targets, rewards, sol.p)
    with np.errstate(divide="ignore"):
        conditioning = 4.0 * inversion_noise(rewards) / np.abs(matrix_slope(oracle, rewards))
    assert np.all(np.abs(sol.pressure(q) - oracle) <= 1e-12 + conditioning)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, hi_is_one=st.booleans())
def test_out_of_range_targets_clamp(seed, hi_is_one):
    rng = np.random.default_rng(seed)
    rewards, _ = random_instance(rng, n_max=200)
    hi = 1.0 if hi_is_one else float(rng.uniform(0.05, 1.0))
    top, bottom = rewards.top, expected_benefit(hi, rewards)
    spread = top - bottom
    targets = np.array([top, top + 1e-3 * spread, top + spread, bottom - 1e-3 * spread,
                        bottom - spread])
    got = invert_benefit(targets, rewards, hi)
    assert np.array_equal(got, [0.0, 0.0, 0.0, hi, hi])
    # at a target exactly at an end, the oracle's bisection lands where
    # rounding noise in its benefit matches the target, which a nearly
    # flat end (nearly tied end prizes) spreads over noise / slope
    oracle = bisect_benefit(targets, rewards, hi)
    with np.errstate(divide="ignore"):
        conditioning = 4.0 * inversion_noise(rewards) / np.abs(matrix_slope(oracle, rewards))
    assert np.all(np.abs(got - oracle) <= 1e-12 + conditioning)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_full_regime_inversion_on_unit_bracket(seed):
    rng = np.random.default_rng(seed)
    cost = random_cost(rng)
    drawn = random_rewards(rng, int(rng.integers(2, 201)), cost).as_array()
    lift = cost.entry_cost * rng.uniform(1.0, 2.0) - drawn[-1]
    rewards = RewardVector(tuple(drawn + lift))
    sol = solve(rewards, cost)
    assert sol.p == 1.0
    q = np.linspace(0.0, sol.qbar, 33)
    targets = np.asarray(cost.value(q)) + sol.shift
    assert np.max(np.abs(sol.pressure(q) - bisect_benefit(targets, rewards, 1.0))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, ties=st.integers(2, 6), n=st.integers(3, 120))
def test_exact_top_ties(seed, ties, n):
    # benefit'(0) = 0, so Newton steps from near 0 overshoot and must
    # fall back to bisection; roots near 0 are ill-conditioned, so the
    # agreement bound widens with the rounding noise over the slope
    rng = np.random.default_rng(seed)
    ties = min(ties, n - 1)
    tail = np.sort(rng.uniform(0.0, 0.9, size=n - ties))[::-1]
    rewards = RewardVector((1.0,) * ties + tuple(tail))
    hi = 1.0
    bottom = float(matrix_benefit(hi, rewards)[0])
    gaps = np.concatenate((np.logspace(-14, -1, 14), rng.uniform(0.0, 1.0, 9)))
    targets = 1.0 - gaps * (1.0 - bottom)
    got = invert_benefit(targets, rewards, hi)
    oracle = bisect_benefit(targets, rewards, hi)
    noise = inversion_noise(rewards)
    with np.errstate(divide="ignore"):
        conditioning = 4.0 * noise / np.abs(matrix_slope(oracle, rewards))
    assert np.all(np.abs(got - oracle) <= 1e-9 + conditioning)
    residual = np.abs(matrix_benefit(got, rewards) - targets)
    oracle_residual = np.abs(matrix_benefit(oracle, rewards) - targets)
    assert np.all(residual <= oracle_residual + 2.0 * noise)


def interior_contest(n, seed):
    """A contest at n ranks whose entry probability lies inside (0, 1)."""
    rng = np.random.default_rng(seed)
    while True:
        cost = random_cost(rng)
        rewards = random_rewards(rng, n, cost, full_share=0.0)
        if rewards.last < cost.entry_cost < rewards.top:
            return rewards, cost, rng


@pytest.mark.parametrize("n", [2, 3, 10, 200, 1000])
def test_inversion_matches_oracle_at_every_target_count(n):
    # the entry probability's scalar root find, and pressure batches of
    # every size the starting table meets: 1, 2, m, m+1, 129 and 1,024
    rewards, cost, rng = interior_contest(n, seed=n)
    sol = solve(rewards, cost)
    assert abs(sol.p - bisect_benefit([cost.entry_cost], rewards, 1.0)[0]) <= 1e-12
    q = rng.uniform(0.0, sol.qbar, 1024)
    oracle = bisect_benefit(np.asarray(cost.value(q)) + sol.shift, rewards, sol.p)
    for count in (1, 2, n - 1, n, 129, 1024):
        assert np.max(np.abs(sol.pressure(q[:count]) - oracle[:count])) <= 1e-9


@pytest.mark.parametrize("n", [3, 10, 200, 1000])
def test_pressure_does_not_depend_on_batch(n):
    # every pressure query starts from the same table, so a point gets
    # the same bits alone and among any other points
    rewards, cost, rng = interior_contest(n, seed=n + 1)
    sol = solve(rewards, cost)
    q = rng.uniform(0.0, sol.qbar, 1024)
    batch = sol.pressure(q)
    for size in (1, 2, n, 129):
        assert np.array_equal(sol.pressure(q[:size]), batch[:size])
    assert sol.pressure(float(q[7])) == batch[7]


@pytest.mark.parametrize("n, count", [(3, 1), (10, 2), (120, 129), (1000, 1), (1000, 129)])
def test_exact_top_ties_on_both_tables(n, count):
    # one target as the entry probability of a contest whose entry cost
    # is that target, which solve finds by the scalar Newton iteration
    # from 1/2; several on the pressure table, where benefit'(0) = 0
    # makes the first cell's Hermite start infinite and the linear start
    # takes over; the bound is test_exact_top_ties' own
    rng = np.random.default_rng(n + count)
    ties = min(3, n - 1)
    tail = np.sort(rng.uniform(0.0, 0.9, size=n - ties))[::-1]
    rewards = RewardVector((1.0,) * ties + tuple(tail))
    bottom = float(matrix_benefit(1.0, rewards)[0])
    gaps = rng.uniform(0.0, 1.0, count)
    gaps[:14] = np.logspace(-14, -1, 14)[:count]
    targets = 1.0 - gaps * (1.0 - bottom)
    if count == 1:
        got = np.array([solve(rewards, LinearCost(c0=targets[0], slope=1.0)).p])
    else:
        got = invert_benefit(targets, rewards, 1.0)
    oracle = bisect_benefit(targets, rewards, 1.0)
    noise = inversion_noise(rewards)
    with np.errstate(divide="ignore"):
        conditioning = 4.0 * noise / np.abs(matrix_slope(oracle, rewards))
    assert np.all(np.abs(got - oracle) <= 1e-9 + conditioning)


@pytest.mark.parametrize("n", [3, 10, 200, 1000])
def test_full_entry_with_tied_last_prizes(n):
    # a_{n-1} = a_n >= c(0): everyone enters and benefit'(1) = 0, so the
    # table's last node has a zero slope and the flat bottom near q = 0
    # takes the linear start
    rng = np.random.default_rng(n)
    values = np.sort(rng.uniform(0.3, 1.0, size=n))[::-1]
    values[-1] = values[-2]
    rewards = RewardVector(tuple(values))
    sol = solve(rewards, GOLDEN_COST)
    assert sol.p == 1.0 and sol.regime == "full"
    q = np.concatenate(([0.0], np.logspace(-12, -1, 12) * sol.qbar, rng.uniform(0.0, sol.qbar, 129)))
    targets = np.asarray(GOLDEN_COST.value(q)) + sol.shift
    oracle = bisect_benefit(targets, rewards, 1.0)
    with np.errstate(divide="ignore"):
        conditioning = 4.0 * inversion_noise(rewards) / np.abs(matrix_slope(oracle, rewards))
    assert np.all(np.abs(sol.pressure(q) - oracle) <= 1e-9 + conditioning)
