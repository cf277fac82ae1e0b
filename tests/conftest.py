import numpy as np
import pytest

from rankcontest import (
    ExponentialCost,
    LinearCost,
    QuadraticPlusCost,
    RewardVector,
    solve,
)

GOLDEN_COST = LinearCost(c0=0.25, slope=1.0)


@pytest.fixture(scope="session")
def golden_interior():
    """n=2, prizes (1, 0), c(q)=q+0.25: everything closed-form."""
    return solve(RewardVector((1.0, 0.0)), GOLDEN_COST)


@pytest.fixture(scope="session")
def golden_full():
    """n=2, prizes (1, 0.5), c(q)=q+0.25: full participation regime."""
    return solve(RewardVector((1.0, 0.5)), GOLDEN_COST)


def random_cost(rng):
    family = rng.integers(3)
    if family == 0:
        return LinearCost(c0=rng.uniform(0.05, 0.6), slope=rng.uniform(0.5, 2.0))
    if family == 1:
        return ExponentialCost(k=rng.uniform(0.5, 2.0))
    return QuadraticPlusCost(
        c0=rng.uniform(0.05, 0.6), a=rng.uniform(0.3, 1.5), b=rng.uniform(0.0, 2.0)
    )


def random_rewards(rng, n, cost, full_share=0.3):
    """Monotone prizes with a top prize well above the entry cost;
    roughly ``full_share`` of draws land in the full-entry regime."""
    c0 = cost.entry_cost
    values = np.cumsum(rng.exponential(size=n)[::-1])[::-1]
    values *= c0 * rng.uniform(1.3, 4.0) / values[0]
    if rng.random() < full_share:
        values += c0 * rng.uniform(0.1, 1.0)
    return RewardVector(tuple(values))


def random_instance(rng, n_max=10):
    n = int(rng.integers(2, n_max + 1))
    cost = random_cost(rng)
    return random_rewards(rng, n, cost), cost


# Oracles: the matrix route the Bernstein kernel and the one-point
# tail vector replaced, kept as the reference the library must agree with.


def pmf_matrix(m, x):
    """Masses P[i, j] = C(m, i) * x_j**i * (1-x_j)**(m-i) for i = 0..m,
    shape (m+1, len(x)), each column walked from its heavier endpoint."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((m + 1, x.size))
    if m == 0:
        out[0] = 1.0
        return out
    at_zero = x <= 0.0
    at_one = x >= 1.0
    out[0, at_zero] = 1.0
    out[m, at_one] = 1.0
    interior = ~(at_zero | at_one)
    up = interior & (x <= 0.5)
    if np.any(up):
        xu = x[up]
        ratio = xu / (1.0 - xu)
        t = (1.0 - xu) ** m
        out[0, up] = t
        for i in range(m):
            t = t * ((m - i) / (i + 1)) * ratio
            out[i + 1, up] = t
    down = interior & (x > 0.5)
    if np.any(down):
        xd = x[down]
        ratio = (1.0 - xd) / xd
        t = xd**m
        out[m, down] = t
        for i in range(m, 0, -1):
            t = t * (i / (m - i + 1)) * ratio
            out[i - 1, down] = t
    return out


def matrix_tails(m, x):
    """T[k] = P(Binomial(m, x) >= k) from the oracle's mass column."""
    return np.cumsum(pmf_matrix(m, x)[::-1, 0])[::-1]


def matrix_benefit(x, rewards):
    """Expected benefit as the prize vector times the full mass matrix."""
    return rewards.as_array() @ pmf_matrix(rewards.n - 1, x)


def matrix_slope(x, rewards):
    """Benefit slope as the prize steps times the full mass matrix."""
    steps = np.diff(rewards.as_array())
    return (rewards.n - 1) * (steps @ pmf_matrix(rewards.n - 2, x))


def bisect_benefit(targets, rewards, hi):
    """Solve benefit(x) = target on [0, hi] by 64 bisection steps on the
    matrix route; targets out of range end within hi * 2**-64 of the
    nearer endpoint."""
    targets = np.asarray(targets, dtype=float)
    lo = np.zeros_like(targets)
    high = np.full_like(targets, hi)
    for _ in range(64):
        mid = 0.5 * (lo + high)
        above = matrix_benefit(mid, rewards) > targets
        lo = np.where(above, mid, lo)
        high = np.where(above, high, mid)
    return 0.5 * (lo + high)
