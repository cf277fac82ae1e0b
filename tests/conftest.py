import numpy as np
import pytest

from rankcontest import (
    ConvergenceError,
    DomainError,
    ExponentialCost,
    LinearCost,
    PerturbationResult,
    QuadraticPlusCost,
    QuadratureError,
    RewardVector,
    SensitivityReport,
    contest_metrics,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    hold_budget,
    rank_probability,
    solve,
)
from rankcontest import equilibrium, quadrature
from rankcontest.binom import bernstein
from rankcontest.design import _default_step
from rankcontest.equilibrium import REGIME_NO_ENTRY, _BenefitTable
from rankcontest.montecarlo import (
    _DEV_ENTRY,
    _DEV_QUALITY,
    _DEV_SELF,
    _DEV_TIE,
    _ENTRY,
    _QUALITY,
    PayoffPoint,
    SimulationReport,
    _entrant_qualities,
    _mean_se,
    _stream,
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


class KernelWork:
    """Work of the Bernstein kernel as called from the equilibrium
    module: rows x points x degree, summed over calls."""

    def __init__(self):
        self.units = 0
        self.calls = 0

    def reset(self):
        self.units = 0
        self.calls = 0


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts every ``equilibrium.bernstein`` call's rows x points x
    degree while the test runs.  The count depends only on the inputs,
    so a test can pin the work of an inversion exactly."""
    work = KernelWork()
    kernel = equilibrium.bernstein

    def counted(coeffs, x):
        c = np.asarray(coeffs)
        rows = 1 if c.ndim == 1 else c.shape[0]
        work.units += rows * np.size(x) * (c.shape[-1] - 1)
        work.calls += 1
        return kernel(coeffs, x)

    monkeypatch.setattr(equilibrium, "bernstein", counted)
    return work


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


def kind_instance(rng, n, kind, cost=None):
    """A conftest instance of the given kind: as drawn (mostly interior),
    full entry, an exact tie at the top prize, full entry with an exact
    tie at the last two prizes (both ties take the pressure-space
    route), top prizes tied to within 1e-9 to 1e-3 of their step
    ("near_tie"), or prizes below the entry cost (no entry).  The cost
    is drawn unless given."""
    cost = random_cost(rng) if cost is None else cost
    if kind == "drawn":
        return random_rewards(rng, n, cost), cost
    rewards = random_rewards(rng, max(n, 3) if "tie" in kind else n, cost)
    if kind == "full":
        return RewardVector(tuple(rewards.as_array() + cost.entry_cost)), cost
    if kind == "tie":
        return rewards.replace(2, rewards.top), cost
    if kind == "last_tie":
        a = rewards.as_array() + cost.entry_cost
        a[-2] = a[-1]
        return RewardVector(tuple(a)), cost
    if kind == "near_tie":
        gap = 10.0 ** rng.uniform(-9.0, -3.0) * (rewards.top - rewards.prizes[1])
        return rewards.replace(2, rewards.top - gap), cost
    scale = 0.9 * cost.entry_cost / rewards.top
    return RewardVector(tuple(rewards.as_array() * scale)), cost


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
            t = t * ratio * ((m - i) / (i + 1))
            out[i + 1, up] = t
    down = interior & (x > 0.5)
    if np.any(down):
        xd = x[down]
        ratio = (1.0 - xd) / xd
        t = xd**m
        out[m, down] = t
        for i in range(m, 0, -1):
            t = t * ratio * (i / (m - i + 1))
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


def rank_mass_at(sol, k, q):
    """Probability that an entrant playing quality q lands on rank k: the
    Binomial(n-1, x(q)) mass at k-1, the Bernstein sum of the unit row
    e_{k-1} at the pressure.  A float for a scalar q."""
    x = np.atleast_1d(sol.pressure(q))
    out = bernstein(np.eye(1, sol.n, k - 1)[0], x)
    return float(out[0]) if np.ndim(q) == 0 else out


def invert_benefit(targets, rewards, hi):
    """The library's pressure inversion of benefit(x) = target on [0, hi]
    at any hi: a fresh table for the contest, then its Newton passes."""
    return _BenefitTable(rewards, hi).invert(np.asarray(targets, dtype=float))


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


# Oracle for the pressure-space quality integrals: the integrand of
# the substitution route before it was integrated by parts.


def substitution_quality(sol):
    """(E[max], E[avg]) as the integrals over [0, p] of the survival
    functions 1 - (1-x)**n and x times dq/dx = -benefit'(x) / c'(q(x)),
    with q(x) = c^{-1}(benefit(x) - shift), by the library's rule."""
    if sol.regime == REGIME_NO_ENTRY:
        return 0.0, 0.0
    n = sol.n

    def f(x):
        q = sol.cost.inverse(equilibrium.expected_benefit(x, sol.rewards) - sol.shift)
        weight = -equilibrium.benefit_slope(x, sol.rewards) / sol.cost.derivative(q)
        return np.stack((1.0 - (1.0 - x) ** n, x)) * weight

    values, _ = quadrature.integrate(f, 0.0, sol.p)
    return float(values[0]), float(values[1])


# Oracle for the quadrature: panel doubling with one integrand call per
# level, the route before the first two levels shared one call.


def levelwise_integrate(f, a, b):
    """``quadrature.integrate`` calling ``f`` once per level: same rule,
    points, reductions, stopping test and errors.  The rule is read from
    the module, so the oracle cannot drift from it."""
    if b <= a:
        return 0.0, 0.0
    panels, nodes, tol = quadrature._PANELS, quadrature._NODES, quadrature._TOL
    z, w = np.polynomial.legendre.leggauss(nodes)

    def composite(panels):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (b - a) / panels
        centers = 0.5 * (edges[:-1] + edges[1:])
        values = np.asarray(f((centers[:, None] + half * z[None, :]).ravel()), dtype=float)
        rows = values.reshape(values.shape[:-1] + (panels, nodes))
        out = np.empty(rows.shape[:-2])
        for row in np.ndindex(out.shape):
            out[row] = half * np.sum(rows[row] @ w)
        return out

    previous = composite(panels)
    value = previous
    estimate = np.abs(previous)
    done = np.zeros(previous.shape, dtype=bool)
    for _ in range(quadrature._MAX_DOUBLINGS):
        panels *= 2
        current = composite(panels)
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


# Oracles for the simulator: the routes that inverted every opponent
# draw and ranked the deviator trial by trial at every grid point, and
# the routes that held every trial's draws at once instead of a block.


def run_oracle(sol, trials, seed):
    """``montecarlo.run`` with every draw inverted, entrant or not."""
    n = sol.n
    entries = _stream(seed, _ENTRY).random((trials, n))
    quality_draws = _stream(seed, _QUALITY).random((trials, n))
    entered = entries < sol.p
    if sol.regime == REGIME_NO_ENTRY:
        qualities = np.zeros((trials, n))
    else:
        qualities = np.where(
            entered, sol.quantile(quality_draws.ravel()).reshape(trials, n), 0.0
        )
    counts = entered.sum(axis=1)
    prefix = np.concatenate(([0.0], np.cumsum(sol.rewards.as_array())))
    eq_max, eq_max_se = _mean_se(qualities.max(axis=1))
    eq_avg, eq_avg_se = _mean_se(qualities.sum(axis=1) / n)
    payout, payout_se = _mean_se(prefix[counts])
    return SimulationReport(
        trials=trials,
        seed=seed,
        empirical_eq_max=eq_max,
        eq_max_se=eq_max_se,
        empirical_eq_avg=eq_avg,
        eq_avg_se=eq_avg_se,
        empirical_payout=payout,
        payout_se=payout_se,
        entrant_histogram=tuple(int(c) for c in np.bincount(counts, minlength=n + 1)),
    )


def deviation_oracle(sol, q_grid, trials, seed):
    """(rank counts, curve) of ``montecarlo.deviation_check``, ranking
    the deviator in every trial at every grid point: counts[i, r] is the
    number of trials with rank r+1 at q_grid[i]."""
    q_grid = np.atleast_1d(np.asarray(q_grid, dtype=float))
    n = sol.n
    opponents = n - 1
    prizes = sol.rewards.as_array()
    entries = _stream(seed, _DEV_ENTRY).random((trials, opponents))
    quality_draws = _stream(seed, _DEV_QUALITY).random((trials, opponents))
    opp_tie = _stream(seed, _DEV_TIE).random((trials, opponents))
    self_tie = _stream(seed, _DEV_SELF).random(trials)
    entered = entries < sol.p
    if sol.regime == REGIME_NO_ENTRY or not np.any(entered):
        qualities = np.zeros((trials, opponents))
    else:
        qualities = sol.quantile(quality_draws.ravel()).reshape(trials, opponents)
    counts, points = [], []
    for q in q_grid:
        beaten_by = entered & (qualities > q)
        tied = entered & (qualities == q)
        rank = 1 + beaten_by.sum(axis=1)
        if np.any(tied):
            rank = rank + (tied & (opp_tie < self_tie[:, None])).sum(axis=1)
        counts.append(np.bincount(rank - 1, minlength=n))
        payoff = prizes[rank - 1] - sol.cost.value(float(q))
        mean, se = _mean_se(payoff)
        points.append(PayoffPoint(q=float(q), mean_payoff=mean, stderr=se, trials=trials))
    return np.array(counts), tuple(points)


def unblocked_run(sol, trials, seed):
    """``montecarlo.run`` with every trial's draws held at once."""
    n = sol.n
    entered = _stream(seed, _ENTRY).random((trials, n)) < sol.p
    qualities = _entrant_qualities(sol, entered, _stream(seed, _QUALITY), 0.0)
    counts = entered.sum(axis=1)
    prefix = np.concatenate(([0.0], np.cumsum(sol.rewards.as_array())))
    eq_max, eq_max_se = _mean_se(qualities.max(axis=1))
    eq_avg, eq_avg_se = _mean_se(qualities.sum(axis=1) / n)
    payout, payout_se = _mean_se(prefix[counts])
    return SimulationReport(
        trials=trials,
        seed=seed,
        empirical_eq_max=eq_max,
        eq_max_se=eq_max_se,
        empirical_eq_avg=eq_avg,
        eq_avg_se=eq_avg_se,
        empirical_payout=payout,
        payout_se=payout_se,
        entrant_histogram=tuple(int(c) for c in np.bincount(counts, minlength=n + 1)),
    )


def unblocked_rank_counts(sol, q_grid, trials, seed):
    """``montecarlo._rank_counts`` with every trial's opponents held at
    once: one column sort over all trials, one tie re-draw of every
    stream."""
    n = sol.n
    entered = _stream(seed, _DEV_ENTRY).random((trials, n - 1)) < sol.p
    qualities = _entrant_qualities(sol, entered, _stream(seed, _DEV_QUALITY), -np.inf)
    ranked = np.sort(qualities, axis=1).T
    ranked.sort(axis=1)
    at_least = np.zeros((q_grid.size, n + 1), dtype=np.int64)
    at_least[:, 0] = trials
    tied = np.zeros(q_grid.size, dtype=bool)
    for k in range(1, n):
        column = ranked[n - 1 - k]
        below = np.searchsorted(column, q_grid, side="right")
        at_least[:, k] = trials - below
        tied |= np.searchsorted(column, q_grid, side="left") != below
    counts = at_least[:, :-1] - at_least[:, 1:]
    if tied.any():
        self_tie = _stream(seed, _DEV_SELF).random(trials)
        loses_tie = _stream(seed, _DEV_TIE).random(qualities.shape) < self_tie[:, None]
        for i in np.flatnonzero(tied):
            q = q_grid[i]
            beaten_by = (qualities > q).sum(axis=1)
            beaten_by += ((qualities == q) & loses_tie).sum(axis=1)
            counts[i] = np.bincount(beaten_by, minlength=n)
    return counts


def opponent_qualities(sol, trials, seed):
    """Every quality an opponent of the deviation experiment draws
    (entrants only), for grids that tie with them."""
    entered = _stream(seed, _DEV_ENTRY).random((trials, sol.n - 1)) < sol.p
    if not entered.any():
        return np.empty(0)
    draws = _stream(seed, _DEV_QUALITY).random(entered.shape)
    return sol.quantile(draws[entered])


# Oracle for budget matching: the prize-space route that root-found the
# free prize or scale by the Illinois method, with one full equilibrium
# solve per evaluation.

BUDGET_TOL = 1e-8  # the oracle's payout tolerance in hold_budget
_MAX_DOUBLINGS = 60
_XTOL = 1e-13
_MAX_ITER = 100


def illinois_root(g, lo, hi, *, ftol, g_lo=None):
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


def payout_gap(schedule, cost, target):
    """g(theta) = expected payout of ``schedule(theta)`` minus ``target``,
    one solve per call; increasing in theta."""

    def gap(theta):
        return expected_budget(solve(schedule(theta), cost)) - target

    return gap


def oracle_hold_budget(rewards, cost, rank, new_value):
    """``hold_budget`` by the Illinois method over the top prize."""
    i = rank - 1
    a = rewards.prizes
    if new_value == a[i]:
        return rewards
    if (i >= 2 and new_value > a[i - 1]) or (i + 1 < rewards.n and new_value < a[i + 1]):
        raise DomainError("monotonicity unreachable")
    target = expected_budget(solve(rewards, cost))
    repriced = rewards.replace(rank, new_value)
    tail = repriced.prizes[1:]
    gap = payout_gap(lambda a1: RewardVector((a1,) + tail), cost, target)
    lo = tail[0] + 1e-12 * np.max(np.abs(repriced.as_array()))
    g_lo = gap(lo)
    if g_lo > BUDGET_TOL:
        raise DomainError("budget match infeasible")
    a1 = illinois_root(
        gap, lo, max(rewards.top, 2.0 * abs(lo), 1.0), ftol=BUDGET_TOL, g_lo=g_lo
    )
    result = repriced.replace(1, a1)
    if result.prizes[0] <= result.prizes[1]:
        raise DomainError("budget match pushed the top prize to rank 2 or below")
    return result


# Oracle for the budget-matched derivatives: the finite-difference route
# that re-matched the budget at a_s +- step and re-integrated both
# quality statistics of each matched schedule.


def fd_budget_matched_derivative(rewards, cost, rank, step=None, method="grid"):
    """``budget_matched_derivative`` by central (or, where monotonicity
    blocks one side, one-sided) differences over re-solved schedules.

    ``method="grid"`` takes the quality statistics from
    ``contest_metrics``, as the library did; "substitution" integrates
    them in pressure space, whose smooth integrands keep the quadrature
    bias out of the differences.
    """
    n = rewards.n
    step = _default_step(rewards) if step is None else float(step)
    i = rank - 1
    a = rewards.prizes
    up_ok = rank == 2 or a[i - 1] >= a[i] + step
    down_ok = rank == n or a[i] - step >= a[i + 1]
    if not up_ok and not down_ok:
        raise DomainError("both perturbation directions break monotonicity")
    base_sol = solve(rewards, cost)
    w1 = rank_probability(base_sol, 1)
    ws = rank_probability(base_sol, rank)
    bound = -ws / w1 if w1 > 0 else float("nan")

    def objectives(sol):
        if method == "grid":
            report = contest_metrics(sol)
            return sol.rewards.top, report.eq_max, report.eq_avg
        eq_max = expected_max_quality(sol, method=method)
        return sol.rewards.top, eq_max, expected_avg_quality(sol, method=method)

    def matched(value):
        return objectives(solve(hold_budget(rewards, cost, rank, value), cost))

    if up_ok and down_ok:
        mode = "central"
        a1_hi, max_hi, avg_hi = matched(a[i] + step)
        a1_lo, max_lo, avg_lo = matched(a[i] - step)
        width = 2.0 * step
    elif up_ok:
        mode = "forward"
        a1_hi, max_hi, avg_hi = matched(a[i] + step)
        a1_lo, max_lo, avg_lo = objectives(base_sol)
        width = step
    else:
        mode = "backward"
        a1_hi, max_hi, avg_hi = objectives(base_sol)
        a1_lo, max_lo, avg_lo = matched(a[i] - step)
        width = step
    return PerturbationResult(
        rank=rank,
        step=step,
        mode=mode,
        da1_das=(a1_hi - a1_lo) / width,
        d_eqmax=(max_hi - max_lo) / width,
        d_eqavg=(avg_hi - avg_lo) / width,
        slope_bound=float(bound),
    )


# Oracle for the prize sensitivities: the central difference over two
# re-solved contests that the indifference-condition route replaced.


def fd_reward_sensitivity(rewards, cost, rank, step):
    """``reward_sensitivity`` by central differences of the pressure
    and the entry probability over the contests with a_rank +- step.

    The library took the grid inside the lower of the two perturbed
    support endpoints; this takes the base's grid, as the library now
    does, so that the two compare point by point.  It lies inside both
    perturbed supports while the step is small.
    """
    if not 1 <= rank <= rewards.n:
        raise DomainError(f"rank must be in 1..{rewards.n}")
    i = rank - 1
    a = list(rewards.prizes)
    if i > 0 and a[i - 1] < a[i] + step:
        raise DomainError("perturbation would break monotonicity against the rank above")
    if i + 1 < len(a) and a[i] - step < a[i + 1]:
        raise DomainError("perturbation would break monotonicity against the rank below")
    plus = solve(rewards.replace(rank, a[i] + step), cost)
    minus = solve(rewards.replace(rank, a[i] - step), cost)
    if REGIME_NO_ENTRY in (plus.regime, minus.regime):
        raise DomainError("perturbed contest loses all entry; nothing to compare")
    grid = np.linspace(0.0, solve(rewards, cost).qbar, 52)[1:-1]
    derivs = (plus.pressure(grid) - minus.pressure(grid)) / (2.0 * step)
    dp = (plus.p - minus.p) / (2.0 * step)
    if rank == rewards.n and abs(rewards.last - cost.entry_cost) <= step:
        sign = "boundary"
    elif np.all(derivs > 0.0):
        sign = "positive"
    elif np.all(derivs < 0.0):
        sign = "negative"
    else:
        sign = "mixed"
    return SensitivityReport(
        rank=rank,
        grid=tuple(float(q) for q in grid),
        derivs=tuple(float(d) for d in derivs),
        sign=sign,
        dp=float(dp),
    )
