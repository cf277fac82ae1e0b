"""Symmetric mixed-strategy equilibrium of a monotone rank-order contest.

With n identical potential entrants, prizes a_1 >= ... >= a_n and cost
c(q), a symmetric equilibrium is a participation probability p together
with a quality CDF G supported on an interval [0, qbar].  Write

    x = p * (1 - G(q))

for the *competitor pressure* at quality q: the probability that one
given rival both enters and beats q.  Ranks against the other n-1
agents are then Binomial(n-1, x), so the expected prize from entering
at quality q is

    benefit(x) = sum_{i=0}^{n-1} a_{i+1} * C(n-1, i) * x**i * (1-x)**(n-1-i),

which is strictly decreasing in x whenever the prizes are monotone with
a strict step.  Equilibrium play makes entrants indifferent across the
support:

    benefit(x(q)) - c(q) = shift     for all q in [0, qbar],

where shift = max(a_n - c(0), 0) is the equilibrium profit level (zero
under free entry with p < 1, positive only when even the last prize
covers the entry cost and everyone enters).

Three regimes:

* ``no_entry``  a_1 <= c(0): entering cannot pay even unopposed; p = 0
  and no quality CDF is defined.
* ``interior``  a_n < c(0) < a_1: p in (0, 1) solves benefit(p) = c(0).
* ``full``      a_n >= c(0): p = 1.

The support endpoint solves c(qbar) = a_1 - shift.  :func:`solve` alone
decides the regime, p, qbar and shift.  Every query inverts or
evaluates one Bernstein polynomial: the entry probability and the
pressure behind ``cdf`` solve benefit(x) = target, and the quantile
evaluates benefit directly.  Sums run through :func:`binom.bernstein`
in O(points) memory.  Because the benefit function is strictly
decreasing, each inversion keeps a bracket and runs a safeguarded
Newton iteration that falls back to bisection, so convergence is
guaranteed: the entry probability's one target through the library's
scalar :func:`rootfind.bracketed_root` from the midpoint of [0, 1], and
the pressure's targets together from a table.  The solver carries no
state beyond the scalars above, and solutions are immutable and safe to
share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .binom import _WALK, bernstein
from .costs import CostModel
from .errors import DomainError, StateError
from .mechanism import RewardVector
from .rootfind import _EPS, _MAX_ITER, _STOP_ULPS, _rounding_noise, bracketed_root

REGIME_NO_ENTRY = "no_entry"
REGIME_INTERIOR = "interior"
REGIME_FULL = "full"

_X_SLACK = 1e-12


def _in_range(x, hi: float, what: str) -> tuple[np.ndarray, bool]:
    """``x`` as a 1-d array clipped to [0, hi], and whether it was a
    scalar; a value more than _X_SLACK max(1, hi) outside is refused."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    slack = _X_SLACK * max(1.0, hi)
    # written so that NaN fails the test as well
    if not np.all((arr >= -slack) & (arr <= hi + slack)):
        raise DomainError(f"{what} must lie in [0, {hi}]")
    return np.clip(arr, 0.0, hi), scalar


def expected_benefit(x, rewards: RewardVector):
    """Expected prize from entering when each rival independently beats
    you with probability ``x``.

    Equals a_1 at x = 0 and a_n at x = 1, and is strictly decreasing in
    between.  Accepts scalars or arrays.
    """
    arr, scalar = _in_range(x, 1, "competitor pressure")
    out = bernstein(rewards.as_array(), arr)
    return float(out[0]) if scalar else out


def benefit_slope(x, rewards: RewardVector):
    """Derivative of :func:`expected_benefit` in x.

    Evaluates (n-1) * sum_i (a_{i+2} - a_{i+1}) C(n-2, i) x**i
    (1-x)**(n-2-i), which is <= 0 everywhere and strictly negative on
    (0, 1) for a monotone schedule with a strict step.
    """
    arr, scalar = _in_range(x, 1, "competitor pressure")
    out = (rewards.n - 1) * bernstein(np.diff(rewards.as_array()), arr)
    return float(out[0]) if scalar else out


def _start(t, nodes, table, slope=None):
    """Start and bracket (x, lo, up) of each target strictly inside the
    table's range, on the table cell that brackets it: the linear
    interpolate, or with ``slope`` (benefit' at the nodes) the cubic
    Hermite interpolate of the inverse x(f) with end slopes 1 / benefit'
    where that is finite and inside the open cell (a zero slope at a
    tie is not)."""
    cell = np.searchsorted(-table, -t)
    up, below = nodes[cell], table[cell]
    cell -= 1
    lo = nodes[cell]
    # the linear start: the target's share s in (0, 1] of its cell's
    # drop in benefit
    s = table[cell] - t
    drop = table[cell] - below
    del below
    width = up - lo
    x = width * s
    x /= drop
    x += lo
    if slope is None:
        return x, lo, up
    s /= drop
    del drop
    # per cell, the inverse's end slopes over its chord's, less 1: the
    # cubic is the chord plus s (1 - s) ((1 - s) bend0 - s bend1)
    chord = (table[:-1] - table[1:]) / (nodes[1:] - nodes[:-1])
    bend0 = chord / -slope[:-1] - 1.0
    bend1 = chord / -slope[1:] - 1.0
    r = 1.0 - s
    bend = bend0[cell] * r
    bend -= bend1[cell] * s
    del cell
    bend *= r
    bend *= s
    del r, s
    bend *= width
    bend += x
    np.copyto(x, bend, where=(bend > lo) & (bend < up))
    return x, lo, up


def _last_step(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The rows (a[:-1], a[1:]) of the last de Casteljau step, and the
    rounding noise of a benefit sum.

    With S0, S1 the degree m-1 sums of the two rows, benefit =
    (1-x) S0 + x S1 and benefit' = m (S1 - S0), both from one kernel
    pass.  Each kernel mass carries up to about 2m rounding errors and
    the sum m more, so a residual below 4 (m+1) eps max|a| is noise.
    """
    return np.stack((a[:-1], a[1:])), _rounding_noise(a.size, float(np.max(np.abs(a))))


def _entry_probability(rewards: RewardVector, c0: float) -> float:
    """The root in (0, 1) of benefit(p) = c(0), for a_n < c(0) < a_1,
    by :func:`bracketed_root` from the midpoint, stopping at the
    benefit's rounding noise."""
    pairs, noise = _last_step(rewards.as_array())
    m = rewards.n - 1

    def gap(x):
        s0, s1 = bernstein(pairs, x)[:, 0].tolist()
        return c0 - (x * (s1 - s0) + s0), m * (s0 - s1)

    return bracketed_root(gap, 0.0, 1.0, ftol=noise)


# Pressure inversion: a step or bracket within _STOP_ULPS ulps of [0, hi]
# ends the iteration.  Each target starts on a table of the benefit and
# its slope at _WALK nodes (the kernel's walk block, past which the
# table would leave the walk): a node costs the kernel work of one
# target's Newton pass.  The table depends on the contest alone, so a
# point's pressure does not depend on the points queried with it; a
# query of a few points pays for the whole table.  Bisection alone
# would get from one cell of that table to the stopping width in about
# 43 steps, well inside _MAX_ITER.
#
# A Newton step d from x lands within bend d**2 / |benefit'(x)| of the
# root, where bend bounds |benefit''| / 2 on [0, 1]: with m = n - 1,
# benefit'' = m (m-1) sum_i (d2 a)_i C(m-2, i) x**i (1-x)**(m-2-i), and
# the Bernstein basis sums to 1, so bend = m (m-1) max|d2 a| / 2.  A
# step inside the bracket with bend d**2 <= tol |benefit'(x)| / 2 ends
# the iteration on the pass that takes it, where waiting for the
# residual to reach the noise floor costs one more pass.  The test
# scales with the prizes, so it leaves the bits of a contest scaled by
# a power of 2 unchanged.  On 1,024 equally spaced qualities a target
# takes 1.0, 1.0, 1.3, 1.9 and 2.0 Newton passes at n = 3, 10, 50, 200
# and 1000: the bound grows with m**2, so it ends fewer targets on
# their first pass at high degree.


def _invert_benefit(targets: np.ndarray, rewards: RewardVector, hi: float) -> np.ndarray:
    """Solve expected_benefit(x) = target on [0, hi] for each target.

    Targets outside the attainable range clamp to the nearer endpoint.
    Each other target starts in the cell of a table that brackets it.
    The table holds the benefit and its slope at _WALK equally spaced
    nodes, from the same two sums as each Newton step, and the start is
    the cubic Hermite interpolate of the inverse on the cell (see
    :func:`_start`); prizes that fall by equal steps make the benefit
    linear, and the linear interpolate between its two ends is then
    every target's exact start.  The target then runs a safeguarded
    Newton iteration inside its own bracket [lo, up] with
    benefit(lo) > target > benefit(up): a step that would leave the
    bracket is replaced by bisection.  A point stops once its step or
    its bracket is a few ulps of [0, hi] wide, once its residual is
    down to rounding noise and one last short Newton step refines it,
    or once it takes a step inside its bracket that the curvature bound
    m (m-1) max|d2 a| / 2 >= |benefit''| / 2 puts within half that
    width of the root; the iteration cap bounds the work either way.
    """
    a = rewards.as_array()
    m = rewards.n - 1
    pairs, noise = _last_step(a)
    # from a point this close, Newton's quadratic error is of order eps
    settle = np.sqrt(_EPS) * hi
    tol = _STOP_ULPS * _EPS * hi
    # |benefit''| / 2 <= bend on all of [0, 1]
    bend = 0.5 * m * (m - 1) * float(np.max(np.abs(np.diff(a, 2)))) if m > 1 else 0.0

    def newton_step(t, x, lo, up):
        # updates x, lo and up in place and returns the converged mask;
        # the temporaries die on return, before the next kernel pass
        sums = bernstein(pairs, x)
        slope = sums[1] - sums[0]
        f = x * slope
        f += sums[0]
        f -= t
        np.copyto(lo, x, where=f > 0.0)
        np.copyto(up, x, where=f < 0.0)
        slope *= m
        step = f / slope
        guess = x - step
        inside = (guess > lo) & (guess < up)
        # a residual at the noise floor ends the iteration unless a flat
        # benefit (a tie at the top prize) still makes the step long
        settled = (np.abs(f) <= noise) & (np.abs(step) <= settle)
        # so does a step inside the bracket that lands within tol / 2 of
        # the root by the curvature bound
        settled |= inside & (bend * np.square(step) <= 0.5 * tol * np.abs(slope))
        moved = np.where(inside, guess, 0.5 * (lo + up))
        done = settled | (np.abs(moved - x) <= tol) | (up - lo <= tol)
        np.copyto(x, moved, where=inside | ~settled)
        return done

    # a zero slope (a flat benefit) makes an infinite or undefined bend
    # or step, which _start and newton_step then turn into the linear
    # start or bisection
    with np.errstate(divide="ignore", invalid="ignore"):
        # prize steps equal to within the noise leave the benefit linear
        # to it, and the chord between its ends is then the exact start
        curved = np.ptp(np.diff(a)) > noise
        nodes = np.linspace(0.0, hi, _WALK if curved else 2)
        s0, s1 = bernstein(pairs, nodes)
        s1 -= s0
        values, slope = nodes * s1 + s0, m * s1 if curved else None
        # the running minimum keeps the table sorted where rounding makes
        # a flat stretch wiggle, so every cell found below brackets its
        # target
        table = np.minimum.accumulate(values)
        out = np.empty_like(targets)
        out[targets >= table[0]] = 0.0
        out[targets <= table[-1]] = hi
        idx = np.flatnonzero((targets < table[0]) & (targets > table[-1]))
        t = targets[idx]
        x, lo, up = _start(t, nodes, table, slope)
        for _ in range(_MAX_ITER):
            if idx.size == 0:
                break
            done = newton_step(t, x, lo, up)
            if done.any():
                out[idx[done]] = x[done]
                keep = ~done
                idx, t, x, lo, up = (v[keep] for v in (idx, t, x, lo, up))
    out[idx] = x
    return out


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Solved equilibrium: (p, G) plus the scalars that pin it down.

    ``cdf``/``pressure``/``quantile``/``payoff_residual`` evaluate the
    equilibrium objects on demand; all accept scalars or arrays.
    """

    rewards: RewardVector
    cost: CostModel
    p: float
    qbar: float
    shift: float
    regime: str

    @property
    def n(self) -> int:
        return self.rewards.n

    def _require_entry(self):
        if self.regime == REGIME_NO_ENTRY:
            raise StateError(
                "no-entry equilibrium: the quality distribution is undefined"
            )

    def pressure(self, q):
        """Competitor pressure x(q) = p * (1 - G(q)) on the support."""
        self._require_entry()
        arr, scalar = _in_range(q, self.qbar, "quality")
        targets = np.asarray(self.cost.value(arr), dtype=float) + self.shift
        x = _invert_benefit(targets, self.rewards, self.p)
        return float(x[0]) if scalar else x

    def cdf(self, q):
        """Equilibrium quality CDF G(q) on [0, qbar]."""
        x = self.pressure(q)
        return 1.0 - x / self.p

    def quantile(self, u):
        """Exact inverse CDF: the quality at which G first reaches ``u``.

        Closed form: the indifference condition gives
        q(u) = c^{-1}(benefit(p * (1 - u)) - shift).
        """
        self._require_entry()
        arr, scalar = _in_range(u, 1, "quantile level")
        # p (1 - u) already lies in [0, p]: no second range check
        targets = bernstein(self.rewards.as_array(), self.p * (1.0 - arr)) - self.shift
        q = np.asarray(self.cost.inverse(targets), dtype=float)
        q = np.clip(q, 0.0, self.qbar)
        return float(q[0]) if scalar else q

    def payoff_residual(self, q):
        """Entry payoff at quality q minus the equilibrium profit level.

        Zero across the support (to solver tolerance).  Above the
        support the deviator wins the top prize outright, so the
        residual is a_1 - c(q) - shift, which is strictly negative:
        deviating past qbar only adds cost.
        """
        scalar = np.ndim(q) == 0
        arr = np.atleast_1d(np.asarray(q, dtype=float))
        # the cost model refuses a negative or non-finite quality
        costs = np.asarray(self.cost.value(arr), dtype=float)
        out = self.rewards.top - costs - self.shift
        if self.regime != REGIME_NO_ENTRY:
            inside = arr <= self.qbar
            if np.any(inside):
                # the queries are checked and their costs known, so the
                # targets c(q) + shift go to the inversion directly
                x = _invert_benefit(costs[inside] + self.shift, self.rewards, self.p)
                gains = expected_benefit(x, self.rewards)
                out[inside] = gains - costs[inside] - self.shift
        return float(out[0]) if scalar else out


def solve(rewards, cost: CostModel) -> EquilibriumSolution:
    """Compute the symmetric mixed-strategy equilibrium.

    The one place that decides the regime, p, qbar and shift.  Every
    inversion stops at a few ulps of its bracket or at the rounding
    noise of the benefit sum.
    """
    if not isinstance(rewards, RewardVector):
        rewards = RewardVector(tuple(rewards))
    c0 = cost.entry_cost
    if rewards.last < 0.0 and c0 == 0.0:
        raise DomainError(
            "negative last prize with zero entry cost is not supported: "
            "the marginal entrant would face an unbounded incentive to "
            "undercut at zero quality"
        )
    shift = max(rewards.last - c0, 0.0)
    if rewards.top <= c0:
        regime, p = REGIME_NO_ENTRY, 0.0
    elif rewards.last >= c0:
        regime, p = REGIME_FULL, 1.0
    else:
        regime, p = REGIME_INTERIOR, _entry_probability(rewards, c0)
    # no quality is played without entry, so the endpoint reads 0 there
    qbar = float(cost.inverse(rewards.top - shift)) if p > 0.0 else 0.0
    return EquilibriumSolution(
        rewards=rewards,
        cost=cost,
        p=p,
        qbar=qbar,
        shift=shift,
        regime=regime,
    )
