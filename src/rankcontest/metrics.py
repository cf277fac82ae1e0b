"""Equilibrium contest statistics.

Everything here is a pure function of a solved equilibrium: the
expected total payout, the expected best and per-agent quality
(counting a contest that attracts nobody as quality zero), and the
rank-probability objects used by the design experiments.

The payout has a closed form.  With entry probability p the number of
entrants is Binomial(n, p) and the j highest prizes are paid when j
agents enter, so

    budget = sum_k a_k * P(Binomial(n, p) >= k),

and the chance that one named agent holds rank k is the same tail over
n.  :func:`contest_metrics` builds that tail vector once for the budget
and every rank.

Quality statistics are integrals of the survival function over the
support and are evaluated with composite Gauss-Legendre panels that
double until two successive estimates agree.  The best and the average
quality integrate over the same nodes, so :func:`contest_metrics` runs
them as two rows of one pass and inverts the pressure at each node once
for both; each row keeps its own stopping test, so it returns exactly
what :func:`expected_max_quality` or :func:`expected_avg_quality` does
alone.  A second, substitution route for the same integrals
(integrating over pressure instead of quality, using the exact cost
inverse) is kept as a cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .binom import pmf_matrix, tail_vector
from .equilibrium import (
    REGIME_NO_ENTRY,
    EquilibriumSolution,
    benefit_slope,
    expected_benefit,
)
from .errors import DomainError
from .quadrature import integrate


def binomial_tail(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k) = sum_{j=k}^n C(n, j) p**j (1-p)**(n-j).

    Also equals n * C(n-1, k-1) * integral_0^p x**(k-1) (1-x)**(n-k) dx,
    an identity the test-suite checks against direct quadrature.
    """
    if not 1 <= k <= n:
        raise DomainError(f"rank must be in 1..{n}")
    if not 0.0 <= p <= 1.0:
        raise DomainError("probability must lie in [0, 1]")
    return float(tail_vector(n, p)[k])


def slope_bound_gap(n: int, s: int, p: float) -> float:
    """Gap underpinning the budget-matched slope bound.

    Computes (1 - (1-p)**n) * C(n-1, s-1) * p**(s-1) * (1-p)**(1-s)
    minus ``binomial_tail(n, s, p)``; the gap is nonnegative for every
    0 < p < 1, which is what bounds how much top prize a budget-matched
    raise of a lower prize costs.  The endpoints are excluded because
    the (1-p)**(1-s) factor degenerates there.
    """
    if not 1 <= s <= n:
        raise DomainError(f"rank must be in 1..{n}")
    if not 0.0 < p < 1.0:
        raise DomainError("probability must lie strictly inside (0, 1)")
    lead = (1.0 - (1.0 - p) ** n) * math.comb(n - 1, s - 1)
    lead *= p ** (s - 1) * (1.0 - p) ** (1 - s)
    return float(lead - binomial_tail(n, s, p))


def expected_budget(sol: EquilibriumSolution) -> float:
    """Expected total payout at the solved entry probability.

    Collapses to sum(a) when everyone enters and to 0 when nobody does.
    """
    tails = tail_vector(sol.n, sol.p)[1:]
    return float(sol.rewards.as_array() @ tails)


def _support_endpoint_singular(sol: EquilibriumSolution) -> bool:
    prizes = sol.rewards.prizes
    if prizes[0] == prizes[1]:
        return True
    return sol.p == 1.0 and prizes[-2] == prizes[-1]


def expected_max_quality(
    sol: EquilibriumSolution,
    *,
    method: str = "grid",
    panels: int = 64,
    nodes: int = 8,
    tol: float = 1e-9,
) -> float:
    """Expected best quality, counting an empty contest as 0.

    The best of the n independent (enter, draw quality) plays exceeds q
    unless every rival stays below, so the survival function is
    1 - (1 - x(q))**n and the expectation is its integral over the
    support.  ``method="substitution"`` integrates over pressure
    instead, q(x) = c^{-1}(benefit(x) - shift), which needs the cost
    inverse but no per-node root finding; the two routes agree to
    quadrature tolerance and serve as mutual checks.
    """
    values, _ = _quality_integral(sol, ("max",), method, panels, nodes, tol)
    return float(values[0])


def expected_avg_quality(
    sol: EquilibriumSolution,
    *,
    method: str = "grid",
    panels: int = 64,
    nodes: int = 8,
    tol: float = 1e-9,
) -> float:
    """Expected quality of one agent (0 when she stays out): the integral
    of the pressure x(q) over the support.  Total quality is n times this."""
    values, _ = _quality_integral(sol, ("avg",), method, panels, nodes, tol)
    return float(values[0])


def _quality_integral(sol, which, method, panels, nodes, tol):
    """Integrate the rows named in ``which`` ("max", "avg") in one pass.

    Returns per-row arrays (values, error estimates).  Every node's
    pressure, or on the substitution route its q(x) and weight, is
    computed once and feeds all rows.
    """
    zeros = np.zeros(len(which))
    if sol.regime == REGIME_NO_ENTRY:
        return zeros, zeros
    n = sol.n

    def rows(x, weight=None):
        out = np.empty((len(which), np.size(x)))
        for row, name in zip(out, which):
            row[...] = 1.0 - (1.0 - x) ** n if name == "max" else x
            if weight is not None:
                row *= weight
        return out

    if method == "grid" and _support_endpoint_singular(sol):
        # ties at the relevant end of the prize vector give x(q) an
        # infinite derivative at a support endpoint, which stalls
        # panel doubling; the pressure-space route stays smooth there
        method = "substitution"
    if method == "grid":
        def f(q):
            return rows(sol.pressure(q))

        hi = sol.qbar
    elif method == "substitution":
        # q as a function of pressure, then integrate dq = q'(x) dx:
        # q'(x) = benefit'(x) / c'(q(x)) and both integrands are smooth.
        def f(x):
            q = sol.cost.inverse(expected_benefit(x, sol.rewards) - sol.shift)
            return rows(x, -benefit_slope(x, sol.rewards) / sol.cost.derivative(q))

        hi = sol.p
    else:
        raise DomainError(f"unknown method {method!r}")
    if hi <= 0.0:
        return zeros, zeros
    return integrate(f, 0.0, hi, panels=panels, nodes=nodes, tol=tol)


def rank_probability_at(sol: EquilibriumSolution, k: int, q) -> float:
    """Probability that an entrant playing quality q lands on rank k.

    The other n-1 agents each beat q with probability x(q), so the rank
    count is Binomial(n-1, x(q)) and this is its mass at k-1.
    """
    if not 1 <= k <= sol.n:
        raise DomainError(f"rank must be in 1..{sol.n}")
    scalar = np.ndim(q) == 0
    x = np.atleast_1d(sol.pressure(q))
    out = pmf_matrix(sol.n - 1, x)[k - 1]
    return float(out[0]) if scalar else out


def rank_probability(sol: EquilibriumSolution, k: int) -> float:
    """Probability that one named agent ends up holding rank k.

    By symmetry each of the n agents is equally likely to hold any
    realized rank, which collapses the support integral of
    rank_probability_at against the quality density to the closed form
    binomial_tail(n, k, p) / n.  Summed over k this returns p: a rank is
    held exactly when the agent enters.
    """
    if not 1 <= k <= sol.n:
        raise DomainError(f"rank must be in 1..{sol.n}")
    return binomial_tail(sol.n, k, sol.p) / sol.n if sol.p > 0.0 else 0.0


@dataclass(frozen=True)
class ContestMetrics:
    """Bundle of the headline statistics for one solved contest."""

    budget: float
    eq_max: float
    eq_avg: float
    eq_total: float
    rank_prob: tuple[float, ...]
    quadrature_error_estimate: float

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "eq_max": self.eq_max,
            "eq_avg": self.eq_avg,
            "eq_total": self.eq_total,
            "W": list(self.rank_prob),
            "error_estimate": self.quadrature_error_estimate,
        }


def contest_metrics(
    sol: EquilibriumSolution,
    *,
    panels: int = 64,
    nodes: int = 8,
    tol: float = 1e-9,
) -> ContestMetrics:
    """Budget, expected best/average/total quality and rank odds.

    One binomial tail vector serves the budget and every rank's odds,
    and one quadrature pass integrates the best and the average quality
    together, inverting the pressure once per node for both.  Each
    field equals what :func:`expected_budget`, :func:`rank_probability`,
    :func:`expected_max_quality` and :func:`expected_avg_quality` return
    on their own; ``quadrature_error_estimate`` is the larger of the two
    integrals' estimates.
    """
    n = sol.n
    tails = tail_vector(n, sol.p)
    budget = float(sol.rewards.as_array() @ tails[1:])
    # at p = 0 the tail vector is the exact point mass (1, 0, ..., 0)
    ranks = tuple(float(tails[k]) / n for k in range(1, n + 1))
    (eq_max, eq_avg), errors = _quality_integral(
        sol, ("max", "avg"), "grid", panels, nodes, tol
    )
    return ContestMetrics(
        budget=budget,
        eq_max=float(eq_max),
        eq_avg=float(eq_avg),
        eq_total=n * float(eq_avg),
        rank_prob=ranks,
        quadrature_error_estimate=float(max(errors)),
    )
