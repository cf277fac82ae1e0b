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
support and are evaluated with the library's one quadrature rule
(:mod:`rankcontest.quadrature`): composite Gauss-Legendre panels that
double until two successive estimates agree.  The best and the average
quality integrate over the same nodes, so :func:`contest_metrics` runs
them as two rows of one pass and inverts the pressure at each node once
for both; each row keeps its own stopping test, so it returns exactly
what :func:`expected_max_quality` or :func:`expected_avg_quality` does
alone.  A second route integrates them by parts in pressure space,
with q(x) = c^{-1}(benefit(x) - shift): E[max] and E[avg] are the
integrals over [0, p] of q(x) n (1-x)**(n-1) and of q(x), at one kernel
pass and one cost inverse per node.  It takes the tied prizes that
stall the first route, and is kept as its cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .binom import tail_vector
from .equilibrium import REGIME_NO_ENTRY, EquilibriumSolution, expected_benefit
from .errors import DomainError
from .mechanism import MAX_AGENTS
from .quadrature import integrate


def _check_rank(n: int, k: int) -> None:
    # past MAX_AGENTS trials the kernel's start mass 2**-n can underflow
    if n > MAX_AGENTS:
        raise DomainError(f"at most {MAX_AGENTS} ranks supported, got {n}")
    if not 1 <= k <= n:
        raise DomainError(f"rank must be in 1..{n}")


def binomial_tail(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k) = sum_{j=k}^n C(n, j) p**j (1-p)**(n-j),
    for n up to ``MAX_AGENTS``.

    Also equals n * C(n-1, k-1) * integral_0^p x**(k-1) (1-x)**(n-k) dx,
    an identity the test-suite checks against direct quadrature.
    """
    _check_rank(n, k)
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
    _check_rank(n, s)
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


def expected_max_quality(sol: EquilibriumSolution, *, method: str = "grid") -> float:
    """Expected best quality, counting an empty contest as 0.

    The best of the n independent (enter, draw quality) plays exceeds q
    unless every rival stays below, so the survival function is
    1 - (1 - x(q))**n and the expectation is its integral over the
    support.  ``method="substitution"`` integrates it by parts in
    pressure space instead, as the integral of q(x) n (1-x)**(n-1) over
    [0, p] with q(x) = c^{-1}(benefit(x) - shift), which needs the cost
    inverse but no per-node root finding; the two routes agree to
    quadrature tolerance and serve as mutual checks.
    """
    values, _ = _quality_integral(sol, ("max",), method)
    return float(values[0])


def expected_avg_quality(sol: EquilibriumSolution, *, method: str = "grid") -> float:
    """Expected quality of one agent (0 when it stays out): the integral
    of the pressure x(q) over the support, or by parts of q(x) over
    [0, p].  Total quality is n times this."""
    values, _ = _quality_integral(sol, ("avg",), method)
    return float(values[0])


def _by_parts(g, x, n):
    """Rows g n (1-x)**(n-1), then rows g: over [0, p] the by-parts
    integrands of E[max] and E[avg] for g = q(x), or of their
    derivatives for g = dq/da_k."""
    g = np.atleast_2d(g)
    return np.concatenate((g * (n * (1.0 - x) ** (n - 1)), g))


def _quality_integral(sol, which, method):
    """Integrate the rows named in ``which`` ("max", "avg") in one pass.

    Returns per-row arrays (values, error estimates).  Every node's
    pressure, or on the pressure-space route its q(x), is computed once
    and feeds all rows.
    """
    if method not in ("grid", "substitution"):
        raise DomainError(f"unknown method {method!r}")
    zeros = np.zeros(len(which))
    if sol.regime == REGIME_NO_ENTRY:
        return zeros, zeros
    n = sol.n
    pick = [("max", "avg").index(name) for name in which]
    if method == "grid" and _support_endpoint_singular(sol):
        # ties at the relevant end of the prize vector give x(q) an
        # infinite derivative at a support endpoint, which stalls
        # panel doubling; the pressure-space route stays smooth there
        method = "substitution"
    if method == "grid":
        def f(q):
            x = sol.pressure(q)
            return np.stack((1.0 - (1.0 - x) ** n, x))[pick]

        hi = sol.qbar
    else:
        def f(x):
            q = sol.cost.inverse(expected_benefit(x, sol.rewards) - sol.shift)
            return _by_parts(q, x, n)[pick]

        hi = sol.p
    if hi <= 0.0:
        return zeros, zeros
    return integrate(f, 0.0, hi)


def rank_probability(sol: EquilibriumSolution, k: int) -> float:
    """Probability that one named agent ends up holding rank k.

    By symmetry each of the n agents is equally likely to hold any
    realized rank, which collapses the support integral of the
    Binomial(n-1, x(q)) mass at k-1 (the odds that an entrant at quality
    q lands on rank k) against the quality density to the closed form
    binomial_tail(n, k, p) / n.  Summed over k this returns p: a rank is
    held exactly when the agent enters.
    """
    _check_rank(sol.n, k)
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


def contest_metrics(sol: EquilibriumSolution) -> ContestMetrics:
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
    (eq_max, eq_avg), errors = _quality_integral(sol, ("max", "avg"), "grid")
    return ContestMetrics(
        budget=budget,
        eq_max=float(eq_max),
        eq_avg=float(eq_avg),
        eq_total=n * float(eq_avg),
        rank_prob=ranks,
        quadrature_error_estimate=float(max(errors)),
    )
