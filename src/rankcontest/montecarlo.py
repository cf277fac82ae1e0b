"""Agent-level contest simulator.

Plays the contest mechanics literally — independent entry coins,
inverse-CDF quality draws, descending sort with random tie-breaking,
prizes by rank — so the analytic solver can be cross-validated by
empirical payoff curves and quality statistics.

Randomness contract: all draws come from counter-based Philox streams
keyed by ``(seed, stream role)``, and trial t consumes exactly the
draws at offsets [t*n, (t+1)*n) of each stream.  Batch runs and
single-round replays therefore agree exactly, results are byte-stable
across runs, and a parallel split by trial ranges could reproduce the
same numbers by advancing each stream to its offset.
"""

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import REGIME_NO_ENTRY, EquilibriumSolution
from .errors import DomainError

# stream roles; deviation experiments use their own so the two
# experiment kinds never share draws
_ENTRY, _QUALITY, _TIE = 1, 2, 3
_DEV_ENTRY, _DEV_QUALITY, _DEV_TIE, _DEV_SELF = 11, 12, 13, 14

# Largest trials * n one call of run or deviation_check accepts.  Both
# hold every draw at once, about 50 to 60 bytes per agent-trial at their
# peak, so the cap keeps a call near 1.1 GB; larger requests are refused
# before any stream is drawn.
MAX_AGENT_TRIALS = 20_000_000


def _stream(seed: int, role: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(role,)))
    )


def trial_streams(seed: int, trial: int, n: int):
    """(entry, quality, tie) generators positioned at trial ``trial``.

    Each stream is advanced to draw offset ``trial * n``; Philox advances
    whole 4-draw counter blocks, so the sub-block remainder is burned.
    """
    offset = trial * n
    streams = []
    for role in (_ENTRY, _QUALITY, _TIE):
        gen = _stream(seed, role)
        gen.bit_generator.advance(offset // 4)
        if offset % 4:
            gen.random(offset % 4)
        streams.append(gen)
    return tuple(streams)


@dataclass(frozen=True)
class RoundOutcome:
    """One realized contest round.

    ``payments`` has one entry per agent (zero for non-entrants);
    ``ranking`` lists entrant agent indices best-first after random
    tie-breaking.
    """

    entrants: tuple[int, ...]
    qualities: tuple[float, ...]
    ranking: tuple[int, ...]
    payments: tuple[float, ...]
    total_payout: float
    max_quality: float
    avg_quality: float


def play_round(sol: EquilibriumSolution, streams) -> RoundOutcome:
    """Play one round using the given (entry, quality, tie) streams.

    Each agent enters independently with probability p; entrants draw
    qualities from the equilibrium distribution; ties (possible only
    through float collisions) fall back to the tie stream for a random
    strict order; the entrant ranked i among j entrants receives the
    rank-i prize.
    """
    entry_rng, quality_rng, tie_rng = streams
    n = sol.n
    entry_draws = entry_rng.random(n)
    quality_draws = quality_rng.random(n)
    tie_draws = tie_rng.random(n)
    entered = entry_draws < sol.p
    entrants = np.flatnonzero(entered)
    payments = np.zeros(n)
    if entrants.size:
        qualities = np.atleast_1d(sol.quantile(quality_draws[entrants]))
        order = np.lexsort((tie_draws[entrants], -qualities))
        ranking = entrants[order]
        payments[ranking] = sol.rewards.as_array()[: entrants.size]
        max_quality = float(qualities.max())
        avg_quality = float(qualities.sum() / n)
    else:
        qualities = np.empty(0)
        ranking = entrants
        max_quality = 0.0
        avg_quality = 0.0
    return RoundOutcome(
        entrants=tuple(int(i) for i in entrants),
        qualities=tuple(float(q) for q in qualities),
        ranking=tuple(int(i) for i in ranking),
        payments=tuple(float(v) for v in payments),
        total_payout=float(payments.sum()),
        max_quality=max_quality,
        avg_quality=avg_quality,
    )


@dataclass(frozen=True)
class PayoffPoint:
    """Estimated payoff of a designated always-entering deviator."""

    q: float
    mean_payoff: float
    stderr: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "mean_payoff": self.mean_payoff,
            "stderr": self.stderr,
            "n_trials": self.trials,
        }


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates of a batch simulation; every estimate carries its
    standard error, and identical seeds reproduce identical reports."""

    trials: int
    seed: int
    empirical_eq_max: float
    eq_max_se: float
    empirical_eq_avg: float
    eq_avg_se: float
    empirical_payout: float
    payout_se: float
    entrant_histogram: tuple[int, ...]
    payoff_curve: tuple[PayoffPoint, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "empirical_eq_max": self.empirical_eq_max,
            "eq_max_se": self.eq_max_se,
            "empirical_eq_avg": self.empirical_eq_avg,
            "eq_avg_se": self.eq_avg_se,
            "empirical_payout": self.empirical_payout,
            "payout_se": self.payout_se,
            "entrant_histogram": list(self.entrant_histogram),
            "payoff_curve": None
            if self.payoff_curve is None
            else [point.to_dict() for point in self.payoff_curve],
        }


def _check_work(trials: int, n: int) -> None:
    if trials < 1:
        raise DomainError("at least one trial required")
    if trials * n > MAX_AGENT_TRIALS:
        raise DomainError(
            f"{trials} trials of {n} agents exceed the simulator's cap of "
            f"{MAX_AGENT_TRIALS:,} agent-trials (trials * n); use fewer trials"
        )


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def run(sol: EquilibriumSolution, trials: int, seed: int) -> SimulationReport:
    """Simulate ``trials`` independent rounds and aggregate.

    Aggregation is vectorized but consumes the per-trial stream layout
    documented above, so it matches a loop of :func:`play_round` round
    for round.  ``trials * n`` above :data:`MAX_AGENT_TRIALS` raises
    :class:`DomainError` before anything is drawn.
    """
    n = sol.n
    _check_work(trials, n)
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
    payouts = prefix[counts]
    eq_max, eq_max_se = _mean_se(qualities.max(axis=1))
    eq_avg, eq_avg_se = _mean_se(qualities.sum(axis=1) / n)
    payout, payout_se = _mean_se(payouts)
    histogram = np.bincount(counts, minlength=n + 1)
    return SimulationReport(
        trials=trials,
        seed=seed,
        empirical_eq_max=eq_max,
        eq_max_se=eq_max_se,
        empirical_eq_avg=eq_avg,
        eq_avg_se=eq_avg_se,
        empirical_payout=payout,
        payout_se=payout_se,
        entrant_histogram=tuple(int(c) for c in histogram),
    )


def deviation_check(
    sol: EquilibriumSolution, q_grid, trials: int, seed: int
) -> tuple[PayoffPoint, ...]:
    """Estimate the payoff of one agent who always enters at fixed q
    while the other n-1 agents play the equilibrium strategy.

    Across the support the curve is flat at the equilibrium profit
    level; past the support it falls off as pure extra cost.  The same
    opponent draws are reused for every grid point (common random
    numbers), which only sharpens the comparison between points.  The
    work cap of :func:`run` applies here too.
    """
    _check_work(trials, sol.n)
    q_grid = np.atleast_1d(np.asarray(q_grid, dtype=float))
    if np.any(q_grid < 0.0):
        raise DomainError("deviation qualities must be nonnegative")
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
    points = []
    for q in q_grid:
        beaten_by = entered & (qualities > q)
        tied = entered & (qualities == q)
        rank = 1 + beaten_by.sum(axis=1)
        if np.any(tied):
            rank = rank + (tied & (opp_tie < self_tie[:, None])).sum(axis=1)
        payoff = prizes[rank - 1] - sol.cost.value(float(q))
        mean, se = _mean_se(payoff)
        points.append(PayoffPoint(q=float(q), mean_payoff=mean, stderr=se, trials=trials))
    return tuple(points)
