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

Only entrants' quality draws are inverted; the quantile is elementwise,
so this gives the same qualities as inverting every draw.  The
deviation curve is built from rank counts: the opponents of each trial
are sorted best-first, each k-th-best column is sorted over trials, and
one ``searchsorted`` per column then counts, for the whole grid at
once, the trials whose k-th best opponent beats q.  An opponent whose
quality equals a grid point exactly is ranked against the deviator by
the tie streams, trial by trial, at that point only.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .equilibrium import EquilibriumSolution
from .errors import DomainError

# stream roles; deviation experiments use their own so the two
# experiment kinds never share draws
_ENTRY, _QUALITY, _TIE = 1, 2, 3
_DEV_ENTRY, _DEV_QUALITY, _DEV_TIE, _DEV_SELF = 11, 12, 13, 14

# Largest trials * n one call of run or deviation_check accepts.  Both
# hold every draw at once: measured with tracemalloc at 2,000,000
# agent-trials, they peak at about 32 bytes per agent-trial when some
# agents stay out and 43 when all enter, so the cap keeps a call near
# 0.85 GB; larger requests are refused before any stream is drawn.
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

    def to_dict(self) -> dict:
        return asdict(self)


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


def _entrant_qualities(
    sol: EquilibriumSolution, entered: np.ndarray, quality_stream, fill: float
) -> np.ndarray:
    """Qualities in the layout of ``entered``: the quantile of each
    entrant's draw from ``quality_stream``, ``fill`` for the others.

    Only the entrants' draws are inverted.  The quantile is elementwise,
    so an entrant's quality does not depend on who else entered.
    """
    if not entered.any():
        return np.full(entered.shape, fill)
    draws = quality_stream.random(entered.shape)
    if entered.all():
        return sol.quantile(draws.ravel()).reshape(entered.shape)
    # only the entrants' draws and qualities are alive during the quantile
    draws = draws[entered]
    values = sol.quantile(draws)
    del draws
    out = np.full(entered.shape, fill)
    out[entered] = values
    return out


def run(sol: EquilibriumSolution, trials: int, seed: int) -> SimulationReport:
    """Simulate ``trials`` independent rounds and aggregate.

    Aggregation is vectorized but consumes the per-trial stream layout
    documented above, so it matches a loop of :func:`play_round` round
    for round.  ``trials * n`` above :data:`MAX_AGENT_TRIALS` raises
    :class:`DomainError` before anything is drawn.
    """
    n = sol.n
    _check_work(trials, n)
    entered = _stream(seed, _ENTRY).random((trials, n)) < sol.p
    qualities = _entrant_qualities(sol, entered, _stream(seed, _QUALITY), 0.0)
    counts = entered.sum(axis=1)
    del entered
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


def _opponent_qualities(
    sol: EquilibriumSolution, trials: int, seed: int
) -> np.ndarray:
    """The deviator's n-1 opponents, one row per trial; -inf marks an
    opponent who stays out, so that no grid quality ever ties with one."""
    entered = _stream(seed, _DEV_ENTRY).random((trials, sol.n - 1)) < sol.p
    return _entrant_qualities(sol, entered, _stream(seed, _DEV_QUALITY), -np.inf)


def _rank_counts(
    sol: EquilibriumSolution, q_grid: np.ndarray, trials: int, seed: int
) -> np.ndarray:
    """counts[i, r]: the trials in which a deviator at ``q_grid[i]``
    ranks r+1, that is, loses to exactly r opponents.

    The opponents of each trial are sorted best-first and then every
    k-th-best column is sorted over trials, so the trials whose k-th
    best opponent beats q are one ``searchsorted`` per column for the
    whole grid.  An opponent whose quality equals q exactly (a left and
    right ``searchsorted`` that disagree) beats the deviator when its
    tie draw is the lower one; those grid points are ranked trial by
    trial on the streams drawn again from their start, which repeat the
    same numbers.
    """
    n = sol.n
    qualities = _opponent_qualities(sol, trials, seed)
    # ascending rows put each trial's k-th best opponent in column n-1-k
    qualities.sort(axis=1)
    columns = qualities.T
    columns.sort(axis=1)
    # at_least[i, k]: trials in which at least k opponents beat q_grid[i]
    at_least = np.zeros((q_grid.size, n + 1), dtype=np.int64)
    at_least[:, 0] = trials
    tied = np.zeros(q_grid.size, dtype=bool)
    for k in range(1, n):
        column = columns[n - 1 - k]
        below = np.searchsorted(column, q_grid, side="right")
        at_least[:, k] = trials - below
        tied |= np.searchsorted(column, q_grid, side="left") != below
    del qualities, columns, column
    counts = at_least[:, :-1] - at_least[:, 1:]
    ties = np.flatnonzero(tied)
    if ties.size:
        qualities = _opponent_qualities(sol, trials, seed)
        self_tie = _stream(seed, _DEV_SELF).random(trials)
        loses_tie = _stream(seed, _DEV_TIE).random(qualities.shape) < self_tie[:, None]
        for i in ties:
            q = q_grid[i]
            beaten_by = (qualities > q).sum(axis=1)
            beaten_by += ((qualities == q) & loses_tie).sum(axis=1)
            counts[i] = np.bincount(beaten_by, minlength=n)
    return counts


def deviation_check(
    sol: EquilibriumSolution, q_grid, trials: int, seed: int
) -> tuple[PayoffPoint, ...]:
    """Estimate the payoff of one agent who always enters at fixed q
    while the other n-1 agents play the equilibrium strategy.

    Across the support the curve is flat at the equilibrium profit
    level; past the support it falls off as pure extra cost.  The same
    opponent draws are reused for every grid point (common random
    numbers), which only sharpens the comparison between points.

    At a fixed q the payoff takes only the n values a_r - c(q), so the
    mean and its standard error follow exactly from how many trials put
    the deviator at each rank (see :func:`_rank_counts`, which also
    states the tie rule).  A point where every trial gives the same
    rank reports that payoff and a standard error of exactly 0.  The
    grid must be a 1-d array of finite nonnegative qualities whose
    costs are finite; it and the work cap of :func:`run` are checked
    before any stream is drawn.
    """
    _check_work(trials, sol.n)
    q_grid = np.atleast_1d(np.asarray(q_grid, dtype=float))
    if q_grid.ndim != 1 or not np.all((q_grid >= 0.0) & (q_grid < np.inf)):
        raise DomainError(
            "deviation qualities must be a 1-d grid of finite nonnegative numbers"
        )
    with np.errstate(over="ignore"):
        costs = np.asarray(sol.cost.value(q_grid), dtype=float)
    if not np.all(costs < np.inf):
        raise DomainError("deviation qualities must have a finite cost")
    counts = _rank_counts(sol, q_grid, trials, seed)
    payoffs = sol.rewards.as_array() - costs[:, None]
    # shares of exactly 1 and 0 make a single-rank mean exact
    means = (counts / trials * payoffs).sum(axis=1)
    # one trial has one rank, so its spread is exactly 0
    spread = (counts * (payoffs - means[:, None]) ** 2).sum(axis=1)
    stderrs = np.sqrt(spread / max(trials - 1, 1)) / math.sqrt(trials)
    return tuple(
        PayoffPoint(q=float(q), mean_payoff=float(mean), stderr=float(se), trials=trials)
        for q, mean, se in zip(q_grid, means, stderrs)
    )
