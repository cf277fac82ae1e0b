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

Batch runs draw, invert and reduce one block of consecutive trials at
a time, each block the next rows of the same streams, so memory is one
block's draws plus a few floats per trial, whatever the trial count.
Only entrants' quality draws are inverted; the quantile is elementwise,
so this gives the same qualities as inverting every draw.  The
deviation curve is built from rank counts: in each block the opponents
of each trial are sorted best-first, each k-th-best column is sorted
over the block's trials, and one ``searchsorted`` per column then
counts, for the whole grid at once, the trials whose k-th best opponent
beats q.  Counts are integers, so their sum over blocks is exact.  An
opponent whose quality equals a grid point exactly is ranked against
the deviator by the tie streams, trial by trial, at that point only.
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

# Largest trials * n one call of run or deviation_check accepts; larger
# requests are refused before any stream is drawn.  Memory does not grow
# with trials * n (see _BLOCK), so the cap bounds time: at the cap, with
# n = 200, each call took about 0.5 s at winner-take-all, where few
# agents enter, and about 7 s at full entry, where every draw is inverted.
MAX_AGENT_TRIALS = 20_000_000

# Agent-trials (rows times agents) drawn, inverted and reduced at once.
# At n = 200, blocks of 2**16 to 2**19 ran run and deviation_check in
# 0.5 to 1.1 s per 100,000 winner-take-all trials, within the noise of a
# shared 2-core machine, and peaked at 4.4, 7.6, 13.9 and 26.6 MB under
# tracemalloc at full entry; 2**18 keeps the per-block numpy calls few
# and the peak well under the 32 MB the tests allow.  Every call of the
# benchmark's simulate workload (at most 50,000 agent-trials) is one block.
_BLOCK = 2**18


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

    One draw is taken per cell, entrant or not, so the stream stays in
    step with the rows.  Only the entrants' draws are inverted.  The
    quantile is elementwise, so an entrant's quality does not depend on
    who else entered.
    """
    draws = quality_stream.random(entered.shape)
    if not entered.any():
        return np.full(entered.shape, fill)
    if entered.all():
        return sol.quantile(draws.ravel()).reshape(entered.shape)
    # only the entrants' draws and qualities are alive during the quantile
    draws = draws[entered]
    values = sol.quantile(draws)
    del draws
    out = np.full(entered.shape, fill)
    out[entered] = values
    return out


def _blocks(sol: EquilibriumSolution, trials: int, seed: int, roles, agents: int, fill: float):
    """(entered, qualities) of ``agents`` agents per trial, drawn from the
    (entry, quality) streams ``roles`` one block of consecutive trials at
    a time, each block of at most ``_BLOCK`` agent-trials and at least
    one trial; see :func:`_entrant_qualities` for ``fill``."""
    entry_stream, quality_stream = (_stream(seed, role) for role in roles)
    rows = max(1, _BLOCK // agents)
    for start in range(0, trials, rows):
        entered = entry_stream.random((min(rows, trials - start), agents)) < sol.p
        yield entered, _entrant_qualities(sol, entered, quality_stream, fill)


def run(sol: EquilibriumSolution, trials: int, seed: int) -> SimulationReport:
    """Simulate ``trials`` independent rounds and aggregate.

    Aggregation is vectorized but consumes the per-trial stream layout
    documented above, so it matches a loop of :func:`play_round` round
    for round.  ``trials * n`` above :data:`MAX_AGENT_TRIALS` raises
    :class:`DomainError` before anything is drawn.
    """
    n = sol.n
    _check_work(trials, n)
    # per trial: entrants, best quality and quality total
    parts = [
        (entered.sum(axis=1), qualities.max(axis=1), qualities.sum(axis=1))
        for entered, qualities in _blocks(sol, trials, seed, (_ENTRY, _QUALITY), n, 0.0)
    ]
    counts, maxes, totals = (np.concatenate(part) for part in zip(*parts))
    del parts
    prefix = np.concatenate(([0.0], np.cumsum(sol.rewards.as_array())))
    payouts = prefix[counts]
    eq_max, eq_max_se = _mean_se(maxes)
    eq_avg, eq_avg_se = _mean_se(totals / n)
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


def _opponent_blocks(sol: EquilibriumSolution, trials: int, seed: int):
    """The deviator's n-1 opponents, one row per trial, block by block;
    -inf marks an opponent who stays out, so that no grid quality ever
    ties with one."""
    return _blocks(sol, trials, seed, (_DEV_ENTRY, _DEV_QUALITY), sol.n - 1, -np.inf)


def _rank_counts(
    sol: EquilibriumSolution, q_grid: np.ndarray, trials: int, seed: int
) -> np.ndarray:
    """counts[i, r]: the trials in which a deviator at ``q_grid[i]``
    ranks r+1, that is, loses to exactly r opponents.

    In each block of trials the opponents of each trial are sorted
    best-first and then every k-th-best column is sorted over the
    block, so the trials whose k-th best opponent beats q are one
    ``searchsorted`` per column for the whole grid.  An opponent whose
    quality equals q exactly (a left and right ``searchsorted`` that
    disagree) beats the deviator when its tie draw is the lower one;
    those grid points are ranked trial by trial on the streams drawn
    again from their start, which repeat the same numbers block by
    block.
    """
    n = sol.n
    # at_least[i, k]: trials in which at least k opponents beat q_grid[i]
    at_least = np.zeros((q_grid.size, n + 1), dtype=np.int64)
    at_least[:, 0] = trials
    tied = np.zeros(q_grid.size, dtype=bool)
    for _, qualities in _opponent_blocks(sol, trials, seed):
        rows = qualities.shape[0]
        # ascending rows put each trial's k-th best opponent in column n-1-k
        qualities.sort(axis=1)
        columns = qualities.T
        columns.sort(axis=1)
        for k in range(1, n):
            column = columns[n - 1 - k]
            if column[-1] == -np.inf:
                # no trial of the block has k entrants: no opponent
                # beats or ties q here or in any later column
                break
            below = np.searchsorted(column, q_grid, side="right")
            at_least[:, k] += rows - below
            tied |= np.searchsorted(column, q_grid, side="left") != below
    counts = at_least[:, :-1] - at_least[:, 1:]
    ties = np.flatnonzero(tied)
    if ties.size:
        counts[ties] = 0
        self_stream, tie_stream = _stream(seed, _DEV_SELF), _stream(seed, _DEV_TIE)
        for _, qualities in _opponent_blocks(sol, trials, seed):
            self_tie = self_stream.random(qualities.shape[0])
            loses_tie = tie_stream.random(qualities.shape) < self_tie[:, None]
            for i in ties:
                q = q_grid[i]
                beaten_by = (qualities > q).sum(axis=1)
                beaten_by += ((qualities == q) & loses_tie).sum(axis=1)
                counts[i] += np.bincount(beaten_by, minlength=n)
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
