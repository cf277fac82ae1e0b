"""Seeded inputs and operations of the three benchmark workloads.

Each ``build_<workload>(seed, round_)`` returns the list of operations
of one round.  A run runs whole rounds, so every run attempts the same
kinds of operation in the same proportions whatever its length, and the
same fixed failing operations once a round.  What sets an operation's
cost follows a fixed plan: n, cost family, regime, trial and budget
counts.  The seed and the round draw the values (prizes, cost
parameters, budgets, simulation seeds), so on ``evaluate`` and
``design`` each round brings contests the run has not seen yet
(``simulate`` repeats its first round; see ``build_simulate``).  A contest's cost depends on its values (the
adaptive quadrature of an interior contest at n = 181 takes 1.8 or
2.4 s), so a percentile over one round's few dozen contests moves with
the seed; over every round of a run it moves much less.

Operations call the package through module attributes looked up at call
time (``rc.solve``, ``cli.main``), never through names bound at import,
so the traced run sees every call once its wrappers are installed.
"""

import contextlib
import io
from dataclasses import dataclass, field

import numpy as np

import rankcontest as rc
from rankcontest import cli

# Tabulation grid of `rankcontest solve` (its --grid default).
SOLVE_GRID = 129

# Agent-trials per simulator operation: trials = SIM_WORK // n keeps
# trials*n about equal across sizes.  The quantile kernel holds about
# trials*n*n*16 bytes, so the n=100 operation peaks near 80 MB.
SIM_WORK = 50_000


@dataclass
class Operation:
    """One timed call.  ``run`` returns the output the checks inspect."""

    kind: str
    run: object
    params: dict = field(default_factory=dict)
    # Near-tied contests that raise QuadratureError today; see README.
    expected_failure: bool = False


def _rng(seed: int, stream: int, round_: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, round_])


def _log_grid(lo: int, hi: int, count: int) -> list[int]:
    return [int(round(lo * (hi / lo) ** (i / (count - 1)))) for i in range(count)]


# ---------------------------------------------------------------------------
# contests


def _cost(rng: np.random.Generator, family: str) -> rc.CostModel:
    if family == "linear":
        return rc.LinearCost(c0=rng.uniform(0.05, 0.6), slope=rng.uniform(0.5, 2.0))
    if family == "exp":
        return rc.ExponentialCost(k=rng.uniform(0.5, 2.0))
    return rc.QuadraticPlusCost(
        c0=rng.uniform(0.05, 0.6), a=rng.uniform(0.3, 1.5), b=rng.uniform(0.0, 2.0)
    )


def _prizes(rng: np.random.Generator, n: int, c0: float, kind: str) -> rc.RewardVector:
    """Strictly decreasing prizes with a wide top step.

    A top step that is nearly but not exactly zero makes the default
    quality integral fail (README, "Kept failure"), so seeded contests
    keep it at 15-35% of the prize range, or exactly zero for
    ``kind="tie"``.  The other steps differ from their neighbours by at
    most a factor of three, so no other step is nearly tied either.
    """
    steps = np.ones(1)
    if n > 2:
        inner = rng.uniform(0.5, 1.5, size=n - 2)
        top = 0.0 if kind == "tie" else rng.uniform(0.15, 0.35)
        steps = np.concatenate(([top], (1.0 - top) * inner / inner.sum()))
    values = np.append(np.cumsum(steps[::-1])[::-1], 0.0)
    values = values / values[0] * c0 * rng.uniform(1.3, 4.0)
    if kind == "full":
        values = values + c0 * rng.uniform(1.05, 1.5)
    return rc.RewardVector(tuple(float(v) for v in values))


def _contest(rng, n, family, kind):
    cost = _cost(rng, family)
    return _prizes(rng, n, cost.entry_cost, kind), cost


# ---------------------------------------------------------------------------
# evaluate

EVALUATE_SEEDED = 48
_FAMILIES = ("linear", "exp", "quad")
_KINDS = ("interior", "full", "interior", "tie", "interior", "full", "interior", "tie")

# Near-tied top prizes, the same in every run.  The first two raise
# QuadratureError today; the last passes, slowly.
NEAR_TIED = (
    ((1.0, 0.999, 0.0), "linear:c0=0.25,slope=1", True),
    ((1.0, 0.999, 0.5, 0.25, 0.0), "linear:c0=0.25,slope=1", True),
    ((1.0, 0.997, 0.5, 0.0), "linear:c0=0.25,slope=1", False),
)


def evaluate_contest(rewards: rc.RewardVector, cost: rc.CostModel):
    """`rankcontest solve` (solve and its 129-point table) plus
    `rankcontest metrics` on one contest."""
    sol = rc.solve(rewards, cost)
    grid = np.linspace(0.0, sol.qbar, SOLVE_GRID)
    cdf = sol.cdf(grid)
    pressure = sol.pressure(grid)
    residual = sol.payoff_residual(grid)
    metrics = rc.contest_metrics(sol)
    return {
        "sol": sol,
        "grid": grid,
        "cdf": cdf,
        "pressure": pressure,
        "residual": residual,
        "metrics": metrics,
    }


def build_evaluate(seed: int, round_: int = 0) -> list[Operation]:
    rng = _rng(seed, 1, round_)
    ops = []
    for i, n in enumerate(_log_grid(2, 200, EVALUATE_SEEDED)):
        family = _FAMILIES[i % len(_FAMILIES)]
        kind = _KINDS[i % len(_KINDS)]
        rewards, cost = _contest(rng, n, family, kind)
        ops.append(_evaluate_op(rewards, cost, kind=kind))
    for prizes, spec, fails in NEAR_TIED:
        ops.append(
            _evaluate_op(
                rc.RewardVector(prizes), rc.parse_cost(spec), kind="near_tied",
                expected_failure=fails,
            )
        )
    return ops


def _evaluate_op(rewards, cost, *, kind, expected_failure=False):
    return Operation(
        kind="evaluate",
        run=lambda: evaluate_contest(rewards, cost),
        params={"rewards": rewards, "cost": cost, "contest": kind},
        expected_failure=expected_failure,
    )


def evaluate_warmup() -> None:
    evaluate_contest(rc.RewardVector((1.0, 0.0)), rc.LinearCost(c0=0.25, slope=1.0))


# ---------------------------------------------------------------------------
# design

# Budgets either side of the exp:k=1, n=3 crossover (about 4.09), far
# enough from it that the sign at each is unambiguous.
_LOW_BUDGETS = (0.25, 1.0)
_MID_BUDGETS = (1.5, 3.0)
_HIGH_BUDGETS = (5.5, 8.0)


def _design_cost(rng, family):
    if family == "linear":
        return rc.LinearCost(c0=rng.uniform(0.05, 0.5), slope=1.0)
    return rc.ExponentialCost(k=rng.uniform(0.6, 1.4))


def _op(kind: str, function: str, **params) -> Operation:
    """Call ``rankcontest.<function>(**params)``, looked up at call time."""
    return Operation(kind=kind, run=lambda: getattr(rc, function)(**params), params=params)


def build_design(seed: int, round_: int = 0) -> list[Operation]:
    rng = _rng(seed, 2, round_)
    ops = []
    # budget-matched derivatives at winner-take-all: rank 2 (forward
    # difference) and rank n (backward), linear and exponential costs.
    # Ranks stay at 5 or above the top: deeper down the true derivative
    # is smaller than the finite differences can resolve (CHANGES.md).
    for i, n in enumerate(range(3, 11)):
        family = ("linear", "exp")[i % 2]
        cost = _design_cost(rng, family)
        prize = cost.entry_cost * rng.uniform(1.5, 4.0)
        rank = n if n in (4, 5) else 2
        ops.append(_op("bmd_wta", "budget_matched_derivative",
                       rewards=rc.winner_take_all(n, prize), cost=cost, rank=rank))
    # ... and at a strictly decreasing base a hair above winner-take-all,
    # where every rank takes a central difference
    for n in range(3, 11):
        cost = _design_cost(rng, "linear")
        prize = cost.entry_cost * rng.uniform(2.0, 4.0)
        eta = prize * rng.uniform(0.5, 1.5) * 1e-3
        base = rc.RewardVector((prize,) + tuple(eta * (n - 1 - j) for j in range(n - 1)))
        rank = int(rng.integers(2, min(n, 5) + 1))
        ops.append(_op("bmd_near", "budget_matched_derivative",
                       rewards=base, cost=cost, rank=rank))
    for n in range(3, 11):
        cost = _design_cost(rng, "linear")
        ops.append(_op("tax_sweep", "tax_sweep", n=n,
                       prize=cost.entry_cost * rng.uniform(2.0, 4.0), cost=cost,
                       taxes=(0.0, 0.01)))
    # A dozen dominance trials fill the band below the three heaviest
    # operations, so the 90th percentile falls inside one kind of
    # operation rather than in a gap between kinds.
    for i in range(12):
        cost = _design_cost(rng, ("linear", "exp")[i % 2])
        ops.append(_op("dominance", "wta_dominance_trial", n=3 + i % 4,
                       budget=rng.uniform(0.8, 1.5) * cost.entry_cost, cost=cost,
                       trials=3 + (i // 4) % 4, seed=int(rng.integers(2**31))))
    exp1 = rc.ExponentialCost(k=1.0)
    budgets = (rng.uniform(*_LOW_BUDGETS), rng.uniform(*_MID_BUDGETS),
               *sorted(rng.uniform(*_HIGH_BUDGETS, size=2)))
    ops.append(_op("avg_sign", "avg_sign_vs_budget", n=3, cost=exp1, budgets=budgets, rank=2))
    ops.append(_op("crossover", "avg_sign_crossover", n=3, cost=exp1,
                   budget_lo=rng.uniform(2.0, 3.0), budget_hi=rng.uniform(5.0, 6.0),
                   rank=2, rel_tol=1e-3))
    cost = _design_cost(rng, "linear")
    # Each cap 1.3-1.7 times the next, so that no lattice candidate has
    # two nearly tied prizes, neither at full caps nor with one at half
    # its cap: those make `expected_avg_quality` raise QuadratureError
    # (CHANGES.md, FOUND:).  Scaled so that the top cap is above 1.2 c(0).
    caps = np.cumprod([1.0, *rng.uniform(1.3, 1.7, size=2)])[::-1] * rng.uniform(0.1, 0.6)
    caps = caps * max(1.0, 1.2 * cost.entry_cost / caps[0])
    ops.append(_op("attention", "attention_certificate",
                   caps=rc.AttentionCaps(tuple(caps)), cost=cost, levels=(0.0, 0.5, 1.0)))
    return ops


def design_warmup() -> None:
    rc.budget_matched_derivative(
        rc.winner_take_all(3, 1.0), rc.LinearCost(c0=0.25, slope=1.0), 2
    )


# ---------------------------------------------------------------------------
# simulate


class CommandFailed(Exception):
    """A ``rankcontest`` command exited with a code other than 0."""


def run_cli(argv: list[str]) -> str:
    """``rankcontest <argv>`` in this process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"rankcontest {argv[0]} exited with code {code}")
    return out.getvalue()


def _cli_op(command, rewards, cost, trials, sim_seed):
    argv = [
        command,
        "--rewards", ",".join(repr(v) for v in rewards.prizes),
        "--cost", cost.spec_string(),
        "--trials", str(trials),
        "--seed", str(sim_seed),
    ]
    return Operation(
        kind=command,
        run=lambda: run_cli(argv),
        params={"rewards": rewards, "cost": cost, "trials": trials},
    )


def build_simulate(seed: int, round_: int = 0) -> list[Operation]:
    # Every round repeats the same commands.  The kernel's arrays grow with
    # the number of entrants drawn, and with fresh contests each round the
    # allocator's history, not the program, set the peak RSS (176 MB
    # against 120 MB over five rounds of one seed).
    rng = _rng(seed, 3, 0)
    ops = []
    for i, n in enumerate(_log_grid(2, 100, 10)):
        family = _FAMILIES[i % len(_FAMILIES)]
        kind = ("interior", "full")[i % 2]
        rewards, cost = _contest(rng, n, family, kind)
        trials = SIM_WORK // n
        for command in ("simulate", "deviate"):
            ops.append(_cli_op(command, rewards, cost, trials, int(rng.integers(2**31))))
    return ops


def simulate_warmup() -> None:
    run_cli(["simulate", "--rewards", "1,0", "--cost", "linear:c0=0.25,slope=1",
             "--trials", "1000", "--seed", "1"])


BUILDERS = {"evaluate": build_evaluate, "design": build_design, "simulate": build_simulate}
WARMUPS = {"evaluate": evaluate_warmup, "design": design_warmup, "simulate": simulate_warmup}
