"""Reward-design experiments and comparative statics.

The solver module answers "what happens for these prizes"; this module
answers "which prizes should be offered".  Everything is numerical:
derivatives of equilibrium objects with respect to single prizes are
central (or, where the monotone-prize constraint blocks one side,
one-sided) finite differences with re-solved equilibria, and the
optimality statements are checked by certificate search or seeded
sampling rather than assumed.

The pivotal constraint is *budget matching*: when a lower prize a_s is
changed, the top prize is re-solved so the expected total payout stays
fixed, mirroring the question a designer with a fixed purse actually
faces.  ``hold_budget`` performs that re-solve; the rest of the module
builds sweeps and trials on top of it.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, HAZARD_CONSTANT, HAZARD_NONINCREASING
from .equilibrium import REGIME_NO_ENTRY, solve
from .errors import ContestError, ConvergenceError, DomainError
from .mechanism import AttentionCaps, RewardVector, attention_schedule, taxed_wta, winner_take_all
from .metrics import (
    contest_metrics,
    expected_budget,
    expected_max_quality,
    rank_probability,
)
from .rootfind import bracketed_root, expand_bracket

_SENSITIVITY_GRID = 50
_GAP_TINY = 1e-12


def _default_step(rewards: RewardVector) -> float:
    scale = abs(rewards.top)
    return 1e-4 * scale if scale > 0 else 1e-8


# ---------------------------------------------------------------------------
# prize sensitivities


@dataclass(frozen=True)
class SensitivityReport:
    """Finite-difference response of the equilibrium to one prize.

    ``derivs`` holds d[p(1-G(q))]/da at each grid quality; ``sign`` is
    the common sign across the interior grid ("positive", "negative",
    "mixed"), or "boundary" when the last prize sits within one step of
    the entry cost, where the response changes direction and a
    two-sided difference straddles the kink.
    """

    rank: int
    step: float
    grid: tuple[float, ...]
    derivs: tuple[float, ...]
    sign: str
    dp: float


def reward_sensitivity(
    rewards: RewardVector, cost: CostModel, rank: int, step: float | None = None
) -> SensitivityReport:
    """Central-difference d[p(1-G)]/da_rank on an interior quality grid.

    Raising any prize but the last draws every quality upward; the last
    prize helps only while it is below the entry cost and hurts beyond
    it, because it then subsidizes sitting at the bottom.
    """
    if not 1 <= rank <= rewards.n:
        raise DomainError(f"rank must be in 1..{rewards.n}")
    step = _default_step(rewards) if step is None else float(step)
    if step <= 0.0:
        raise DomainError("step must be positive")
    i = rank - 1
    a = list(rewards.prizes)
    if i > 0 and a[i - 1] < a[i] + step:
        raise DomainError(
            "perturbation would break monotonicity against the rank above; "
            "use a smaller step"
        )
    if i + 1 < len(a) and a[i] - step < a[i + 1]:
        raise DomainError(
            "perturbation would break monotonicity against the rank below; "
            "use a smaller step"
        )
    plus = solve(rewards.replace(rank, a[i] + step), cost)
    minus = solve(rewards.replace(rank, a[i] - step), cost)
    if REGIME_NO_ENTRY in (plus.regime, minus.regime):
        raise DomainError("perturbed contest loses all entry; nothing to compare")
    top = min(plus.qbar, minus.qbar)
    grid = np.linspace(0.0, top, _SENSITIVITY_GRID + 2)[1:-1]
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
        step=step,
        grid=tuple(float(q) for q in grid),
        derivs=tuple(float(d) for d in derivs),
        sign=sign,
        dp=float(dp),
    )


# ---------------------------------------------------------------------------
# attention schedules


def optimal_attention(caps, cost: CostModel) -> RewardVector:
    """Best schedule under per-rank caps: saturate every rank but the
    last, pay the last min(cap, entry cost)."""
    if not isinstance(caps, AttentionCaps):
        caps = AttentionCaps(tuple(caps))
    if not caps.caps[0] > cost.entry_cost:
        raise DomainError(
            "infeasible caps: even the top prize cannot cover the entry cost"
        )
    return attention_schedule(caps, cost.entry_cost)


@dataclass(frozen=True)
class AttentionCertificate:
    """Lattice-search evidence that the prescribed schedule is optimal.

    Every rank is tried at a few fractions of its cap, infeasible
    (non-monotone or all-equal) combinations are dropped, and the
    prescribed schedule must attain the maximum of both quality
    objectives over the surviving lattice; near-ties are reported, not
    failed.
    """

    schedule: RewardVector
    candidates: int
    eq_max: float
    eq_avg: float
    best_candidate_max: float
    best_candidate_avg: float
    max_optimal: bool
    avg_optimal: bool
    max_ties: int
    avg_ties: int

    def to_dict(self) -> dict:
        return {
            "schedule": list(self.schedule.prizes),
            "candidates": self.candidates,
            "eq_max": self.eq_max,
            "eq_avg": self.eq_avg,
            "best_candidate_max": self.best_candidate_max,
            "best_candidate_avg": self.best_candidate_avg,
            "max_optimal": self.max_optimal,
            "avg_optimal": self.avg_optimal,
            "max_ties": self.max_ties,
            "avg_ties": self.avg_ties,
        }


def attention_certificate(
    caps,
    cost: CostModel,
    *,
    levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    max_candidates: int = 4000,
    tol: float = 1e-7,
) -> AttentionCertificate:
    """Certify :func:`optimal_attention` against a cap-fraction lattice."""
    if not isinstance(caps, AttentionCaps):
        caps = AttentionCaps(tuple(caps))
    if len(levels) ** caps.n > max_candidates:
        raise DomainError(
            f"lattice of {len(levels) ** caps.n} candidates exceeds the "
            f"{max_candidates} cap; reduce levels or ranks"
        )
    schedule = optimal_attention(caps, cost)
    sched = contest_metrics(solve(schedule, cost))
    sched_max, sched_avg = sched.eq_max, sched.eq_avg
    best_max = -np.inf
    best_avg = -np.inf
    max_ties = 0
    avg_ties = 0
    count = 0
    for fractions in itertools.product(levels, repeat=caps.n):
        values = tuple(f * c for f, c in zip(fractions, caps.caps))
        try:
            candidate = RewardVector(values)
        except ContestError:
            continue
        count += 1
        report = contest_metrics(solve(candidate, cost))
        c_max, c_avg = report.eq_max, report.eq_avg
        best_max = max(best_max, c_max)
        best_avg = max(best_avg, c_avg)
        if candidate.prizes != schedule.prizes:
            if abs(c_max - sched_max) <= tol:
                max_ties += 1
            if abs(c_avg - sched_avg) <= tol:
                avg_ties += 1
    return AttentionCertificate(
        schedule=schedule,
        candidates=count,
        eq_max=sched_max,
        eq_avg=sched_avg,
        best_candidate_max=float(best_max),
        best_candidate_avg=float(best_avg),
        max_optimal=sched_max >= best_max - tol,
        avg_optimal=sched_avg >= best_avg - tol,
        max_ties=max_ties,
        avg_ties=avg_ties,
    )


# ---------------------------------------------------------------------------
# budget-matched perturbations


def hold_budget(
    rewards: RewardVector,
    cost: CostModel,
    rank: int,
    new_value: float,
    *,
    budget_tol: float = 1e-8,
    max_iter: int = 100,
) -> RewardVector:
    """Re-price one lower rank and re-solve the top prize so the
    expected payout is unchanged.

    The payout rises strictly with the top prize (directly, and through
    the extra entry it attracts), so the re-solve is a bracketed secant
    on a_1 with a full equilibrium solve per evaluation.  Identity
    re-pricing returns the input unchanged.
    """
    n = rewards.n
    if not 2 <= rank <= n:
        raise DomainError("only ranks 2..n can be re-priced against the top prize")
    i = rank - 1
    a = list(rewards.prizes)
    new_value = float(new_value)
    if new_value == a[i]:
        return rewards
    if i >= 2 and new_value > a[i - 1]:
        raise DomainError(
            "monotonicity unreachable: the fixed rank above pays less than "
            "the requested value"
        )
    if i + 1 < n and new_value < a[i + 1]:
        raise DomainError(
            "monotonicity unreachable: the fixed rank below pays more than "
            "the requested value"
        )
    target = expected_budget(solve(rewards, cost))
    repriced = rewards.replace(rank, new_value)

    def gap(a1: float) -> float:
        return expected_budget(solve(repriced.replace(1, a1), cost)) - target

    floor = repriced.prizes[1]
    lo = floor + max(1e-12, 1e-12 * abs(floor))
    g_lo = gap(lo)
    if g_lo > budget_tol:
        raise DomainError(
            "budget match infeasible: the top prize would have to fall to "
            "the rank-2 prize or below"
        )
    if abs(g_lo) <= budget_tol:
        a1 = lo
    else:
        hi = max(rewards.top, 2.0 * abs(lo), 1.0)
        lo2, g_lo2, hi, g_hi = expand_bracket(gap, lo, hi)
        try:
            a1 = bracketed_root(
                gap, lo2, hi, g_lo=g_lo2, g_hi=g_hi, ftol=budget_tol, max_iter=max_iter
            )
        except ConvergenceError as exc:
            raise ConvergenceError(f"budget match did not converge: {exc}") from exc
    result = repriced.replace(1, a1)
    if result.prizes[0] <= result.prizes[1]:
        raise DomainError("budget match pushed the top prize to rank 2 or below")
    return result


@dataclass(frozen=True)
class PerturbationResult:
    """Budget-matched response of the quality objectives to one prize.

    ``mode`` records which differences were available: "central" when
    both directions keep the schedule monotone, otherwise "forward"
    (only raising) or "backward" (only lowering).  ``slope_bound`` is
    -W(rank)/W(1), the cap on how much top prize one unit of the lower
    prize can buy back; the measured ``da1_das`` must sit below it.
    """

    rank: int
    step: float
    mode: str
    da1_das: float
    d_eqmax: float
    d_eqavg: float
    slope_bound: float

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "step": self.step,
            "mode": self.mode,
            "da1_das": self.da1_das,
            "d_eqmax": self.d_eqmax,
            "d_eqavg": self.d_eqavg,
            "slope_bound": self.slope_bound,
        }


def budget_matched_derivative(
    rewards: RewardVector, cost: CostModel, rank: int, step: float | None = None
) -> PerturbationResult:
    """Finite-difference d(eq_max)/da_rank and d(eq_avg)/da_rank holding
    the expected payout fixed.

    Falls back to a one-sided difference when the monotone-prize
    constraint forbids one direction (e.g. at winner-take-all, where
    every trailing prize ties at zero); raises if both directions are
    blocked, which happens for ranks strictly inside a tied block.
    """
    n = rewards.n
    if not 2 <= rank <= n:
        raise DomainError("only ranks 2..n can be perturbed against the top prize")
    step = _default_step(rewards) if step is None else float(step)
    if step <= 0.0:
        raise DomainError("step must be positive")
    i = rank - 1
    a = rewards.prizes
    up_ok = rank == 2 or a[i - 1] >= a[i] + step
    down_ok = rank == n or a[i] - step >= a[i + 1]
    if not up_ok and not down_ok:
        raise DomainError(
            "both perturbation directions break monotonicity at this rank; "
            "perturb from a strictly decreasing base schedule instead"
        )
    base_sol = solve(rewards, cost)
    w1 = rank_probability(base_sol, 1)
    ws = rank_probability(base_sol, rank)
    bound = -ws / w1 if w1 > 0 else float("nan")

    def objectives(vec: RewardVector) -> tuple[float, float, float]:
        report = contest_metrics(solve(vec, cost))
        return vec.top, report.eq_max, report.eq_avg

    if up_ok and down_ok:
        mode = "central"
        a1_hi, max_hi, avg_hi = objectives(hold_budget(rewards, cost, rank, a[i] + step))
        a1_lo, max_lo, avg_lo = objectives(hold_budget(rewards, cost, rank, a[i] - step))
        width = 2.0 * step
    elif up_ok:
        mode = "forward"
        a1_hi, max_hi, avg_hi = objectives(hold_budget(rewards, cost, rank, a[i] + step))
        a1_lo, max_lo, avg_lo = objectives(rewards)
        width = step
    else:
        mode = "backward"
        a1_hi, max_hi, avg_hi = objectives(rewards)
        a1_lo, max_lo, avg_lo = objectives(hold_budget(rewards, cost, rank, a[i] - step))
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


# ---------------------------------------------------------------------------
# taxation sweeps


@dataclass(frozen=True)
class TaxRow:
    tax: float
    ok: bool
    reason: str | None
    top_prize: float | None
    p: float | None
    eq_max: float | None
    eq_avg: float | None
    budget: float | None

    def to_dict(self) -> dict:
        return {
            "tax": self.tax,
            "ok": self.ok,
            "reason": self.reason,
            "top_prize": self.top_prize,
            "p": self.p,
            "eq_max": self.eq_max,
            "eq_avg": self.eq_avg,
            "budget": self.budget,
        }


def tax_sweep(
    n: int, prize: float, cost: CostModel, taxes
) -> tuple[TaxRow, ...]:
    """Metrics of budget-matched taxed winner-take-all across tax levels.

    Each row replaces winner-take-all (prize, 0, ..., 0) with
    (a1*, -t, ..., -t) at the same expected payout.  Rows whose tax is
    infeasible are flagged rather than fatal.  The tax both thins entry
    and funds a larger top prize; under a non-increasing c'/c the best
    contribution improves.
    """
    if not cost.has_entry_cost:
        raise DomainError("taxing entry requires a positive entry cost c(0)")
    rows = []
    for tax in taxes:
        tax = float(tax)
        try:
            vec = taxed_wta(n, prize, tax, cost)
            sol = solve(vec, cost)
            report = contest_metrics(sol)
            rows.append(
                TaxRow(
                    tax=tax,
                    ok=True,
                    reason=None,
                    top_prize=vec.top,
                    p=sol.p,
                    eq_max=report.eq_max,
                    eq_avg=report.eq_avg,
                    budget=report.budget,
                )
            )
        except ContestError as exc:
            rows.append(
                TaxRow(
                    tax=tax,
                    ok=False,
                    reason=str(exc),
                    top_prize=None,
                    p=None,
                    eq_max=None,
                    eq_avg=None,
                    budget=None,
                )
            )
    return tuple(rows)


# ---------------------------------------------------------------------------
# budget sweeps for the average-quality objective


def wta_prize_for_budget(n: int, budget: float, cost: CostModel) -> float:
    """Top prize making winner-take-all's expected payout equal ``budget``."""
    if not budget > 0.0:
        raise DomainError("budget must be positive")
    c0 = cost.entry_cost

    def gap(prize: float) -> float:
        return expected_budget(solve(winner_take_all(n, prize), cost)) - budget

    lo = c0 + max(1e-9, 1e-9 * c0)
    if gap(lo) >= 0.0:
        return lo
    lo2, g_lo, hi, g_hi = expand_bracket(gap, lo, max(2.0 * lo, budget + c0, 1.0))
    return bracketed_root(gap, lo2, hi, g_lo=g_lo, g_hi=g_hi, ftol=1e-10)


def rescale_to_budget(
    rewards: RewardVector, cost: CostModel, budget: float
) -> RewardVector:
    """Scale a whole schedule by one multiplier to hit a target payout.

    Scaling preserves monotonicity, and the payout grows continuously
    and strictly once the top prize clears the entry cost, so a root
    always exists for positive budgets.
    """
    if not budget > 0.0:
        raise DomainError("budget must be positive")
    if not rewards.top > 0.0:
        raise DomainError("rescaling needs a positive top prize")

    def gap(m: float) -> float:
        return expected_budget(solve(rewards.as_array() * m, cost)) - budget

    lo = 1e-12
    lo2, g_lo, hi, g_hi = expand_bracket(gap, lo, 1.0)
    m = bracketed_root(gap, lo2, hi, g_lo=g_lo, g_hi=g_hi, ftol=1e-10)
    return RewardVector(tuple(rewards.as_array() * m))


@dataclass(frozen=True)
class BudgetSignRow:
    budget: float
    ok: bool
    reason: str | None
    top_prize: float | None
    p: float | None
    d_eqavg: float | None
    sign: str | None

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "ok": self.ok,
            "reason": self.reason,
            "top_prize": self.top_prize,
            "p": self.p,
            "d_eqavg": self.d_eqavg,
            "sign": self.sign,
        }


def _avg_derivative_at_wta(
    n: int, budget: float, cost: CostModel, rank: int
) -> tuple[float, float, float]:
    prize = wta_prize_for_budget(n, budget, cost)
    vec = winner_take_all(n, prize)
    sol = solve(vec, cost)
    result = budget_matched_derivative(vec, cost, rank)
    return prize, sol.p, result.d_eqavg


def avg_sign_vs_budget(
    n: int, cost: CostModel, budgets, rank: int = 2
) -> tuple[BudgetSignRow, ...]:
    """Sign of the budget-matched average-quality response across payouts.

    At winner-take-all the response of the average (equivalently total)
    quality to a lower prize depends on the purse for constant-c'/c
    costs: negative for small budgets, where taxing entry helps, and
    positive for large ones, where subsidizing entry helps.
    """
    rows = []
    for budget in budgets:
        budget = float(budget)
        try:
            prize, p, d_eqavg = _avg_derivative_at_wta(n, budget, cost, rank)
            if d_eqavg > _GAP_TINY:
                sign = "positive"
            elif d_eqavg < -_GAP_TINY:
                sign = "negative"
            else:
                sign = "zero"
            rows.append(
                BudgetSignRow(
                    budget=budget,
                    ok=True,
                    reason=None,
                    top_prize=prize,
                    p=p,
                    d_eqavg=d_eqavg,
                    sign=sign,
                )
            )
        except ContestError as exc:
            rows.append(
                BudgetSignRow(
                    budget=budget,
                    ok=False,
                    reason=str(exc),
                    top_prize=None,
                    p=None,
                    d_eqavg=None,
                    sign=None,
                )
            )
    return tuple(rows)


def avg_sign_crossover(
    n: int,
    cost: CostModel,
    budget_lo: float,
    budget_hi: float,
    rank: int = 2,
    *,
    rel_tol: float = 1e-6,
    max_iter: int = 60,
) -> float:
    """Budget where the average-quality response flips sign.

    Bisects on the budget between a negative-response low end and a
    positive-response high end.
    """
    lo, hi = float(budget_lo), float(budget_hi)
    _, _, d_lo = _avg_derivative_at_wta(n, lo, cost, rank)
    _, _, d_hi = _avg_derivative_at_wta(n, hi, cost, rank)
    if not (d_lo < 0.0 < d_hi):
        raise DomainError(
            f"crossover not bracketed: d_eqavg({lo})={d_lo}, d_eqavg({hi})={d_hi}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        _, _, d_mid = _avg_derivative_at_wta(n, mid, cost, rank)
        if d_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# winner-take-all dominance sampling


@dataclass(frozen=True)
class DominanceReport:
    """Sampled check that winner-take-all maximizes the best quality.

    ``asserted`` is False when the cost's c'/c ratio is not
    non-increasing; dominance is then merely reported, not claimed.  A
    violation is a sampled schedule beating winner-take-all by more than
    numerical noise; ``worst_gap`` is the smallest lead observed.
    """

    n: int
    budget: float
    trials: int
    hazard: str
    asserted: bool
    skipped: int
    violations: int
    worst_gap: float
    wta_prize: float
    wta_eq_max: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "budget": self.budget,
            "trials": self.trials,
            "hazard": self.hazard,
            "asserted": self.asserted,
            "skipped": self.skipped,
            "violations": self.violations,
            "worst_gap": self.worst_gap,
            "wta_prize": self.wta_prize,
            "wta_eq_max": self.wta_eq_max,
        }


def _random_monotone_rewards(rng: np.random.Generator, n: int) -> RewardVector:
    # exponential spacings, suffix-summed: nonnegative, strictly decreasing
    spacings = rng.exponential(size=n)
    values = np.cumsum(spacings[::-1])[::-1]
    return RewardVector(tuple(values))


def wta_dominance_trial(
    n: int,
    budget: float,
    cost: CostModel,
    trials: int,
    seed: int,
    *,
    noise_tol: float = 1e-7,
) -> DominanceReport:
    """Sample random monotone nonnegative schedules at a common payout
    and compare their best-quality metric against winner-take-all.

    Per-trial randomness is derived from ``(seed, trial index)`` so the
    report does not depend on evaluation order.
    """
    if not cost.has_entry_cost:
        raise DomainError("dominance trials need a positive entry cost c(0)")
    if trials < 1:
        raise DomainError("at least one trial required")
    hazard = cost.hazard_class()
    asserted = hazard in (HAZARD_NONINCREASING, HAZARD_CONSTANT)
    wta_prize = wta_prize_for_budget(n, budget, cost)
    wta_eq_max = expected_max_quality(solve(winner_take_all(n, wta_prize), cost))
    skipped = 0
    violations = 0
    worst = np.inf
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        candidate = _random_monotone_rewards(rng, n)
        try:
            matched = rescale_to_budget(candidate, cost, budget)
            eq_max = expected_max_quality(solve(matched, cost))
        except ContestError:
            skipped += 1
            continue
        gap = wta_eq_max - eq_max
        worst = min(worst, gap)
        if gap < -noise_tol:
            violations += 1
    return DominanceReport(
        n=n,
        budget=float(budget),
        trials=trials,
        hazard=hazard,
        asserted=asserted,
        skipped=skipped,
        violations=violations,
        worst_gap=float(worst),
        wta_prize=wta_prize,
        wta_eq_max=wta_eq_max,
    )
