"""Reward-design experiments and comparative statics.

The solver module answers "what happens for these prizes"; this module
answers "which prizes should be offered".  Derivatives with respect
to single prizes are exact, from the implicit-function theorem at the
one solved base schedule: the response of the quality CDF to a prize
(``reward_sensitivity``) in closed form on a quality grid, and the
budget-matched responses of the quality objectives with one
pressure-space integral.  The optimality statements are checked by
certificate search or seeded sampling rather than assumed.

The pivotal constraint is *budget matching*: when a lower prize a_s is
changed, the top prize is re-solved so the expected total payout stays
fixed, mirroring the question a designer with a fixed purse actually
faces.  ``hold_budget``, ``taxed_wta``, ``wta_prize_for_budget`` and
``rescale_to_budget`` share one matcher, which searches the entry
probability rather than the prize: every step is closed form, with no
equilibrium re-solved inside the search, and one failure rule: a
schedule that overpays even at its lowest admissible top prize or
scale raises :class:`DomainError`.  The match involves no absolute
tolerance, so its results scale with the prizes.  The rest of the
module builds sweeps and trials on top of them.
"""

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .binom import bernstein, tail_vector
from .costs import CostModel, HAZARD_CONSTANT, HAZARD_NONINCREASING
from .equilibrium import REGIME_FULL, REGIME_NO_ENTRY, benefit_slope, solve
from .errors import ContestError, ConvergenceError, DomainError
from .mechanism import AttentionCaps, RewardVector, attention_schedule, winner_take_all
from .metrics import _pressure_integral, contest_metrics, expected_budget, expected_max_quality
from .rootfind import _rounding_noise, bracketed_root

_SENSITIVITY_GRID = 50
_GAP_TINY = 1e-12
_MAX_CANDIDATES = 4000  # largest lattice attention_certificate will search
_TIE_TOL = 1e-7  # quality gap attention_certificate counts as a tie
_CROSSOVER_MAX_ITER = 60
_NOISE_TOL = 1e-7  # lead over winner-take-all that counts as a violation


def _default_step(rewards: RewardVector) -> float:
    scale = abs(rewards.top)
    return 1e-4 * scale if scale > 0 else 1e-8


# ---------------------------------------------------------------------------
# prize sensitivities


def _entry_partials(sol, ranks):
    """(dp/da_k, dshift/da_k) for each rank k in ``ranks`` at a solved
    base where someone enters.

    Under full entry p stays 1 and the shift a_n - c(0) moves one for
    one with the last prize; otherwise benefit(p) = c(0) moves p by
    -b_k(p)/benefit'(p) and the shift stays 0.  At a_n = c(0), where
    the regimes meet, these are the full regime's: the ones for raising
    a_n.
    """
    ranks = np.asarray(ranks)
    if sol.regime == REGIME_FULL:
        return np.zeros(ranks.size), (ranks == sol.n).astype(float)
    units = ranks[:, None] == np.arange(1, sol.n + 1)
    dp = -bernstein(units, sol.p)[:, 0] / benefit_slope(sol.p, sol.rewards)
    return dp, np.zeros(ranks.size)


@dataclass(frozen=True)
class SensitivityReport:
    """Response of the equilibrium to one prize, exact at the base.

    ``derivs`` holds d[p(1-G(q))]/da at each grid quality; ``sign`` is
    the common sign across the interior grid ("positive" when no value
    is negative and one is positive, "negative" likewise, otherwise
    "mixed"; an exact zero, such as a basis mass that underflows at
    large n, counts as neither), or "boundary" for the last prize at
    exactly the entry cost, where the response changes direction.
    """

    rank: int
    grid: tuple[float, ...]
    derivs: tuple[float, ...]
    sign: str
    dp: float


def reward_sensitivity(
    rewards: RewardVector, cost: CostModel, rank: int
) -> SensitivityReport:
    """d[p(1-G)]/da_rank on an interior quality grid, from one solve.

    Differentiating the indifference condition benefit(x(q)) - c(q) =
    shift at fixed q gives dx/da_k = (dshift/da_k - b_k(x))/benefit'(x),
    with b_k the Bernstein basis polynomial that multiplies a_k in the
    benefit.  Raising any prize but the last draws every quality upward;
    the last prize helps only while it is below the entry cost and hurts
    beyond it, because it then subsidizes sitting at the bottom.
    """
    if not 1 <= rank <= rewards.n:
        raise DomainError(f"rank must be in 1..{rewards.n}")
    sol = solve(rewards, cost)
    if sol.regime == REGIME_NO_ENTRY:
        raise DomainError("nobody enters; there is no quality distribution to perturb")
    grid = np.linspace(0.0, sol.qbar, _SENSITIVITY_GRID + 2)[1:-1]
    x = sol.pressure(grid)
    (dp,), (dshift,) = _entry_partials(sol, (rank,))
    basis = bernstein(np.arange(1, rewards.n + 1) == rank, x)
    derivs = (dshift - basis) / benefit_slope(x, rewards)
    if rank == rewards.n and rewards.last == cost.entry_cost:
        sign = "boundary"
    elif np.all(derivs >= 0.0) and np.any(derivs > 0.0):
        sign = "positive"
    elif np.all(derivs <= 0.0) and np.any(derivs < 0.0):
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
        return asdict(self) | {"schedule": list(self.schedule.prizes)}


def attention_certificate(
    caps,
    cost: CostModel,
    *,
    levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> AttentionCertificate:
    """Certify :func:`optimal_attention` against a cap-fraction lattice;
    raises :class:`DomainError` if no lattice point is a valid schedule."""
    if not isinstance(caps, AttentionCaps):
        caps = AttentionCaps(tuple(caps))
    if len(levels) ** caps.n > _MAX_CANDIDATES:
        raise DomainError(
            f"lattice of {len(levels) ** caps.n} candidates exceeds the "
            f"{_MAX_CANDIDATES} cap; reduce levels or ranks"
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
            if abs(c_max - sched_max) <= _TIE_TOL:
                max_ties += 1
            if abs(c_avg - sched_avg) <= _TIE_TOL:
                avg_ties += 1
    if count == 0:
        raise DomainError("no lattice candidate is a valid schedule; use more levels")
    return AttentionCertificate(
        schedule=schedule,
        candidates=count,
        eq_max=sched_max,
        eq_avg=sched_avg,
        best_candidate_max=float(best_max),
        best_candidate_avg=float(best_avg),
        max_optimal=sched_max >= best_max - _TIE_TOL,
        avg_optimal=sched_avg >= best_avg - _TIE_TOL,
        max_ties=max_ties,
        avg_ties=avg_ties,
    )


# ---------------------------------------------------------------------------
# budget-matched perturbations


def _match_budget(u, v, lo, cost, target, start=None):
    """The theta >= ``lo`` at which the schedule u + theta * v pays
    ``target`` in equilibrium.

    The payout rises with theta: returns ``lo`` when its schedule already
    pays the target and raises :class:`DomainError` when it overpays,
    both judged against the payout's rounding noise, so a match means
    the same at every prize scale.  Otherwise the search runs in the
    entry probability p, on [p at ``lo``, 1], from ``start``.  With T(p)
    the tails P(Binomial(n, p) >= k), k = 1..n, and B_c(p) the degree
    n-1 Bernstein sum of c, the budget fixes theta in closed form,

        theta(p) = (target - u.T(p)) / (v.T(p)),

    and the root is taken on the indifference residual
    F(p) = c(0) - B_u(p) - theta(p) B_v(p).  Since d(c.T)/dp = n B_c,
    F'(p) = n B B_v / (v.T) - (B_u' + theta B_v') with B = B_u + theta B_v,
    so one step is one kernel pass and one tail vector.  Taking theta
    from the indifference condition instead would divide by
    B_v = (1-p)**(n-1) for the top-prize families, which is tiny at high
    p and underflows at large n.  F(1) <= 0 is full entry, where theta
    is closed form.
    """
    n = u.size
    prizes = u + lo * v
    floor = solve(RewardVector(tuple(prizes)), cost)
    paid = expected_budget(floor)
    # a payout is a sum of n prizes times tail odds
    noise = _rounding_noise(n, max(abs(target), np.max(np.abs(prizes))))
    if paid - target > noise:
        raise DomainError(
            f"budget match infeasible: the lowest admissible schedule already "
            f"pays {paid:.10g}, above the target {target:.10g}"
        )
    if paid - target >= -noise:
        return lo
    c0 = cost.entry_cost
    full = (target - u.sum()) / v.sum()
    if c0 - u[-1] - full * v[-1] <= 0.0:
        return float(full)
    rows = np.stack((u[:-1], u[1:], v[:-1], v[1:]))

    def theta(tails):
        return (target - u @ tails) / (v @ tails)

    def residual(p):
        tails = tail_vector(n, p)[1:]
        t = theta(tails)
        s0u, s1u, s0v, s1v = bernstein(rows, p)[:, 0]
        bv = s0v + p * (s1v - s0v)
        benefit = s0u + p * (s1u - s0u) + t * bv
        slope = (n - 1) * ((s1u - s0u) + t * (s1v - s0v))
        return c0 - benefit, n * benefit * bv / (v @ tails) - slope

    # at the root the benefit is c(0), and only the tail prizes in u can
    # make the residual's terms larger
    ftol = _rounding_noise(n, max(c0, np.max(np.abs(u))))
    try:
        p = bracketed_root(residual, floor.p, 1.0, ftol=ftol, start=start)
    except ConvergenceError as exc:
        raise ConvergenceError(f"budget match did not converge: {exc}") from exc
    return float(theta(tail_vector(n, p)[1:]))


def hold_budget(
    rewards: RewardVector, cost: CostModel, rank: int, new_value: float
) -> RewardVector:
    """Re-price one lower rank and re-solve the top prize so the
    expected payout is unchanged, exactly up to rounding.

    Identity re-pricing returns the input unchanged.  Raises
    :class:`DomainError` when the new schedule would overpay even with
    its top prize 1e-12 of its largest prize above the rank-2 prize.
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
    base_sol = solve(rewards, cost)
    repriced = rewards.replace(rank, new_value)
    tail = repriced.as_array()
    lo = tail[1] + 1e-12 * np.max(np.abs(tail))
    tail[0] = 0.0
    target = expected_budget(base_sol)
    a1 = _match_budget(tail, np.eye(1, n)[0], lo, cost, target, base_sol.p)
    result = repriced.replace(1, a1)
    if result.prizes[0] <= result.prizes[1]:
        raise DomainError("budget match pushed the top prize to rank 2 or below")
    return result


@dataclass(frozen=True)
class PerturbationResult:
    """Budget-matched response of the quality objectives to one prize.

    The derivatives are exact at the base schedule.  ``mode`` names the
    directions that keep the schedule monotone: "central" when the
    prize can move ``step``, fixed at 1e-4 * a_1, both ways, otherwise
    "forward" (only raising) or "backward" (only lowering).
    ``slope_bound`` is -W(rank)/W(1), the cap on how much top prize one
    unit of the lower prize can buy back; ``da1_das`` sits below it.
    Both are NaN when nobody enters, and the quality responses are 0.
    """

    rank: int
    step: float
    mode: str
    da1_das: float
    d_eqmax: float
    d_eqavg: float
    slope_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def budget_matched_derivative(
    rewards: RewardVector, cost: CostModel, rank: int
) -> PerturbationResult:
    """d(eq_max)/da_rank and d(eq_avg)/da_rank holding the expected
    payout fixed, from the implicit-function theorem at one solve.

    With b_k the Bernstein basis polynomial that multiplies a_k in the
    benefit and q(x) = c^{-1}(benefit(x) - shift), the entry probability
    moves by dp/da_k = -b_k(p)/benefit'(p) (0 under full entry), the
    payout B by T_k(p) + n c(0) dp/da_k, and the top prize that holds B
    by da_1/da_s = -(dB/da_s)/(dB/da_1).  Integrated by parts in
    pressure space, E[max] and E[avg] are the integrals of q(x) w(x) over
    [0, p] with w = n(1-x)**(n-1) and w = 1; q(p) = 0 drops the boundary
    term, so dE/da_k integrates (b_k - dshift/da_k)/c'(q) w.  The shift
    moves only with the last prize under full entry, where at
    a_n = c(0) the derivative is the full regime's, the one for raising
    a_n.

    Raises if neither direction keeps the schedule monotone (``mode``),
    which happens for ranks strictly inside a tied block, e.g. rank 3
    of winner-take-all.
    """
    return _budget_matched_derivative(rewards, cost, rank, None)


def _budget_matched_derivative(rewards, cost, rank, base_sol):
    n = rewards.n
    if not 2 <= rank <= n:
        raise DomainError("only ranks 2..n can be perturbed against the top prize")
    step = _default_step(rewards)
    i = rank - 1
    a = rewards.prizes
    up_ok = rank == 2 or a[i - 1] >= a[i] + step
    down_ok = rank == n or a[i] - step >= a[i + 1]
    if not up_ok and not down_ok:
        raise DomainError(
            "both perturbation directions break monotonicity at this rank; "
            "perturb from a strictly decreasing base schedule instead"
        )
    mode = "central" if up_ok and down_ok else "forward" if up_ok else "backward"
    if base_sol is None:
        base_sol = solve(rewards, cost)
    p = base_sol.p
    tails = tail_vector(n, p)[1:]
    # -W(rank)/W(1) with W(k) = tails[k-1]/n, as rank_probability has it
    w1, ws = tails[0] / n, tails[i] / n
    bound = -ws / w1 if w1 > 0 else float("nan")
    if base_sol.regime == REGIME_NO_ENTRY:
        # nobody enters nearby either: the payout is identically 0
        return PerturbationResult(rank, step, mode, float("nan"), 0.0, 0.0, bound)
    # the prizes, then the unit rows e_1 and e_rank: the benefit and the
    # two basis polynomials the derivatives need
    rows = np.zeros((3, n))
    rows[0] = rewards.as_array()
    rows[1, 0] = rows[2, i] = 1.0
    dp, (_, dshift) = _entry_partials(base_sol, (1, rank))
    d_budget = tails[[0, i]] + n * cost.entry_cost * dp
    da1 = float(-d_budget[1] / d_budget[0])

    def integrand(x):
        sums = bernstein(rows, x)
        basis = sums[1:]
        basis[1] -= dshift
        basis *= 1.0 / cost.derivative(cost.inverse(sums[0] - base_sol.shift))
        return basis

    (max1, maxs, avg1, avgs), _ = _pressure_integral(base_sol, integrand, ("max", "avg"))
    return PerturbationResult(
        rank=rank,
        step=step,
        mode=mode,
        da1_das=da1,
        d_eqmax=float(maxs + da1 * max1),
        d_eqavg=float(avgs + da1 * avg1),
        slope_bound=float(bound),
    )


# ---------------------------------------------------------------------------
# taxation sweeps


@dataclass(frozen=True)
class TaxRow:
    tax: float
    ok: bool
    reason: str | None = None
    top_prize: float | None = None
    p: float | None = None
    eq_max: float | None = None
    eq_avg: float | None = None
    budget: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def taxed_wta(n: int, prize: float, tax: float, cost: CostModel) -> RewardVector:
    """Winner-take-all with an entry tax, holding the expected payout.

    Returns (a1*, -tax, ..., -tax) where a1* solves for the same
    expected total payout as ``winner_take_all(n, prize)``.  The tax
    collected from entrants funds a higher top prize; with tax == 0 the
    plain winner-take-all vector is returned unchanged.
    """
    return _taxed_wta(n, prize, tax, cost, None)


def _taxed_wta(n, prize, tax, cost, base_sol):
    if tax < 0.0:
        raise DomainError("tax must be nonnegative")
    if not cost.has_entry_cost:
        raise DomainError("taxing entry requires a positive entry cost c(0)")
    base = winner_take_all(n, prize)
    if tax == 0.0:
        return base
    if not prize > cost.entry_cost:
        raise DomainError(
            "the untaxed top prize must exceed c(0), otherwise nobody enters"
        )
    if base_sol is None:
        base_sol = solve(base, cost)
    tail = np.full(n, -float(tax))
    tail[0] = 0.0
    lo = cost.entry_cost * (1.0 + 1e-12)
    target = expected_budget(base_sol)
    a1 = _match_budget(tail, np.eye(1, n)[0], lo, cost, target, base_sol.p)
    return RewardVector((a1,) + (-float(tax),) * (n - 1))


def tax_sweep(
    n: int, prize: float, cost: CostModel, taxes
) -> tuple[TaxRow, ...]:
    """Metrics of budget-matched taxed winner-take-all across tax levels.

    Each row replaces winner-take-all (prize, 0, ..., 0) with
    (a1*, -t, ..., -t) at the same expected payout.  Rows whose tax is
    infeasible are flagged rather than fatal.  The tax both thins entry
    and funds a larger top prize; under a non-increasing c'/c the best
    contribution improves.  A bad ``n`` or ``prize`` raises, as it would
    for every row.
    """
    if not cost.has_entry_cost:
        raise DomainError("taxing entry requires a positive entry cost c(0)")
    # the untaxed contest is solved once: the tax-0 row and every
    # taxed row's payout target share it
    base_sol = solve(winner_take_all(n, prize), cost)
    rows = []
    for tax in taxes:
        tax = float(tax)
        try:
            vec = _taxed_wta(n, prize, tax, cost, base_sol)
            sol = base_sol if tax == 0.0 else solve(vec, cost)
            report = contest_metrics(sol)
            rows.append(
                TaxRow(
                    tax=tax,
                    ok=True,
                    top_prize=vec.top,
                    p=sol.p,
                    eq_max=report.eq_max,
                    eq_avg=report.eq_avg,
                    budget=report.budget,
                )
            )
        except ContestError as exc:
            rows.append(TaxRow(tax=tax, ok=False, reason=str(exc)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# budget sweeps for the average-quality objective


def wta_prize_for_budget(n: int, budget: float, cost: CostModel) -> float:
    """Top prize making winner-take-all's expected payout equal
    ``budget``: :func:`rescale_to_budget` of ``winner_take_all(n, 1)``,
    with its failure rule."""
    return rescale_to_budget(winner_take_all(n, 1.0), cost, budget).top


def rescale_to_budget(
    rewards: RewardVector, cost: CostModel, budget: float
) -> RewardVector:
    """Scale a whole schedule by one multiplier to hit a target payout.

    Scaling preserves monotonicity, and the payout grows continuously
    and strictly once the top prize clears the entry cost.  Raises
    :class:`DomainError` when the schedule scaled by 1e-12 already pays
    more than ``budget``, which needs c(0) below 1e-12 of the top prize.

    The search starts at the small-p root of the indifference residual,
    p = budget / (n c(0)): near p = 0 the scaled payout is about
    n p theta a_1 and the benefit about theta a_1, so the residual
    c(0) - budget B_a / (a.T) vanishes there.
    """
    if not budget > 0.0:
        raise DomainError("budget must be positive")
    if not rewards.top > 0.0:
        raise DomainError("rescaling needs a positive top prize")
    a = rewards.as_array()
    c0 = cost.entry_cost
    start = budget / (a.size * c0) if c0 > 0.0 else None
    m = _match_budget(np.zeros_like(a), a, 1e-12, cost, budget, start)
    return RewardVector(tuple(a * m))


@dataclass(frozen=True)
class BudgetSignRow:
    budget: float
    ok: bool
    reason: str | None = None
    top_prize: float | None = None
    p: float | None = None
    d_eqavg: float | None = None
    sign: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _avg_derivative_at_wta(
    n: int, budget: float, cost: CostModel, rank: int
) -> tuple[float, float, float]:
    prize = wta_prize_for_budget(n, budget, cost)
    vec = winner_take_all(n, prize)
    sol = solve(vec, cost)
    result = _budget_matched_derivative(vec, cost, rank, sol)
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
                    budget=budget, ok=True, top_prize=prize, p=p, d_eqavg=d_eqavg, sign=sign
                )
            )
        except ContestError as exc:
            rows.append(BudgetSignRow(budget=budget, ok=False, reason=str(exc)))
    return tuple(rows)


def avg_sign_crossover(
    n: int,
    cost: CostModel,
    budget_lo: float,
    budget_hi: float,
    rank: int = 2,
    *,
    rel_tol: float = 1e-6,
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
    for _ in range(_CROSSOVER_MAX_ITER):
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
        return asdict(self)


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
        if gap < -_NOISE_TOL:
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
