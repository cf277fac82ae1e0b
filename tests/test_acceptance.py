"""End-to-end acceptance gate.

One test per headline criterion, each ending in a printed PASS line with
the measured figure (run with ``pytest -s`` to watch them stream).  The
whole module is sized to finish in a few minutes on a laptop.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

import rankcontest as rc
from conftest import GOLDEN_COST, random_instance

# Regression constant, not a published figure: the budget where the
# budget-matched response of average quality flips sign for c(q)=e^q,
# n=3, rank 2, re-derived by test_10 and frozen here.
AVG_QUALITY_CROSSOVER_BUDGET = 4.089521408081055


def _report(name, detail):
    print(f"ACCEPTANCE PASS {name}: {detail}")


def test_01_golden_interior_closed_forms(golden_interior):
    sol = golden_interior
    assert sol.p == pytest.approx(0.75, abs=1e-8)
    assert sol.qbar == pytest.approx(0.75, abs=1e-8)
    grid = np.linspace(0.0, 0.75, 101)
    cdf_err = np.max(np.abs(sol.cdf(grid) - grid / 0.75))
    assert cdf_err <= 1e-8
    assert rc.expected_budget(sol) == pytest.approx(0.9375, abs=1e-8)
    assert rc.expected_max_quality(sol) == pytest.approx(0.421875, abs=1e-8)
    assert rc.expected_avg_quality(sol) == pytest.approx(0.28125, abs=1e-8)
    _report(
        "01 interior golden instance",
        f"p=0.75 qbar=0.75 B=0.9375 eq_max=0.421875 eq_avg=0.28125, "
        f"cdf error {cdf_err:.2e}",
    )


def test_02_golden_full_regime(golden_full):
    sol = golden_full
    assert sol.p == 1.0
    assert sol.qbar == pytest.approx(0.5, abs=1e-8)
    assert sol.shift == pytest.approx(0.25, abs=1e-8)
    grid = np.linspace(0.0, 0.5, 101)
    cdf_err = np.max(np.abs(sol.cdf(grid) - 2.0 * grid))
    assert cdf_err <= 1e-8
    residual = np.max(np.abs(sol.payoff_residual(grid)))
    assert residual <= 1e-8
    _report(
        "02 full-regime golden instance",
        f"p=1 qbar=0.5 shift=0.25, cdf error {cdf_err:.2e}, "
        f"payoff residual {residual:.2e}",
    )


def test_03_indifference_across_random_instances():
    rng = np.random.default_rng(101)
    solved = 0
    worst = 0.0
    while solved < 200:
        rewards, cost = random_instance(rng, n_max=10)
        sol = rc.solve(rewards, cost)
        if sol.regime == "no_entry":
            continue
        solved += 1
        grid = np.linspace(0.0, sol.qbar, 100)
        worst = max(worst, float(np.max(np.abs(sol.payoff_residual(grid)))))
        above = sol.qbar + np.array([1e-3, 0.2])
        assert np.all(sol.payoff_residual(above) < 0.0)
    assert worst <= 1e-6
    _report(
        "03 indifference property",
        f"200 instances, max |payoff residual| {worst:.2e} on 100-point grids, "
        f"deviations above the support always lose",
    )


def test_04_regime_law_and_support_formula():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        rewards, cost = random_instance(rng, n_max=10)
        sol = rc.solve(rewards, cost)
        c0 = cost.entry_cost
        assert (sol.p == 1.0) == (rewards.last >= c0)
        assert (sol.regime == "no_entry") == (rewards.top <= c0)
        if sol.regime != "no_entry":
            want = rewards.top - max(rewards.last - c0, 0.0)
            worst = max(worst, abs(cost.value(sol.qbar) - want))
    assert worst <= 1e-8
    _report(
        "04 regime law",
        f"p=1 iff last prize covers entry; support equation error {worst:.2e}",
    )


def test_05_tail_identities_on_full_lattice():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    worst_identity = 0.0
    worst_gap = 0.0
    for n in range(2, 13):
        for k in range(1, n + 1):
            for p in np.arange(0.05, 0.951, 0.05):
                p = float(p)
                x = 0.5 * p * (nodes + 1.0)
                integral = 0.5 * p * float(
                    weights @ (x ** (k - 1) * (1.0 - x) ** (n - k))
                )
                closed = n * math.comb(n - 1, k - 1) * integral
                worst_identity = max(
                    worst_identity, abs(rc.binomial_tail(n, k, p) - closed)
                )
                worst_gap = min(worst_gap, rc.slope_bound_gap(n, k, p))
    assert worst_identity <= 1e-10
    assert worst_gap >= -1e-12
    _report(
        "05 tail identities",
        f"n<=12 lattice: identity error {worst_identity:.2e}, "
        f"smallest slope-bound gap {worst_gap:.2e}",
    )


def test_06_prize_sensitivity_signs():
    rng = np.random.default_rng(107)
    checked = 0
    boundary_pairs = 0
    while checked < 100:
        rewards, cost = random_instance(rng, n_max=8)
        values = np.asarray(rewards.prizes)
        gaps = -np.diff(values)
        if np.any(gaps < 1e-3) or values[0] <= cost.entry_cost * 1.2:
            continue
        checked += 1
        rank = int(rng.integers(1, rewards.n))
        report = rc.reward_sensitivity(rewards, cost, rank)
        assert report.sign == "positive"
        # straddle the entry cost with the last prize where there is room
        c0 = cost.entry_cost
        if boundary_pairs < 40 and values[-2] > 1.4 * c0:
            lo = rewards.replace(rewards.n, 0.7 * c0)
            hi = rewards.replace(rewards.n, min(1.3 * c0, 0.9 * values[-2]))
            assert rc.reward_sensitivity(lo, cost, lo.n).sign == "positive"
            assert rc.reward_sensitivity(hi, cost, hi.n).sign == "negative"
            boundary_pairs += 1
    assert boundary_pairs >= 20
    _report(
        "06 prize sensitivities",
        f"100 instances: ranks below the last always positive; "
        f"{boundary_pairs} boundary pairs flip sign across the entry cost",
    )


def test_07_attention_schedule_certificates():
    rng = np.random.default_rng(109)
    draws = 0
    while draws < 20:
        n = 3 if draws < 16 else 4
        caps_values = np.sort(rng.uniform(0.1, 2.0, size=n))[::-1]
        cost = rc.LinearCost(c0=float(rng.uniform(0.05, 0.8)), slope=1.0)
        if caps_values[0] <= cost.entry_cost * 1.1:
            continue
        caps = rc.AttentionCaps(tuple(caps_values))
        cert = rc.attention_certificate(caps, cost)
        assert cert.max_optimal, f"eq_max beaten on draw {draws}"
        assert cert.avg_optimal, f"eq_avg beaten on draw {draws}"
        draws += 1
    _report(
        "07 attention certificates",
        "20 cap draws: the saturate-all-but-last schedule tops the lattice "
        "for both best and average quality",
    )


@pytest.mark.parametrize(
    "cost",
    [rc.LinearCost(c0=0.25, slope=1.0), rc.ExponentialCost(k=1.0)],
    ids=["linear", "exp"],
)
@pytest.mark.parametrize("n", [3, 4, 6])
def test_08_winner_take_all_dominance(cost, n):
    report = rc.wta_dominance_trial(n, budget=1.0, cost=cost, trials=200, seed=211)
    assert report.asserted
    assert report.skipped == 0
    assert report.violations == 0
    assert report.worst_gap >= -1e-7
    _report(
        f"08 winner-take-all dominance ({cost.family}, n={n})",
        f"200 budget-matched samples, zero violations, "
        f"worst gap {report.worst_gap:.3e}",
    )


@pytest.mark.parametrize("c0", [0.05, 0.25, 0.5])
def test_09_taxation_helps_best_quality_linear(c0):
    cost = rc.LinearCost(c0=c0, slope=1.0)
    wta = rc.winner_take_all(3, 1.0)
    worst_max = -np.inf
    worst_avg = -np.inf
    for rank in (2, 3):
        result = rc.budget_matched_derivative(wta, cost, rank)
        worst_max = max(worst_max, result.d_eqmax)
        worst_avg = max(worst_avg, result.d_eqavg)
    # a strictly decreasing tail a hair above winner-take-all opens the
    # blocked interior ranks to central differences
    eta = 1e-3
    near = rc.RewardVector((1.0, 3 * eta, 2 * eta, eta))
    for rank in (2, 3, 4):
        result = rc.budget_matched_derivative(near, cost, rank)
        assert result.mode == "central"
        worst_max = max(worst_max, result.d_eqmax)
        worst_avg = max(worst_avg, result.d_eqavg)
    assert worst_max <= 1e-8
    assert worst_avg <= 1e-8
    rows = rc.tax_sweep(3, 1.0, cost, [0.0, 0.01])
    assert rows[1].eq_max > rows[0].eq_max
    _report(
        f"09 redistribution away from the winner (c0={c0})",
        f"max d_eqmax {worst_max:.3e}, max d_eqavg {worst_avg:.3e}, "
        f"tax 0.01 lifts eq_max by {rows[1].eq_max - rows[0].eq_max:.2e}",
    )


def test_10_average_quality_sign_flips_with_budget():
    cost = rc.ExponentialCost(k=1.0)
    budgets = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]
    rows = rc.avg_sign_vs_budget(3, cost, budgets, rank=2)
    signs = [row.sign for row in rows]
    assert all(row.ok for row in rows)
    assert signs[0] == "negative" and signs[-1] == "positive"
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1
    crossover = rc.avg_sign_crossover(3, cost, 2.0, 6.0, rank=2)
    assert crossover == pytest.approx(AVG_QUALITY_CROSSOVER_BUDGET, rel=1e-3)
    _report(
        "10 average-quality crossover",
        f"signs {signs} (one change); crossover budget {crossover:.6f} "
        f"matches the frozen regression constant",
    )


def test_11_budget_matched_slope_bound():
    rng = np.random.default_rng(113)
    checked = 0
    margin = np.inf
    while checked < 12:
        rewards, cost = random_instance(rng, n_max=6)
        values = np.asarray(rewards.prizes)
        if np.any(-np.diff(values) < 1e-3):
            continue
        sol = rc.solve(rewards, cost)
        if sol.regime != "interior":
            continue
        rank = int(rng.integers(2, rewards.n + 1))
        result = rc.budget_matched_derivative(rewards, cost, rank)
        assert result.da1_das <= result.slope_bound + 1e-6
        margin = min(margin, result.slope_bound - result.da1_das)
        checked += 1
    _report(
        "11 budget-matched slope bound",
        f"12 interior instances: da1/das below -W(s)/W(1), "
        f"smallest margin {margin:.3e}",
    )


def test_12_monte_carlo_agreement(golden_interior):
    sol = golden_interior
    trials = 100000
    report = rc.run(sol, trials, seed=307)
    targets = [
        ("eq_max", report.empirical_eq_max, report.eq_max_se, rc.expected_max_quality(sol)),
        ("eq_avg", report.empirical_eq_avg, report.eq_avg_se, rc.expected_avg_quality(sol)),
        ("payout", report.empirical_payout, report.payout_se, rc.expected_budget(sol)),
    ]
    sigmas = []
    for name, value, se, want in targets:
        assert abs(value - want) <= 4 * se, name
        sigmas.append(abs(value - want) / se)

    expected = trials * stats.binom.pmf(np.arange(sol.n + 1), sol.n, sol.p)
    gof = stats.chisquare(report.entrant_histogram, expected)
    assert gof.pvalue > 0.001

    draws = rc.trial_streams(seed=307, trial=0, n=1)[1].random(trials)
    samples = sol.quantile(draws)
    ks = stats.kstest(samples, sol.cdf)
    assert ks.pvalue > 0.001

    again = rc.run(sol, trials, seed=307)
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        again.to_dict(), sort_keys=True
    )

    grid = np.linspace(0.0, sol.qbar, 21)
    curve = rc.deviation_check(sol, grid, trials, seed=311)
    worst_dev = 0.0
    for point in curve:
        if point.stderr <= 1e-12:
            # deterministic grid point (the support endpoint always wins)
            assert abs(point.mean_payoff - sol.shift) <= 1e-12
            continue
        worst_dev = max(worst_dev, abs(point.mean_payoff - sol.shift) / point.stderr)
    assert worst_dev <= 4.0
    _report(
        "12 simulation agreement",
        f"1e5 trials: metric deviations {max(sigmas):.2f} sigma, "
        f"entrant GoF p={gof.pvalue:.3f}, KS p={ks.pvalue:.3f}, "
        f"payoff curve within {worst_dev:.2f} standard errors, "
        f"seeded reruns byte-identical",
    )
