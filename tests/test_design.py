import numpy as np
import pytest

from rankcontest import (
    AttentionCaps,
    DomainError,
    ExponentialCost,
    LinearCost,
    QuadraticPlusCost,
    RewardVector,
    attention_certificate,
    avg_sign_vs_budget,
    budget_matched_derivative,
    design,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    hold_budget,
    optimal_attention,
    rank_probability,
    rescale_to_budget,
    reward_sensitivity,
    solve,
    tax_sweep,
    winner_take_all,
    wta_dominance_trial,
    wta_prize_for_budget,
)
from conftest import random_cost, random_rewards

COST = LinearCost(c0=0.25, slope=1.0)


def strict_rewards(rng, n, cost):
    # strictly decreasing prizes so both perturbation directions stay open
    base = random_rewards(rng, n, cost, full_share=0.0)
    values = np.asarray(base.prizes)
    gaps = np.diff(values)
    if np.any(gaps > -1e-3):
        values = values + np.linspace(n * 1e-2, 0.0, n)
    return RewardVector(tuple(values))


class TestRewardSensitivity:
    def test_upper_ranks_always_positive(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            cost = random_cost(rng)
            rewards = strict_rewards(rng, n, cost)
            rank = int(rng.integers(1, n))
            report = reward_sensitivity(rewards, cost, rank)
            assert report.sign == "positive"

    def test_last_rank_flips_at_entry_cost(self):
        lo = RewardVector((1.0, 0.6, 0.25 * 0.7))
        hi = RewardVector((1.0, 0.6, 0.25 * 1.3))
        assert reward_sensitivity(lo, COST, 3).sign == "positive"
        assert reward_sensitivity(hi, COST, 3).sign == "negative"

    def test_boundary_reported_not_signed(self):
        at = RewardVector((1.0, 0.6, 0.25))
        assert reward_sensitivity(at, COST, 3).sign == "boundary"

    def test_entry_rises_with_any_prize_in_interior(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            cost = random_cost(rng)
            rewards = strict_rewards(rng, 4, cost)
            if rewards.last >= cost.entry_cost:
                continue
            for rank in range(1, 5):
                assert reward_sensitivity(rewards, cost, rank).dp > 0

    def test_oversized_step_rejected(self):
        with pytest.raises(DomainError):
            reward_sensitivity(RewardVector((1.0, 0.99, 0.0)), COST, 2, step=0.05)


class TestOptimalAttention:
    def test_entry_cost_truncates_last_rank(self):
        cost = LinearCost(c0=0.3, slope=1.0)
        out = optimal_attention(AttentionCaps((1.0, 0.5, 0.4)), cost)
        assert out.prizes == (1.0, 0.5, 0.3)

    def test_binding_caps_kept(self):
        cost = LinearCost(c0=0.3, slope=1.0)
        out = optimal_attention(AttentionCaps((1.0, 0.5, 0.2)), cost)
        assert out.prizes == (1.0, 0.5, 0.2)

    def test_infeasible_caps(self):
        with pytest.raises(DomainError):
            optimal_attention(AttentionCaps((0.2, 0.1)), COST)

    def test_certificate_on_binding_caps(self):
        cost = LinearCost(c0=0.3, slope=1.0)
        cert = attention_certificate(AttentionCaps((1.0, 0.5, 0.2)), cost)
        assert cert.max_optimal and cert.avg_optimal
        assert cert.candidates > 50

    def test_certificate_equal_caps(self):
        cost = LinearCost(c0=0.5, slope=1.0)
        cert = attention_certificate(AttentionCaps((1.0, 1.0, 1.0)), cost)
        assert cert.schedule.prizes == (1.0, 1.0, 0.5)
        assert cert.max_optimal and cert.avg_optimal

    def test_lattice_size_guard(self):
        caps = AttentionCaps(tuple(np.linspace(2.0, 1.0, 8)))
        with pytest.raises(DomainError):
            attention_certificate(caps, COST)

    def test_empty_lattice_rejected(self):
        # every rank at zero is the only candidate, and it is all-equal
        with pytest.raises(DomainError, match="no lattice candidate"):
            attention_certificate(AttentionCaps((1.0, 0.5)), COST, levels=(0.0,))


class TestHoldBudget:
    def test_identity_fixed_point(self):
        base = RewardVector((1.0, 0.3, 0.1))
        assert hold_budget(base, COST, 2, 0.3) is base

    def test_wta_reprice_second_rank(self):
        base = winner_take_all(3, 1.0)
        target = expected_budget(solve(base, COST))
        out = hold_budget(base, COST, 2, 0.02)
        assert out.prizes[1] == 0.02 and out.prizes[2] == 0.0
        assert out.top < 1.0
        assert abs(expected_budget(solve(out, COST)) - target) <= 1e-8

    def test_budget_matched_on_random_instances(self):
        # an upward move can legitimately be infeasible (the top prize
        # would cross rank 2), so rejections count as correct behavior
        # while every accepted match must sit within tolerance
        rng = np.random.default_rng(57)
        matched = 0
        for _ in range(15):
            cost = random_cost(rng)
            base = strict_rewards(rng, int(rng.integers(3, 6)), cost)
            target = expected_budget(solve(base, cost))
            rank = int(rng.integers(2, base.n + 1))
            above = base.prizes[rank - 2] - base.prizes[rank - 1]
            below = (
                base.prizes[rank - 1] - base.prizes[rank]
                if rank < base.n
                else above
            )
            move = rng.uniform(-0.2 * below, 0.2 * above)
            try:
                out = hold_budget(base, cost, rank, base.prizes[rank - 1] + move)
            except DomainError:
                continue
            matched += 1
            assert abs(expected_budget(solve(out, cost)) - target) <= 1e-8
        assert matched >= 12

    def test_monotonicity_unreachable(self):
        base = RewardVector((1.0, 0.3, 0.1))
        with pytest.raises(DomainError):
            hold_budget(base, COST, 3, 0.5)  # above the fixed rank 2
        with pytest.raises(DomainError):
            hold_budget(base, COST, 2, 0.05)  # below the fixed rank 3

    def test_top_prize_floor(self):
        base = winner_take_all(3, 1.0)
        with pytest.raises(DomainError):
            hold_budget(base, COST, 2, 1.0)

    def test_rank_one_rejected(self):
        with pytest.raises(DomainError):
            hold_budget(RewardVector((1.0, 0.0)), COST, 1, 0.5)


class TestBudgetMatchedDerivative:
    def test_wta_modes(self):
        base = winner_take_all(3, 1.0)
        fwd = budget_matched_derivative(base, COST, 2)
        back = budget_matched_derivative(base, COST, 3)
        assert fwd.mode == "forward" and back.mode == "backward"

    def test_wta_interior_rank_blocked(self):
        base = winner_take_all(4, 1.0)
        with pytest.raises(DomainError):
            budget_matched_derivative(base, COST, 3)

    def test_central_on_strict_base(self):
        base = RewardVector((1.0, 0.4, 0.15))
        result = budget_matched_derivative(base, COST, 2)
        assert result.mode == "central"

    def test_central_solves_base_once(self, monkeypatch):
        solved = []

        def counting_solve(rewards, cost):
            solved.append(rewards.prizes)
            return solve(rewards, cost)

        monkeypatch.setattr(design, "solve", counting_solve)
        base = RewardVector((1.0, 0.6, 0.3, 0.0))
        result = budget_matched_derivative(base, COST, 3)
        assert result.mode == "central"
        assert solved.count(base.prizes) == 1
        assert len(solved) == 15

    def test_quality_losses_at_wta_linear(self):
        base = winner_take_all(3, 1.0)
        for rank in (2, 3):
            result = budget_matched_derivative(base, COST, rank)
            assert result.d_eqmax <= 1e-8
            assert result.d_eqavg <= 1e-8

    def test_slope_bound(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 12:
            cost = random_cost(rng)
            base = strict_rewards(rng, int(rng.integers(3, 6)), cost)
            sol = solve(base, cost)
            if sol.regime != "interior":
                continue
            rank = int(rng.integers(2, base.n + 1))
            result = budget_matched_derivative(base, cost, rank)
            assert result.da1_das <= result.slope_bound + 1e-6
            checked += 1

    def test_raising_lower_prize_costs_the_top(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            cost = random_cost(rng)
            base = strict_rewards(rng, 4, cost)
            rank = int(rng.integers(2, 5))
            assert budget_matched_derivative(base, cost, rank).da1_das < 0


class TestTaxSweep:
    def test_zero_tax_matches_plain_wta(self):
        rows = tax_sweep(3, 1.0, COST, [0.0])
        sol = solve(winner_take_all(3, 1.0), COST)
        assert rows[0].top_prize == 1.0
        assert rows[0].p == pytest.approx(sol.p, abs=1e-12)
        assert rows[0].eq_max == pytest.approx(expected_max_quality(sol), abs=1e-12)

    def test_small_tax_improves_best_quality(self):
        rows = tax_sweep(3, 1.0, COST, [0.0, 0.01])
        assert rows[1].eq_max > rows[0].eq_max

    def test_budget_constant_and_entry_falling(self):
        rows = tax_sweep(3, 1.0, COST, [0.0, 0.01, 0.02, 0.04])
        budgets = [row.budget for row in rows]
        assert max(budgets) - min(budgets) <= 1e-8
        entries = [row.p for row in rows]
        assert np.all(np.diff(entries) < 0)

    def test_infeasible_rows_flagged_not_fatal(self):
        rows = tax_sweep(3, 0.2, COST, [0.0, 0.01])
        assert rows[0].ok
        assert not rows[1].ok and rows[1].reason

    def test_requires_entry_cost(self):
        with pytest.raises(DomainError):
            tax_sweep(3, 1.0, LinearCost(c0=0.0, slope=1.0), [0.0])


class TestBudgetHelpers:
    def test_wta_prize_hits_budget(self):
        for budget in (0.3, 0.875, 2.0):
            prize = wta_prize_for_budget(3, budget, COST)
            sol = solve(winner_take_all(3, prize), COST)
            assert expected_budget(sol) == pytest.approx(budget, abs=1e-9)

    def test_rescale_hits_budget_and_keeps_shape(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            cost = random_cost(rng)
            base = strict_rewards(rng, 4, cost)
            matched = rescale_to_budget(base, cost, 1.0)
            assert expected_budget(solve(matched, cost)) == pytest.approx(
                1.0, abs=1e-9
            )
            ratio = np.asarray(matched.prizes) / np.asarray(base.prizes)
            assert np.allclose(ratio, ratio[0])


class TestAvgSignVsBudget:
    def test_exponential_sign_pattern(self):
        cost = ExponentialCost(k=1.0)
        rows = avg_sign_vs_budget(3, cost, [1.0, 6.0], rank=2)
        assert rows[0].sign == "negative"
        assert rows[1].sign == "positive"


class TestDominanceTrials:
    def test_linear_cost_dominance(self):
        report = wta_dominance_trial(3, 0.875, COST, trials=40, seed=5)
        assert report.asserted
        assert report.violations == 0
        assert report.worst_gap >= 0.0
        assert report.skipped == 0

    def test_exponential_cost_dominance(self):
        report = wta_dominance_trial(3, 1.0, ExponentialCost(k=1.0), trials=30, seed=9)
        assert report.asserted and report.violations == 0

    def test_counter_family_not_asserted(self):
        bumpy = QuadraticPlusCost(c0=1.0, a=0.1, b=1.0)
        assert bumpy.hazard_class() == "other"
        report = wta_dominance_trial(3, 1.0, bumpy, trials=5, seed=2)
        assert not report.asserted

    def test_deterministic_in_seed(self):
        a = wta_dominance_trial(3, 0.875, COST, trials=10, seed=13)
        b = wta_dominance_trial(3, 0.875, COST, trials=10, seed=13)
        assert a == b

    def test_requires_entry_cost(self):
        with pytest.raises(DomainError):
            wta_dominance_trial(3, 1.0, LinearCost(c0=0.0, slope=1.0), 5, 1)


class TestNearWtaInteriorRanks:
    def test_central_differences_near_wta(self):
        # a strictly decreasing hair's-breadth from winner-take-all lets
        # every rank be perturbed both ways; quality responses stay <= 0
        n = 4
        eta = 1e-3
        tail = [eta * (n - k) for k in range(2, n + 1)]
        base = RewardVector((1.0, *tail))
        for rank in range(2, n + 1):
            result = budget_matched_derivative(base, COST, rank)
            assert result.mode == "central"
            assert result.d_eqmax <= 1e-8
            assert result.d_eqavg <= 1e-8
