import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankcontest import (
    AttentionCaps,
    ContestError,
    DomainError,
    ExponentialCost,
    LinearCost,
    MechanismError,
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
    taxed_wta,
    winner_take_all,
    wta_dominance_trial,
    wta_prize_for_budget,
)
from conftest import (
    BUDGET_TOL,
    fd_budget_matched_derivative,
    fd_reward_sensitivity,
    illinois_root,
    oracle_hold_budget,
    payout_gap,
    random_cost,
    random_instance,
    random_rewards,
)
from rankcontest.binom import tail_vector

COST = LinearCost(c0=0.25, slope=1.0)


def payout_error(rewards, cost, target):
    """|payout - target| over max(1, target): what a match must keep
    within 1e-12."""
    return abs(expected_budget(solve(rewards, cost)) - target) / max(1.0, target)


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

    def test_solves_base_once(self, monkeypatch):
        solved = []

        def counting_solve(rewards, cost):
            solved.append(rewards.prizes)
            return solve(rewards, cost)

        monkeypatch.setattr(design, "solve", counting_solve)
        base = RewardVector((1.0, 0.6, 0.3, 0.0))
        for rank in range(1, 5):
            reward_sensitivity(base, COST, rank)
        assert solved == [base.prizes] * 4

    def test_agrees_with_finite_differences(self):
        # at this step the oracle's truncation and rounding stay below
        # the bounds (0.53 of the derivs bound at worst on these draws);
        # at 1e-4 * a_1 one n = 2 case is off by 6e-4 relative.  Rank-n
        # bases near c(0) make the difference straddle the regime kink.
        checked = 0
        for seed in (23, 29, 31):
            rng = np.random.default_rng(seed)
            for _ in range(400):
                rewards, cost = random_instance(rng, n_max=12)
                rank = int(rng.integers(1, rewards.n + 1))
                step = 1e-5 * rewards.top
                if rank == rewards.n and abs(rewards.last - cost.entry_cost) <= 2.0 * step:
                    continue
                report = reward_sensitivity(rewards, cost, rank)
                oracle = fd_reward_sensitivity(rewards, cost, rank, step)
                assert report.grid == oracle.grid
                got, want = np.array(report.derivs), np.array(oracle.derivs)
                assert np.all(np.abs(got - want) <= 1e-3 * np.abs(got) + 1e-9)
                assert abs(report.dp - oracle.dp) <= 1e-4 * abs(report.dp) + 1e-10
                checked += 1
        assert checked >= 1150

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rel=st.floats(0.0, 2.0))
    def test_signs_hold_exactly(self, seed, rel):
        rng = np.random.default_rng(seed)
        rewards, cost = random_instance(rng, n_max=12)
        for rank in range(1, rewards.n):
            assert reward_sensitivity(rewards, cost, rank).sign == "positive"
        last = rel * cost.entry_cost
        assume(last < rewards.prizes[-2])
        rewards = rewards.replace(rewards.n, last)
        want = "positive" if last < cost.entry_cost else "negative"
        if last == cost.entry_cost:
            want = "boundary"
        assert reward_sensitivity(rewards, cost, rewards.n).sign == want

    def test_tied_top_prizes_closed_form(self):
        # (1, 1, 0): benefit(x) = 1 - x**2, so at c(q) = q + 1/4 the
        # pressure is sqrt(3/4 - q), dx/da_1 = (1-x)**2 / (2x) and
        # dx/da_2 = 1 - x; the finite difference cannot lower a_1 here
        rewards = RewardVector((1.0, 1.0, 0.0))
        p = np.sqrt(0.75)
        for rank, dx in ((1, lambda x: (1.0 - x) ** 2 / (2.0 * x)), (2, lambda x: 1.0 - x)):
            report = reward_sensitivity(rewards, COST, rank)
            x = np.sqrt(0.75 - np.array(report.grid))
            assert np.all(np.isfinite(report.derivs))
            np.testing.assert_allclose(report.derivs, dx(x), rtol=1e-12)
            assert report.dp == pytest.approx(dx(p), rel=1e-12)
            assert report.sign == "positive"

    @pytest.mark.parametrize("c0", [0.25, 0.5])
    def test_signs_at_a_thousand_ranks(self, c0):
        # basis masses underflow to exact zeros near the ends of the
        # support; none is a wrong sign
        rewards = RewardVector(tuple(np.linspace(1.0, 0.3, 1000)))
        cost = LinearCost(c0=c0, slope=1.0)
        for rank in (1, 500, 999):
            report = reward_sensitivity(rewards, cost, rank)
            assert report.sign == "positive"
            assert min(report.derivs) >= 0.0

    def test_no_entry_rejected(self):
        with pytest.raises(DomainError):
            reward_sensitivity(RewardVector((0.2, 0.1, 0.0)), COST, 1)


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
        assert payout_error(out, COST, target) <= 1e-12

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
            assert payout_error(out, cost, target) <= 1e-12
        assert matched >= 12

    @pytest.mark.parametrize(
        "prizes, cost, rank, new_value",
        [
            # a top prize taken from the indifference condition instead of
            # the budget misses this payout by 2.8e-5
            (
                (
                    1.5744898168750832, 1.4982267077495715, 1.4224209147555151,
                    1.139034675494206, 1.1352438581686373, 1.0805141076284066,
                    0.9943075551587629, 0.9447760792141251, 0.6522907958052286,
                    0.5527807889122397, 0.41325332457643654,
                ),
                LinearCost(c0=0.5201384022447152, slope=1.5189018114145272),
                4,
                1.1352438581686373,
            ),
            (tuple(np.linspace(1.0, 0.0, 100)), COST, 2, 0.985),
            (tuple(np.linspace(1.0, 0.0, 1000)), COST, 2, 0.9985),
            (tuple(np.linspace(1.0, 0.0, 1000)), COST, 500, 0.5),
        ],
        ids=["n11", "n100", "n1000-rank2", "n1000-rank500"],
    )
    def test_conditioning_at_large_n(self, prizes, cost, rank, new_value):
        base = RewardVector(prizes)
        target = expected_budget(solve(base, cost))
        out = hold_budget(base, cost, rank, new_value)
        assert out.prizes[rank - 1] == new_value
        assert payout_error(out, cost, target) <= 1e-12

    def test_agrees_with_prize_space_oracle(self):
        # same feasibility, and a top prize within the oracle's payout
        # tolerance: the payout rises at least at rate P(someone enters)
        # with the top prize, so 1e-8 of payout is 1e-8 / T_1(p) of prize
        rng = np.random.default_rng(89)
        matched = 0
        for _ in range(200):
            base, cost = random_instance(rng)
            rank = int(rng.integers(2, base.n + 1))
            value = base.prizes[rank - 1] + rng.uniform(-0.3, 0.3) * base.top
            outcomes = []
            for route in (hold_budget, oracle_hold_budget):
                try:
                    outcomes.append(route(base, cost, rank, value))
                except ContestError as exc:
                    outcomes.append(type(exc))
            new, old = outcomes
            assert isinstance(new, type) == isinstance(old, type)
            if isinstance(new, type):
                assert new is old
                continue
            matched += 1
            entry = tail_vector(new.n, solve(new, cost).p)[1]
            assert abs(new.top - old.top) <= 2.0 * BUDGET_TOL / entry
        assert matched >= 60

    def test_no_entry_base_returns_floor(self):
        # a base nobody enters pays 0; the floor schedule pays 0 as well,
        # so the lowest admissible top prize, 1e-12 of the largest prize
        # above rank 2, is the match
        base = RewardVector((0.2, 0.1, 0.0))
        assert solve(base, COST).p == 0.0
        out = hold_budget(base, COST, 2, 0.05)
        assert out.prizes == (0.05 + 0.2e-12, 0.05, 0.0)
        assert out == oracle_hold_budget(base, COST, 2, 0.05)

    def test_full_entry_tail_is_closed_form(self):
        # a last prize at or above c(0) keeps everyone in, so the payout
        # is the prize sum and the top prize is the target minus the tail
        for prizes, rank, value in (
            ((1.0, 0.6, 0.4), 2, 0.5),
            ((2.0, 1.5, 0.9, 0.25), 3, 1.2),
            ((1.0, 0.5, 0.5, 0.3), 4, 0.45),
        ):
            base = RewardVector(prizes)
            assert solve(base, COST).regime == "full"
            target = expected_budget(solve(base, COST))
            out = hold_budget(base, COST, rank, value)
            assert out.top == target - np.sum(out.prizes[1:])

    def test_monotonicity_unreachable(self):
        base = RewardVector((1.0, 0.3, 0.1))
        with pytest.raises(DomainError):
            hold_budget(base, COST, 3, 0.5)  # above the fixed rank 2
        with pytest.raises(DomainError):
            hold_budget(base, COST, 2, 0.05)  # below the fixed rank 3

    def test_top_prize_floor(self):
        base = winner_take_all(3, 1.0)
        with pytest.raises(DomainError, match="budget match infeasible"):
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
        # the derivatives come from the base alone
        assert len(solved) == 1

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

    def test_agrees_with_finite_differences(self):
        # the oracle differences at a tenth of the default step, on the
        # pressure-space integrals: at the default step its truncation
        # reaches 7.5e-5 relative on bases near the a_n = c(0) kink, and
        # the q-space integrals' bias 3e-7 absolute
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(200):
            rewards, cost = random_instance(rng)
            rank = int(rng.integers(2, rewards.n + 1))
            step = 1e-4 * rewards.top
            if abs(rewards.last - cost.entry_cost) <= 2.0 * step:
                continue
            result = budget_matched_derivative(rewards, cost, rank)
            if result.mode != "central":
                continue
            oracle = fd_budget_matched_derivative(
                rewards, cost, rank, step=0.1 * step, method="substitution"
            )
            assert result.slope_bound == oracle.slope_bound
            for name in ("da1_das", "d_eqmax", "d_eqavg"):
                got, want = getattr(result, name), getattr(oracle, name)
                assert abs(got - want) <= 1e-5 * abs(got) + 1e-7, name
            checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("family", ["linear", "exp"])
    def test_one_sided_agrees_with_finite_differences(self, family):
        # the benchmark's winner-take-all draws; the one-sided oracle's
        # truncation is O(step)
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            if family == "linear":
                cost = LinearCost(c0=float(rng.uniform(0.05, 0.5)), slope=1.0)
            else:
                cost = ExponentialCost(k=float(rng.uniform(0.6, 1.4)))
            base = winner_take_all(n, cost.entry_cost * float(rng.uniform(1.5, 4.0)))
            for rank in (2, n):
                result = budget_matched_derivative(base, cost, rank)
                oracle = fd_budget_matched_derivative(base, cost, rank)
                assert result.mode == oracle.mode != "central"
                for name in ("da1_das", "d_eqmax", "d_eqavg"):
                    got, want = getattr(result, name), getattr(oracle, name)
                    assert abs(got - want) <= 1e-3 * abs(got) + 1e-7, name

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_slope_bound_and_wta_signs_hold_exactly(self, seed):
        rng = np.random.default_rng(seed)
        rewards, cost = random_instance(rng)
        rank = int(rng.integers(2, rewards.n + 1))
        if np.all(np.diff(rewards.as_array()) < 0.0):
            if solve(rewards, cost).regime == "interior":
                result = budget_matched_derivative(rewards, cost, rank)
                assert result.da1_das <= result.slope_bound
        linear = LinearCost(c0=float(rng.uniform(0.05, 0.6)), slope=float(rng.uniform(0.5, 2.0)))
        n = int(rng.integers(2, 11))
        wta = winner_take_all(n, linear.entry_cost * float(rng.uniform(1.05, 4.0)))
        for rank in {2, n}:
            result = budget_matched_derivative(wta, linear, rank)
            assert result.d_eqmax <= 0.0
            assert result.d_eqavg <= 0.0

    def test_no_entry_base(self):
        # the payout is 0 for every nearby schedule, so there is no slope
        # to hold it with; the qualities stay 0
        result = budget_matched_derivative(RewardVector((0.2, 0.1, 0.0)), COST, 2)
        assert result.mode == "central"
        assert np.isnan(result.da1_das) and np.isnan(result.slope_bound)
        assert result.d_eqmax == 0.0 and result.d_eqavg == 0.0

    def test_last_prize_at_entry_cost_takes_full_regime(self):
        # solve reports full entry at a_n = c(0); the derivative is that
        # regime's, continuous with the one just above the kink, where a
        # central difference straddling it gives -4.74
        cost = LinearCost(c0=0.5, slope=1.0)
        at = budget_matched_derivative(RewardVector((1.0, 0.6, 0.5)), cost, 3)
        above = budget_matched_derivative(RewardVector((1.0, 0.6, 0.5 + 1e-9)), cost, 3)
        assert at.da1_das == -1.0
        for name in ("da1_das", "d_eqmax", "d_eqavg"):
            assert getattr(at, name) == pytest.approx(getattr(above, name), abs=1e-8)
        straddle = fd_budget_matched_derivative(RewardVector((1.0, 0.6, 0.5)), cost, 3)
        assert straddle.da1_das == pytest.approx(-4.74, abs=0.01)

    def test_nearly_tied_top_prizes(self):
        # the q-space quality integrals of these schedules raise
        # QuadratureError; the pressure-space derivatives do not need them
        base = RewardVector((1.0, 0.999, 0.0))
        result = budget_matched_derivative(base, COST, 3)
        oracle = fd_budget_matched_derivative(base, COST, 3, method="substitution")
        for name in ("da1_das", "d_eqmax", "d_eqavg"):
            assert getattr(result, name) == pytest.approx(getattr(oracle, name), rel=1e-6)


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

    def test_untaxed_contest_solved_once(self, monkeypatch):
        # one solve of the base, then a floor solve and a taxed solve
        # per taxed row; the tax-0 row reuses the base
        solved = []

        def counting(rewards, cost):
            solved.append(rewards.prizes)
            return solve(rewards, cost)

        monkeypatch.setattr(design, "solve", counting)
        taxes = [0.0, 0.01, 0.02, 0.04]
        rows = tax_sweep(3, 1.0, COST, taxes)
        assert len(solved) == 7
        assert solved.count((1.0, 0.0, 0.0)) == 1
        monkeypatch.undo()
        for row, tax in zip(rows, taxes):
            assert row.top_prize == taxed_wta(3, 1.0, tax, COST).top

    def test_infeasible_rows_flagged_not_fatal(self):
        rows = tax_sweep(3, 0.2, COST, [0.0, 0.01])
        assert rows[0].ok
        assert not rows[1].ok and rows[1].reason

    def test_requires_entry_cost(self):
        with pytest.raises(DomainError):
            tax_sweep(3, 1.0, LinearCost(c0=0.0, slope=1.0), [0.0])

    @pytest.mark.parametrize("n, prize", [(3, -1.0), (3, 0.0), (1, 1.0), (1001, 1.0)])
    def test_bad_contest_raises_instead_of_failing_rows(self, n, prize):
        # a bad n or prize would fail every row alike
        with pytest.raises(MechanismError):
            tax_sweep(n, prize, COST, [0.0, 0.01])


class TestBudgetHelpers:
    def test_wta_prize_hits_budget(self):
        for budget in (0.3, 0.875, 2.0):
            prize = wta_prize_for_budget(3, budget, COST)
            assert payout_error(winner_take_all(3, prize), COST, budget) <= 1e-12

    def test_rescale_hits_budget_and_keeps_shape(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            cost = random_cost(rng)
            base = strict_rewards(rng, 4, cost)
            matched = rescale_to_budget(base, cost, 1.0)
            assert payout_error(matched, cost, 1.0) <= 1e-12
            ratio = np.asarray(matched.prizes) / np.asarray(base.prizes)
            assert np.allclose(ratio, ratio[0])

    def test_rescale_into_full_entry_is_closed_form(self):
        # above c(0) / a_n * sum(a) the scaled last prize covers the
        # entry cost, everyone enters and the payout is the scaled sum
        base = RewardVector((1.0, 0.5, 0.2))
        threshold = COST.entry_cost / base.last * np.sum(base.prizes)
        for budget in (threshold * 1.01, threshold * 3.0):
            matched = rescale_to_budget(base, COST, budget)
            scale = budget / np.sum(base.prizes)
            assert matched.prizes == tuple(np.asarray(base.prizes) * scale)
            assert solve(matched, COST).regime == "full"

    @pytest.mark.parametrize("seed", [97, 101])
    def test_helpers_agree_with_prize_space_oracle(self, seed):
        # the root of the oracle's full-solve payout gap, to its own
        # tolerance of 1e-10 in payout
        rng = np.random.default_rng(seed)
        for _ in range(6):
            n = int(rng.integers(2, 9))
            cost = random_cost(rng)
            budget = cost.entry_cost * rng.uniform(0.5, 4.0)
            prize = wta_prize_for_budget(n, budget, cost)
            gap = payout_gap(lambda a1: winner_take_all(n, a1), cost, budget)
            lo = cost.entry_cost * (1.0 + 1e-9)
            old = illinois_root(gap, lo, max(2.0 * lo, budget + cost.entry_cost, 1.0), ftol=1e-10)
            entry = tail_vector(n, solve(winner_take_all(n, prize), cost).p)[1]
            assert abs(prize - old) <= 2e-10 / entry
            base = strict_rewards(rng, n, cost)
            scale = rescale_to_budget(base, cost, budget).top / base.top
            gap = payout_gap(lambda m: base.as_array() * m, cost, budget)
            old = illinois_root(gap, 1e-12, 1.0, ftol=1e-10)
            assert abs(scale - old) <= 1e-9 * max(1.0, old)

    def test_rescale_starts_at_the_small_p_root(self, monkeypatch):
        # the search starts at p = budget / (n c(0)), where the residual
        # vanishes to first order in p; the counts are exact, pinned at
        # the time of writing (from the middle of the bracket the same
        # matches take 322 and 305 evaluations, and 11 and 16 at
        # n = 100 and 1000)
        evals = []

        def counting_root(g, lo, hi, **kwargs):
            def counted(p):
                evals.append(p)
                return g(p)

            return bracketed_root(counted, lo, hi, **kwargs)

        bracketed_root = design.bracketed_root
        monkeypatch.setattr(design, "bracketed_root", counting_root)
        rng = np.random.default_rng(5)
        wta = rescaled = 0
        for _ in range(40):
            n = int(rng.integers(3, 11))
            cost = random_cost(rng)
            budget = cost.entry_cost * rng.uniform(0.5, 4.0)
            evals.clear()
            wta_prize_for_budget(n, budget, cost)
            wta += len(evals)
            prizes = np.sort(rng.uniform(0.0, 1.0, n))[::-1] + np.linspace(0.01 * n, 0.0, n)
            evals.clear()
            rescale_to_budget(RewardVector(tuple(prizes)), cost, budget)
            rescaled += len(evals)
        assert wta <= 270 and rescaled <= 221
        for n, ceiling in ((100, 6), (1000, 5)):
            evals.clear()
            wta_prize_for_budget(n, 0.6, COST)
            assert len(evals) <= ceiling


def scaled_matches(family, s):
    """Each budget matcher's schedule and target payout with every prize
    and c(0) multiplied by ``s``."""
    if family == "linear":
        cost = LinearCost(c0=0.25 * s, slope=1.0)
    else:
        cost = QuadraticPlusCost(c0=0.1 * s, a=1.0, b=2.0)
    base = RewardVector(tuple(np.array([1.0, 0.6, 0.0]) * s))
    paid = expected_budget(solve(base, cost))
    wta_paid = expected_budget(solve(winner_take_all(3, s), cost))
    schedules = (
        (hold_budget(base, cost, 2, 0.5 * s), paid),
        (taxed_wta(3, s, 0.05 * s, cost), wta_paid),
        (winner_take_all(3, wta_prize_for_budget(3, 0.3 * s, cost)), 0.3 * s),
        (rescale_to_budget(base, cost, 0.3 * s), 0.3 * s),
    )
    return cost, schedules


class TestBudgetMatchRule:
    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1e6])
    @pytest.mark.parametrize("family", ["linear", "quad"])
    def test_matches_scale_with_the_prizes(self, family, s):
        # scaling every prize and c(0) leaves p alone and scales the
        # payout, so each match is the unit-scale match times s
        _, unit = scaled_matches(family, 1.0)
        cost, scaled = scaled_matches(family, s)
        for (rewards, target), (ref, _) in zip(scaled, unit):
            np.testing.assert_allclose(
                rewards.prizes, np.asarray(ref.prizes) * s, rtol=1e-12, atol=0.0
            )
            paid = expected_budget(solve(rewards, cost))
            assert abs(paid - target) <= 1e-12 * target

    def test_tiny_budget_is_paid(self):
        # the top prize sits 7e-13 above c(0) = 1, where one ulp of it
        # moves the payout by about 3e-16: 1e-3 of the budget is the
        # resolution of doubles there
        cost = ExponentialCost(k=1.0)
        prize = wta_prize_for_budget(3, 1e-12, cost)
        paid = expected_budget(solve(winner_take_all(3, prize), cost))
        assert abs(paid - 1e-12) <= 1e-3 * 1e-12

    @pytest.mark.parametrize(
        "prizes, budget", [((1.0, 0.5, 0.0), 1e-14), ((1000.0, 500.0, 0.0), 1e-12)]
    )
    def test_overpaying_floor_is_infeasible(self, prizes, budget):
        # with c(0) = 0 everyone enters, so the schedule at the smallest
        # multiplier, 1e-12, already pays 1e-12 of the prize sum
        cost = LinearCost(c0=0.0, slope=1.0)
        with pytest.raises(DomainError, match="budget match infeasible"):
            rescale_to_budget(RewardVector(prizes), cost, budget)


class TestAvgSignVsBudget:
    def test_exponential_sign_pattern(self):
        cost = ExponentialCost(k=1.0)
        rows = avg_sign_vs_budget(3, cost, [1.0, 6.0], rank=2)
        assert rows[0].sign == "negative"
        assert rows[1].sign == "positive"

    def test_two_solves_per_budget(self, monkeypatch):
        solved = []

        def counting_solve(rewards, cost):
            solved.append(rewards.prizes)
            return solve(rewards, cost)

        monkeypatch.setattr(design, "solve", counting_solve)
        rows = avg_sign_vs_budget(3, ExponentialCost(k=1.0), [1.0, 6.0], rank=2)
        assert all(row.ok for row in rows)
        # the matcher's floor schedule and the matched winner-take-all
        # vector, which is also the derivative's base
        assert len(solved) == 4


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


class TestDeepRankSigns:
    """Budget-matched derivatives deep in the schedule, where the true
    responses are of order 1e-7 and smaller: they must keep the paper's
    sign and the slope bound."""

    def test_named_deep_rank_case(self):
        result = budget_matched_derivative(
            winner_take_all(9, 1.09), LinearCost(c0=0.288, slope=1.0), 9
        )
        assert result.mode == "backward"
        assert result.slope_bound == pytest.approx(-6.0e-8, rel=0.01)
        # the analytic responses are -3.3e-7 and -1.5e-7
        assert result.da1_das == pytest.approx(-3.3e-7, rel=0.02)
        assert result.d_eqmax == pytest.approx(-1.5e-7, rel=0.02)
        assert result.da1_das <= result.slope_bound
        assert result.d_eqmax <= 0.0

    def test_seeded_deep_rank_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(5, 11))
            cost = LinearCost(c0=float(rng.uniform(0.05, 0.5)), slope=1.0)
            prize = cost.entry_cost * float(rng.uniform(1.5, 4.0))
            if rng.random() < 0.5:
                base, rank = winner_take_all(n, prize), n
            else:
                eta = prize * float(rng.uniform(0.5, 1.5)) * 1e-3
                base = RewardVector((prize, *(eta * (n - 1 - j) for j in range(n - 1))))
                rank = int(rng.integers(n - 3, n + 1))
            result = budget_matched_derivative(base, cost, rank)
            assert result.d_eqmax <= 0.0
            assert result.d_eqavg <= 0.0
            assert result.da1_das <= result.slope_bound


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
