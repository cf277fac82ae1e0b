import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from rankcontest import binom, metrics
from rankcontest import (
    DomainError,
    LinearCost,
    QuadraticPlusCost,
    QuadratureError,
    RewardVector,
    benefit_slope,
    binomial_tail,
    contest_metrics,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    rank_probability,
    rank_probability_at,
    slope_bound_gap,
    solve,
)
from rankcontest.equilibrium import EquilibriumSolution
from rankcontest.quadrature import integrate
from conftest import GOLDEN_COST, random_cost, random_instance, random_rewards


class TestBinomialTail:
    def test_single_term(self):
        for n, p in [(3, 0.4), (6, 0.9)]:
            assert binomial_tail(n, n, p) == pytest.approx(p**n)

    def test_complement_of_none(self):
        for n, p in [(3, 0.4), (7, 0.15)]:
            assert binomial_tail(n, 1, p) == pytest.approx(1 - (1 - p) ** n)

    def test_direct_summation(self):
        assert binomial_tail(4, 2, 0.3) == pytest.approx(0.3483, abs=1e-10)

    def test_tail_integral_identity(self):
        # the tail equals n * C(n-1, k-1) * int_0^p x^(k-1)(1-x)^(n-k) dx
        for n in range(2, 13):
            for k in range(1, n + 1):
                for p in (0.1, 0.45, 0.8):
                    integral, _ = sp_integrate.quad(
                        lambda x: x ** (k - 1) * (1 - x) ** (n - k), 0.0, p
                    )
                    closed = n * math.comb(n - 1, k - 1) * integral
                    assert binomial_tail(n, k, p) == pytest.approx(closed, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            binomial_tail(3, 0, 0.5)
        with pytest.raises(DomainError):
            binomial_tail(3, 4, 0.5)
        with pytest.raises(DomainError):
            binomial_tail(3, 1, 1.5)


class TestSlopeBoundGap:
    def test_first_rank_gap_vanishes(self):
        for n in (2, 5, 9):
            for p in (0.2, 0.5, 0.8):
                assert slope_bound_gap(n, 1, p) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert slope_bound_gap(2, 2, 0.75) == pytest.approx(2.25)

    def test_nonnegative_on_lattice(self):
        for n in range(2, 13):
            for s in range(1, n + 1):
                for p in np.arange(0.05, 0.96, 0.05):
                    assert slope_bound_gap(n, s, float(p)) >= -1e-12

    def test_degenerate_probabilities_rejected(self):
        with pytest.raises(DomainError):
            slope_bound_gap(3, 2, 0.0)
        with pytest.raises(DomainError):
            slope_bound_gap(3, 2, 1.0)


class TestBudget:
    def test_golden_interior(self, golden_interior):
        assert expected_budget(golden_interior) == pytest.approx(0.9375, abs=1e-10)

    def test_full_regime_pays_everything(self, golden_full):
        assert expected_budget(golden_full) == pytest.approx(1.5, abs=1e-12)

    def test_no_entry_pays_nothing(self):
        sol = solve(RewardVector((0.2, 0.0)), GOLDEN_COST)
        assert expected_budget(sol) == 0.0

    def test_against_first_principles(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            rewards, cost = random_instance(rng, n_max=8)
            sol = solve(rewards, cost)
            oracle = sum(
                math.comb(sol.n, j)
                * sol.p**j
                * (1 - sol.p) ** (sol.n - j)
                * sum(rewards.prizes[:j])
                for j in range(1, sol.n + 1)
            )
            assert expected_budget(sol) == pytest.approx(oracle, abs=1e-10)


class TestQualityIntegrals:
    def test_golden_interior_values(self, golden_interior):
        assert expected_max_quality(golden_interior) == pytest.approx(
            0.421875, abs=1e-8
        )
        assert expected_avg_quality(golden_interior) == pytest.approx(
            0.28125, abs=1e-8
        )

    def test_golden_full_values(self, golden_full):
        assert expected_max_quality(golden_full) == pytest.approx(1 / 3, abs=1e-8)
        assert expected_avg_quality(golden_full) == pytest.approx(0.25, abs=1e-8)

    def test_no_entry_zero(self):
        sol = solve(RewardVector((0.2, 0.0)), GOLDEN_COST)
        assert expected_max_quality(sol) == 0.0
        assert expected_avg_quality(sol) == 0.0

    def test_substitution_route_agrees(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            rewards, cost = random_instance(rng, n_max=6)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            direct = expected_max_quality(sol, method="grid")
            substituted = expected_max_quality(sol, method="substitution")
            assert abs(direct - substituted) <= 1e-7
            direct = expected_avg_quality(sol, method="grid")
            substituted = expected_avg_quality(sol, method="substitution")
            assert abs(direct - substituted) <= 1e-7

    def test_avg_below_max_below_support(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            eq_max = expected_max_quality(sol)
            eq_avg = expected_avg_quality(sol)
            assert 0.0 <= eq_avg <= eq_max + 1e-12
            assert eq_max <= sol.qbar + 1e-12


class TestRankProbabilities:
    def test_top_quality_always_wins(self, golden_interior):
        assert rank_probability_at(golden_interior, 1, golden_interior.qbar) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_top_quality_never_last(self, golden_interior):
        assert rank_probability_at(golden_interior, 2, golden_interior.qbar) == (
            pytest.approx(0.0, abs=1e-9)
        )

    def test_even_pressure_point(self, golden_interior):
        # x(q) = 0.75 - q, so x(0.25) = 0.5
        assert rank_probability_at(golden_interior, 2, 0.25) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_rank_out_of_range(self, golden_interior):
        with pytest.raises(DomainError):
            rank_probability_at(golden_interior, 3, 0.1)
        with pytest.raises(DomainError):
            rank_probability(golden_interior, 0)

    def test_golden_closed_form(self, golden_interior):
        assert rank_probability(golden_interior, 1) == pytest.approx(0.46875)
        assert rank_probability(golden_interior, 2) == pytest.approx(0.28125)

    def test_full_entry_uniform(self, golden_full):
        for k in (1, 2):
            assert rank_probability(golden_full, k) == pytest.approx(0.5)

    def test_no_entry_zero(self):
        sol = solve(RewardVector((0.2, 0.0)), GOLDEN_COST)
        assert rank_probability(sol, 1) == 0.0

    def test_sum_is_entry_probability(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            total = sum(rank_probability(sol, k) for k in range(1, sol.n + 1))
            assert total == pytest.approx(sol.p, abs=1e-8)

    def test_closed_form_matches_support_integral(self):
        # independent route: W(k) = int B_k(q) * c'(q)/|benefit'(x(q))| dq,
        # the density of the quality actually played scaled by entry
        rng = np.random.default_rng(41)
        for _ in range(8):
            rewards, cost = random_instance(rng, n_max=6)
            sol = solve(rewards, cost)
            if sol.regime != "interior":
                continue
            for k in (1, sol.n):
                def integrand(q, k=k):
                    x = sol.pressure(q)
                    weight = cost.derivative(q) / abs(benefit_slope(x, rewards))
                    return rank_probability_at(sol, k, q) * weight

                value, _ = sp_integrate.quad(
                    integrand, 0.0, sol.qbar, limit=200, epsabs=1e-10, epsrel=1e-10
                )
                assert rank_probability(sol, k) == pytest.approx(value, abs=1e-6)


class TestContestMetrics:
    def test_bundle_consistency(self, golden_interior):
        report = contest_metrics(golden_interior)
        assert report.budget == pytest.approx(0.9375, abs=1e-10)
        assert report.eq_total == pytest.approx(2 * report.eq_avg)
        assert sum(report.rank_prob) == pytest.approx(golden_interior.p, abs=1e-10)
        assert report.quadrature_error_estimate <= 1e-9

    def test_quadratic_cost_instance(self):
        cost = QuadraticPlusCost(c0=0.2, a=0.8, b=1.5)
        sol = solve(RewardVector((1.5, 0.4, 0.0)), cost)
        report = contest_metrics(sol)
        assert 0.0 < report.eq_avg < report.eq_max < sol.qbar

    def test_no_entry_bundle(self):
        report = contest_metrics(solve(RewardVector((0.2, 0.0)), GOLDEN_COST))
        assert report.budget == report.eq_max == report.eq_avg == 0.0

    @pytest.mark.xfail(
        strict=True,
        raises=QuadratureError,
        reason=(
            "known fault, CHANGES.md FOUND line on metrics._quality_integral: "
            "the q-space route stalls when the top two prizes are nearly but "
            "not exactly tied; the evaluate benchmark expects this contest to "
            "fail, so mending it waits for a benchmark change that updates "
            "its expected_failure flags"
        ),
    )
    def test_nearly_tied_top_prizes(self):
        sol = solve(RewardVector((1.0, 0.999, 0.0)), GOLDEN_COST)
        contest_metrics(sol)


def _kind_instance(rng, n, kind):
    """A conftest instance of the given kind: as drawn (mostly interior),
    full entry, an exact tie at the top prize (the substitution route),
    or prizes below the entry cost (no entry)."""
    cost = random_cost(rng)
    if kind == "drawn":
        return random_rewards(rng, n, cost), cost
    rewards = random_rewards(rng, max(n, 3) if kind == "tie" else n, cost)
    if kind == "full":
        return RewardVector(tuple(rewards.as_array() + cost.entry_cost)), cost
    if kind == "tie":
        return rewards.replace(2, rewards.top), cost
    scale = 0.9 * cost.entry_cost / rewards.top
    return RewardVector(tuple(rewards.as_array() * scale)), cost


def _single_row(sol, name):
    """One quality integral alone: its value and error estimate, or the
    QuadratureError it raises."""
    try:
        values, errors = metrics._quality_integral(sol, (name,), "grid", 64, 8, 1e-9)
    except QuadratureError as exc:
        return exc
    return float(values[0]), float(errors[0])


class TestSharedEvaluation:
    """contest_metrics shares one tail vector and one quadrature pass;
    every number must stay exactly what the single-purpose functions
    return."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 200),
        kind=st.sampled_from(["drawn", "full", "tie", "no_entry"]),
    )
    def test_bundle_equals_single_functions(self, seed, n, kind):
        rewards, cost = _kind_instance(np.random.default_rng(seed), n, kind)
        sol = solve(rewards, cost)
        if kind == "full":
            assert sol.regime == "full"
        if kind == "no_entry":
            assert sol.regime == "no_entry"
        rows = [_single_row(sol, name) for name in ("max", "avg")]
        failures = [row for row in rows if isinstance(row, QuadratureError)]
        if failures:
            with pytest.raises(QuadratureError) as info:
                contest_metrics(sol)
            assert str(info.value) == str(failures[0])
            assert info.value.estimate == failures[0].estimate
            return
        report = contest_metrics(sol)
        assert report.budget == expected_budget(sol)
        assert report.rank_prob == tuple(
            rank_probability(sol, k) for k in range(1, sol.n + 1)
        )
        assert report.eq_max == expected_max_quality(sol) == rows[0][0]
        assert report.eq_avg == expected_avg_quality(sol) == rows[1][0]
        assert report.eq_total == sol.n * expected_avg_quality(sol)
        assert report.quadrature_error_estimate == max(rows[0][1], rows[1][1])

    def test_one_tail_vector_and_one_inversion_per_level(self, monkeypatch):
        tails = []
        pressures = []
        tail_vector = binom.tail_vector
        pressure = EquilibriumSolution.pressure

        def counting_tail_vector(m, x):
            tails.append(m)
            return tail_vector(m, x)

        def counting_pressure(sol, q):
            pressures.append(np.size(q))
            return pressure(sol, q)

        for module in (binom, metrics):
            monkeypatch.setattr(module, "tail_vector", counting_tail_vector)
        monkeypatch.setattr(EquilibriumSolution, "pressure", counting_pressure)

        def levels(call):
            pressures.clear()
            call()
            return len(pressures)

        rng = np.random.default_rng(3)
        uneven = 0
        for _ in range(40):
            rewards, cost = random_instance(rng, n_max=40)
            sol = solve(rewards, cost)
            try:
                max_levels = levels(lambda: expected_max_quality(sol))
                avg_levels = levels(lambda: expected_avg_quality(sol))
            except QuadratureError:
                continue
            tails.clear()
            assert levels(lambda: contest_metrics(sol)) == max(max_levels, avg_levels)
            assert tails == [sol.n]
            uneven += max_levels != avg_levels
        # some instances refine one integral further than the other
        assert uneven > 0


class TestRowQuadrature:
    """quadrature.integrate on an integrand with several rows."""

    TOL = 1e-12

    @staticmethod
    def kink(x):
        return np.abs(x - 1.0 / 3.0) ** 2.5

    @staticmethod
    def step(x):
        return (x > 1.0 / 3.0) * 1.0

    def single(self, g):
        calls = []

        def f(x):
            calls.append(x.size)
            return g(x)

        return integrate(f, 0.0, 1.0, tol=self.TOL), len(calls)

    def test_each_row_equals_the_row_alone(self):
        (exp_value, exp_err), exp_levels = self.single(np.exp)
        (kink_value, kink_err), kink_levels = self.single(self.kink)
        assert exp_levels < kink_levels
        for order in ((np.exp, self.kink), (self.kink, np.exp)):
            values, errors = integrate(
                lambda x: np.stack([g(x) for g in order]), 0.0, 1.0, tol=self.TOL
            )
            got = dict(zip(order, zip(values, errors)))
            assert got[np.exp] == (exp_value, exp_err)
            assert got[self.kink] == (kink_value, kink_err)

    def test_any_failing_row_raises(self):
        with pytest.raises(QuadratureError) as alone:
            integrate(self.step, 0.0, 1.0, tol=self.TOL)
        with pytest.raises(QuadratureError) as alone_sqrt:
            integrate(np.sqrt, 0.0, 1.0, tol=self.TOL)
        for rows, first in (
            ((np.exp, self.step), alone),
            ((self.step, np.exp), alone),
            ((np.sqrt, self.step), alone_sqrt),
        ):
            with pytest.raises(QuadratureError) as info:
                integrate(lambda x: np.stack([g(x) for g in rows]), 0.0, 1.0, tol=self.TOL)
            assert info.value.estimate == first.value.estimate
            assert str(info.value) == str(first.value)
