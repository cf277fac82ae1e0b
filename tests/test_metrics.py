import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import stats

import rankcontest
from rankcontest import binom, metrics, quadrature
from rankcontest import (
    DomainError,
    ExponentialCost,
    LinearCost,
    QuadraticPlusCost,
    QuadratureError,
    RewardVector,
    benefit_slope,
    binomial_tail,
    budget_matched_derivative,
    contest_metrics,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    rank_probability,
    slope_bound_gap,
    solve,
)
from rankcontest.equilibrium import EquilibriumSolution
from rankcontest.mechanism import MAX_AGENTS
from rankcontest.quadrature import integrate
from conftest import (
    GOLDEN_COST,
    kind_instance,
    levelwise_integrate,
    pmf_matrix,
    random_instance,
    rank_mass_at,
    substitution_quality,
)


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

    def test_refuses_more_trials_than_ranks_supported(self, monkeypatch):
        # past the limit the kernel's start mass 2**-n underflows (the
        # tail of 1.0 here would read 0.0), so the check comes before
        # any mass is built
        assert binomial_tail(MAX_AGENTS, 1, 0.5) == pytest.approx(1.0)

        def unreachable(m, x):
            raise AssertionError("tail_vector called")

        monkeypatch.setattr(metrics, "tail_vector", unreachable)
        with pytest.raises(DomainError, match="at most 1000 ranks"):
            binomial_tail(1075, 1, 0.5)


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

    def test_refuses_more_trials_than_ranks_supported(self, monkeypatch):
        # past the limit the tail underflows (the gap of 2998.0 here
        # would read 2999.0)
        assert slope_bound_gap(MAX_AGENTS, 2, 0.5) == pytest.approx(998.0)

        def unreachable(m, x):
            raise AssertionError("tail_vector called")

        monkeypatch.setattr(metrics, "tail_vector", unreachable)
        with pytest.raises(DomainError, match="at most 1000 ranks"):
            slope_bound_gap(3000, 2, 0.5)


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

    def test_unknown_method_refused(self):
        # also where nobody enters and the integrals are zero
        for prizes in ((1.0, 0.0), (0.2, 0.0)):
            sol = solve(RewardVector(prizes), GOLDEN_COST)
            for quality in (expected_max_quality, expected_avg_quality):
                with pytest.raises(DomainError, match="unknown method 'bogus'"):
                    quality(sol, method="bogus")

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
        assert rank_mass_at(golden_interior, 1, golden_interior.qbar) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_top_quality_never_last(self, golden_interior):
        assert rank_mass_at(golden_interior, 2, golden_interior.qbar) == (
            pytest.approx(0.0, abs=1e-9)
        )

    def test_even_pressure_point(self, golden_interior):
        # x(q) = 0.75 - q, so x(0.25) = 0.5
        assert rank_mass_at(golden_interior, 2, 0.25) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_matches_oracle_mass(self):
        # the kernel's walk multiplies the same factors as the oracle's
        # in another order, so masses agree to a few roundings per step
        rng = np.random.default_rng(43)
        for _ in range(30):
            rewards, cost = random_instance(rng, n_max=200)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            q = np.linspace(0.0, sol.qbar, 17)
            masses = pmf_matrix(sol.n - 1, sol.pressure(q))
            for k in {1, 2, (sol.n + 1) // 2, sol.n}:
                got = rank_mass_at(sol, k, q)
                assert np.max(np.abs(got - masses[k - 1])) <= 8.0 * sol.n * np.finfo(float).eps
                assert rank_mass_at(sol, k, float(q[5])) == got[5]

    def test_rank_out_of_range(self, golden_interior):
        for k in (0, 3):
            with pytest.raises(DomainError, match=r"rank must be in 1\.\.2"):
                rank_probability(golden_interior, k)

    def test_pointwise_rank_odds_removed(self):
        # rank_probability_at had no caller; its formula is the conftest
        # oracle rank_mass_at
        assert not hasattr(rankcontest, "rank_probability_at")
        assert "rank_probability_at" not in rankcontest.__all__
        assert not hasattr(metrics, "rank_probability_at")

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
                    return rank_mass_at(sol, k, q) * weight

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


KINDS = ("drawn", "full", "tie", "last_tie", "no_entry")


def _single_row(sol, name):
    """One quality integral alone: its value and error estimate, or the
    QuadratureError it raises."""
    try:
        values, errors = metrics._quality_integral(sol, (name,), "grid")
    except QuadratureError as exc:
        return exc
    return float(values[0]), float(errors[0])


def _linear_closed_forms(sol):
    """(E[max], E[avg]) of a contest with cost c0 + s q in closed form.

    q(x) = (benefit(x) - c0 - shift) / s, so by parts over [0, p]
    E[avg] = (B/n - (c0+shift) p) / s, with B the expected budget, and
    E[max] = (sum_k a_k M_k - (c0+shift) (1 - (1-p)**n)) / s, where
    M_k = n C(n-1, k-1) T_k(p) / ((2n-1) C(2n-2, k-1)) integrates
    b_k(x) n (1-x)**(n-1) and T_k is the Binomial(2n-1, p) tail at k.
    The tails come from scipy, independent of the library's kernel.
    """
    n, p, cost = sol.n, sol.p, sol.cost
    a = sol.rewards.as_array()
    k = np.arange(1, n + 1)
    ratio = np.array([math.comb(n - 1, j - 1) / math.comb(2 * n - 2, j - 1) for j in k])
    moments = n * ratio * stats.binom.sf(k - 1, 2 * n - 1, p) / (2 * n - 1)
    budget = a @ stats.binom.sf(k - 1, n, p)
    floor = cost.c0 + sol.shift
    eq_max = (a @ moments - floor * (1.0 - (1.0 - p) ** n)) / cost.slope
    eq_avg = (budget / n - floor * p) / cost.slope
    return eq_max, eq_avg


class TestPressureRoute:
    """The pressure-space route integrates q(x) n (1-x)**(n-1) and q(x)
    over [0, p]: one kernel pass and one cost inverse per integrand
    call, and no benefit slope or cost derivative."""

    def test_agrees_with_substitution_oracle(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for i in range(100):
            sol = solve(*kind_instance(rng, int(rng.integers(2, 41)), KINDS[i % 5]))
            got = (
                expected_max_quality(sol, method="substitution"),
                expected_avg_quality(sol, method="substitution"),
            )
            worst = max(worst, *np.abs(np.subtract(got, substitution_quality(sol))))
        assert worst <= 1e-12

    def test_linear_closed_forms(self):
        # contest_metrics takes the grid route on the drawn and full
        # contests and the pressure-space route on the ties; the
        # pressure-space route is also checked on every contest
        rng = np.random.default_rng(67)
        regimes, stalled = set(), 0
        for i in range(150):
            cost = LinearCost(c0=rng.uniform(0.05, 0.6), slope=rng.uniform(0.5, 2.0))
            sol = solve(*kind_instance(rng, int(rng.integers(2, 41)), KINDS[i % 5], cost))
            closed = _linear_closed_forms(sol)
            pressure_route = (
                expected_max_quality(sol, method="substitution"),
                expected_avg_quality(sol, method="substitution"),
            )
            assert np.all(np.abs(np.subtract(pressure_route, closed)) <= 1e-9)
            try:
                report = contest_metrics(sol)
            except QuadratureError:
                # the grid route's known stall on nearly tied top prizes
                # (ROADMAP Direction 3): two of these draws
                prizes = sol.rewards.prizes
                assert prizes[0] - prizes[1] <= 1e-3 * prizes[0]
                stalled += 1
                continue
            assert np.all(np.abs(np.subtract((report.eq_max, report.eq_avg), closed)) <= 1e-9)
            regimes.add(sol.regime)
        assert regimes == {"interior", "full", "no_entry"}
        assert stalled == 2

    def test_one_kernel_pass_per_integrand_call(self, kernel_work, monkeypatch):
        # an integral that stops at level L (counted on the level-by-level
        # oracle) makes L - 1 integrand calls, each one pass of one row
        def counted(route, sizes):
            def wrapped(f, a, b):
                def g(x):
                    sizes.append(x.size)
                    return f(x)

                return route(g, a, b)

            return wrapped

        rng = np.random.default_rng(5)
        for i in range(12):
            sol = solve(*kind_instance(rng, int(rng.integers(3, 61)), ("tie", "last_tie")[i % 2]))
            levels, sizes = [], []
            monkeypatch.setattr(metrics, "integrate", counted(levelwise_integrate, levels))
            contest_metrics(sol)
            monkeypatch.setattr(metrics, "integrate", counted(integrate, sizes))
            kernel_work.reset()
            contest_metrics(sol)
            assert len(sizes) == len(levels) - 1
            assert kernel_work.calls == len(sizes)
            assert kernel_work.units == (sol.n - 1) * sum(sizes)

    def test_metrics_needs_no_slope_or_cost_derivative(self):
        source = inspect.getsource(metrics)
        assert "benefit_slope" not in source
        assert ".derivative(" not in source


def _curved_closed_forms(n, A, c0, s):
    """(p, budget, E[max], E[avg]) of the contest a_{i+1} = A (1 - i/m)**2,
    m = n - 1, with cost c0 + s q and 0 < c0 < A.

    The Bernstein operator maps t**2 to x**2 + x (1-x) / m (Lorentz,
    Bernstein Polynomials, 1953), so the benefit is A (1-x)**2 + A x (1-x)
    / m, and in u = 1 - x it is A ((1 - 1/m) u**2 + u / m).  Entry solves
    benefit = c0 (with r = c0 / A, the stable root below); the budget is
    n times I, the benefit integrated over [0, p]; q = (benefit - c0) / s
    integrates to E[avg], and against n u**(n-1) to E[max].  Each 1 - u**k
    is taken as -expm1(k log u).  Checked against mpmath sums and
    quadrature at 40 digits for n from 2 to 1000: within 4.1e-16.
    """
    m = n - 1
    r = c0 / A
    u = 2.0 * r / (1.0 / m + math.sqrt(1.0 / m**2 + 4.0 * (1.0 - 1.0 / m) * r))
    log_u = math.log(u)

    def rest(k):
        return -math.expm1(k * log_u)  # 1 - u**k

    p = 1.0 - u
    integral = A * ((1.0 - 1.0 / m) * rest(3) / 3.0 + rest(2) / (2.0 * m))
    eq_max = (n / s) * (
        A * (1.0 - 1.0 / m) * rest(n + 2) / (n + 2)
        + A * rest(n + 1) / (m * (n + 1))
        - c0 * rest(n) / n
    )
    return p, n * integral, eq_max, (integral - c0 * p) / s


class TestCurvedClosedForms:
    """Exact references at every n, for prizes falling as the square of
    the rank's share and a linear cost, and the two quality routes
    against each other on every cost family."""

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 200, MAX_AGENTS])
    def test_matches_exact_references(self, n):
        # (A, c0, slope) with c0 / A at 0.1, 0.25 and 0.5; the worst error,
        # 9.1e-14, is the budget at n = 1000 and c0 / A = 0.5.  p's error
        # is the benefit's rounding (O(m) ulps) over p |benefit'(p)|, so
        # it grows as c0 / A nears 1 and p shrinks: at n = 1000 a ratio of
        # 0.6 gives 1.3e-13 and one of 0.9 gives 3.2e-13
        for A, c0, slope in [(5.0, 0.5, 2.0), (1.0, 0.25, 1.0), (2.0, 1.0, 0.5)]:
            prizes = tuple(A * (1.0 - i / (n - 1)) ** 2 for i in range(n))
            sol = solve(RewardVector(prizes), LinearCost(c0=c0, slope=slope))
            got = (
                sol.p,
                expected_budget(sol),
                expected_max_quality(sol),
                expected_avg_quality(sol),
            )
            want = _curved_closed_forms(n, A, c0, slope)
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("n", [3, 10, 50, 200, MAX_AGENTS])
    def test_pressure_route_matches_grid_route(self, n):
        # the grid route is within 1.6e-13 of the exact references on
        # these contests for every family; on quad costs with a small
        # linear term q has a square-root layer at x = p, which cost the
        # pressure-space route 2.6e-10 before it ran in t, x = p (1 - t**2)
        families = [
            (1.0, LinearCost(c0=0.25, slope=1.0)),
            (2.0, ExponentialCost(k=1.0)),
            (1.0, QuadraticPlusCost(c0=0.1, a=0.01, b=2.0)),
        ]
        for A, cost in families:
            prizes = tuple(A * (1.0 - i / (n - 1)) ** 2 for i in range(n))
            sol = solve(RewardVector(prizes), cost)
            for statistic in (expected_max_quality, expected_avg_quality):
                grid = statistic(sol)
                assert abs(statistic(sol, method="substitution") - grid) <= 1e-12 * grid


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
        rewards, cost = kind_instance(np.random.default_rng(seed), n, kind)
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

    def test_one_tail_vector_and_one_inversion_for_the_first_two_levels(self, monkeypatch):
        # an integral that stops at level L (counted on the level-by-level
        # oracle) inverts the first two levels' 3 * 64 * 8 points in one
        # pressure call and each later level's in one more: L - 1 calls
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

        def calls(call, route=integrate):
            monkeypatch.setattr(metrics, "integrate", route)
            pressures.clear()
            call()
            return list(pressures)

        def sizes(levels):
            return [3 * 64 * 8] + [64 * 8 * 2**level for level in range(2, levels)]

        rng = np.random.default_rng(3)
        uneven = 0
        for _ in range(40):
            rewards, cost = random_instance(rng, n_max=40)
            sol = solve(rewards, cost)
            try:
                max_levels = len(calls(lambda: expected_max_quality(sol), levelwise_integrate))
                avg_levels = len(calls(lambda: expected_avg_quality(sol), levelwise_integrate))
            except QuadratureError:
                continue
            assert calls(lambda: expected_max_quality(sol)) == sizes(max_levels)
            assert calls(lambda: expected_avg_quality(sol)) == sizes(avg_levels)
            tails.clear()
            assert calls(lambda: contest_metrics(sol)) == sizes(max(max_levels, avg_levels))
            assert tails == [sol.n]
            uneven += max_levels != avg_levels
        # some instances refine one integral further than the other
        assert uneven > 0


class TestRowQuadrature:
    """quadrature.integrate on an integrand with several rows."""

    @staticmethod
    def kink(x):
        # three calls, of 1,536, 2,048 and 4,096 points; exp stops after one
        return np.abs(x - 1.0 / 3.0) ** 1.5

    @staticmethod
    def step(x):
        return (x > 1.0 / 3.0) * 1.0

    def single(self, g):
        calls = []

        def f(x):
            calls.append(x.size)
            return g(x)

        return integrate(f, 0.0, 1.0), len(calls)

    def test_each_row_equals_the_row_alone(self):
        (exp_value, exp_err), exp_levels = self.single(np.exp)
        (kink_value, kink_err), kink_levels = self.single(self.kink)
        assert exp_levels < kink_levels
        for order in ((np.exp, self.kink), (self.kink, np.exp)):
            values, errors = integrate(lambda x: np.stack([g(x) for g in order]), 0.0, 1.0)
            got = dict(zip(order, zip(values, errors)))
            assert got[np.exp] == (exp_value, exp_err)
            assert got[self.kink] == (kink_value, kink_err)

    def test_any_failing_row_raises(self):
        with pytest.raises(QuadratureError) as alone:
            integrate(self.step, 0.0, 1.0)
        with pytest.raises(QuadratureError) as alone_sqrt:
            integrate(np.sqrt, 0.0, 1.0)
        for rows, first in (
            ((np.exp, self.step), alone),
            ((self.step, np.exp), alone),
            ((np.sqrt, self.step), alone_sqrt),
        ):
            with pytest.raises(QuadratureError) as info:
                integrate(lambda x: np.stack([g(x) for g in rows]), 0.0, 1.0)
            assert info.value.estimate == first.value.estimate
            assert str(info.value) == str(first.value)


def test_rule_table_is_gauss_legendre():
    z, w = np.polynomial.legendre.leggauss(quadrature._NODES)
    assert np.array_equal(quadrature._Z, z)
    assert np.array_equal(quadrature._W, w)


def test_no_entry_point_takes_a_quadrature_rule():
    """The rule is fixed inside ``quadrature``; nothing public sets it."""
    callables = [getattr(rankcontest, name) for name in rankcontest.__all__]
    for obj in [*filter(callable, callables), integrate]:
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # the exception classes, which take no keywords
            continue
        assert not {"panels", "nodes", "tol"} & set(parameters), obj


class TestLevelwiseOracle:
    """``integrate`` evaluates its first two levels in one integrand call;
    the level-by-level route it replaced (conftest's
    ``levelwise_integrate``) must give the same value, estimate and
    failure to the bit."""

    @staticmethod
    def outcome(call):
        try:
            return call()
        except QuadratureError as error:
            return str(error), error.estimate

    def routes(self, monkeypatch, module, call):
        """``call``'s outcome with ``module`` on each route."""
        got = self.outcome(call)
        monkeypatch.setattr(module, "integrate", levelwise_integrate)
        want = self.outcome(call)
        monkeypatch.setattr(module, "integrate", integrate)
        return got, want

    def test_row_integrands(self):
        quad = TestRowQuadrature
        singles = [(g,) for g in (np.exp, quad.kink, quad.step, np.sqrt)]
        stacks = [(np.exp, quad.kink), (quad.kink, np.exp), (np.exp, quad.step)]
        for rows in singles + stacks:
            def f(x, rows=rows):
                return rows[0](x) if len(rows) == 1 else np.stack([g(x) for g in rows])

            got, want = (
                self.outcome(lambda: route(f, 0.0, 1.0))
                for route in (integrate, levelwise_integrate)
            )
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_contest_metrics(self, monkeypatch):
        rng = np.random.default_rng(3)
        for _ in range(40):
            rewards, cost = random_instance(rng, n_max=200)
            sol = solve(rewards, cost)
            got, want = self.routes(monkeypatch, metrics, lambda: contest_metrics(sol))
            assert got == want

    def test_budget_matched_derivative(self, monkeypatch):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rewards, cost = random_instance(rng)
            rank = int(rng.integers(2, rewards.n + 1))
            got, want = self.routes(
                monkeypatch, metrics, lambda: budget_matched_derivative(rewards, cost, rank)
            )
            assert got == want

    def test_nearly_tied_top_prizes_still_raise(self, monkeypatch):
        sol = solve(RewardVector((1.0, 0.999, 0.0)), GOLDEN_COST)
        got, want = self.routes(monkeypatch, metrics, lambda: contest_metrics(sol))
        assert got == want
        assert "did not reach" in got[0]
