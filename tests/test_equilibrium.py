import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rankcontest
from rankcontest import (
    DomainError,
    LinearCost,
    RewardVector,
    StateError,
    benefit_slope,
    contest_metrics,
    expected_benefit,
    solve,
)
from rankcontest import metrics
from rankcontest.binom import _WALK
from rankcontest.costs import CostModel
from rankcontest.quadrature import integrate
from conftest import GOLDEN_COST, invert_benefit, random_cost, random_instance, random_rewards


class TestBenefit:
    def test_endpoints(self):
        rv = RewardVector((2.0, 0.7, 0.3, 0.1))
        assert expected_benefit(0.0, rv) == 2.0
        assert expected_benefit(1.0, rv) == 0.1

    def test_n2_closed_form(self):
        rv = RewardVector((1.0, 0.0))
        assert expected_benefit(0.75, rv) == pytest.approx(0.25)
        grid = np.linspace(0, 1, 17)
        assert np.allclose(expected_benefit(grid, rv), 1 - grid)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 200)
        for _ in range(20):
            rv = random_rewards(rng, int(rng.integers(2, 9)), GOLDEN_COST)
            values = expected_benefit(grid, rv)
            assert np.all(np.diff(values) < 0)

    def test_domain(self):
        rv = RewardVector((1.0, 0.0))
        for x in (-0.2, 1.2):
            with pytest.raises(DomainError, match=r"competitor pressure must lie in \[0, 1\]$"):
                expected_benefit(x, rv)


class TestBenefitSlope:
    def test_n2_constant(self):
        rv = RewardVector((1.0, 0.0))
        for x in (0.0, 0.4, 1.0):
            assert benefit_slope(x, rv) == pytest.approx(-1.0)

    def test_flat_top_at_zero(self):
        assert benefit_slope(0.0, RewardVector((1.0, 1.0, 0.0))) == pytest.approx(0.0)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(25):
            rv = random_rewards(rng, 5, GOLDEN_COST)
            x = rng.uniform(0.05, 0.95)
            fd = (expected_benefit(x + h, rv) - expected_benefit(x - h, rv)) / (2 * h)
            assert benefit_slope(x, rv) == pytest.approx(fd, abs=1e-6)

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0, 1, 101)
        for _ in range(20):
            rv = random_rewards(rng, int(rng.integers(2, 9)), GOLDEN_COST)
            assert np.all(benefit_slope(grid, rv) <= 0)


class TestParticipation:
    def test_golden_interior(self):
        assert solve(RewardVector((1.0, 0.0)), GOLDEN_COST).p == (
            pytest.approx(0.75, abs=1e-10)
        )

    def test_full_when_last_prize_covers_entry(self):
        assert solve(RewardVector((1.0, 0.5)), GOLDEN_COST).p == 1.0

    def test_no_entry_when_top_prize_below_entry(self):
        assert solve(RewardVector((0.2, 0.0)), GOLDEN_COST).p == 0.0

    def test_root_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rewards, cost = random_instance(rng)
            p = solve(rewards, cost).p
            if 0.0 < p < 1.0:
                residual = expected_benefit(p, rewards) - cost.entry_cost
                assert abs(residual) <= 1e-10

    @pytest.mark.parametrize("n_max", [10, 200, 1000])
    def test_agrees_with_pressure_inversion(self, n_max):
        # the scalar root find and the vectorized pressure inversion
        # solve the same equation benefit(p) = c(0) on [0, 1]
        rng = np.random.default_rng(n_max)
        for _ in range(40):
            n = int(rng.integers(2, n_max + 1))
            cost = random_cost(rng)
            rewards = random_rewards(rng, n, cost, full_share=0.0)
            c0 = cost.entry_cost
            batch = invert_benefit(np.array([c0]), rewards, 1.0)[0]
            assert abs(solve(rewards, cost).p - batch) <= 1e-12

    def test_regime_decided_only_by_solve(self):
        # each was one field of solve(...); the copies had drifted, and
        # answered for contests solve refuses
        for name in ("participation_probability", "support_endpoint", "payoff_shift"):
            assert not hasattr(rankcontest, name)
            assert name not in rankcontest.__all__
            assert not hasattr(rankcontest.equilibrium, name)


class TestSupportEndpoint:
    def test_golden(self):
        assert solve(RewardVector((1.0, 0.0)), GOLDEN_COST).qbar == (
            pytest.approx(0.75)
        )

    def test_full_regime_shifted(self):
        assert solve(RewardVector((1.0, 0.5)), GOLDEN_COST).qbar == (
            pytest.approx(0.5)
        )

    def test_degenerate_support(self):
        eps = 1e-9
        rv = RewardVector((0.25 + eps, 0.0))
        assert solve(rv, GOLDEN_COST).qbar == pytest.approx(0.0, abs=1e-8)


class TestSolvedCdf:
    def test_golden_interior_cdf(self, golden_interior):
        assert golden_interior.cdf(0.3) == pytest.approx(0.4, abs=1e-10)
        grid = np.linspace(0, 0.75, 41)
        assert np.max(np.abs(golden_interior.cdf(grid) - grid / 0.75)) <= 1e-10

    def test_golden_full_cdf(self, golden_full):
        assert golden_full.cdf(0.25) == pytest.approx(0.5, abs=1e-10)
        grid = np.linspace(0, 0.5, 41)
        assert np.max(np.abs(golden_full.cdf(grid) - 2 * grid)) <= 1e-10

    def test_endpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            assert sol.cdf(0.0) == pytest.approx(0.0, abs=1e-9)
            assert sol.cdf(sol.qbar) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_on_grids(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            grid = np.linspace(0, sol.qbar, 300)
            assert np.all(np.diff(sol.cdf(grid)) >= -1e-12)

    def test_continuity_proxy(self):
        # increments bounded by the local slope c'/(p*|dU/dx|) on each cell
        rng = np.random.default_rng(9)
        for _ in range(15):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            grid = np.linspace(0.0, sol.qbar, 400)
            cdf = sol.cdf(grid)
            x = sol.pressure(grid)
            slope = np.abs(benefit_slope(x, sol.rewards))
            with np.errstate(divide="ignore"):
                local = cost.derivative(grid) / (sol.p * slope)
            cell = np.maximum(local[:-1], local[1:])
            dq = np.diff(grid)
            assert np.all(np.diff(cdf) <= 1.05 * cell * dq + 1e-9)

    def test_domain_and_state_errors(self, golden_interior):
        for q in (0.76, -0.01):
            with pytest.raises(DomainError, match=r"quality must lie in \[0, 0\.75\]$"):
                golden_interior.cdf(q)
        no_entry = solve(RewardVector((0.2, 0.0)), GOLDEN_COST)
        with pytest.raises(StateError):
            no_entry.cdf(0.0)
        with pytest.raises(StateError):
            no_entry.quantile(0.5)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        # NaN passes every one-sided range comparison; each entry point
        # must refuse it rather than return a number for it
        sol = solve(RewardVector((1.0, 0.5, 0.0)), GOLDEN_COST)
        for call in (
            sol.pressure,
            sol.cdf,
            sol.quantile,
            sol.payoff_residual,
            lambda v: expected_benefit(v, sol.rewards),
            lambda v: benefit_slope(v, sol.rewards),
        ):
            with pytest.raises(DomainError):
                call(bad)
            with pytest.raises(DomainError):
                call(np.array([0.1, bad, 0.2]))


class TestRegimes:
    def test_regime_law(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            c0 = cost.entry_cost
            assert (sol.p == 1.0) == (rewards.last >= c0)
            assert (sol.regime == "no_entry") == (rewards.top <= c0)
            if sol.regime != "no_entry":
                want = rewards.top - max(rewards.last - c0, 0.0)
                assert cost.value(sol.qbar) == pytest.approx(want, abs=1e-8)

    def test_boundary_continuity(self):
        eps = 1e-8
        below = solve(RewardVector((1.0, 0.25 - eps)), GOLDEN_COST)
        above = solve(RewardVector((1.0, 0.25 + eps)), GOLDEN_COST)
        assert below.regime == "interior" and above.regime == "full"
        assert abs(below.p - above.p) <= 1e-6
        assert abs(below.qbar - above.qbar) <= 1e-6
        grid = np.linspace(0, min(below.qbar, above.qbar), 50)
        assert np.max(np.abs(below.cdf(grid) - above.cdf(grid))) <= 1e-6

    def test_negative_last_prize_with_free_entry_rejected(self):
        free = LinearCost(c0=0.0, slope=1.0)
        with pytest.raises(DomainError):
            solve(RewardVector((1.0, -0.1)), free)

    def test_arg_tol_removed(self, golden_interior):
        # it steered nothing, so neither solve nor the solution takes it
        with pytest.raises(TypeError):
            solve(RewardVector((1.0, 0.0)), GOLDEN_COST, arg_tol=1e-12)
        assert not hasattr(golden_interior, "arg_tol")


class TestIndifference:
    def test_residual_zero_on_support(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            grid = np.linspace(0, sol.qbar, 100)
            assert np.max(np.abs(sol.payoff_residual(grid))) <= 1e-6

    def test_deviation_above_support_is_losing(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            above = sol.qbar + np.array([1e-3, 0.1, 0.5])
            assert np.all(sol.payoff_residual(above) < 0)

    def test_residual_evaluates_the_cost_once(self, monkeypatch):
        # the inversion takes the targets c(q) + shift from the residual's
        # own cost evaluation, with the bits of benefit(pressure(q))
        # - c(q) - shift
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(30):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            q = np.linspace(0.0, sol.qbar, 129)
            inside = expected_benefit(sol.pressure(q), rewards) - cost.value(q) - sol.shift
            above = sol.qbar + 0.5
            want = np.append(inside, rewards.top - cost.value(above) - sol.shift)
            cases.append((sol, np.append(q, above), want))
        calls = []
        value = CostModel.value

        def counting_value(cost, q):
            calls.append(np.size(q))
            return value(cost, q)

        monkeypatch.setattr(CostModel, "value", counting_value)
        for sol, q, want in cases:
            calls.clear()
            assert np.array_equal(sol.payoff_residual(q), want)
            assert sol.payoff_residual(float(q[3])) == want[3]
            assert calls == [q.size, 1]

    def test_golden_examples(self, golden_interior):
        assert golden_interior.payoff_residual(0.0) == pytest.approx(0.0, abs=1e-10)
        assert golden_interior.payoff_residual(0.85) == pytest.approx(-0.1)

    def test_pure_profile_refutation(self):
        # a one-point quality profile never survives: nudging above the
        # common point wins the top prize outright and beats the tied
        # average payoff for an epsilon cost
        rng = np.random.default_rng(15)
        eps = 1e-4
        for _ in range(50):
            rewards, cost = random_instance(rng)
            q0 = rng.uniform(0.0, 2.0)
            tied = np.mean(rewards.prizes) - cost.value(q0)
            deviation = rewards.top - cost.value(q0 + eps)
            assert deviation > tied


class TestInverseSampling:
    def test_quantile_inverts_cdf(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            rewards, cost = random_instance(rng)
            sol = solve(rewards, cost)
            if sol.regime == "no_entry":
                continue
            levels = np.linspace(0, 1, 33)
            assert np.max(np.abs(sol.cdf(sol.quantile(levels)) - levels)) <= 1e-8

    def test_endpoints(self, golden_interior):
        assert golden_interior.quantile(0.0) == pytest.approx(0.0, abs=1e-10)
        assert golden_interior.quantile(1.0) == pytest.approx(0.75, abs=1e-10)

    def test_golden_value(self, golden_interior):
        assert golden_interior.quantile(0.4) == pytest.approx(0.3, abs=1e-10)


def work_contest(n):
    return random_rewards(np.random.default_rng(2), n, GOLDEN_COST, full_share=0.0)


class TestInversionWork:
    """Kernel work per inverted target, in units of rows x points x
    degree over m = n - 1: about 2 per Newton pass over a target, plus
    the starting table's share.  A target stops on the pass that takes
    a step inside its bracket which the curvature bound puts within
    half the stopping width of the root: benefit'' is m (m-1) times the
    Bernstein sum of the prizes' second differences, whose basis sums
    to 1, so |benefit''| / 2 <= m (m-1) max|d2 a| / 2.  On 1,024 equally
    spaced qualities at n = 3, 10, 50, 200 and 1000 that is 1.1, 2.0,
    2.8, 3.9 and 4.2 units per target (1.0, 1.0, 1.3, 1.9 and 2.0
    passes).  The counts are exact; each ceiling is the count at the
    time of writing.
    """

    @pytest.mark.parametrize(
        "n, points, ceiling",
        [
            # a linear start on a 17-node table of the benefit alone
            # takes 6.13, 7.21 and 7.10
            (10, 129, 3.52),
            (200, 129, 5.68),
            (1000, 1024, 4.23),
        ],
    )
    def test_pressure(self, kernel_work, n, points, ceiling):
        sol = solve(work_contest(n), GOLDEN_COST)
        q = np.linspace(0.0, sol.qbar, points)
        kernel_work.reset()
        sol.pressure(q)
        assert kernel_work.units / ((n - 1) * points) <= ceiling

    @pytest.mark.parametrize("n, ceiling", [(3, 5.0), (10, 8.9), (1000, 10.0)])
    def test_entry_probability(self, kernel_work, n, ceiling):
        # the single target needs no table: the scalar Newton iteration
        # starts at 1/2 and takes 5 steps here, each one two-row pass at
        # one point, about 2 units
        rewards = work_contest(n)
        assert rewards.last < GOLDEN_COST.entry_cost < rewards.top
        assert solve(rewards, GOLDEN_COST).regime == "interior"
        assert kernel_work.calls == 5
        assert kernel_work.units / (n - 1) <= ceiling

    @pytest.mark.parametrize("n", [3, 10])
    def test_quality_integrals(self, kernel_work, n):
        # both integrals of contest_metrics stop at the second level here,
        # and one pressure call inverts the nodes of both levels: the
        # table and one Newton pass, and at n = 10 a second pass over 4
        # of the 1,536 nodes
        sol = solve(work_contest(n), GOLDEN_COST)
        kernel_work.reset()
        contest_metrics(sol)
        assert kernel_work.calls == {3: 2, 10: 3}[n]

    @pytest.mark.parametrize("n, second", [(3, 0), (10, 2)])
    def test_equally_spaced_batch(self, kernel_work, n, second):
        # 1,024 equally spaced qualities: the two at the ends clamp, the
        # table and one Newton pass over the other 1,022 end all of them
        # at n = 3, and all but the 2 that start in the first cells near
        # x = 0 at n = 10, where the bound asks for a second pass
        sol = solve(work_contest(n), GOLDEN_COST)
        kernel_work.reset()
        sol.pressure(np.linspace(0.0, sol.qbar, 1024))
        assert kernel_work.calls == (3 if second else 2)
        assert kernel_work.units == 2 * (n - 2) * (128 + 1022 + second)

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_linear_benefit_needs_no_table(self, kernel_work, n):
        # equal prize steps make the benefit linear: its two ends give
        # every target's exact start, and each stops after one pass
        sol = solve(RewardVector(tuple(np.linspace(1.0, 0.0, n))), GOLDEN_COST)
        kernel_work.reset()
        sol.pressure(np.linspace(0.0, sol.qbar, 512))
        assert kernel_work.calls == 2
        assert kernel_work.units == 2 * (n - 2) * (2 + 510)


def table_work(n):
    """Kernel work of one pressure table: the two rows of the last de
    Casteljau step, degree n - 2, at _WALK nodes."""
    return 2 * (n - 2) * _WALK


class TestOneTablePerSolution:
    """A solution builds its pressure table on its first pressure query
    and keeps it: later queries pay only for their Newton passes, and
    every query gets the same bits whichever query built the table."""

    @pytest.mark.parametrize("query", ["pressure", "cdf", "payoff_residual"])
    @pytest.mark.parametrize("n", [3, 10, 200])
    def test_second_query_builds_no_table(self, kernel_work, query, n):
        sol = solve(work_contest(n), GOLDEN_COST)
        q = np.linspace(0.0, sol.qbar, 129)
        kernel_work.reset()
        first = getattr(sol, query)(q)
        calls, units = kernel_work.calls, kernel_work.units
        kernel_work.reset()
        assert np.array_equal(getattr(sol, query)(q), first)
        assert kernel_work.calls == calls - 1
        assert kernel_work.units == units - table_work(n)

    def test_contest_metrics_builds_one_table(self, kernel_work, monkeypatch):
        # at n = 200 the grid route stops at the fifth level: four
        # integrand calls, each a pressure query, and one table for all
        def counted(f, a, b):
            def g(x):
                sizes.append(x.size)
                return f(x)

            return integrate(g, a, b)

        n, sizes = 200, []
        monkeypatch.setattr(metrics, "integrate", counted)
        sol = solve(work_contest(n), GOLDEN_COST)
        kernel_work.reset()
        first = contest_metrics(sol)
        calls, units = kernel_work.calls, kernel_work.units
        assert sizes == [1536, 2048, 4096, 8192]
        kernel_work.reset()
        assert contest_metrics(sol) == first
        assert kernel_work.calls == calls - 1
        assert kernel_work.units == units - table_work(n)

    def test_replaced_solution_builds_its_own_table(self, kernel_work):
        # a shifted p is a new solution with a table on [0, p2]; the
        # benchmark's self-test relies on this to catch a shifted p
        rewards = work_contest(10)
        sol = solve(rewards, GOLDEN_COST)
        q = np.linspace(0.0, sol.qbar, 129)
        before = sol.pressure(q)
        p2 = 0.875 * sol.p
        shifted = dataclasses.replace(sol, p=p2)
        kernel_work.reset()
        moved = shifted.pressure(q)
        calls = kernel_work.calls
        kernel_work.reset()
        targets = np.asarray(GOLDEN_COST.value(q)) + sol.shift
        assert np.array_equal(moved, invert_benefit(targets, rewards, p2))
        assert kernel_work.calls == calls
        assert moved[0] == p2
        assert np.array_equal(sol.pressure(q), before)

    def test_threads_racing_on_first_query(self):
        # from Python 3.12 a first cached_property access takes no lock,
        # so the threads may each build the table; every build has the
        # same bits and queries only read it.  A short switch interval
        # interleaves the threads inside the build
        rewards = work_contest(200)
        serial = solve(rewards, GOLDEN_COST)
        q = np.linspace(0.0, serial.qbar, 1536)
        queries = ("pressure", "cdf", "payoff_residual")
        want = [getattr(serial, name)(q) for name in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = solve(rewards, GOLDEN_COST)
                barrier = threading.Barrier(4, timeout=60)

                def run(i):
                    barrier.wait()
                    # each thread starts on another query
                    order = queries[i % 3:] + queries[:i % 3]
                    return {name: getattr(shared, name)(q) for name in order}

                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(run, range(4), timeout=120))
                for got in results:
                    for name, values in zip(queries, want):
                        assert np.array_equal(got[name], values)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [10, 1000])
    def test_later_queries_do_not_depend_on_the_first(self, n):
        rng = np.random.default_rng(n)
        rewards = work_contest(n)
        one, many = solve(rewards, GOLDEN_COST), solve(rewards, GOLDEN_COST)
        q = rng.uniform(0.0, one.qbar, 1536)
        one.pressure(float(q[0]))
        many.pressure(q)
        later = np.concatenate((q[:129], rng.uniform(0.0, one.qbar, 129)))
        for name in ("pressure", "cdf", "payoff_residual"):
            assert np.array_equal(getattr(one, name)(later), getattr(many, name)(later))


@pytest.mark.parametrize("n", [3, 10, 200, 1000])
@pytest.mark.parametrize("power", [-30, 30])
def test_prize_scale_leaves_the_inversion_unchanged(n, power):
    # prizes and c0 times 2**power with the slope held scale the support
    # by 2**power and nothing else: every rounding scales exactly, and so
    # must every stop of the inversion
    rng = np.random.default_rng(n)
    scale = 2.0**power
    for _ in range(15):
        cost = LinearCost(c0=rng.uniform(0.05, 0.6), slope=rng.uniform(0.5, 2.0))
        rewards = random_rewards(rng, n, cost)
        sol = solve(rewards, cost)
        big = solve(
            RewardVector(tuple(rewards.as_array() * scale)),
            LinearCost(c0=cost.c0 * scale, slope=cost.slope),
        )
        q = np.linspace(0.0, sol.qbar, 129)
        assert big.p == sol.p and big.qbar == sol.qbar * scale
        assert np.array_equal(big.pressure(q * scale), sol.pressure(q))
        assert np.array_equal(big.cdf(q * scale), sol.cdf(q))
