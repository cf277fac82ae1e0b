import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rankcontest import (
    DomainError,
    LinearCost,
    RewardVector,
    StateError,
    deviation_check,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    play_round,
    run,
    solve,
    trial_streams,
)
from rankcontest.montecarlo import MAX_AGENT_TRIALS
from conftest import GOLDEN_COST


class TestSampleQuality:
    def test_endpoints(self, golden_interior):
        assert golden_interior.quantile(0.0) == pytest.approx(0.0, abs=1e-10)
        assert golden_interior.quantile(1.0) == pytest.approx(0.75, abs=1e-10)

    def test_golden_value(self, golden_interior):
        assert golden_interior.quantile(0.4) == pytest.approx(0.3, abs=1e-10)

    def test_no_entry_refused(self):
        sol = solve(RewardVector((0.2, 0.0)), GOLDEN_COST)
        with pytest.raises(StateError):
            sol.quantile(0.5)


class TestPlayRound:
    def test_full_regime_everyone_enters(self):
        sol = solve(RewardVector((1.0, 0.6, 0.5)), GOLDEN_COST)
        assert sol.p == 1.0
        for trial in range(20):
            out = play_round(sol, trial_streams(seed=3, trial=trial, n=3))
            assert len(out.entrants) == 3

    def test_no_entry_round_is_empty(self):
        sol = solve(RewardVector((0.2, 0.0)), GOLDEN_COST)
        out = play_round(sol, trial_streams(seed=3, trial=0, n=2))
        assert out.entrants == ()
        assert out.total_payout == 0.0
        assert out.max_quality == 0.0

    def test_best_entrant_gets_top_prize(self, golden_interior):
        for trial in range(50):
            out = play_round(golden_interior, trial_streams(seed=11, trial=trial, n=2))
            if not out.entrants:
                continue
            best = out.ranking[0]
            assert out.payments[best] == golden_interior.rewards.prizes[0]

    def test_batch_matches_round_replay(self, golden_interior):
        trials = 200
        report = run(golden_interior, trials, seed=17)
        maxes, avgs, payouts, counts = [], [], [], []
        for trial in range(trials):
            out = play_round(golden_interior, trial_streams(seed=17, trial=trial, n=2))
            maxes.append(out.max_quality)
            avgs.append(out.avg_quality)
            payouts.append(out.total_payout)
            counts.append(len(out.entrants))
        assert report.empirical_eq_max == pytest.approx(np.mean(maxes), abs=1e-12)
        assert report.empirical_eq_avg == pytest.approx(np.mean(avgs), abs=1e-12)
        assert report.empirical_payout == pytest.approx(np.mean(payouts), abs=1e-12)
        assert report.entrant_histogram == tuple(np.bincount(counts, minlength=3))


class TestRun:
    def test_deterministic_byte_identical(self, golden_interior):
        a = run(golden_interior, 5000, seed=23)
        b = run(golden_interior, 5000, seed=23)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_histogram_totals(self, golden_interior):
        report = run(golden_interior, 4000, seed=29)
        assert sum(report.entrant_histogram) == 4000

    def test_full_regime_payout_exact(self):
        sol = solve(RewardVector((1.0, 0.5)), GOLDEN_COST)
        report = run(sol, 2000, seed=31)
        assert report.entrant_histogram == (0, 0, 2000)
        assert report.empirical_payout == pytest.approx(1.5)
        assert report.payout_se == 0.0

    def test_agreement_with_analytics(self, golden_interior):
        report = run(golden_interior, 60000, seed=37)
        for value, se, want in [
            (report.empirical_eq_max, report.eq_max_se, expected_max_quality(golden_interior)),
            (report.empirical_eq_avg, report.eq_avg_se, expected_avg_quality(golden_interior)),
            (report.empirical_payout, report.payout_se, expected_budget(golden_interior)),
        ]:
            assert abs(value - want) <= 4 * se

    def test_entrants_binomial(self, golden_interior):
        report = run(golden_interior, 60000, seed=41)
        expected = [
            60000 * w for w in stats.binom.pmf(range(3), 2, golden_interior.p)
        ]
        gof = stats.chisquare(report.entrant_histogram, expected)
        assert gof.pvalue > 0.001

    def test_sampled_qualities_match_cdf(self, golden_interior):
        streams = trial_streams(seed=43, trial=0, n=1)
        draws = streams[1].random(20000)
        samples = golden_interior.quantile(draws)
        ks = stats.kstest(samples, golden_interior.cdf)
        assert ks.pvalue > 0.001

    def test_trials_required(self, golden_interior):
        with pytest.raises(DomainError):
            run(golden_interior, 0, seed=1)


class TestDeviationCheck:
    def test_flat_at_profit_level_on_support(self, golden_interior):
        grid = np.linspace(0.05, 0.7, 9)
        curve = deviation_check(golden_interior, grid, 40000, seed=47)
        for point in curve:
            assert abs(point.mean_payoff - golden_interior.shift) <= 4 * point.stderr

    def test_full_regime_level_is_last_prize_margin(self):
        sol = solve(RewardVector((1.0, 0.5)), GOLDEN_COST)
        curve = deviation_check(sol, [0.1, 0.3], 30000, seed=53)
        for point in curve:
            assert abs(point.mean_payoff - 0.25) <= 4 * point.stderr + 1e-12

    def test_decreasing_above_support(self, golden_interior):
        curve = deviation_check(golden_interior, [0.95], 2000, seed=59)
        point = curve[0]
        # above the support the payoff is deterministic: win, pay the cost
        assert point.stderr <= 1e-12
        assert point.mean_payoff == pytest.approx(1.0 - 1.2)
        assert point.mean_payoff < golden_interior.shift

    def test_deterministic(self, golden_interior):
        a = deviation_check(golden_interior, [0.2, 0.4], 3000, seed=61)
        b = deviation_check(golden_interior, [0.2, 0.4], 3000, seed=61)
        assert a == b


class TestMemory:
    # the quantile's Bernstein sum keeps O(points) floats: 1,000 trials
    # of n = 100 draw 100,000 qualities, about 0.8 MB a vector, where a
    # mass matrix of every point would take 80 MB
    PEAK_MB = 20.0

    @pytest.fixture(scope="class")
    def linear_100(self):
        prizes = RewardVector(tuple(np.linspace(1.0, 0.0, 100)))
        return solve(prizes, GOLDEN_COST)

    @staticmethod
    def peak_mb(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_run_peak(self, linear_100):
        assert self.peak_mb(lambda: run(linear_100, 1000, seed=3)) <= self.PEAK_MB

    def test_deviation_check_peak(self, linear_100):
        grid = np.linspace(0.0, linear_100.qbar, 9)
        peak = self.peak_mb(lambda: deviation_check(linear_100, grid, 1000, seed=3))
        assert peak <= self.PEAK_MB


class TestWorkCap:
    # the CLI default of 100,000 trials at n = 1000 asks for 1e8
    # agent-trials, several GB of draws; it must be refused before any
    # of them is made
    @pytest.fixture(scope="class")
    def linear_1000(self):
        prizes = RewardVector(tuple(np.linspace(1.0, 0.0, 1000)))
        return solve(prizes, GOLDEN_COST)

    def test_refused_before_allocating(self, linear_1000):
        assert 100_000 * linear_1000.n > MAX_AGENT_TRIALS
        for call in (
            lambda: run(linear_1000, 100_000, seed=3),
            lambda: deviation_check(linear_1000, [0.0, 0.1], 100_000, seed=3),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(DomainError, match="agent-trials"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_one_trial_over_the_cap_refused(self, golden_interior):
        trials = MAX_AGENT_TRIALS // golden_interior.n
        with pytest.raises(DomainError):
            run(golden_interior, trials + 1, seed=3)
        with pytest.raises(DomainError):
            deviation_check(golden_interior, [0.1], trials + 1, seed=3)
