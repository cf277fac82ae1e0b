import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rankcontest import (
    DomainError,
    ExponentialCost,
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
from rankcontest import montecarlo, winner_take_all
from rankcontest.montecarlo import MAX_AGENT_TRIALS, _rank_counts
from conftest import (
    GOLDEN_COST,
    deviation_oracle,
    opponent_qualities,
    random_cost,
    random_instance,
    run_oracle,
    unblocked_rank_counts,
    unblocked_run,
)


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

    def test_matches_oracle_byte_for_byte(self):
        # inverting only the entrants' draws changes no reported digit
        rng = np.random.default_rng(67)
        instances = [random_instance(rng, n_max=12) for _ in range(30)]
        instances.append((RewardVector((0.2, 0.0)), GOLDEN_COST))
        for rewards, cost in instances:
            sol = solve(rewards, cost)
            trials, seed = int(rng.integers(1, 3000)), int(rng.integers(2**31))
            assert json.dumps(run(sol, trials, seed).to_dict()) == json.dumps(
                run_oracle(sol, trials, seed).to_dict()
            )


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
        assert point.stderr == 0.0
        assert point.mean_payoff == golden_interior.rewards.top - GOLDEN_COST.value(0.95)
        assert point.mean_payoff < golden_interior.shift

    def test_single_rank_points_exact_in_full_regime(self):
        # everyone enters, so at q = 0 the deviator is last in every
        # trial and above the support first in every trial
        sol = solve(RewardVector((1.0, 0.6, 0.5)), GOLDEN_COST)
        low, high = deviation_check(sol, [0.0, sol.qbar + 0.1], 3000, seed=71)
        assert low.stderr == 0.0
        assert low.mean_payoff == sol.rewards.last - GOLDEN_COST.value(0.0)
        assert high.stderr == 0.0
        assert high.mean_payoff == sol.rewards.top - GOLDEN_COST.value(sol.qbar + 0.1)

    def test_ties_with_drawn_qualities_follow_tie_streams(self):
        sol = solve(RewardVector((1.0, 0.6, 0.3, 0.0)), GOLDEN_COST)
        drawn = opponent_qualities(sol, 500, seed=73)
        grid = np.concatenate((drawn[:6], [0.2, drawn[0]]))
        counts, curve = deviation_oracle(sol, grid, 500, seed=73)
        np.testing.assert_array_equal(_rank_counts(sol, grid, 500, seed=73), counts)
        got = deviation_check(sol, grid, 500, seed=73)
        for field in ("mean_payoff", "stderr"):
            np.testing.assert_allclose(
                [getattr(p, field) for p in got],
                [getattr(p, field) for p in curve],
                rtol=1e-12,
                atol=1e-15,
            )

    @pytest.mark.parametrize(
        "grid", [[np.nan], [0.1, np.inf], [[0.1, 0.2]], [0.1, -0.2]], ids=str
    )
    def test_bad_grid_refused_before_drawing(self, golden_interior, grid):
        # at the work cap, drawing the streams would take hundreds of MB
        trials = MAX_AGENT_TRIALS // golden_interior.n
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="deviation qualities"):
                deviation_check(golden_interior, grid, trials, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_overflowing_cost_refused(self):
        # exp(800) overflows: the curve would read NaN or -inf
        sol = solve(RewardVector((3.0, 0.0)), ExponentialCost(k=1.0))
        with pytest.raises(DomainError, match="finite cost"):
            deviation_check(sol, [0.5, 800.0], 100, seed=3)

    def test_deterministic(self, golden_interior):
        a = deviation_check(golden_interior, [0.2, 0.4], 3000, seed=61)
        b = deviation_check(golden_interior, [0.2, 0.4], 3000, seed=61)
        assert a == b


def _contest(seed, n, regime):
    """A random contest of ``n`` ranks in the named regime."""
    rng = np.random.default_rng(seed)
    cost = random_cost(rng)
    c0 = cost.entry_cost
    prizes = np.cumsum(rng.exponential(size=n)[::-1])[::-1]
    if regime == "no_entry":
        prizes *= c0 * rng.uniform(0.2, 1.0) / prizes[0]
    else:
        prizes *= c0 * rng.uniform(1.3, 4.0) / prizes[0]
        if regime == "full":
            prizes += c0
        else:
            prizes[-1] = min(prizes[-1], 0.5 * c0)
    sol = solve(RewardVector(tuple(prizes)), cost)
    assert sol.regime == regime
    return sol, rng


class TestDeviationAgainstOracle:
    """The rank-count route against ranking every trial at every point."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        trials=st.integers(1, 400),
        regime=st.sampled_from(["interior", "full", "no_entry"]),
    )
    def test_rank_counts_and_moments(self, seed, n, trials, regime):
        sol, rng = _contest(seed, n, regime)
        sim_seed = int(rng.integers(2**31))
        grid = np.linspace(0.0, 1.3 * sol.qbar + 0.1, int(rng.integers(1, 20)))
        drawn = opponent_qualities(sol, trials, sim_seed)
        if drawn.size:
            grid = np.concatenate((grid, rng.choice(drawn, size=min(4, drawn.size))))
        # zero, duplicates and a shuffled order
        grid = np.concatenate((grid, [0.0], rng.choice(grid, size=3)))
        rng.shuffle(grid)
        counts, curve = deviation_oracle(sol, grid, trials, sim_seed)
        np.testing.assert_array_equal(_rank_counts(sol, grid, trials, sim_seed), counts)
        prizes = sol.rewards.as_array()
        for point, want, ranks in zip(
            deviation_check(sol, grid, trials, sim_seed), curve, counts
        ):
            payoffs = prizes - sol.cost.value(point.q)
            if ranks.max() == trials:
                assert point.stderr == 0.0
                assert point.mean_payoff == payoffs[ranks.argmax()]
                continue
            # a mean near zero is a cancellation; it is judged on the
            # scale of the payoffs that make it up
            scale = np.max(np.abs(payoffs))
            assert abs(point.mean_payoff - want.mean_payoff) <= 1e-15 * scale
            assert abs(point.stderr - want.stderr) <= 1e-15 * want.stderr


def _hex(record: dict) -> dict:
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in record.items()}


class TestBlocksAgainstOracle:
    """Runs drawn and reduced block by block against the routes that held
    every trial at once: the same bits in every report."""

    @staticmethod
    def oracle_curve(monkeypatch, sol, grid, trials, seed):
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_rank_counts", unblocked_rank_counts)
            return deviation_check(sol, grid, trials, seed)

    @pytest.mark.parametrize("regime", ["interior", "full"])
    @pytest.mark.parametrize("n", [2, 3, 100, 200])
    def test_reports_match_unblocked(self, monkeypatch, n, regime):
        sol, rng = _contest(8 * n + len(regime), n, regime)
        seed = int(rng.integers(2**31))
        # two whole blocks of run and a part, which leaves deviation_check
        # (n-1 agents a trial) one whole block and a part
        trials = 2 * (montecarlo._BLOCK // n) + 7
        for agents in (n, n - 1):
            assert trials > montecarlo._BLOCK // agents
            assert trials % (montecarlo._BLOCK // agents)
        assert _hex(run(sol, trials, seed).to_dict()) == _hex(
            unblocked_run(sol, trials, seed).to_dict()
        )
        grid = np.linspace(0.0, 1.3 * sol.qbar + 0.1, 33)
        # a few drawn qualities, each tied in its own trial
        grid = np.concatenate((grid, rng.choice(opponent_qualities(sol, trials, seed), 4)))
        np.testing.assert_array_equal(
            _rank_counts(sol, grid, trials, seed), unblocked_rank_counts(sol, grid, trials, seed)
        )
        got = deviation_check(sol, grid, trials, seed)
        want = self.oracle_curve(monkeypatch, sol, grid, trials, seed)
        assert [_hex(p.to_dict()) for p in got] == [_hex(p.to_dict()) for p in want]

    def test_ties_redrawn_across_blocks(self, monkeypatch):
        # eight tied top prizes make the benefit flat to eighth order at
        # x = 0, so about one draw in two hundred inverts to qbar exactly
        sol = solve(RewardVector((1.0,) * 8 + (0.5, 0.0)), GOLDEN_COST)
        trials, seed = 70_000, 5
        drawn, times = np.unique(opponent_qualities(sol, trials, seed), return_counts=True)
        common = drawn[times.argmax()]
        blocks_tied = [
            bool((qualities == common).any())
            for _, qualities in montecarlo._opponent_blocks(sol, trials, seed)
        ]
        assert len(blocks_tied) > 2 and all(blocks_tied)
        grid = np.array([0.0, 0.5 * sol.qbar, common, sol.qbar, sol.qbar + 0.1])
        counts = _rank_counts(sol, grid, trials, seed)
        np.testing.assert_array_equal(counts, unblocked_rank_counts(sol, grid, trials, seed))
        got = deviation_check(sol, grid, trials, seed)
        want = self.oracle_curve(monkeypatch, sol, grid, trials, seed)
        assert [_hex(p.to_dict()) for p in got] == [_hex(p.to_dict()) for p in want]


class TestMemory:
    # a call holds one block of draws (at most montecarlo._BLOCK
    # agent-trials) with the quantile's O(points) Bernstein vectors for
    # its entrants, and three floats per trial; 1,000 trials of n = 100
    # are one block of 100,000 qualities, about 0.8 MB a vector, where a
    # mass matrix of every point would take 80 MB
    PEAK_MB = 20.0
    # the CLI default of 100,000 trials at n = 200 is 20,000,000
    # agent-trials, all of the work cap; held at once they took 173 MB
    CLI_DEFAULT_PEAK_MB = 32.0

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

    @pytest.fixture(scope="class")
    def wta_200(self):
        return solve(winner_take_all(200, 1.0), GOLDEN_COST)

    def test_run_peak_at_cli_default(self, wta_200):
        peak = self.peak_mb(lambda: run(wta_200, 100_000, seed=3))
        assert peak <= self.CLI_DEFAULT_PEAK_MB

    def test_deviation_check_peak_at_cli_default(self, wta_200):
        grid = np.linspace(0.0, wta_200.qbar + 0.25, 129)
        peak = self.peak_mb(lambda: deviation_check(wta_200, grid, 100_000, seed=3))
        assert peak <= self.CLI_DEFAULT_PEAK_MB

    @pytest.mark.parametrize(
        "prizes, trials",
        [((1.0, 0.6, 0.5), 16_666), (tuple(np.linspace(1.0, 0.0, 100)), 500)],
        ids=["n3-full", "n100-interior"],
    )
    def test_no_higher_than_oracle(self, prizes, trials):
        # the benchmark's heaviest simulator shapes: the routes that
        # invert only entrants and count ranks must not peak above the
        # ones that inverted every draw and ranked every trial
        sol = solve(RewardVector(prizes), GOLDEN_COST)
        grid = np.linspace(0.0, sol.qbar + 0.1, 129)
        assert self.peak_mb(lambda: run(sol, trials, seed=5)) <= self.peak_mb(
            lambda: run_oracle(sol, trials, seed=5)
        )
        assert self.peak_mb(
            lambda: deviation_check(sol, grid, trials, seed=5)
        ) <= self.peak_mb(lambda: deviation_oracle(sol, grid, trials, seed=5))


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
