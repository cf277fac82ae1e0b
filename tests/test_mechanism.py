import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rankcontest import (
    AttentionCaps,
    DomainError,
    LinearCost,
    MechanismError,
    RewardVector,
    attention_schedule,
    expected_budget,
    mechanism,
    solve,
    taxed_wta,
    winner_take_all,
)

COST = LinearCost(c0=0.25, slope=1.0)


def budget_oracle(prizes, p):
    """Expected payout from first principles: when j of n agents enter,
    the top j prizes are paid."""
    n = len(prizes)
    total = 0.0
    for j in range(1, n + 1):
        weight = math.comb(n, j) * p**j * (1 - p) ** (n - j)
        total += weight * sum(prizes[:j])
    return total


class TestValidate:
    def test_winner_take_all_shape_is_valid(self):
        rv = RewardVector((1.0, 0.0, 0.0))
        assert rv.prizes == (1.0, 0.0, 0.0)
        assert rv.nonnegative

    def test_all_equal_rejected(self):
        with pytest.raises(MechanismError) as err:
            RewardVector((1.0, 1.0, 1.0))
        assert err.value.clause == "strictness"

    def test_increasing_rejected(self):
        with pytest.raises(MechanismError) as err:
            RewardVector((0.5, 1.0, 0.0))
        assert err.value.clause == "monotonicity"

    def test_too_short_rejected(self):
        with pytest.raises(MechanismError) as err:
            RewardVector((1.0,))
        assert err.value.clause == "size"

    def test_negative_tail_allowed(self):
        rv = RewardVector((1.0, -0.05, -0.05))
        assert not rv.nonnegative

    def test_ties_inside_allowed(self):
        assert RewardVector((1.0, 1.0, 0.0)).n == 3


class TestWinnerTakeAll:
    def test_n2(self):
        assert winner_take_all(2, 1.0).prizes == (1.0, 0.0)

    def test_n5(self):
        assert winner_take_all(5, 2.0).prizes == (2.0, 0.0, 0.0, 0.0, 0.0)

    def test_zero_prize_rejected(self):
        with pytest.raises(MechanismError):
            winner_take_all(3, 0.0)

    def test_too_many_ranks_refused_before_building(self):
        # the size check comes before the (n-1)-tuple of zeros, 77.5 MB
        # at n = 5e6
        assert winner_take_all(mechanism.MAX_AGENTS, 1.0).n == mechanism.MAX_AGENTS
        tracemalloc.start()
        try:
            with pytest.raises(MechanismError, match="at most 1000 ranks"):
                winner_take_all(5_000_000, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAttentionSchedule:
    def test_entry_cost_binds(self):
        out = attention_schedule(AttentionCaps((1.0, 0.5, 0.4)), 0.3)
        assert out.prizes == (1.0, 0.5, 0.3)

    def test_cap_binds(self):
        out = attention_schedule(AttentionCaps((1.0, 0.5, 0.2)), 0.3)
        assert out.prizes == (1.0, 0.5, 0.2)

    def test_zero_entry_cost(self):
        out = attention_schedule(AttentionCaps((1.0, 0.5, 0.4)), 0.0)
        assert out.prizes == (1.0, 0.5, 0.0)

    def test_equal_caps_salvaged_by_last_rank(self):
        out = attention_schedule(AttentionCaps((1.0, 1.0, 1.0)), 0.5)
        assert out.prizes == (1.0, 1.0, 0.5)

    def test_degenerate_caps_rejected(self):
        with pytest.raises(MechanismError):
            attention_schedule(AttentionCaps((1.0, 1.0, 1.0)), 1.5)

    def test_caps_validation(self):
        with pytest.raises(DomainError):
            AttentionCaps((0.5, 1.0))
        with pytest.raises(DomainError):
            AttentionCaps((1.0, -0.1))

    def test_output_below_caps(self):
        caps = AttentionCaps((2.0, 1.5, 0.7, 0.1))
        out = attention_schedule(caps, 0.3)
        assert all(a <= c for a, c in zip(out.prizes, caps.caps))
        assert out.prizes[:-1] == caps.caps[:-1]


class TestTaxedWta:
    def test_zero_tax_is_plain_wta(self):
        assert taxed_wta(3, 1.0, 0.0, COST) == winner_take_all(3, 1.0)

    def test_budget_matched_example(self):
        vec = taxed_wta(3, 1.0, 0.05, COST)
        assert vec.prizes[1:] == (-0.05, -0.05)
        assert vec.top > 1.0
        base = solve(winner_take_all(3, 1.0), COST)
        taxed = solve(vec, COST)
        assert abs(expected_budget(taxed) - expected_budget(base)) <= 1e-8
        # re-derive the payout from first principles at the solved p
        assert expected_budget(taxed) == pytest.approx(
            budget_oracle(vec.prizes, taxed.p), abs=1e-10
        )

    def test_top_prize_increases_with_tax(self):
        taxes = [0.0, 0.01, 0.03, 0.06, 0.1]
        tops = [taxed_wta(3, 1.0, t, COST).top for t in taxes]
        assert np.all(np.diff(tops) > 0)

    def test_requires_entry_cost(self):
        with pytest.raises(DomainError):
            taxed_wta(3, 1.0, 0.05, LinearCost(c0=0.0, slope=1.0))

    def test_requires_viable_prize(self):
        with pytest.raises(DomainError):
            taxed_wta(3, 0.2, 0.05, COST)

    def test_negative_tax_rejected(self):
        with pytest.raises(DomainError):
            taxed_wta(3, 1.0, -0.01, COST)


def test_imports_nothing_from_the_package_but_errors():
    # schedules are plain data: building one never reaches the solver
    imported = set()
    for node in ast.walk(ast.parse(Path(mechanism.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"dataclasses", "numpy", ".errors"}
