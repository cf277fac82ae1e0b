"""Rank-order contests with endogenous entry: equilibria, metrics and
reward design.

The package is organized bottom-up:

* :mod:`rankcontest.costs` — effort cost families c(q)
* :mod:`rankcontest.mechanism` — prize schedules and named constructors
* :mod:`rankcontest.equilibrium` — the symmetric mixed equilibrium (p, G)
* :mod:`rankcontest.metrics` — payout, quality and rank statistics
* :mod:`rankcontest.design` — budget matching and design experiments
* :mod:`rankcontest.montecarlo` — agent-level simulation cross-checks
* :mod:`rankcontest.cli` — the ``rankcontest`` command
"""

__version__ = "0.1.0"

from .costs import (
    CostModel,
    ExponentialCost,
    LinearCost,
    QuadraticPlusCost,
    parse_cost,
)
from .design import (
    AttentionCertificate,
    BudgetSignRow,
    DominanceReport,
    PerturbationResult,
    SensitivityReport,
    TaxRow,
    attention_certificate,
    avg_sign_crossover,
    avg_sign_vs_budget,
    budget_matched_derivative,
    hold_budget,
    optimal_attention,
    rescale_to_budget,
    reward_sensitivity,
    tax_sweep,
    taxed_wta,
    wta_dominance_trial,
    wta_prize_for_budget,
)
from .equilibrium import (
    REGIME_FULL,
    REGIME_INTERIOR,
    REGIME_NO_ENTRY,
    EquilibriumSolution,
    benefit_slope,
    expected_benefit,
    solve,
)
from .errors import (
    ContestError,
    ConvergenceError,
    CostParseError,
    DomainError,
    MechanismError,
    QuadratureError,
    StateError,
)
from .mechanism import (
    AttentionCaps,
    RewardVector,
    attention_schedule,
    winner_take_all,
)
from .metrics import (
    ContestMetrics,
    binomial_tail,
    contest_metrics,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    rank_probability,
    slope_bound_gap,
)
from .montecarlo import (
    PayoffPoint,
    RoundOutcome,
    SimulationReport,
    deviation_check,
    play_round,
    run,
    trial_streams,
)

__all__ = [
    "__version__",
    "AttentionCaps",
    "AttentionCertificate",
    "BudgetSignRow",
    "ContestError",
    "ContestMetrics",
    "ConvergenceError",
    "CostModel",
    "CostParseError",
    "DominanceReport",
    "DomainError",
    "EquilibriumSolution",
    "ExponentialCost",
    "LinearCost",
    "MechanismError",
    "PayoffPoint",
    "PerturbationResult",
    "QuadratureError",
    "QuadraticPlusCost",
    "REGIME_FULL",
    "REGIME_INTERIOR",
    "REGIME_NO_ENTRY",
    "RewardVector",
    "RoundOutcome",
    "SensitivityReport",
    "SimulationReport",
    "StateError",
    "TaxRow",
    "attention_certificate",
    "attention_schedule",
    "avg_sign_crossover",
    "avg_sign_vs_budget",
    "benefit_slope",
    "binomial_tail",
    "budget_matched_derivative",
    "contest_metrics",
    "deviation_check",
    "expected_avg_quality",
    "expected_benefit",
    "expected_budget",
    "expected_max_quality",
    "hold_budget",
    "optimal_attention",
    "parse_cost",
    "play_round",
    "rank_probability",
    "rescale_to_budget",
    "reward_sensitivity",
    "run",
    "slope_bound_gap",
    "solve",
    "tax_sweep",
    "taxed_wta",
    "trial_streams",
    "winner_take_all",
    "wta_dominance_trial",
    "wta_prize_for_budget",
]
