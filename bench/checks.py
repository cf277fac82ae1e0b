"""Correctness checks, run after the timed phase.

Each ``check_<workload>(ops, outputs, ...)`` returns a list of problems;
an empty list means every output is right.  ``ops`` are the operations
of every round of a run, one after another, and ``outputs[i]`` is what
``ops[i].run()`` returned, or ``None`` when the operation failed.
Values are compared with :mod:`reference`, which computes them apart
from the package; properties the paper's results require are checked on
the package's own outputs.
"""

import json
import math
import re
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy import stats

import rankcontest as rc
import reference

# Tolerances against the reference.  The package and the reference
# agree to 5e-14 on p and the integrals and 3e-12 on the budget
# (README); these leave room for the package's stated tolerances
# (quadrature tol 1e-9, budget matching ftol 1e-8) and little more.
TOL_P = 1e-12
TOL_BUDGET = 1e-10
TOL_INTEGRAL = 1e-8
TOL_MATCHED_BUDGET = 1e-7
TOL_RESIDUAL = 1e-8
TOL_ROUNDTRIP = 1e-9
# At an exact top tie x(q) falls like sqrt(qbar - q), so the one rounding
# in qbar moves G(qbar) by about sqrt(machine epsilon) = 1.5e-8.
TOL_CDF_END = 1e-7
# Below any standard error: a Monte Carlo mean this close is exact.
TOL_ROUNDING = 1e-12

# Family-wise false-alarm rate of one run's statistical comparisons.
# A fixed 4 standard errors per comparison would flag correct output in
# a sizeable share of seeds, because a run makes about a thousand such
# comparisons; the bound below is Bonferroni-corrected and never below 4.
FAMILY_ALPHA = 1e-6


def z_bound(comparisons: int) -> float:
    return max(4.0, NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * max(comparisons, 1))))


def _close(a, b, tol, scale=1.0):
    return abs(a - b) <= tol * max(1.0, abs(scale))


def _ref(rewards, cost) -> reference.Contest:
    return reference.Contest(rewards.prizes, cost.to_dict())


# ---------------------------------------------------------------------------
# evaluate


def check_evaluate(ops, outputs) -> list[str]:
    problems = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        tag = f"evaluate op {i} (n={op.params['rewards'].n}, {op.params['contest']})"
        if out is None:
            if not op.expected_failure:
                problems.append(f"{tag}: failed")
            continue
        problems += [f"{tag}: {p}" for p in _check_contest(op.params, out)]
    return problems


def _check_contest(params, out) -> list[str]:
    problems = []
    sol, m = out["sol"], out["metrics"]
    ref = _ref(params["rewards"], params["cost"])
    if not _close(sol.p, ref.p, TOL_P):
        problems.append(f"p {sol.p} != reference {ref.p}")
    if not _close(sol.qbar, ref.qbar, TOL_P, ref.qbar):
        problems.append(f"qbar {sol.qbar} != reference {ref.qbar}")
    budget = ref.budget()
    if not _close(m.budget, budget, TOL_BUDGET, budget):
        problems.append(f"budget {m.budget} != reference {budget}")
    for name, got, want in (
        ("eq_max", m.eq_max, ref.eq_max()),
        ("eq_avg", m.eq_avg, ref.eq_avg()),
        ("eq_total", m.eq_total, ref.n * ref.eq_avg()),
    ):
        if not _close(got, want, TOL_INTEGRAL, want):
            problems.append(f"{name} {got} != reference {want}")
    grid, cdf, pressure = out["grid"], out["cdf"], out["pressure"]
    if abs(cdf[0]) > TOL_CDF_END or abs(cdf[-1] - 1.0) > TOL_CDF_END:
        problems.append(f"cdf runs from {cdf[0]} to {cdf[-1]}, not from 0 to 1")
    if np.any(np.diff(cdf) < -TOL_ROUNDTRIP):
        problems.append("cdf is not monotone")
    for j in (1, len(grid) // 3, 2 * len(grid) // 3, len(grid) - 2):
        want = ref.pressure(float(grid[j]))
        if not _close(pressure[j], want, TOL_ROUNDTRIP):
            problems.append(f"pressure({grid[j]}) {pressure[j]} != reference {want}")
    worst = float(np.max(np.abs(out["residual"])))
    if worst > TOL_RESIDUAL:
        problems.append(f"|payoff_residual| reaches {worst} on the support")
    back = sol.quantile(sol.cdf(grid))
    gap = float(np.max(np.abs(back - grid)))
    if gap > TOL_ROUNDTRIP * max(1.0, sol.qbar):
        problems.append(f"quantile(cdf(q)) misses q by {gap}")
    total = sum(rc.rank_probability(sol, k) for k in range(1, sol.n + 1))
    if not _close(total, ref.p, TOL_P) or not _close(sum(m.rank_prob), ref.p, TOL_P):
        problems.append(f"rank probabilities sum to {total}, not p = {ref.p}")
    return problems


# ---------------------------------------------------------------------------
# design


def check_design(ops, outputs) -> list[str]:
    problems = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        tag = f"design op {i} ({op.kind})"
        if out is None:
            problems.append(f"{tag}: failed")
            continue
        problems += [f"{tag}: {p}" for p in _DESIGN_CHECKS[op.kind](op.params, out)]
    return problems


def _matched_problems(rewards, cost, target, what) -> list[str]:
    got = _ref(rewards, cost).budget()
    if not _close(got, target, TOL_MATCHED_BUDGET, target):
        return [f"{what}: reference budget {got} != matched budget {target}"]
    return []


def _check_derivative(params, out) -> list[str]:
    rewards, cost, rank = params["rewards"], params["cost"], params["rank"]
    problems = []
    at_wta = all(v == 0.0 for v in rewards.prizes[1:])
    want_mode = ("forward" if rank == 2 else "backward") if at_wta else "central"
    if out.mode != want_mode:
        problems.append(f"mode {out.mode}, expected {want_mode}")
    if not out.da1_das <= out.slope_bound + 1e-6:
        problems.append(f"da1_das {out.da1_das} above slope bound {out.slope_bound}")
    if cost.family == "linear" and (out.d_eqmax > 1e-8 or out.d_eqavg > 1e-8):
        problems.append(
            f"linear cost: d_eqmax {out.d_eqmax}, d_eqavg {out.d_eqavg} not <= 1e-8"
        )
    target = _ref(rewards, cost).budget()
    a_s = rewards.prizes[rank - 1]
    sides = {"forward": (1,), "backward": (-1,), "central": (1, -1)}[out.mode]
    for sign in sides:
        matched = rc.hold_budget(rewards, cost, rank, a_s + sign * out.step)
        problems += _matched_problems(matched, cost, target, f"a_{rank} {sign:+d} step")
    return problems


def _check_tax(params, out) -> list[str]:
    n, prize, cost = params["n"], params["prize"], params["cost"]
    problems = []
    if not all(row.ok for row in out):
        return [f"tax rows not all feasible: {[row.reason for row in out]}"]
    if not out[1].eq_max > out[0].eq_max:
        problems.append(
            f"tax {out[1].tax} does not raise eq_max ({out[0].eq_max} -> {out[1].eq_max})"
        )
    target = _ref(rc.winner_take_all(n, prize), cost).budget()
    for row in out:
        vec = rc.RewardVector((row.top_prize,) + (-row.tax,) * (n - 1))
        ref = _ref(vec, cost)
        problems += _matched_problems(vec, cost, target, f"tax {row.tax}")
        for name, got, want in (
            ("p", row.p, ref.p),
            ("eq_max", row.eq_max, ref.eq_max()),
            ("eq_avg", row.eq_avg, ref.eq_avg()),
        ):
            if not _close(got, want, TOL_INTEGRAL, want):
                problems.append(f"tax {row.tax}: {name} {got} != reference {want}")
    return problems


def _sign_changes(signs) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _check_signs(params, out) -> list[str]:
    n, cost = params["n"], params["cost"]
    if not all(row.ok for row in out):
        return [f"rows not all feasible: {[row.reason for row in out]}"]
    problems = []
    signs = [row.sign for row in out]
    if signs[0] != "negative" or signs[-1] != "positive" or _sign_changes(signs) != 1:
        problems.append(f"signs {signs} do not flip exactly once from negative to positive")
    for row in out:
        problems += _matched_problems(
            rc.winner_take_all(n, row.top_prize), cost, row.budget, f"budget {row.budget}"
        )
    return problems


def _check_crossover(params, out) -> list[str]:
    lo, hi = params["budget_lo"], params["budget_hi"]
    if not lo < out < hi:
        return [f"crossover {out} outside its bracket [{lo}, {hi}]"]
    # the bisection stops within rel_tol*hi of the root; step well past it
    margin = 10.0 * params["rel_tol"] * hi
    rows = rc.avg_sign_vs_budget(params["n"], params["cost"], [out - margin, out + margin], 2)
    signs = [row.sign for row in rows]
    if signs != ["negative", "positive"]:
        return [f"signs {signs} either side of crossover {out}, not negative then positive"]
    return []


def _check_certificate(params, out) -> list[str]:
    caps, cost = params["caps"], params["cost"]
    problems = []
    if not (out.max_optimal and out.avg_optimal):
        problems.append(f"optimality flags max={out.max_optimal} avg={out.avg_optimal}")
    want = caps.caps[:-1] + (min(caps.caps[-1], cost.entry_cost),)
    if not np.allclose(out.schedule.prizes, want, rtol=0.0, atol=1e-15):
        problems.append(f"schedule {out.schedule.prizes} != {want}")
    ref = _ref(out.schedule, cost)
    for name, got, wanted in (
        ("eq_max", out.eq_max, ref.eq_max()),
        ("eq_avg", out.eq_avg, ref.eq_avg()),
    ):
        if not _close(got, wanted, TOL_INTEGRAL, wanted):
            problems.append(f"{name} {got} != reference {wanted}")
    return problems


def _check_dominance(params, out) -> list[str]:
    problems = []
    if out.violations or out.skipped or not out.asserted:
        problems.append(
            f"violations {out.violations}, skipped {out.skipped}, asserted {out.asserted}"
        )
    wta = rc.winner_take_all(params["n"], out.wta_prize)
    problems += _matched_problems(wta, params["cost"], params["budget"], "winner-take-all prize")
    want = _ref(wta, params["cost"]).eq_max()
    if not _close(out.wta_eq_max, want, TOL_INTEGRAL, want):
        problems.append(f"wta_eq_max {out.wta_eq_max} != reference {want}")
    return problems


_DESIGN_CHECKS = {
    "bmd_wta": _check_derivative,
    "bmd_near": _check_derivative,
    "tax_sweep": _check_tax,
    "avg_sign": _check_signs,
    "crossover": _check_crossover,
    "attention": _check_certificate,
    "dominance": _check_dominance,
}


# ---------------------------------------------------------------------------
# simulate

_SCHEMA = Path(rc.__file__).parent / "schemas" / "run_record.schema.json"
_WALL_TIME = re.compile(r'^\s*"wall_time_s": .*$', re.MULTILINE)

# A deviation-curve point is compared only where the normal
# approximation holds: enough trials away from the most likely rank.
MIN_OFF_MODE_TRIALS = 25


def check_simulate(ops, outputs, repeats) -> list[str]:
    """``outputs[i]`` is the stdout of a command that exited with code 0;
    ``repeats[i]``, for the first ``len(repeats)`` operations, is that of
    a second run with the same seed, which must match it byte for byte,
    apart from ``wall_time_s``."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(json.loads(_SCHEMA.read_text()))
    problems = []
    pending = []  # (tag, statistic, kind) judged once the count is known
    for i, (op, out) in enumerate(zip(ops, outputs)):
        tag = f"{op.kind} op {i} (n={op.params['rewards'].n})"
        if out is None:
            problems.append(f"{tag}: failed")
            continue
        text = out
        record = json.loads(text)
        problems += [f"{tag}: schema: {e.message}" for e in validator.iter_errors(record)]
        if i < len(repeats) and (
            repeats[i] is None or _WALL_TIME.sub("", text) != _WALL_TIME.sub("", repeats[i])
        ):
            problems.append(f"{tag}: a repeated seed gave different output")
        ref = _ref(op.params["rewards"], op.params["cost"])
        trials = op.params["trials"]
        judge = _simulate_record if op.kind == "simulate" else _deviate_record
        problems += [f"{tag}: {p}" for p in judge(record["output"], ref, trials, pending, tag)]
    z = z_bound(len(pending))
    for tag, value, kind in pending:
        if kind == "z" and not abs(value) <= z:
            problems.append(
                f"{tag}: {abs(value):.2f} standard errors from reference (bound {z:.2f})"
            )
        if kind == "pvalue" and not value >= FAMILY_ALPHA / len(pending):
            problems.append(f"{tag}: goodness-of-fit p-value {value:.3g}")
    return problems


def _simulate_record(out, ref, trials, pending, tag) -> list[str]:
    problems = []
    for name, se_name, want in (
        ("empirical_eq_max", "eq_max_se", ref.eq_max()),
        ("empirical_eq_avg", "eq_avg_se", ref.eq_avg()),
        ("empirical_payout", "payout_se", ref.budget()),
    ):
        value, se = out[name], out[se_name]
        if _close(value, want, TOL_ROUNDING, want):
            continue  # agrees to rounding, e.g. the payout when all enter
        if se > 0.0:
            pending.append((f"{tag} {name}", (value - want) / se, "z"))
        else:
            problems.append(f"{name} {value} != reference {want} with zero spread")
    hist = np.asarray(out["entrant_histogram"], dtype=float)
    if hist.sum() != trials or out["trials"] != trials:
        problems.append(f"entrant histogram sums to {hist.sum()}, not {trials} trials")
        return problems
    if ref.p == 1.0:
        if hist[-1] != trials:
            problems.append("everyone enters, yet some trials have fewer than n entrants")
        return problems
    expected = trials * stats.binom.pmf(np.arange(ref.n + 1), ref.n, ref.p)
    observed, expected = _pool(hist, expected)
    pvalue = stats.chisquare(observed, expected * observed.sum() / expected.sum()).pvalue
    pending.append((f"{tag} entrant histogram", pvalue, "pvalue"))
    return problems


def _pool(observed, expected, floor=5.0):
    """Merge neighbouring bins until each expects at least ``floor``."""
    obs, exp = [], []
    run_o = run_e = 0.0
    for o, e in zip(observed, expected):
        run_o += o
        run_e += e
        if run_e >= floor:
            obs.append(run_o)
            exp.append(run_e)
            run_o = run_e = 0.0
    if obs:
        obs[-1] += run_o
        exp[-1] += run_e
    else:
        obs, exp = [run_o], [run_e]
    return np.asarray(obs), np.asarray(exp)


def _deviate_record(out, ref, trials, pending, tag) -> list[str]:
    """On the support the deviator's mean payoff is the profit level."""
    if not _close(out["shift"], ref.shift, TOL_P):
        return [f"shift {out['shift']} != reference {ref.shift}"]
    for point in out["curve"]:
        q = point["q"]
        if q > ref.qbar:
            continue
        ranks = ref.rank_pmf(ref.pressure(q))
        if trials * (1.0 - ranks.max()) < MIN_OFF_MODE_TRIALS:
            continue
        gap = point["mean_payoff"] - ref.shift
        z = gap / point["stderr"] if point["stderr"] > 0.0 else math.inf
        pending.append((f"{tag} payoff at q={q:.4g}", z, "z"))
    return []
