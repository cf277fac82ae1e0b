"""Self-test of the benchmark's correctness checks.

Runs a small slice of each workload, requires its checks to pass, then
alters one output at a time and requires the checks to catch each
alteration.  Run from the root of a source checkout:

    python3 bench/selftest.py

Exits 0 when every check passes on real outputs and fails on every
altered one.
"""

import copy
import dataclasses
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 7
failures = []


def expect(name, problems, caught: bool):
    ok = bool(problems) == caught
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f": {problems}"))
    if not ok:
        failures.append(name)


def run_all(ops):
    return [op.run() for op in ops]


def altered(outputs, index, change):
    out = copy.copy(outputs)
    out[index] = change(copy.copy(outputs[index]))
    return out


# ---------------------------------------------------------------------------


def key(name, fn):
    """Change one entry of an ``evaluate`` output dict."""
    return lambda out: {**out, name: fn(out[name])}


def fields(**changes):
    """Change fields of a frozen dataclass output; a callable value is
    applied to the field's current value."""
    def change(obj):
        new = {k: v(getattr(obj, k)) if callable(v) else v for k, v in changes.items()}
        return dataclasses.replace(obj, **new)
    return change


def row(k, change):
    """Change row ``k`` of a tuple of rows."""
    return lambda rows: rows[:k] + (change(rows[k]),) + rows[k + 1:]


def swapped(a):
    return np.concatenate((a[:5], a[6:7], a[5:6], a[7:]))


def evaluate_cases():
    ops = [op for op in workloads.build_evaluate(SEED)
           if op.params["rewards"].n <= 6 and op.params["contest"] != "near_tied"]
    outputs = run_all(ops)
    expect("evaluate: real outputs pass", checks.check_evaluate(ops, outputs), False)
    tie = next(i for i, op in enumerate(ops) if op.params["contest"] == "tie")
    full = next(i for i, op in enumerate(ops) if op.params["contest"] == "full")
    cases = {
        "eq_max + 1e-6": (0, key("metrics", fields(eq_max=lambda v: v + 1e-6))),
        "eq_avg - 1e-6": (0, key("metrics", fields(eq_avg=lambda v: v - 1e-6))),
        "budget * (1 + 1e-8)": (0, key("metrics", fields(budget=lambda v: v * (1 + 1e-8)))),
        "rank probabilities * (1 + 1e-9)": (
            0, key("metrics", fields(rank_prob=lambda w: tuple(x * (1 + 1e-9) for x in w)))),
        "p on a tie + 1e-9": (tie, key("sol", fields(p=lambda v: v + 1e-9))),
        "qbar in the full regime * (1 + 1e-9)": (full, key("sol", fields(qbar=lambda v: v * (1 + 1e-9)))),
        "cdf not monotone": (0, key("cdf", swapped)),
        "cdf ends at 1 - 1e-6": (0, key("cdf", lambda a: np.append(a[:-1], 1 - 1e-6))),
        "pressure + 1e-8": (0, key("pressure", lambda a: a + 1e-8)),
        "payoff residual 1e-7": (full, key("residual", lambda a: a + 1e-7)),
        "an operation failed": (1, lambda out: None),
    }
    for name, (i, change) in cases.items():
        problems = checks.check_evaluate(ops, altered(outputs, i, change))
        expect(f"evaluate: {name} caught", problems, True)


def design_cases():
    ops = workloads.build_design(SEED)
    outputs = run_all(ops)
    expect("design: real outputs pass", checks.check_design(ops, outputs), False)

    def first(kind, pred=lambda op: True):
        return next(i for i, op in enumerate(ops) if op.kind == kind and pred(op))

    lin = first("bmd_wta", lambda op: op.params["cost"].family == "linear")
    near = first("bmd_near")
    tax = first("tax_sweep")
    signs = first("avg_sign")
    cross = first("crossover")
    cert = first("attention")
    dom = first("dominance")
    off_budget = lambda v: v * (1 + 1e-5)  # noqa: E731
    cases = {
        "d_eqmax > 0 under linear cost": (lin, fields(d_eqmax=1e-6)),
        "d_eqavg > 0 near winner-take-all": (near, fields(d_eqavg=1e-6)),
        "da1_das above the slope bound": (near, lambda r: fields(da1_das=r.slope_bound + 1e-5)(r)),
        "wrong difference mode": (near, fields(mode="forward")),
        "tax lowers eq_max": (tax, lambda rows: row(1, fields(eq_max=rows[0].eq_max - 1e-9))(rows)),
        "taxed top prize off budget": (tax, row(1, fields(top_prize=off_budget))),
        "tax row eq_avg off": (tax, row(0, fields(eq_avg=lambda v: v + 1e-6))),
        "sign flips three times": (
            signs, lambda rows: row(2, fields(sign="negative"))(row(1, fields(sign="positive"))(rows))),
        "sign-sweep prize off budget": (signs, row(0, fields(top_prize=off_budget))),
        "crossover moved by 0.1": (cross, lambda c: c + 0.1),
        "certificate flag false": (cert, fields(avg_optimal=False)),
        "certificate eq_max off": (cert, fields(eq_max=lambda v: v + 1e-6)),
        "dominance violation": (dom, fields(violations=1)),
        "dominance trial skipped": (dom, fields(skipped=1)),
        "winner-take-all prize off budget": (dom, fields(wta_prize=off_budget)),
    }
    for name, (i, change) in cases.items():
        problems = checks.check_design(ops, altered(outputs, i, change))
        expect(f"design: {name} caught", problems, True)


def edit(change):
    """Change a JSON run record, re-printed as the CLI prints it."""
    def apply(text):
        record = json.loads(text)
        change(record)
        return json.dumps(record, indent=2, sort_keys=True)
    return apply


def shift_mean(name, se_name, sigmas):
    def change(record):
        out = record["output"]
        out[name] += sigmas * out[se_name]
    return change


def move_entrants(record):
    hist = record["output"]["entrant_histogram"]
    moved = max(1, hist[1] // 10)
    hist[1] -= moved
    hist[0] += moved


def drop_trial(record):
    record["output"]["entrant_histogram"][-1] -= 1


def raise_curve(record):
    for point in record["output"]["curve"]:
        point["mean_payoff"] += 10 * point["stderr"]


def nudge_curve(record):
    record["output"]["curve"][3]["mean_payoff"] += 1e-12


def simulate_cases():
    ops = [op for op in workloads.build_simulate(SEED) if op.params["rewards"].n <= 7]
    outputs = run_all(ops)
    repeats = run_all(ops)
    expect("simulate: real outputs pass", checks.check_simulate(ops, outputs, repeats), False)
    interior = next(i for i, op in enumerate(ops) if op.kind == "simulate"
                    and op.params["rewards"].last < op.params["cost"].entry_cost)
    deviate = next(i for i, op in enumerate(ops) if op.kind == "deviate")
    cases = {
        "eq_max moved 10 standard errors": (interior, shift_mean("empirical_eq_max", "eq_max_se", 10)),
        "eq_avg moved 10 standard errors": (interior, shift_mean("empirical_eq_avg", "eq_avg_se", -10)),
        "payout moved 10 standard errors": (interior, shift_mean("empirical_payout", "payout_se", 10)),
        "entrant histogram reshaped": (interior, move_entrants),
        "entrant histogram one trial short": (interior, drop_trial),
        "deviation curve raised 10 standard errors": (deviate, raise_curve),
        "record without its version": (interior, lambda record: record.pop("version")),
    }
    for name, (i, change) in cases.items():
        # alter the repeat alike, so that only the targeted check can object
        problems = checks.check_simulate(
            ops, altered(outputs, i, edit(change)), altered(repeats, i, edit(change))
        )
        expect(f"simulate: {name} caught", problems, True)
    problems = checks.check_simulate(ops, outputs, altered(repeats, deviate, edit(nudge_curve)))
    expect("simulate: repeated seed with other output caught", problems, True)


if __name__ == "__main__":
    evaluate_cases()
    design_cases()
    simulate_cases()
    print(f"{len(failures)} self-test failures")
    sys.exit(1 if failures else 0)
