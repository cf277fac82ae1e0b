"""Command-line surface.

Every subcommand parses one contest instance (explicit rewards, a
winner-take-all prize, or attention caps, plus a cost spec), runs one
operation, and prints a JSON run record to stdout.  The record embeds
the fully-resolved instance — including every default tolerance — so a
run is reproducible from its own output.  ``--csv`` additionally writes
the command's tabular output.

Exit codes: 0 success, 1 usage, 2 validation, 3 numeric
non-convergence, 4 verification failure.
"""

import argparse
import csv as csv_module
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .binom import pmf_matrix
from .costs import CostModel, parse_cost
from .design import (
    attention_certificate,
    avg_sign_vs_budget,
    budget_matched_derivative,
    tax_sweep,
    wta_dominance_trial,
)
from .equilibrium import REGIME_NO_ENTRY, expected_benefit, solve
from .errors import (
    ContestError,
    ConvergenceError,
    CostParseError,
    DomainError,
    MechanismError,
    StateError,
)
from .mechanism import AttentionCaps, RewardVector, attention_schedule, taxed_wta, winner_take_all
from .metrics import binomial_tail, contest_metrics, slope_bound_gap
from .montecarlo import deviation_check, run as run_simulation
from .quadrature import integrate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

COMMANDS = (
    "solve",
    "metrics",
    "simulate",
    "deviate",
    "design-attention",
    "perturb",
    "tax-sweep",
    "avg-sign-sweep",
    "wta-trial",
    "verify",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for
    # validation, so route usage failures through exit code 1
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse number list {text!r}: {exc}") from None


@dataclass
class InstanceSpec:
    """Fully-resolved run configuration; the JSON echo of every record."""

    n: int | None = None
    rewards: list[float] | None = None
    wta: float | None = None
    tax: float | None = None
    caps: list[float] | None = None
    cost: str | None = None
    seed: int = 0
    arg_tol: float = 1e-12
    quad_panels: int = 64
    quad_nodes: int = 8
    quad_tol: float = 1e-9
    trials: int = 100000
    rank: int = 2
    delta: float | None = None
    taxes: list[float] | None = None
    budgets: list[float] | None = None
    budget: float | None = None
    grid: int = 129
    margin: float = 0.25
    levels: int = 5
    suite: str = "all"

    def echo(self) -> dict:
        record = asdict(self)
        record["version"] = __version__
        return record


_CONFIG_KEYS = set(InstanceSpec.__dataclass_fields__)
_LIST_KEYS = {"rewards", "caps", "taxes", "budgets"}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return data


def parse_instance(args: argparse.Namespace) -> InstanceSpec:
    """Merge config-file values and flags (flags win) into one spec."""
    spec = InstanceSpec()
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, value in config.items():
        if key in _LIST_KEYS and isinstance(value, str):
            value = _float_list(value)
        setattr(spec, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(spec, key, value)
    constructors = [
        name for name in ("rewards", "wta", "caps") if getattr(spec, name) is not None
    ]
    if len(constructors) > 1:
        raise UsageError(
            f"conflicting reward constructors: give only one of {constructors}"
        )
    if spec.tax is not None and spec.wta is None:
        raise UsageError("--tax requires the winner-take-all constructor (--wta)")
    return spec


def _require_cost(spec: InstanceSpec) -> CostModel:
    if spec.cost is None:
        raise UsageError("a cost spec is required (--cost)")
    return parse_cost(spec.cost)


def build_contest(spec: InstanceSpec) -> tuple[RewardVector, CostModel]:
    """Realize the (rewards, cost) pair an instance describes."""
    cost = _require_cost(spec)
    if spec.rewards is not None:
        rewards = RewardVector(tuple(spec.rewards))
        if spec.n is not None and spec.n != rewards.n:
            raise DomainError(
                f"--n {spec.n} disagrees with {rewards.n} explicit rewards"
            )
    elif spec.wta is not None:
        if spec.n is None:
            raise UsageError("--wta needs --n for the number of ranks")
        if spec.tax:
            rewards = taxed_wta(spec.n, spec.wta, spec.tax, cost)
        else:
            rewards = winner_take_all(spec.n, spec.wta)
    elif spec.caps is not None:
        caps = AttentionCaps(tuple(spec.caps))
        if spec.n is not None and spec.n != caps.n:
            raise DomainError(f"--n {spec.n} disagrees with {caps.n} caps")
        rewards = attention_schedule(caps, cost.entry_cost)
    else:
        raise UsageError("give one reward constructor: --rewards, --wta, or --caps")
    spec.n = rewards.n
    spec.rewards = list(rewards.prizes)
    return rewards, cost


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (output dict, csv header, csv rows)


def _cmd_solve(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost, arg_tol=spec.arg_tol)
    header = ["q", "G", "x", "payoff_residual"]
    rows = []
    residual_max = 0.0
    if sol.regime != REGIME_NO_ENTRY:
        grid = np.linspace(0.0, sol.qbar, spec.grid)
        cdf = sol.cdf(grid)
        pressure = sol.pressure(grid)
        residuals = sol.payoff_residual(grid)
        residual_max = float(np.max(np.abs(residuals)))
        rows = [
            [float(q), float(g), float(x), float(r)]
            for q, g, x, r in zip(grid, cdf, pressure, residuals)
        ]
    output = {
        "p": sol.p,
        "qbar": sol.qbar,
        "regime": sol.regime,
        "shift": sol.shift,
        "residual_max": residual_max,
    }
    return output, header, rows


def _cmd_metrics(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost, arg_tol=spec.arg_tol)
    report = contest_metrics(
        sol, panels=spec.quad_panels, nodes=spec.quad_nodes, tol=spec.quad_tol
    )
    output = report.to_dict()
    header = ["budget", "eq_max", "eq_avg", "eq_total", "error_estimate"]
    rows = [[report.budget, report.eq_max, report.eq_avg, report.eq_total,
             report.quadrature_error_estimate]]
    return output, header, rows


def _cmd_simulate(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost, arg_tol=spec.arg_tol)
    report = run_simulation(sol, spec.trials, spec.seed)
    header = ["entrants", "count"]
    rows = [[k, c] for k, c in enumerate(report.entrant_histogram)]
    return report.to_dict(), header, rows


def _cmd_deviate(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost, arg_tol=spec.arg_tol)
    top = sol.qbar + spec.margin if sol.regime != REGIME_NO_ENTRY else spec.margin
    grid = np.linspace(0.0, top, spec.grid)
    curve = deviation_check(sol, grid, spec.trials, spec.seed)
    output = {
        "shift": sol.shift,
        "qbar": sol.qbar,
        "curve": [point.to_dict() for point in curve],
    }
    header = ["q", "mean_payoff", "stderr", "n_trials"]
    rows = [[p.q, p.mean_payoff, p.stderr, p.trials] for p in curve]
    return output, header, rows


def _cmd_design_attention(spec: InstanceSpec):
    cost = _require_cost(spec)
    if spec.caps is None:
        raise UsageError("design-attention needs --caps")
    caps = AttentionCaps(tuple(spec.caps))
    levels = tuple(np.linspace(0.0, 1.0, spec.levels))
    certificate = attention_certificate(caps, cost, levels=levels)
    spec.n = caps.n
    spec.rewards = list(certificate.schedule.prizes)
    output = certificate.to_dict()
    header = ["rank", "cap", "prize"]
    rows = [
        [k + 1, cap, prize]
        for k, (cap, prize) in enumerate(zip(caps.caps, certificate.schedule.prizes))
    ]
    return output, header, rows


def _cmd_perturb(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    result = budget_matched_derivative(rewards, cost, spec.rank, spec.delta)
    output = result.to_dict()
    header = ["rank", "step", "mode", "da1_das", "d_eqmax", "d_eqavg", "slope_bound"]
    rows = [[result.rank, result.step, result.mode, result.da1_das,
             result.d_eqmax, result.d_eqavg, result.slope_bound]]
    return output, header, rows


def _cmd_tax_sweep(spec: InstanceSpec):
    cost = _require_cost(spec)
    if spec.wta is None or spec.n is None:
        raise UsageError("tax-sweep needs --n and --wta")
    taxes = spec.taxes if spec.taxes is not None else [0.0, 0.01, 0.02]
    spec.taxes = list(taxes)
    rows_data = tax_sweep(spec.n, spec.wta, cost, taxes)
    output = {"rows": [row.to_dict() for row in rows_data]}
    header = ["tax", "ok", "top_prize", "p", "eq_max", "eq_avg", "budget"]
    rows = [
        [r.tax, r.ok, r.top_prize, r.p, r.eq_max, r.eq_avg, r.budget]
        for r in rows_data
    ]
    return output, header, rows


def _cmd_avg_sign_sweep(spec: InstanceSpec):
    cost = _require_cost(spec)
    if spec.budgets is None or spec.n is None:
        raise UsageError("avg-sign-sweep needs --n and --budgets")
    rows_data = avg_sign_vs_budget(spec.n, cost, spec.budgets, spec.rank)
    signs = [row.sign for row in rows_data if row.ok]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    output = {"rows": [row.to_dict() for row in rows_data], "sign_changes": flips}
    header = ["budget", "ok", "top_prize", "p", "d_eqavg", "sign"]
    rows = [
        [r.budget, r.ok, r.top_prize, r.p, r.d_eqavg, r.sign] for r in rows_data
    ]
    return output, header, rows


def _cmd_wta_trial(spec: InstanceSpec):
    cost = _require_cost(spec)
    if spec.budget is None or spec.n is None:
        raise UsageError("wta-trial needs --n and --budget")
    report = wta_dominance_trial(
        spec.n, spec.budget, cost, spec.trials, spec.seed
    )
    output = report.to_dict()
    header = ["n", "budget", "trials", "skipped", "violations", "worst_gap"]
    rows = [[report.n, report.budget, report.trials, report.skipped,
             report.violations, report.worst_gap]]
    return output, header, rows


# ---------------------------------------------------------------------------
# verification suites


def _golden_checks():
    from .costs import LinearCost
    from .metrics import expected_avg_quality, expected_budget, expected_max_quality

    cost = LinearCost(c0=0.25, slope=1.0)
    interior = solve(RewardVector((1.0, 0.0)), cost)
    full = solve(RewardVector((1.0, 0.5)), cost)
    checks = [
        ("interior p", abs(interior.p - 0.75) <= 1e-8),
        ("interior qbar", abs(interior.qbar - 0.75) <= 1e-8),
        ("interior cdf", abs(interior.cdf(0.3) - 0.4) <= 1e-8),
        ("interior budget", abs(expected_budget(interior) - 0.9375) <= 1e-8),
        ("interior eq_max", abs(expected_max_quality(interior) - 0.421875) <= 1e-8),
        ("interior eq_avg", abs(expected_avg_quality(interior) - 0.28125) <= 1e-8),
        ("interior quantile", abs(interior.quantile(0.4) - 0.3) <= 1e-8),
        ("full p", full.p == 1.0),
        ("full qbar", abs(full.qbar - 0.5) <= 1e-8),
        ("full shift", abs(full.shift - 0.25) <= 1e-8),
        ("full cdf", abs(full.cdf(0.25) - 0.5) <= 1e-8),
        ("full budget", abs(expected_budget(full) - 1.5) <= 1e-8),
    ]
    return checks


def _identity_checks():
    checks = []
    worst_tail = 0.0
    worst_gap = 0.0
    for n in range(2, 11):
        for k in range(1, n + 1):
            for p in np.arange(0.05, 0.96, 0.05):
                direct = binomial_tail(n, k, float(p))

                def integrand(x, k=k, n=n):
                    return pmf_matrix(n - 1, x)[k - 1]

                integral, _ = integrate(integrand, 0.0, float(p), panels=4, nodes=16)
                worst_tail = max(worst_tail, abs(direct - n * integral))
                worst_gap = min(worst_gap, slope_bound_gap(n, k, float(p)))
    checks.append((f"tail integral identity (worst {worst_tail:.2e})", worst_tail <= 1e-10))
    checks.append((f"slope bound gap (worst {worst_gap:.2e})", worst_gap >= -1e-12))

    # benefit slope against a central difference
    rewards = RewardVector((1.0, 0.6, 0.25, 0.0))
    from .equilibrium import benefit_slope

    h = 1e-6
    x = 0.37
    fd = (expected_benefit(x + h, rewards) - expected_benefit(x - h, rewards)) / (2 * h)
    slope = benefit_slope(x, rewards)
    checks.append(("benefit slope matches finite difference", abs(fd - slope) <= 1e-6))
    return checks


def _cmd_verify(spec: InstanceSpec):
    suites = {"identities": _identity_checks, "golden": _golden_checks}
    if spec.suite == "all":
        names = list(suites)
    elif spec.suite in suites:
        names = [spec.suite]
    else:
        raise UsageError(f"unknown suite {spec.suite!r}; use {list(suites) + ['all']}")
    checks = []
    for name in names:
        checks.extend((f"{name}: {label}", ok) for label, ok in suites[name]())
    failures = sum(1 for _, ok in checks if not ok)
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}", file=sys.stderr)
    output = {
        "suites": names,
        "checks": [{"name": label, "ok": ok} for label, ok in checks],
        "failures": failures,
    }
    header = ["check", "ok"]
    rows = [[label, ok] for label, ok in checks]
    return output, header, rows


_HANDLERS = {
    "solve": _cmd_solve,
    "metrics": _cmd_metrics,
    "simulate": _cmd_simulate,
    "deviate": _cmd_deviate,
    "design-attention": _cmd_design_attention,
    "perturb": _cmd_perturb,
    "tax-sweep": _cmd_tax_sweep,
    "avg-sign-sweep": _cmd_avg_sign_sweep,
    "wta-trial": _cmd_wta_trial,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankcontest", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--n", type=int)
    common.add_argument("--rewards", type=_float_list, help="comma list, e.g. 1,0,0")
    common.add_argument("--wta", type=float, help="winner-take-all top prize")
    common.add_argument("--tax", type=float, help="entry tax (with --wta)")
    common.add_argument("--caps", type=_float_list, help="attention caps, e.g. 1,0.5,0.4")
    common.add_argument("--cost", help="cost spec, e.g. linear:c0=0.25,slope=1")
    common.add_argument("--seed", type=int)
    common.add_argument("--arg-tol", dest="arg_tol", type=float)
    common.add_argument("--quad-panels", dest="quad_panels", type=int)
    common.add_argument("--quad-nodes", dest="quad_nodes", type=int)
    common.add_argument("--quad-tol", dest="quad_tol", type=float)
    common.add_argument("--trials", type=int)
    common.add_argument("--csv", help="also write the tabular output to this path")
    for name in COMMANDS:
        cmd = sub.add_parser(name, parents=[common])
        if name in ("solve", "deviate"):
            cmd.add_argument("--grid", type=int, help="evaluation grid size")
        if name == "deviate":
            cmd.add_argument("--margin", type=float, help="grid extension past qbar")
        if name in ("perturb", "avg-sign-sweep"):
            cmd.add_argument("--rank", type=int)
        if name == "perturb":
            cmd.add_argument("--delta", type=float)
        if name == "tax-sweep":
            cmd.add_argument("--taxes", type=_float_list)
        if name == "avg-sign-sweep":
            cmd.add_argument("--budgets", type=_float_list)
        if name == "wta-trial":
            cmd.add_argument("--budget", type=float)
        if name == "design-attention":
            cmd.add_argument("--levels", type=int, help="lattice levels per rank")
        if name == "verify":
            cmd.add_argument("--suite", choices=["identities", "golden", "all"])
    return parser


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv_module.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = parse_instance(args)
        started = time.perf_counter()
        output, header, rows = _HANDLERS[args.command](spec)
        elapsed = time.perf_counter() - started
        record = {
            "command": args.command,
            "version": __version__,
            "instance": spec.echo(),
            "output": output,
            "wall_time_s": elapsed,
        }
        print(json.dumps(record, indent=2, sort_keys=True))
        if getattr(args, "csv", None):
            _write_csv(args.csv, header, rows)
        if args.command == "verify" and output["failures"]:
            return EXIT_VERIFY
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MechanismError, DomainError, CostParseError, StateError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ContestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
