"""Command-line surface.

Every subcommand parses one contest instance (explicit rewards, a
winner-take-all prize, or attention caps, plus a cost spec), runs one
operation, and prints a JSON run record to stdout.  The record embeds
the fully-resolved instance — every setting, defaults included, and the
package version, which fixes every numerical rule such as the one
quadrature rule — so a run is reproducible from its own output.
``--csv`` additionally writes the command's tabular output.

Exit codes: 0 success, 1 usage, 2 validation, 3 numeric
non-convergence, 4 verification failure.
"""

import argparse
import csv as csv_module
import json
import math
import operator
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .binom import bernstein
from .costs import CostModel, ExponentialCost, LinearCost, QuadraticPlusCost, parse_cost
from .design import (
    _MAX_CANDIDATES,
    attention_certificate,
    avg_sign_vs_budget,
    budget_matched_derivative,
    tax_sweep,
    taxed_wta,
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
from .mechanism import MAX_AGENTS, AttentionCaps, RewardVector, attention_schedule, winner_take_all
from .metrics import (
    _pressure_integral,
    binomial_tail,
    contest_metrics,
    expected_avg_quality,
    expected_budget,
    expected_max_quality,
    slope_bound_gap,
)
from .montecarlo import deviation_check, run as run_simulation
from .quadrature import integrate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for
    # validation, so route usage failures through exit code 1
    def error(self, message):
        raise UsageError(message)


def _setting(default, help: str, bound: tuple[str, object] | None = None):
    """Declare one setting, flag ``--name`` and config key ``name``, typed
    by its field's annotation; ``bound`` is (a ``_RELATIONS`` key, limit).
    ``COMMANDS`` names the subcommands that read it."""
    return field(default=default, metadata={"help": help, "bound": bound})


@dataclass
class InstanceSpec:
    """Fully-resolved run configuration; the JSON echo of every record."""

    n: int | None = _setting(None, "number of ranks", ("between", (2, MAX_AGENTS)))
    rewards: list[float] | None = _setting(None, "explicit prizes, e.g. 1,0,0")
    wta: float | None = _setting(None, "winner-take-all top prize (needs --n)")
    tax: float | None = _setting(None, "entry tax (with --wta)")
    caps: list[float] | None = _setting(None, "attention caps, e.g. 1,0.5,0.4")
    cost: str | None = _setting(None, "cost spec, e.g. linear:c0=0.25,slope=1")
    seed: int = _setting(0, "simulation seed", ("at least", 0))
    trials: int = _setting(100000, "simulated contests", ("at least", 1))
    rank: int = _setting(2, "rank whose prize is perturbed", ("at least", 2))
    taxes: list[float] | None = _setting(None, "entry taxes (default 0,0.01,0.02)")
    budgets: list[float] | None = _setting(None, "budgets to sweep, e.g. 1,2,4")
    budget: float | None = _setting(None, "budget every trial schedule pays")
    # time and memory grow linearly with the grid
    grid: int = _setting(129, "evaluation grid size", ("between", (1, 10_000)))
    margin: float = _setting(0.25, "grid extension past qbar")
    # more levels than this cannot fit a lattice of two or more ranks
    levels: int = _setting(
        5, "lattice levels per rank", ("between", (2, math.isqrt(_MAX_CANDIDATES)))
    )
    suite: str = _setting(
        "all", "identities, golden or all", ("one of", ("identities", "golden", "all"))
    )

    def echo(self) -> dict:
        record = asdict(self)
        record["version"] = __version__
        return record


SETTINGS = {f.name: f for f in fields(InstanceSpec)}
_RELATIONS = {
    "at least": operator.ge,
    "between": lambda v, span: span[0] <= v <= span[1],
    "one of": lambda v, of: v in of,
}
_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    list: "a non-empty list of finite numbers",
    str: "a string",
}


def _typed(kind: type, raw, text: bool):
    if isinstance(raw, str) and kind is not str and (text or kind is list):
        if kind is list:
            return [float(piece) for piece in raw.split(",") if piece.strip()]
        return kind(raw)
    if kind is list and type(raw) is list and all(type(x) in (int, float) for x in raw):
        return [float(item) for item in raw]
    if kind is float and type(raw) in (int, float):
        return float(raw)
    if kind in (int, str) and type(raw) is kind:
        return raw
    raise ValueError


def _convert(name: str, raw, text: bool = False):
    """Type- and bound-check one flag's text (``text``) or config value.

    Flag text is parsed; a config value must already have the setting's
    type, except that a list may also be a comma string.
    """
    annotation = SETTINGS[name].type  # e.g. int | None or list[float] | None
    kind = next(t for t in get_args(annotation) or (annotation,) if t is not type(None))
    kind = get_origin(kind) or kind
    try:
        value = _typed(kind, raw, text)
        if kind in (float, list) and not np.all(np.isfinite(value)):
            raise ValueError  # nan and inf, which json.load also accepts
        if kind is list and not value:
            raise ValueError  # a sweep or schedule of nothing
    except (ValueError, OverflowError):
        raise DomainError(f"{name} must be {_TYPE_NAMES[kind]}, got {raw!r}") from None
    bound = SETTINGS[name].metadata["bound"]
    if bound is not None and not _RELATIONS[bound[0]](value, bound[1]):
        raise DomainError(f"{name} must be {bound[0]} {bound[1]}, got {value}")
    return value


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except ValueError as exc:  # also an integer literal too long to convert
        raise DomainError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    reads = COMMANDS[command].reads
    unknown = set(data) - set(reads)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}; {command} reads {reads}")
    return {key: _convert(key, value) for key, value in data.items()}


def parse_instance(args: argparse.Namespace) -> InstanceSpec:
    """Merge config-file values and flags (flags win) into one spec."""
    command = COMMANDS[args.command]
    values = _load_config(args.config, args.command) if args.config else {}
    for name in command.reads:
        if getattr(args, name) is not None:
            values[name] = _convert(name, getattr(args, name), text=True)
    spec = InstanceSpec(**values)
    constructors = [
        name for name in ("rewards", "wta", "caps") if getattr(spec, name) is not None
    ]
    if len(constructors) > 1:
        raise UsageError(
            f"conflicting reward constructors: give only one of {constructors}"
        )
    if spec.tax is not None and spec.wta is None:
        raise UsageError("--tax requires the winner-take-all constructor (--wta)")
    missing = [_flag(name) for name in command.requires if getattr(spec, name) is None]
    if missing:
        raise UsageError(f"{args.command} needs {' and '.join(missing)}")
    return spec


def build_contest(spec: InstanceSpec) -> tuple[RewardVector, CostModel]:
    """Realize the (rewards, cost) pair an instance describes."""
    cost = parse_cost(spec.cost)
    if spec.rewards is not None:
        rewards = RewardVector(tuple(spec.rewards))
    elif spec.wta is not None:
        if spec.n is None:
            raise UsageError("--wta needs --n for the number of ranks")
        if spec.tax:
            rewards = taxed_wta(spec.n, spec.wta, spec.tax, cost)
        else:
            rewards = winner_take_all(spec.n, spec.wta)
    elif spec.caps is not None:
        rewards = attention_schedule(AttentionCaps(tuple(spec.caps)), cost.entry_cost)
    else:
        raise UsageError("give one reward constructor: --rewards, --wta, or --caps")
    if spec.n is not None and spec.n != rewards.n:
        raise DomainError(f"--n {spec.n} disagrees with the {rewards.n} ranks given")
    spec.n = rewards.n
    spec.rewards = list(rewards.prizes)
    return rewards, cost


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (output dict, csv header, csv rows)


def _cmd_solve(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost)
    header = ["q", "G", "x", "payoff_residual"]
    rows = []
    residual_max = 0.0
    if sol.regime != REGIME_NO_ENTRY:
        grid = np.linspace(0.0, sol.qbar, spec.grid)
        pressure = sol.pressure(grid)
        # EquilibriumSolution.cdf's formula, from the pressure at hand
        cdf = 1.0 - pressure / sol.p
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
    sol = solve(rewards, cost)
    report = contest_metrics(sol)
    output = report.to_dict()
    header = ["budget", "eq_max", "eq_avg", "eq_total", "error_estimate"]
    rows = [[report.budget, report.eq_max, report.eq_avg, report.eq_total,
             report.quadrature_error_estimate]]
    return output, header, rows


def _cmd_simulate(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost)
    report = run_simulation(sol, spec.trials, spec.seed)
    header = ["entrants", "count"]
    rows = [[k, c] for k, c in enumerate(report.entrant_histogram)]
    return report.to_dict(), header, rows


def _cmd_deviate(spec: InstanceSpec):
    rewards, cost = build_contest(spec)
    sol = solve(rewards, cost)
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
    cost = parse_cost(spec.cost)
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
    result = budget_matched_derivative(rewards, cost, spec.rank)
    output = result.to_dict()
    header = ["rank", "step", "mode", "da1_das", "d_eqmax", "d_eqavg", "slope_bound"]
    rows = [[result.rank, result.step, result.mode, result.da1_das,
             result.d_eqmax, result.d_eqavg, result.slope_bound]]
    return output, header, rows


def _cmd_tax_sweep(spec: InstanceSpec):
    cost = parse_cost(spec.cost)
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
    cost = parse_cost(spec.cost)
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
    cost = parse_cost(spec.cost)
    report = wta_dominance_trial(spec.n, spec.budget, cost, spec.trials, spec.seed)
    output = report.to_dict()
    header = ["n", "budget", "trials", "skipped", "violations", "worst_gap"]
    rows = [[report.n, report.budget, report.trials, report.skipped,
             report.violations, report.worst_gap]]
    return output, header, rows


# ---------------------------------------------------------------------------
# verification suites


def _golden_checks():
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
                    return bernstein(np.eye(1, n, k - 1)[0], x)

                integral, _ = integrate(integrand, 0.0, float(p))
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

    # rent dissipation: c(q(x)) = benefit(x) - shift on [0, p], whose
    # integral is B/n - shift p; interior and full entry per family
    worst_rent = 0.0
    for cost in (LinearCost(c0=0.25), ExponentialCost(k=1.0), QuadraticPlusCost(c0=0.1, b=2.0)):
        for shape in ((3.0, 1.8, 0.8, 0.0), (3.0, 2.0, 1.5, 1.2)):
            sol = solve(RewardVector(tuple(cost.entry_cost * np.array(shape))), cost)

            def rent(x, sol=sol):
                q = sol.cost.inverse(expected_benefit(x, sol.rewards) - sol.shift)
                return sol.cost.value(q)

            (integral,), _ = _pressure_integral(sol, rent, ("avg",))
            exact = expected_budget(sol) / sol.n - sol.shift * sol.p
            worst_rent = max(worst_rent, float(abs(integral - exact)) / exact)
    checks.append((f"rent dissipation (worst {worst_rent:.2e})", worst_rent <= 1e-12))

    # linear costs: E[avg] = (B/n - (c0 + shift) p) / s, here on tied top
    # prizes, which take the pressure-space route
    cost = LinearCost(c0=0.25, slope=2.0)
    sol = solve(RewardVector((1.0, 1.0, 0.5, 0.0)), cost)
    exact = (expected_budget(sol) / sol.n - (cost.c0 + sol.shift) * sol.p) / cost.slope
    err = abs(expected_avg_quality(sol) - exact)
    checks.append((f"linear E[avg] closed form, tied top (worst {err:.2e})", err <= 1e-12))
    return checks


def _cmd_verify(spec: InstanceSpec):
    suites = {"identities": _identity_checks, "golden": _golden_checks}
    names = list(suites) if spec.suite == "all" else [spec.suite]
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


@dataclass(frozen=True)
class Command:
    """A subcommand's body, the settings it reads (its only flags and
    config keys besides --config and --csv) and those it cannot lack."""

    handler: Callable
    reads: tuple[str, ...]
    requires: tuple[str, ...] = ("cost",)


_CONTEST = ("n", "rewards", "wta", "tax", "caps", "cost")
_SIMULATION = ("trials", "seed")
COMMANDS = {
    "solve": Command(_cmd_solve, (*_CONTEST, "grid")),
    "metrics": Command(_cmd_metrics, _CONTEST),
    "simulate": Command(_cmd_simulate, (*_CONTEST, *_SIMULATION)),
    "deviate": Command(_cmd_deviate, (*_CONTEST, *_SIMULATION, "grid", "margin")),
    "design-attention": Command(
        _cmd_design_attention, ("caps", "cost", "levels"), ("caps", "cost")
    ),
    "perturb": Command(_cmd_perturb, (*_CONTEST, "rank")),
    "tax-sweep": Command(_cmd_tax_sweep, ("n", "wta", "cost", "taxes"), ("n", "wta", "cost")),
    "avg-sign-sweep": Command(
        _cmd_avg_sign_sweep, ("n", "cost", "budgets", "rank"), ("n", "cost", "budgets")
    ),
    "wta-trial": Command(
        _cmd_wta_trial, ("n", "cost", "budget", *_SIMULATION), ("n", "cost", "budget")
    ),
    "verify": Command(_cmd_verify, ("suite",), ()),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankcontest", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag is built once and shared by the subcommands that read it,
    # the way argparse's ``parents=`` shares a parent's actions; values
    # stay text until parse_instance checks them
    pool = _Parser(add_help=False)
    config = pool.add_argument("--config", help="JSON config file; flags override its values")
    csv = pool.add_argument("--csv", help="also write the tabular output to this path")
    flags = {
        name: pool.add_argument(_flag(name), dest=name, help=f.metadata["help"])
        for name, f in SETTINGS.items()
    }
    for name, command in COMMANDS.items():
        # no abbreviations: an unread flag such as --tax must not pass as --taxes
        cmd = sub.add_parser(name, allow_abbrev=False)
        for action in (config, *(flags[key] for key in command.reads), csv):
            cmd._add_action(action)
    return parser


# built by the first call of main and reused by every later one: parsing
# leaves the parser unchanged, and importing this module stays cheap
_parser = None


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv_module.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        spec = parse_instance(args)
        started = time.perf_counter()
        output, header, rows = COMMANDS[args.command].handler(spec)
        elapsed = time.perf_counter() - started
        record = {
            "command": args.command,
            "version": __version__,
            "instance": spec.echo(),
            "output": output,
            "wall_time_s": elapsed,
        }
        print(json.dumps(record, indent=2, sort_keys=True))
        if args.csv:
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
