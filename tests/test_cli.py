import argparse
import json
import re
import shlex
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rankcontest import RewardVector, cli, quadrature, solve
from conftest import GOLDEN_COST


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("rankcontest") / "schemas" / "run_record.schema.json"
    ).read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    record = json.loads(captured.out) if captured.out.strip() else None
    run_cli.err = captured.err
    return code, record


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ["--n", "2", "--rewards", "1,0", "--cost", "linear:c0=0.25,slope=1"]
WTA3 = ["--n", "3", "--wta", "1", "--cost", "linear:c0=0.25,slope=1"]
# a runnable instance per command, to which a test adds one setting
BASE = {
    "design-attention": ["--caps", "1,0.5", "--cost", "linear:c0=0.25,slope=1"],
    "perturb": WTA3,
    "tax-sweep": WTA3,
    "avg-sign-sweep": ["--n", "3", "--budgets", "1", "--cost", "exp:k=1"],
    "wta-trial": ["--n", "3", "--budget", "0.875", "--trials", "10",
                  "--cost", "linear:c0=0.25,slope=1"],
    "verify": [],
}
# knobs that were removed, each with the command that read it last:
# the first three changed no result, and the quadrature rule is fixed
# per version; old records carrying them still validate, but no flag or
# config key accepts them
REMOVED_KNOBS = {
    "threads": "solve",
    "arg_tol": "solve",
    "delta": "solve",
    "quad_panels": "metrics",
    "quad_nodes": "metrics",
    "quad_tol": "metrics",
}
# (command, setting, value) outside the range any run can use; pytest
# names a list or dict value by its row's index, so rows keep their places
OUT_OF_RANGE = [
    ("solve", "grid", 0),
    ("deviate", "grid", -3),
    ("metrics", "n", 1),
    # json.load reads NaN and Infinity, and float() reads nan and inf
    ("metrics", "wta", float("inf")),
    ("metrics", "tax", float("nan")),
    ("perturb", "tax", float("inf")),
    ("metrics", "caps", [1.0, float("nan")]),
    ("design-attention", "levels", -1),
    ("design-attention", "levels", 1),
    ("simulate", "seed", -1),
    ("wta-trial", "seed", -4),
    ("simulate", "trials", 0),
    ("deviate", "trials", -2),
    ("verify", "suite", "bogus"),
    ("solve", "n", 1),
    ("tax-sweep", "n", 0),
    ("perturb", "rank", 1),
    ("avg-sign-sweep", "rank", 0),
    ("deviate", "margin", float("nan")),
    ("deviate", "margin", float("inf")),
    ("tax-sweep", "taxes", [float("nan"), float("inf")]),
    ("avg-sign-sweep", "budgets", [float("inf")]),
    ("solve", "rewards", [1.0, float("-inf")]),
    ("wta-trial", "budget", float("inf")),
    # the quadrature rule's settings are gone, so no value of theirs runs:
    # a config naming one exits 2, and a flag setting one is a usage error
    ("metrics", "quad_panels", 0),
    ("metrics", "quad_nodes", 0),
    ("metrics", "quad_nodes", 1),
    ("metrics", "quad_tol", -1.0),
    ("metrics", "quad_tol", 0.0),
    ("metrics", "quad_tol", float("inf")),
    # past mechanism.MAX_AGENTS ranks, before any schedule is built
    ("solve", "n", 1001),
    ("tax-sweep", "n", 1001),
    ("avg-sign-sweep", "n", 1001),
    ("wta-trial", "n", 1001),
    # time and memory grow with the grid, and no lattice of two or more
    # ranks fits design._MAX_CANDIDATES at 64 levels
    ("deviate", "grid", 10_001),
    ("design-attention", "levels", 64),
]
# (command, key, config value) of the wrong JSON type
WRONG_TYPE = [
    ("solve", "grid", "5"),
    ("simulate", "seed", "7"),
    ("simulate", "seed", 1.5),
    ("simulate", "seed", True),
    ("simulate", "trials", 2.5),
    ("metrics", "n", 2.0),
    ("metrics", "wta", "1"),
    ("metrics", "tax", True),
    ("solve", "n", False),
    ("solve", "rewards", [1, "a"]),
    ("solve", "rewards", [1, None]),
    ("design-attention", "caps", {"a": 1}),
    ("solve", "cost", 3),
    ("perturb", "rank", "3"),
    ("wta-trial", "budget", [1]),
    ("verify", "suite", ["all"]),
    ("metrics", "quad_panels", 64.0),
    ("metrics", "quad_tol", None),
    ("metrics", "quad_tol", "1e-9"),
]
# (command, flag value) that is not text of the setting's type
BAD_TEXT = [
    ("simulate", "seed", "abc"),
    ("simulate", "trials", "1e5"),
    ("solve", "rewards", "1,a"),
    ("metrics", "quad_tol", "tiny"),
]
# (command, key, value) of settings the command does not read, or, for
# ``delta`` and ``quad_tol``, that no command has any more; each was
# accepted and echoed, and changed nothing, while every command took
# every shared setting
UNREAD = [
    ("solve", "seed", 3),
    ("solve", "trials", 5),
    ("solve", "quad_tol", 1e-3),
    ("perturb", "quad_tol", 1e-2),
    ("perturb", "delta", 1e-3),
    ("tax-sweep", "tax", 0.5),
    ("design-attention", "n", 7),
    ("verify", "cost", "nonsense"),
    ("verify", "trials", 0),
]


def assert_refused(code, record, key, source):
    """The run wrote no record and exited 2 naming ``key``; a removed
    knob's flag is a usage error (exit 1), and its config key unknown."""
    assert record is None
    if source == "flag" and key in REMOVED_KNOBS:
        assert code == 1
        assert "unrecognized arguments: --" + key.replace("_", "-") in run_cli.err
    elif key in REMOVED_KNOBS:
        assert code == 2
        assert f"unknown config keys: ['{key}']" in run_cli.err
    else:
        assert code == 2
        assert key in run_cli.err


def with_setting(tmp_path, source, command, key, value):
    """argv running ``command`` on its base instance plus one setting,
    given as a flag or in a config file; the setting replaces any value
    the base instance gives it."""
    argv = [command, *BASE.get(command, GOLDEN)]
    flag = "--" + key.replace("_", "-")
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    if source == "flag":
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        return argv + [flag, text]
    config = tmp_path / "instance.json"
    config.write_text(json.dumps({key: value}))
    return argv + ["--config", str(config)]


def readme_examples():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("rankcontest ")
    ]


def settings_table():
    """{key: [default, bound, read by, meaning]} from the settings table
    in docs/instance-format.md."""
    text = (ROOT / "docs" / "instance-format.md").read_text()
    section = text.split("## Settings, defaults and bounds", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[1:]
    return rows


class TestSolve:
    def test_golden_record(self, capsys, schema):
        code, record = run_cli(capsys, "solve", *GOLDEN)
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["p"] == pytest.approx(0.75, abs=1e-10)
        assert record["output"]["regime"] == "interior"
        assert record["output"]["residual_max"] <= 1e-8
        # echoed defaults and the version make the run reproducible from
        # the record alone; the version fixes the quadrature rule
        echo = record["instance"]
        assert echo["grid"] == 129
        assert echo["rewards"] == [1.0, 0.0]
        assert not {"quad_panels", "quad_nodes", "quad_tol"} & set(echo)

    @pytest.mark.parametrize("knob", REMOVED_KNOBS)
    def test_removed_knob_not_echoed(self, capsys, schema, knob):
        code, record = run_cli(capsys, REMOVED_KNOBS[knob], *GOLDEN)
        assert code == 0
        assert knob not in record["instance"]
        # records written while the key existed still validate
        record["instance"][knob] = 1
        jsonschema.validate(record, schema)

    def test_csv_grid(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _ = run_cli(capsys, "solve", *GOLDEN, "--grid", "17", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "q,G,x,payoff_residual"
        assert len(lines) == 18

    def test_grid_inverted_twice(self, capsys, tmp_path, kernel_work):
        # G comes from the pressure already at hand, by cdf's formula, so
        # the grid is inverted for the pressure and the payoff residual
        # only, both from the solution's one table.  The kernel work of
        # solve, pressure and payoff_residual: 5 steps for the entry
        # probability, the table, one Newton pass per inversion and the
        # residual's benefit
        path = tmp_path / "grid.csv"
        argv = ["solve", "--rewards", "1,0.6,0.25,0", "--cost", "linear:c0=0.25,slope=1"]
        code, _ = run_cli(capsys, *argv, "--csv", str(path))
        assert code == 0
        assert kernel_work.calls == 9
        kernel_work.reset()
        sol = solve(RewardVector((1.0, 0.6, 0.25, 0.0)), GOLDEN_COST)
        grid = np.linspace(0.0, sol.qbar, 129)
        sol.pressure(grid)
        sol.payoff_residual(grid)
        assert kernel_work.calls == 9
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], grid)
        assert np.array_equal(table[:, 1], sol.cdf(grid))
        assert np.array_equal(table[:, 2], sol.pressure(grid))

    def test_wta_constructor(self, capsys):
        code, record = run_cli(
            capsys, "solve", "--n", "3", "--wta", "1",
            "--cost", "linear:c0=0.25,slope=1",
        )
        assert code == 0
        assert record["instance"]["rewards"] == [1.0, 0.0, 0.0]

    def test_caps_constructor(self, capsys):
        code, record = run_cli(
            capsys, "solve", "--caps", "1,0.5,0.4",
            "--cost", "linear:c0=0.3,slope=1",
        )
        assert code == 0
        assert record["instance"]["rewards"] == [1.0, 0.5, 0.3]


class TestExitCodes:
    def test_conflicting_constructors_usage(self, capsys):
        code, _ = run_cli(
            capsys, "solve", "--rewards", "1,0", "--wta", "1",
            "--cost", "linear:c0=0.25,slope=1", "--n", "2",
        )
        assert code == 1

    def test_tax_without_wta_usage(self, capsys):
        code, _ = run_cli(
            capsys, "solve", "--rewards", "1,0", "--tax", "0.05",
            "--cost", "linear:c0=0.25,slope=1",
        )
        assert code == 1

    def test_missing_constructor_usage(self, capsys):
        code, _ = run_cli(capsys, "solve", "--cost", "linear:c0=0.25,slope=1")
        assert code == 1

    def test_equal_rewards_validation(self, capsys):
        code, _ = run_cli(
            capsys, "solve", "--rewards", "1,1,1", "--cost", "linear:c0=0.25,slope=1"
        )
        assert code == 2
        assert "strict" in run_cli.err

    def test_bad_cost_validation(self, capsys):
        code, _ = run_cli(capsys, "solve", "--rewards", "1,0", "--cost", "cubic:a=1")
        assert code == 2

    @pytest.mark.parametrize("cost", [
        "exp:k=inf", "linear:c0=0.25,slope=inf", "quad:c0=0.1,a=1,b=inf",
        "linear:c0=inf,slope=1",
    ])
    def test_non_finite_cost_parameter_validation(self, capsys, cost):
        # the first three used to run 4,096 quadrature panels into exit 3,
        # and the last printed an all-zero record
        code, record = run_cli(capsys, "metrics", "--rewards", "1,0", "--cost", cost)
        assert code == 2
        assert record is None
        assert "requires a finite" in run_cli.err

    def test_unreachable_quadrature_numeric(self, capsys, monkeypatch):
        # with no doubling allowed the first two levels must already
        # agree; on this curved integrand they do not, so the rule gives
        # up and that maps to the numeric exit code
        monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 0)
        code, record = run_cli(
            capsys, "metrics", "--n", "3", "--wta", "2", "--cost", "exp:k=1"
        )
        assert code == 3
        assert record is None
        assert "did not reach tol=1e-09 within 128 panels" in run_cli.err

    def test_simulator_work_cap_validation(self, capsys):
        # 100,000 default trials of 1,000 agents exceed the work cap
        for command in ("simulate", "deviate"):
            code, record = run_cli(
                capsys, command, "--n", "1000", "--wta", "1",
                "--cost", "linear:c0=0.25,slope=1",
            )
            assert code == 2
            assert record is None
            assert "agent-trials" in run_cli.err

    @pytest.mark.parametrize("knob", REMOVED_KNOBS)
    def test_removed_knob_flag(self, capsys, knob):
        flag = "--" + knob.replace("_", "-")
        code, _ = run_cli(capsys, REMOVED_KNOBS[knob], *GOLDEN, flag, "1")
        assert code == 1
        assert "unrecognized arguments: " + flag in run_cli.err

    def test_levels_refused_before_the_lattice_is_built(self, capsys):
        # the setting's bound, not attention_certificate's lattice cap,
        # refuses it, so no million-level tuple is built first
        code, record = run_cli(
            capsys, "design-attention", "--caps", "1,0.5",
            "--cost", "linear:c0=0.25,slope=1", "--levels", "1000000",
        )
        assert code == 2
        assert record is None
        assert "levels must be between (2, 63), got 1000000" in run_cli.err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", OUT_OF_RANGE)
    def test_out_of_range_setting_validation(
        self, capsys, tmp_path, source, command, key, value
    ):
        code, record = run_cli(capsys, *with_setting(tmp_path, source, command, key, value))
        assert_refused(code, record, key, source)

    @pytest.mark.parametrize("command, key, value", WRONG_TYPE)
    def test_wrong_type_config_value_validation(self, capsys, tmp_path, command, key, value):
        code, record = run_cli(capsys, *with_setting(tmp_path, "config", command, key, value))
        assert code == 2
        assert record is None
        assert key in run_cli.err
        assert "Traceback" not in run_cli.err

    @pytest.mark.parametrize("command, key, text", BAD_TEXT)
    def test_unparseable_flag_validation(self, capsys, tmp_path, command, key, text):
        code, record = run_cli(capsys, *with_setting(tmp_path, "flag", command, key, text))
        assert_refused(code, record, key, "flag")

    @pytest.mark.parametrize("command, key, value", UNREAD)
    def test_unread_flag_usage(self, capsys, tmp_path, command, key, value):
        code, record = run_cli(capsys, *with_setting(tmp_path, "flag", command, key, value))
        assert code == 1
        assert record is None
        assert "unrecognized arguments: --" + key.replace("_", "-") in run_cli.err

    @pytest.mark.parametrize("command, key, value", UNREAD)
    def test_unread_config_key_validation(self, capsys, tmp_path, command, key, value):
        code, record = run_cli(capsys, *with_setting(tmp_path, "config", command, key, value))
        assert code == 2
        assert record is None
        assert f"unknown config keys: ['{key}']" in run_cli.err

    def test_verify_failure_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_golden_checks", lambda: [("forced", False)])
        code, record = run_cli(capsys, "verify", "--suite", "golden")
        assert code == 4
        assert record["output"]["failures"] == 1


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(
            json.dumps({"n": 2, "rewards": [1, 0], "cost": "linear:c0=0.25,slope=1"})
        )
        code, record = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0
        assert record["output"]["p"] == pytest.approx(0.75, abs=1e-10)

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(
            json.dumps({"n": 2, "rewards": [1, 0], "cost": "linear:c0=0.25,slope=1"})
        )
        code, record = run_cli(
            capsys, "solve", "--config", str(config), "--rewards", "1,0.5"
        )
        assert code == 0
        assert record["output"]["regime"] == "full"

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(json.dumps({"rewards": [1, 0], "costt": "x"}))
        code, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize("knob", REMOVED_KNOBS)
    def test_removed_knob_key_rejected(self, capsys, tmp_path, knob):
        config = tmp_path / "instance.json"
        config.write_text(json.dumps({"rewards": [1, 0], knob: 1}))
        code, _ = run_cli(capsys, REMOVED_KNOBS[knob], "--config", str(config))
        assert code == 2
        assert f"unknown config keys: ['{knob}']" in run_cli.err

    def test_def21_rejection_from_config(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(
            json.dumps({"rewards": [1, 1, 1], "cost": "linear:c0=0.25,slope=1"})
        )
        code, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 2


class TestCommandOutputs:
    def test_metrics(self, capsys, schema):
        code, record = run_cli(capsys, "metrics", *GOLDEN)
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["budget"] == pytest.approx(0.9375, abs=1e-10)
        assert record["output"]["W"] == pytest.approx([0.46875, 0.28125])

    def test_simulate(self, capsys, schema):
        code, record = run_cli(capsys, "simulate", *GOLDEN, "--trials", "500")
        assert code == 0
        jsonschema.validate(record, schema)
        assert sum(record["output"]["entrant_histogram"]) == 500

    def test_deviate(self, capsys, schema, tmp_path):
        path = tmp_path / "curve.csv"
        code, record = run_cli(
            capsys, "deviate", *GOLDEN, "--trials", "400", "--grid", "5",
            "--csv", str(path),
        )
        assert code == 0
        jsonschema.validate(record, schema)
        assert len(record["output"]["curve"]) == 5
        assert path.read_text().splitlines()[0] == "q,mean_payoff,stderr,n_trials"

    def test_design_attention(self, capsys, schema):
        code, record = run_cli(
            capsys, "design-attention", "--caps", "1,0.5,0.4",
            "--cost", "linear:c0=0.3,slope=1",
        )
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["schedule"] == [1.0, 0.5, 0.3]
        assert record["output"]["max_optimal"] is True

    def test_perturb(self, capsys, schema):
        code, record = run_cli(
            capsys, "perturb", "--n", "3", "--wta", "1", "--rank", "2",
            "--cost", "linear:c0=0.25,slope=1",
        )
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["d_eqmax"] <= 1e-8

    def test_tax_sweep_constant_budget(self, capsys, schema, tmp_path):
        path = tmp_path / "taxes.csv"
        code, record = run_cli(
            capsys, "tax-sweep", "--n", "3", "--wta", "1",
            "--taxes", "0,0.01,0.02", "--cost", "linear:c0=0.25,slope=1",
            "--csv", str(path),
        )
        assert code == 0
        jsonschema.validate(record, schema)
        rows = record["output"]["rows"]
        budgets = [row["budget"] for row in rows]
        assert max(budgets) - min(budgets) <= 1e-8
        assert len(path.read_text().strip().splitlines()) == 4

    def test_tax_sweep_bad_prize_refused(self, capsys):
        # every row would fail alike, so the run fails instead
        code, record = run_cli(
            capsys, "tax-sweep", "--n", "3", "--wta", "-1",
            "--cost", "linear:c0=0.25,slope=1",
        )
        assert code == 2
        assert record is None
        assert "winner-take-all needs a strictly positive top prize" in run_cli.err

    def test_wta_trial(self, capsys, schema):
        code, record = run_cli(
            capsys, "wta-trial", "--n", "3", "--budget", "0.875", "--trials", "10",
            "--cost", "linear:c0=0.25,slope=1",
        )
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["violations"] == 0

    @pytest.mark.parametrize("suite", ["identities", "all"])
    def test_verify_clean(self, capsys, schema, suite):
        code, record = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["failures"] == 0

    def test_verify_checks_quality_identities(self, capsys):
        _, record = run_cli(capsys, "verify", "--suite", "identities")
        names = [check["name"] for check in record["output"]["checks"]]
        for label in ("rent dissipation", "linear E[avg] closed form, tied top"):
            (name,) = [name for name in names if label in name]
            assert re.search(r"\(worst \d\.\d\de-\d\d\)$", name), name


class TestDeterminism:
    def test_identical_records_modulo_walltime(self, capsys):
        _, first = run_cli(capsys, "simulate", *GOLDEN, "--trials", "300")
        _, second = run_cli(capsys, "simulate", *GOLDEN, "--trials", "300")
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second


class TestSharedParser:
    # main builds its parser once per process; an argparse usage error
    # and a validation error must leave it as later commands need it
    SEQUENCE = [
        (1, ["simulate", *GOLDEN, "--grid", "5"]),
        (2, ["solve", "--rewards", "1,1,1", "--cost", "linear:c0=0.25,slope=1"]),
        (0, ["simulate", *GOLDEN, "--trials", "300", "--seed", "4"]),
        (0, ["deviate", *GOLDEN, "--trials", "300", "--grid", "7"]),
        (0, ["solve", *GOLDEN, "--grid", "9"]),
        (0, ["verify", "--suite", "golden"]),
    ]

    @staticmethod
    def outcome(capsys, argv):
        code, record = run_cli(capsys, *argv)
        if record is not None:
            record.pop("wall_time_s")
        return code, record, run_cli.err

    def test_one_parser_gives_each_command_its_own_record(self, capsys, monkeypatch):
        alone = []
        for _, argv in self.SEQUENCE:
            monkeypatch.setattr(cli, "_parser", None)
            alone.append(self.outcome(capsys, argv))
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        shared = [self.outcome(capsys, argv) for _, argv in self.SEQUENCE]
        assert [code for code, _, _ in shared] == [code for code, _ in self.SEQUENCE]
        assert shared == alone
        assert len(builds) == 1


class TestSurface:
    def test_each_command_takes_only_the_settings_it_reads(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: [a.dest for a in cmd._actions if a.dest not in ("help", "config", "csv")]
            for name, cmd in sub.choices.items()
        }
        assert flags == {name: list(cmd.reads) for name, cmd in cli.COMMANDS.items()}
        assert sum(map(len, flags.values())) == 55

    def test_schema_command_enum_is_the_command_table(self, schema):
        assert schema["properties"]["command"]["enum"] == list(cli.COMMANDS)

    def test_settings_table_matches_declarations(self):
        rows = settings_table()
        assert list(rows) == list(cli.SETTINGS)
        for name, (default, bound, read_by, _) in rows.items():
            declared = cli.SETTINGS[name]
            readers = [c for c, cmd in cli.COMMANDS.items() if name in cmd.reads]
            assert read_by.split(", ") == readers, name
            relation, limit = declared.metadata["bound"] or ("", "")
            if isinstance(limit, tuple):
                limit = ", ".join(map(str, limit))
            assert bound == f"{relation} {limit}".strip(), name
            if declared.default is not None:
                assert default == str(declared.default) or float(default) == declared.default

    def test_readme_examples_cover_every_command(self):
        assert sorted(argv[0] for argv in readme_examples()) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
    def test_readme_example_runs(self, capsys, tmp_path, argv):
        if "--csv" in argv:
            at = argv.index("--csv") + 1
            argv = [*argv[:at], str(tmp_path / argv[at]), *argv[at + 1:]]
        code, record = run_cli(capsys, *argv)
        assert code == 0, run_cli.err
        assert record["command"] == argv[0]


def test_console_entry_point_configured():
    # The declaration in pyproject.toml is checked on every tree; installed
    # metadata exists only after an install, so it is compared only there.
    tomllib = pytest.importorskip("tomllib")
    from importlib.metadata import EntryPoint, PackageNotFoundError, distribution

    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["rankcontest"] == "rankcontest.cli:main"
    # resolved the way the generated console-script wrapper resolves it
    entry = EntryPoint(
        name="rankcontest", value=scripts["rankcontest"], group="console_scripts"
    )
    assert entry.load() is cli.main

    try:
        dist = distribution("rankcontest")
    except PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = dist.entry_points.select(group="console_scripts", name="rankcontest")
        assert [ep.value for ep in installed] == [scripts["rankcontest"]]
