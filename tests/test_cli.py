import json
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from rankcontest import cli


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


GOLDEN = ["--n", "2", "--rewards", "1,0", "--cost", "linear:c0=0.25,slope=1"]


class TestSolve:
    def test_golden_record(self, capsys, schema):
        code, record = run_cli(capsys, "solve", *GOLDEN)
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["p"] == pytest.approx(0.75, abs=1e-10)
        assert record["output"]["regime"] == "interior"
        assert record["output"]["residual_max"] <= 1e-8
        # echoed defaults make the run reproducible from the record alone
        echo = record["instance"]
        assert echo["arg_tol"] == 1e-12
        assert echo["quad_panels"] == 64
        assert echo["rewards"] == [1.0, 0.0]

    def test_threads_no_longer_echoed(self, capsys, schema):
        code, record = run_cli(capsys, "solve", *GOLDEN)
        assert code == 0
        assert "threads" not in record["instance"]
        # records written while the key existed still validate
        record["instance"]["threads"] = 1
        jsonschema.validate(record, schema)

    def test_csv_grid(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _ = run_cli(capsys, "solve", *GOLDEN, "--grid", "17", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "q,G,x,payoff_residual"
        assert len(lines) == 18

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

    def test_unreachable_quadrature_numeric(self, capsys):
        # a coarse rule on a curved integrand keeps drifting, so the
        # panel budget runs out and maps to the numeric exit code
        code, _ = run_cli(
            capsys, "metrics", "--n", "3", "--wta", "2", "--cost", "exp:k=1",
            "--quad-panels", "1", "--quad-nodes", "2", "--quad-tol", "1e-30",
        )
        assert code == 3

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

    def test_threads_flag_removed(self, capsys):
        code, _ = run_cli(capsys, "solve", *GOLDEN, "--threads", "2")
        assert code == 1

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

    def test_threads_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(json.dumps({"rewards": [1, 0], "threads": 1}))
        code, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 2
        assert "unknown config keys: ['threads']" in run_cli.err

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

    def test_wta_trial(self, capsys, schema):
        code, record = run_cli(
            capsys, "wta-trial", "--n", "3", "--budget", "0.875", "--trials", "10",
            "--cost", "linear:c0=0.25,slope=1",
        )
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["violations"] == 0

    def test_verify_clean(self, capsys, schema):
        code, record = run_cli(capsys, "verify", "--suite", "golden")
        assert code == 0
        jsonschema.validate(record, schema)
        assert record["output"]["failures"] == 0


class TestDeterminism:
    def test_identical_records_modulo_walltime(self, capsys):
        _, first = run_cli(capsys, "simulate", *GOLDEN, "--trials", "300")
        _, second = run_cli(capsys, "simulate", *GOLDEN, "--trials", "300")
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second


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
