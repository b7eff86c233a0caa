"""End-to-end command-line behavior on a small reference horizon."""

import json
import os

import pytest

from chpdispatch.cli import run

HORIZON = ["--horizon", "12", "--dt", "3600"]


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_reference_emits_loadable_config(tmp_path):
    code = run(["reference", "--horizon", "12", "--dt", "3600", "--out", str(tmp_path)])
    assert code == 0
    cfg = tmp_path / "reference.yaml"
    assert cfg.exists()
    from chpdispatch.config_io import load_system

    model = load_system(cfg)
    assert model.horizon == 12


def test_tighten_writes_schedule(tmp_path):
    code = run(["tighten", *HORIZON, "--mode", "box", "--out", str(tmp_path)])
    assert code == 0
    text = read(tmp_path / "schedule.csv")
    header = text.splitlines()[0]
    assert header == "family,step,row,unit,original_bound,reduction,tightened_bound"
    assert "battery_energy[bat_10]" in text
    assert ",fraction," in text and ",degC," in text


def test_dispatch_writes_summary_and_trajectory(tmp_path):
    code = run(["dispatch", *HORIZON, "--mode", "box", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "summary.json"))
    assert summary["status"] == "optimal"
    assert summary["objective_usd"] > 0
    assert summary["lp_variables"] < 1000
    assert 0 < summary["lp_nonzeros"] < summary["lp_variables"] * (
        summary["lp_inequalities"] + summary["lp_equalities"]
    )
    for key in ("kkt_gap", "kkt_primal_residual", "kkt_dual_residual", "kkt_complementarity"):
        assert 0.0 <= summary[key] <= 1e-7
    assert "iterations" not in summary and "solver" not in summary
    traj = read(tmp_path / "dispatch.csv")
    assert traj.splitlines()[0].startswith("step,")
    assert "u:grid_p:grid[pu]" in traj.splitlines()[0]
    timings = json.loads(read(tmp_path / "timings.json"))
    assert "solve_seconds" in timings
    assert timings["solver"] == "highs" and isinstance(timings["iterations"], int)


def test_dispatch_plot_data(tmp_path):
    code = run(["dispatch", *HORIZON, "--plot-data", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    bounds = [f for f in files if f.startswith("bounds_")]
    assert any("battery_energy" in f for f in bounds)
    text = read(tmp_path / bounds[0])
    header = text.splitlines()[0]
    assert header.startswith("step,nominal[")
    assert "tight_upper[" in header


def test_validate_deterministic_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = [
        "validate", *HORIZON, "--mode", "budget", "--gamma", "10",
        "--samples", "500", "--seed", "7",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read(out1 / "metrics.json") == read(out2 / "metrics.json")
    assert read(out1 / "metrics.csv") == read(out2 / "metrics.csv")
    payload = json.loads(read(out1 / "metrics.json"))
    assert payload["gamma"] == 10
    assert payload["sample_count"] == 500


def test_compare_table_ordering(tmp_path):
    code = run([
        "compare", *HORIZON, "--methods", "do,erd-box",
        "--samples", "400", "--seed", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads(read(tmp_path / "comparison.json"))
    methods = {r["method"]: r for r in report["methods"]}
    assert methods["erd-box"]["violation_rate"] == 0.0
    assert methods["do"]["violation_rate"] > methods["erd-box"]["violation_rate"]
    assert "tighten_seconds" not in methods["do"]   # timings live in their own file
    timings = json.loads(read(tmp_path / "comparison_timings.json"))
    assert "do" in timings and "erd-box" in timings
    table = read(tmp_path / "comparison.txt")
    assert "do" in table and "erd-box" in table


def test_validate_traces_and_envelopes(tmp_path):
    code = run([
        "validate", *HORIZON, "--samples", "50", "--seed", "1",
        "--traces", "--plot-data", "--out", str(tmp_path),
    ])
    assert code == 0
    text = read(tmp_path / "samples.csv")
    lines = text.splitlines()
    assert lines[0] == "sample,violated[bool],realized_cost[$]"
    assert len(lines) == 51
    env_files = [f for f in os.listdir(tmp_path) if f.startswith("envelope_")]
    assert env_files
    env = read(tmp_path / env_files[0])
    header = env.splitlines()[0]
    assert "env_min[" in header and "env_max[" in header
    # envelope must sit inside the original bounds for the robust policy
    import csv as _csv

    rows = list(_csv.reader(env.splitlines()))
    for row in rows[1:]:
        _, nom, olo, ohi, tlo, thi, emin, emax = map(float, row)
        assert olo - 1e-9 <= emin <= emax <= ohi + 1e-9


def test_budget_mode_requires_gamma(tmp_path):
    code = run(["tighten", *HORIZON, "--mode", "budget", "--out", str(tmp_path)])
    assert code == 1


def test_bad_flags_exit_usage():
    with pytest.raises(SystemExit) as err:
        run(["tighten", "--mode", "cubic"])
    assert err.value.code == 2


def test_unknown_method_is_domain_error(tmp_path):
    code = run(["compare", *HORIZON, "--methods", "nonsense", "--out", str(tmp_path)])
    assert code == 1


def test_empty_method_list_is_domain_error(tmp_path, capsys):
    code = run(["compare", *HORIZON, "--methods", ",", "--out", str(tmp_path)])
    assert code == 1
    assert "no methods given" in capsys.readouterr().err
    assert not (tmp_path / "comparison.json").exists()


def test_malformed_yaml_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nhorizon: [1, 2\n", encoding="utf-8")
    code = run(["tighten", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # file:line:column of the parser's mark (1-based)
    assert f"{bad}:3:1:" in err[0] and "YAML syntax error" in err[0]


@pytest.mark.parametrize(
    "override, message",
    [
        (["--horizon", "0", "--dt", "3600"], "horizon must be >= 1, got 0"),
        (["--horizon", "12", "--dt", "0"], "step_seconds must be > 0, got 0.0"),
    ],
)
def test_zero_override_is_domain_error(tmp_path, capsys, override, message):
    code = run(["tighten", *override, "--out", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_zero_override_with_config_is_domain_error(tmp_path, capsys):
    assert run(["reference", *HORIZON, "--out", str(tmp_path)]) == 0
    config = str(tmp_path / "reference.yaml")
    code = run(["tighten", "--config", config, "--horizon", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "overrides apply to the bundled reference only" in capsys.readouterr().err
