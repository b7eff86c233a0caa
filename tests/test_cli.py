"""End-to-end command-line behavior on a small reference horizon."""

import json
import os

import numpy as np
import pytest

import chpdispatch.cli as cli_module
import chpdispatch.validation as validation_module
from chpdispatch.cli import run
from chpdispatch.compile import unit_of
from chpdispatch.lp import LinearProgram

HORIZON = ["--horizon", "12", "--dt", "3600"]
DAY = ["--horizon", "24", "--dt", "3600"]


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def recorded(monkeypatch):
    """What the CLI's calls of these functions returned, by name."""
    seen = {}

    def record(name):
        fn = getattr(cli_module, name)

        def wrapper(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]

        monkeypatch.setattr(cli_module, name, wrapper)

    for name in ("compile_state_space", "tighten", "solve_dispatch", "evaluate"):
        record(name)
    return seen


# The output tables written one f-string per line or per cell, as before
# they were formatted a block at a time: references that share no code
# with the block templates.

def per_row_trajectory_csv(ssm, sol) -> str:
    man = ssm.manifest
    cols = (
        [f"x:{k}:{n}[{unit_of(k)}]" for k, n in man.x]
        + [f"u:{k}:{n}[{unit_of(k)}]" for k, n in man.u]
        + [f"y:{k}:{n}[{unit_of(k)}]" for k, n in man.y]
    )
    lines = ["step," + ",".join(cols)]
    T = ssm.horizon
    for t in range(T):
        vals = (
            [f"{v:.12g}" for v in sol.x_seq[t]]
            + [f"{v:.12g}" for v in sol.u_seq[t]]
            + [f"{v:.12g}" for v in sol.y_seq[t]]
        )
        lines.append(f"{t}," + ",".join(vals))
    lines.append(
        f"{T},"
        + ",".join([f"{v:.12g}" for v in sol.x_seq[T]] + [""] * (len(man.u) + len(man.y)))
    )
    return "\n".join(lines) + "\n"


def per_row_samples_csv(traces) -> str:
    lines = ["sample,violated[bool],realized_cost[$]"]
    for i in range(len(traces["violated"])):
        lines.append(f"{i},{int(traces['violated'][i])},{traces['realized_cost'][i]:.12g}")
    return "\n".join(lines) + "\n"


def per_row_bounds_csv(unit, fam, rows, nominal, **extra) -> str:
    up, lo = rows
    bounds, tight = fam.polyhedron.bounds, fam.tightened_bounds
    columns = ["nominal", "orig_lower", "orig_upper", "tight_lower", "tight_upper", *extra]
    lines = ["step," + ",".join(f"{col}[{unit}]" for col in columns)]
    for si, t in enumerate(fam.steps):
        t = int(t)
        values = [nominal[t], -bounds[lo], bounds[up], -tight[si, lo], tight[si, up]]
        values += [series[t] for series in extra.values()]
        lines.append(f"{t}," + ",".join(f"{v:.12g}" for v in values))
    return "\n".join(lines) + "\n"


def bounds_files(prefix, fam, kinds, seq, **extra) -> dict[str, str]:
    """File name -> per-row text of each bounds pair of ``fam`` whose stem
    starts with one of ``kinds``, for the nominal column of ``seq``."""
    files = {}
    for stem, rows in cli_module._bound_pairs(fam.polyhedron).items():
        if not stem.startswith(kinds):
            continue
        idx = int(np.argmax(np.abs(fam.polyhedron.coefficients[rows[0]])))
        name = stem.replace("[", "_").replace("]", "").replace(" ", "_")
        files[f"{prefix}_{name}.csv"] = per_row_bounds_csv(
            unit_of(stem), fam, rows, seq[:, idx],
            **{key: series[:, idx] for key, series in extra.items()},
        )
    return files


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


def test_tighten_streams_the_schedule_to_csv(tmp_path, recorded):
    code = run(["tighten", *DAY, "--mode", "budget", "--gamma", "10", "--out", str(tmp_path)])
    assert code == 0
    text = recorded["tighten"].to_csv()
    assert (tmp_path / "schedule.csv").read_bytes() == text.encode()


def test_dispatch_tables_match_per_row_writers(tmp_path, recorded):
    assert run(["dispatch", *DAY, "--plot-data", "--out", str(tmp_path)]) == 0
    ssm, sol = recorded["compile_state_space"], recorded["solve_dispatch"]
    assert (tmp_path / "dispatch.csv").read_bytes() == per_row_trajectory_csv(ssm, sol).encode()
    schedule = recorded["tighten"]
    expected = {
        **bounds_files("bounds", schedule.family("x"), ("battery_energy", "tank_level"), sol.x_seq),
        **bounds_files("bounds", schedule.family("u"), ("chp_p", "grid_p"), sol.u_seq),
    }
    written = sorted(f for f in os.listdir(tmp_path) if f.startswith("bounds_"))
    assert written == sorted(expected) and len(written) == 4
    for name in written:
        assert (tmp_path / name).read_bytes() == expected[name].encode(), name


def test_validate_tables_match_per_row_writers(tmp_path, recorded):
    # a budget that some of the uniform samples exceed: samples.csv flags both ways
    argv = ["validate", *DAY, "--mode", "budget", "--gamma", "1", "--samples", "300",
            "--seed", "7", "--traces", "--plot-data"]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    sol = recorded["solve_dispatch"]
    _, traces = recorded["evaluate"]
    assert 0 < traces["violated"].sum() < len(traces["violated"])
    assert (tmp_path / "samples.csv").read_bytes() == per_row_samples_csv(traces).encode()
    expected = bounds_files(
        "envelope", recorded["tighten"].family("x"), ("battery_energy", "tank_level"),
        sol.x_seq, env_min=traces["state_min"], env_max=traces["state_max"],
    )
    written = sorted(f for f in os.listdir(tmp_path) if f.startswith("envelope_"))
    assert written == sorted(expected) and len(written) == 2
    for name in written:
        assert (tmp_path / name).read_bytes() == expected[name].encode(), name


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


def test_dispatch_lp_nonzeros_count_the_built_lp(tmp_path, monkeypatch):
    built = []
    build = cli_module.build_nominal_problem

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli_module, "build_nominal_problem", recording)
    assert run(["dispatch", "--horizon", "24", "--dt", "3600", "--out", str(tmp_path)]) == 0
    (problem,) = built
    summary = json.loads(read(tmp_path / "summary.json"))
    assert summary["lp_nonzeros"] == (
        np.count_nonzero(problem.lp.g) + np.count_nonzero(problem.lp.a_eq)
    )


def test_dispatch_validate_compare_never_read_a_dense_lp(tmp_path, monkeypatch):
    """The dispatch LP stays sparse from its build to the KKT audit: no
    command on the dispatch path reads the dense view of G or A."""

    def refuse(lp):
        raise AssertionError("dense view of a dispatch LP read")

    monkeypatch.setattr(LinearProgram, "g", property(refuse))
    monkeypatch.setattr(LinearProgram, "a_eq", property(refuse))
    day = ["--horizon", "24", "--dt", "3600"]
    assert run(["dispatch", *day, "--out", str(tmp_path / "d")]) == 0
    assert run(["validate", *day, "--samples", "200", "--out", str(tmp_path / "v")]) == 0
    methods = "do,erd-box,erd-budget:10"
    assert run(["compare", *day, "--methods", methods, "--samples", "200",
                "--out", str(tmp_path / "c")]) == 0


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


def test_plot_data_keeps_a_one_sided_bound(tmp_path):
    # an infinite e_max drops the upper rows; the lower bound is still plotted
    from chpdispatch.config_io import document_text
    from chpdispatch.reference import reference_document

    doc = reference_document(4, 3600.0)
    doc["batteries"][0]["e_max"] = float("inf")
    config = tmp_path / "e_max_inf.yaml"
    config.write_text(document_text(doc), encoding="utf-8")
    argv = ["--config", str(config), "--plot-data", "--out", str(tmp_path)]
    assert run(["dispatch", *argv]) == 0
    assert run(["validate", "--samples", "20", *argv]) == 0
    for name in ("bounds_battery_energy_bat_10.csv", "envelope_battery_energy_bat_10.csv"):
        header, *rows = [line.split(",") for line in read(tmp_path / name).splitlines()]
        columns = [col.split("[")[0] for col in header]
        assert rows, name
        for row in rows:
            values = dict(zip(columns, row))
            assert values["orig_upper"] == values["tight_upper"] == "inf", name
            assert values["orig_lower"] == "0.1", name


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tighten", "--mode", "box", "--gamma", "-1"], "budget must be >= 0"),
        (["dispatch", "--mode", "box", "--gamma", "-1"], "budget must be >= 0"),
        (["validate", "--sampling", "budget", "--gamma", "-2", "--samples", "10"], "budget must be >= 0"),
        (["compare", "--methods", "do,erd-budget:-1", "--samples", "10"], "budget must be >= 0"),
        (["validate", "--sampling", "budget", "--samples", "10"], "budget mode requires a budget"),
        (["tighten", "--mode", "budget", "--gamma", "nan"], "budget must be >= 0, got nan"),
        (["dispatch", "--mode", "budget", "--gamma", "nan"], "budget must be >= 0, got nan"),
        (["validate", "--sampling", "budget", "--gamma", "nan", "--samples", "10"], "budget must be >= 0, got nan"),
        (["compare", "--methods", "do,erd-budget:nan", "--samples", "10"], "budget must be >= 0, got nan"),
    ],
)
def test_budget_errors_are_domain_errors(tmp_path, capsys, argv, message):
    code = run([*argv, *HORIZON, "--out", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_infinite_budget_tightens_as_box(tmp_path):
    """Directly and through the LP oracle, an infinite budget gives the box schedule."""
    for oracle in ([], ["--iterative"]):
        schedules = {}
        for mode in (["box"], ["budget", "--gamma", "inf"]):
            out = tmp_path / f"{mode[0]}{len(oracle)}"
            assert run(["tighten", *HORIZON, *oracle, "--mode", *mode, "--out", str(out)]) == 0
            schedules[mode[0]] = read(out / "schedule.csv")
        assert schedules["budget"] == schedules["box"]


def test_bad_flags_exit_usage():
    with pytest.raises(SystemExit) as err:
        run(["tighten", "--mode", "cubic"])
    assert err.value.code == 2


def test_unknown_method_is_domain_error(tmp_path):
    code = run(["compare", *HORIZON, "--methods", "nonsense", "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize(
    "methods, label",
    [("do,do", "do"), ("do,erd-budget:2,erd-budget:2.0", "erd-budget:2")],
    ids=["do", "budget"],
)
def test_repeated_method_is_domain_error(tmp_path, capsys, monkeypatch, methods, label):
    """Two methods with one label would share one timings entry: the
    comparison is refused before any method is tightened."""
    def no_schedule(*args):
        raise AssertionError("a method was tightened")

    monkeypatch.setattr(validation_module, "_schedule_for", no_schedule)
    code = run(["compare", "--horizon", "4", "--dt", "3600", "--methods", methods,
                "--samples", "20", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: method {label} given twice\n"
    assert not (tmp_path / "comparison_timings.json").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        (["--horizon", "0"], "horizon must be >= 1, got 0"),
        (["--horizon", "4", "--dt", "-5"], "step_seconds must be > 0, got -5.0"),
        (["--horizon", "4", "--dt", "nan"], "step_seconds must be > 0, got nan"),
    ],
    ids=["horizon-0", "dt-negative", "dt-nan"],
)
def test_reference_refuses_what_it_could_not_load(tmp_path, capsys, override, message):
    code = run(["reference", *override, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "reference.yaml").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reference", "--horizon", "0"],
        ["dispatch", "--horizon", "4", "--dt", "-5"],
        ["tighten", *HORIZON, "--mode", "budget"],
    ],
    ids=["reference", "dispatch", "tighten"],
)
def test_refused_command_makes_no_output_directory(tmp_path, argv):
    out = tmp_path / "deep"
    assert run([*argv, "--out", str(out)]) == 1
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, prefix, output",
    [
        (["dispatch", "--deterministic"], "", "dispatch.csv"),
        (["validate", "--deterministic", "--samples", "20"], "", "metrics.json"),
        (["compare", "--methods", "do", "--samples", "20"], "method do: ", "comparison.json"),
    ],
    ids=["dispatch", "validate", "compare"],
)
def test_infeasible_dispatch_names_blocking_rows(tmp_path, capsys, argv, prefix, output):
    """A grid that must export 2.9 pu at every step leaves no feasible
    dispatch: each command exits 1 with one line naming the blocking rows,
    and writes no result."""
    from chpdispatch.config_io import document_text
    from chpdispatch.reference import reference_document

    doc = reference_document(4, 3600.0)
    doc["grid"]["p_max"] = -2.9
    config = tmp_path / "export.yaml"
    config.write_text(document_text(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run([*argv, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"error: {prefix}dispatch infeasible; blocking rows: x[t=4] battery_energy[bat_10] lower, "
    )
    assert not (out / output).exists()


@pytest.mark.parametrize("with_config", [False, True], ids=["reference", "config"])
def test_lp_size_guard_hint_fits_the_input(tmp_path, capsys, monkeypatch, with_config):
    """An LP over the size limit is refused before it is built, with a hint
    that suggests only what the run accepts: the horizon/dt flags for the
    bundled reference, an edit of the config otherwise (which refuses those
    flags)."""
    source = HORIZON
    if with_config:
        assert run(["reference", *HORIZON, "--out", str(tmp_path)]) == 0
        source = ["--config", str(tmp_path / "reference.yaml")]
    placed = []
    monkeypatch.setattr("chpdispatch.dispatch._placed", lambda *args: placed.append(args))
    monkeypatch.setattr("chpdispatch.dispatch.MAX_LP_BYTES", 1000)
    capsys.readouterr()
    assert run(["dispatch", *source, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert not placed   # refused before any triplet of G or A was made
    # the T=12 reference's G and A: 12 B per nonzero and 4 B per row pointer
    assert (
        "dispatch LP of 2318 inequality rows with 7336 nonzeros needs 97308 bytes as CSR,"
        " and of 230 equality rows with 612 nonzeros needs 8268 bytes" in err
    )
    if with_config:
        assert "fewer, longer steps in the config" in err and "--horizon" not in err
        code = run(["dispatch", *source, "--horizon", "24", "--dt", "3600", "--out", str(tmp_path)])
        assert code == 1    # the flags the reference hint names
    else:
        assert "(e.g. --horizon 24 --dt 3600)" in err
