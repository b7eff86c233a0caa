"""Tests of the benchmark's own output checks and of its tracing.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import importlib
import json
import os
import types

import pytest

import chpdispatch
import tracing
import worker
from workloads import WORKLOADS, expected_values

EXPECTED = expected_values()


def fake_run(files: dict, code: int = 0):
    """A stand-in for ``cli.run`` that writes ``files`` into ``--out``."""

    def run(argv):
        out = argv[argv.index("--out") + 1]
        for name, text in files.items():
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return code

    return run


def summary(**changes) -> dict:
    s = {"status": "optimal", "kkt_gap": 1e-15, "objective_usd": EXPECTED["dispatch_t48_objective"]}
    s.update(changes)
    return {"summary.json": json.dumps(s)}


def method(name, gamma, rate, j_nom, hits=None):
    return {
        "method": name, "gamma": gamma, "violation_rate": rate, "j_nominal": j_nom,
        "violations_by_row": hits or {},
    }


def comparison(box_hits=None, box_rate=0.0) -> dict:
    report = {"methods": [
        method("do", None, 1.0, 1686.5),
        method("erd-box", None, box_rate, 1952.3, box_hits),
        method("erd-budget", 10.0, 0.0, 1900.0),
    ]}
    return {"comparison.json": json.dumps(report)}


def round_failures(workload: str, run, tmp_path) -> dict:
    w = WORKLOADS[workload]
    ops = w.ops(7, str(tmp_path / "inputs"))
    return worker.run_round(w, ops, str(tmp_path), EXPECTED, run)["failures"]


def test_valid_outputs_pass(tmp_path):
    assert round_failures("dispatch-t48", fake_run(summary()), tmp_path) == {}
    assert round_failures("compare-t24", fake_run(comparison()), tmp_path) == {}


def test_tampered_objective_fails(tmp_path):
    objective = EXPECTED["dispatch_t48_objective"] * (1 + 1e-6)
    failures = round_failures("dispatch-t48", fake_run(summary(objective_usd=objective)), tmp_path)
    assert list(failures) == ["dispatch"]
    assert "objective" in failures["dispatch"][0]


def test_kkt_gap_and_status_fail(tmp_path):
    failures = round_failures(
        "dispatch-t48", fake_run(summary(kkt_gap=1e-6, status="infeasible")), tmp_path
    )
    assert len(failures["dispatch"]) == 2


@pytest.mark.parametrize("hits, rate", [({"voltage[9] upper": 1}, 0.0), ({}, 1e-4)])
def test_nonzero_violation_count_fails(tmp_path, hits, rate):
    failures = round_failures("compare-t24", fake_run(comparison(hits, rate)), tmp_path)
    assert "erd-box violates" in failures["compare"][0]


def test_nonzero_exit_code_fails(tmp_path):
    failures = round_failures("dispatch-t48", fake_run(summary(), code=1), tmp_path)
    assert failures == {"dispatch": ["exit code 1"]}


def test_exception_in_op_fails(tmp_path):
    def run(argv):
        raise ValueError("boom")

    assert round_failures("compare-t24", run, tmp_path) == {"compare": ["exit code exception"]}


def schedule(rows) -> str:
    lines = ["family,step,row,unit,original_bound,reduction,tightened_bound"]
    lines += [f"y,{t},r{t},pu,1,{red!r},{1 - red!r}" for t, red in enumerate(rows)]
    return "\n".join(lines) + "\n"


def test_tighten_checks_read_columns_by_name(tmp_path):
    box, budget = [0.5, 0.25], [0.25, 0.25]
    expected = dict(
        EXPECTED,
        tighten_t288_box_reduction_sum=sum(box),
        tighten_t288_budget_reduction_sum=sum(budget),
    )
    dirs = {}
    for label, rows in (("box", box), ("budget", budget)):
        dirs[label] = tmp_path / label
        dirs[label].mkdir()
        # a reordered header must not matter
        text = schedule(rows).replace("unit,original_bound", "original_bound,unit")
        (dirs[label] / "schedule.csv").write_text(text)
    check = WORKLOADS["tighten-t288"].check
    assert check({k: str(v) for k, v in dirs.items()}, expected) == {"box": [], "budget": []}

    (dirs["budget"] / "schedule.csv").write_text(schedule([0.75, 0.0]))
    failures = check({k: str(v) for k, v in dirs.items()}, expected)
    assert failures["box"] == []
    assert any("exceed box" in m for m in failures["budget"])


def test_call_sites_resolve_to_modules():
    # the package rebinds this name to the function of the same name
    assert not isinstance(chpdispatch.tighten, types.ModuleType)
    for module_name, attr, *_ in tracing.CALL_SITES:
        module = importlib.import_module(module_name)
        assert isinstance(module, types.ModuleType)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def test_traced_op_restores_call_sites_and_adds_up(tmp_path):
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracing.CALL_SITES
    }
    tracer = tracing.Tracer()
    argv = [
        "compare", "--horizon", "4", "--dt", "3600", "--methods", "do,erd-box,erd-budget:1",
        "--samples", "20", "--out", str(tmp_path),
    ]
    with tracing.Instrumented(tracer):
        root = tracer.open("cli.run", "cli")
        assert importlib.import_module("chpdispatch.cli").run(argv) == 0
        tracer.close(root)
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} not restored"

    names = {s.name for s in tracer.spans}
    assert {"tighten.do", "tighten.box", "tighten.budget", "lp.solve", "lp.kkt",
            "dispatch.build", "validation.evaluate", "validation.realized_cost"} <= names
    m = tracing.op_metrics(tracer.spans, root.duration, 0)
    assert m["lp.calls"] == 3
    assert m["validation.realized_cost_calls"] == 60
    assert m["validation.scenario_steps"] == 3 * 20 * 4
    assert abs(m["trace.uncovered_s"]) < 1e-9


def test_failed_op_fails_its_whole_round(tmp_path):
    def run(argv):
        return 1 if "budget" in argv else 0

    failures = round_failures("tighten-t288", run, tmp_path)
    assert failures["budget"] == ["exit code 1"]
    assert failures["box"] == ["not checked: another op of the round failed"]
