"""The benchmark's workloads: the CLI calls of one round and their checks.

An op is one in-process call of ``chpdispatch.cli.run(argv)``, the path a
user takes, artifact writing included. A round is the workload's ops in
order; every op of a round gets a fresh output directory and its own
output check, and each failed check counts that op as failed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REL_TOL = 1e-9
KKT_GAP_MAX = 1e-7


def expected_values() -> dict:
    """Reference results of the seed code, recorded once (see expected.json)."""
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` without ``--out``, which the round adds."""

    label: str
    argv: tuple[str, ...]


# check(outputs, expected) -> {op label: failure messages}, where ``outputs``
# maps each op label of the round to its output directory.
Check = Callable[[dict, dict], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, str], tuple[Op, ...]]       # (seed, input dir) -> ops
    prepare: Callable[[Callable, str], None]         # (run, input dir) -> None
    check: Check


def _no_inputs(run, input_dir: str) -> None:
    os.makedirs(input_dir, exist_ok=True)


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_dispatch(outputs: dict, expected: dict) -> dict:
    s = _read_json(outputs["dispatch"], "summary.json")
    failures = []
    if s["status"] != "optimal":
        failures.append(f"status {s['status']}")
    if not s["kkt_gap"] <= KKT_GAP_MAX:
        failures.append(f"kkt gap {s['kkt_gap']:.3e} > {KKT_GAP_MAX:g}")
    if not _close(s["objective_usd"], expected["dispatch_t48_objective"]):
        failures.append(
            f"objective {s['objective_usd']!r} != recorded {expected['dispatch_t48_objective']!r}"
        )
    return {"dispatch": failures}


def check_compare(outputs: dict, expected: dict) -> dict:
    report = _read_json(outputs["compare"], "comparison.json")
    by_label = {}
    for m in report["methods"]:
        label = m["method"] if m["gamma"] is None else f"{m['method']}:{m['gamma']:g}"
        by_label[label] = m
    failures = []
    box, do, budget = by_label["erd-box"], by_label["do"], by_label["erd-budget:10"]
    box_hits = sum(box["violations_by_row"].values())
    if box["violation_rate"] != 0.0 or box_hits:
        failures.append(
            f"erd-box violates: rate {box['violation_rate']}, {box_hits} row violations"
        )
    if not do["violation_rate"] > 0.5:
        failures.append(f"do violation rate {do['violation_rate']} <= 0.5")
    if not do["j_nominal"] <= budget["j_nominal"] <= box["j_nominal"]:
        failures.append(
            "J_nom not ordered do <= erd-budget:10 <= erd-box: "
            f"{do['j_nominal']}, {budget['j_nominal']}, {box['j_nominal']}"
        )
    return {"compare": failures}


def read_reductions(out_dir: str) -> dict:
    """(family, step, row) -> reduction from schedule.csv, read by column name."""
    with open(os.path.join(out_dir, "schedule.csv"), encoding="utf-8", newline="") as fh:
        return {
            (r["family"], r["step"], r["row"]): float(r["reduction"])
            for r in csv.DictReader(fh)
        }


def check_tighten(outputs: dict, expected: dict) -> dict:
    box = read_reductions(outputs["box"])
    budget = read_reductions(outputs["budget"])
    failures = {"box": [], "budget": []}
    for label, red in (("box", box), ("budget", budget)):
        checksum = sum(red.values())
        recorded = expected[f"tighten_t288_{label}_reduction_sum"]
        if not _close(checksum, recorded):
            failures[label].append(f"reduction checksum {checksum!r} != recorded {recorded!r}")
    if budget.keys() != box.keys():
        failures["budget"].append("budget and box schedules list different rows")
    else:
        # the CSV carries 12 significant digits, so equal reductions may
        # differ in the last printed digit
        worse = [k for k, r in budget.items() if r > box[k] + REL_TOL * max(1.0, abs(box[k]))]
        if worse:
            failures["budget"].append(
                f"{len(worse)} budget reductions exceed box, first {worse[0]}"
            )
    return failures


def _write_reference(run, input_dir: str) -> None:
    os.makedirs(input_dir, exist_ok=True)
    code = run(["reference", "--horizon", "288", "--dt", "300", "--out", input_dir])
    if code != 0:
        raise RuntimeError(f"writing the full-day config exited with {code}")


def _tighten_ops(seed: int, input_dir: str) -> tuple[Op, ...]:
    config = os.path.join(input_dir, "reference.yaml")
    return (
        Op("box", ("tighten", "--config", config, "--mode", "box")),
        Op("budget", ("tighten", "--config", config, "--mode", "budget", "--gamma", "10")),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dispatch-t48",
            ops=lambda seed, d: (Op("dispatch", ("dispatch", "--horizon", "48", "--dt", "1800")),),
            prepare=_no_inputs,
            check=check_dispatch,
        ),
        Workload(
            name="compare-t24",
            ops=lambda seed, d: (
                Op("compare", (
                    "compare", "--horizon", "24", "--dt", "3600",
                    "--methods", "do,erd-box,erd-budget:10",
                    "--samples", "10000", "--seed", str(seed),
                )),
            ),
            prepare=_no_inputs,
            check=check_compare,
        ),
        Workload(
            name="tighten-t288",
            ops=_tighten_ops,
            prepare=_write_reference,
            check=check_tighten,
        ),
    )
}
