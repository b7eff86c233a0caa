"""Shared fixtures: the solved reference pipeline (synthetic systems are in
``synthetic.py``)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from chpdispatch.compile import (
    ConstraintFamily,
    StateSpaceModel,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from chpdispatch.dispatch import (
    CostModel,
    Policy,
    build_nominal_problem,
    deterministic_schedule,
    solve_dispatch,
)
from chpdispatch.lp import LinearProgram
from chpdispatch.model import SystemModel
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import UncertaintyTube
from chpdispatch.tighten import FeedbackGain, TightenedSchedule, choose_gain, tighten


@dataclass
class Pipeline:
    model: SystemModel
    ssm: StateSpaceModel
    constraints: ConstraintFamily
    tube: UncertaintyTube
    gain: FeedbackGain
    costs: CostModel


@dataclass
class ReferenceDay:
    """The reference over one day, its DO, box and budget:10 schedules and
    their nominal LPs."""

    ssm: StateSpaceModel
    tube: UncertaintyTube
    costs: CostModel
    schedules: dict[str, TightenedSchedule]
    lps: dict[str, LinearProgram]


@pytest.fixture(scope="session", params=[24, 48])
def reference_day(request) -> ReferenceDay:
    T = request.param
    model = build_reference_system(T, 86400.0 / T)
    ssm = compile_state_space(model)
    cons = compile_constraints(model, ssm)
    tube = compile_uncertainty_tube(model)
    gain = choose_gain(ssm)
    costs = CostModel.from_model(model)
    schedules = {
        "do": deterministic_schedule(ssm, cons, tube, gain),
        "erd-box": tighten(ssm, cons, tube, gain, mode="box"),
        "erd-budget:10": tighten(ssm, cons, tube, gain, mode="budget", budget=10.0),
    }
    lps = {k: build_nominal_problem(ssm, s, costs, tube.w_center).lp for k, s in schedules.items()}
    return ReferenceDay(ssm, tube, costs, schedules, lps)


@pytest.fixture(scope="session")
def ref24() -> Pipeline:
    model = build_reference_system(24, 3600.0)
    ssm = compile_state_space(model)
    return Pipeline(
        model=model,
        ssm=ssm,
        constraints=compile_constraints(model, ssm),
        tube=compile_uncertainty_tube(model),
        gain=choose_gain(ssm),
        costs=CostModel.from_model(model),
    )


@pytest.fixture(scope="session")
def ref24_box_solution(ref24):
    schedule = tighten(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain, mode="box")
    return solve_dispatch(ref24.ssm, schedule, ref24.costs, ref24.tube.w_center)


@pytest.fixture(scope="session")
def ref24_do_solution(ref24):
    schedule = deterministic_schedule(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
    return solve_dispatch(ref24.ssm, schedule, ref24.costs, ref24.tube.w_center)


@pytest.fixture(scope="session")
def ref24_box_policy(ref24, ref24_box_solution):
    return Policy(solution=ref24_box_solution, gain=ref24.gain)


@pytest.fixture(scope="session")
def ref24_do_policy(ref24, ref24_do_solution):
    return Policy(solution=ref24_do_solution, gain=ref24.gain)
