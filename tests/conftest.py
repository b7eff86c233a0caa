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
from chpdispatch.dispatch import CostModel, Policy, deterministic_schedule, solve_dispatch
from chpdispatch.model import SystemModel
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import UncertaintyTube
from chpdispatch.tighten import FeedbackGain, choose_gain, tighten


@dataclass
class Pipeline:
    model: SystemModel
    ssm: StateSpaceModel
    constraints: ConstraintFamily
    tube: UncertaintyTube
    gain: FeedbackGain
    costs: CostModel


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
    sol = solve_dispatch(ref24.ssm, schedule, ref24.costs, ref24.tube.w_center)
    assert sol.is_optimal
    return sol


@pytest.fixture(scope="session")
def ref24_do_solution(ref24):
    schedule = deterministic_schedule(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
    sol = solve_dispatch(ref24.ssm, schedule, ref24.costs, ref24.tube.w_center)
    assert sol.is_optimal
    return sol


@pytest.fixture(scope="session")
def ref24_box_policy(ref24, ref24_box_solution):
    return Policy(solution=ref24_box_solution, gain=ref24.gain)


@pytest.fixture(scope="session")
def ref24_do_policy(ref24, ref24_do_solution):
    return Policy(solution=ref24_do_solution, gain=ref24.gain)
