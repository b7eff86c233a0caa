"""Shared fixtures: the solved reference pipeline and synthetic systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from chpdispatch.compile import (
    ConstraintFamily,
    LiftedOutputMap,
    StateSpaceModel,
    VariableManifest,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from chpdispatch.dispatch import CostModel, Policy, deterministic_schedule, solve_dispatch
from chpdispatch.heatnet import TemperatureMaps
from chpdispatch.model import SystemModel
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import PolyhedronH, UncertaintyTube
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


def synthetic_manifest(n_x: int, n_u: int, n_y: int, n_w: int) -> VariableManifest:
    return VariableManifest(
        x=tuple(("state", f"x{i}") for i in range(n_x)),
        u=tuple(("control", f"u{i}") for i in range(n_u)),
        y=tuple(("analysis", f"y{i}") for i in range(n_y)),
        w=tuple(("noise", f"w{i}") for i in range(n_w)),
    )


def random_system(
    rng: np.random.Generator,
    n_x: int = 2,
    n_u: int = 2,
    n_y: int = 3,
    n_w: int = 2,
    horizon: int = 12,
    with_memory: bool = True,
    nonzero_gain: bool = True,
    centered: bool = False,
) -> tuple[StateSpaceModel, ConstraintFamily, UncertaintyTube, FeedbackGain]:
    """A small synthetic model exercising every tightening code path."""
    A = np.diag(rng.uniform(0.75, 0.95, n_x))
    B = rng.normal(size=(n_x, n_u)) * 0.3
    D = rng.normal(size=(n_x, n_w)) * 0.4

    feed_u = rng.normal(size=(n_y, n_u)) * 0.5
    feed_w = rng.normal(size=(n_y, n_w)) * 0.5
    const = rng.normal(size=(horizon, n_y)) * 0.1

    if with_memory and n_y >= 2:
        n_mem = min(2, n_y)
        mem_rows = np.arange(n_y - n_mem, n_y)
        n_ch = n_mem
        base = rng.normal(size=(n_ch, n_ch)) * 0.5
        decay = rng.uniform(0.3, 0.8)
        kernel = np.stack([base * decay**k for k in range(horizon)])
        temps = TemperatureMaps(
            n_node=n_ch // 2 if n_ch % 2 == 0 else n_ch,
            horizon=horizon,
            offset=np.zeros((horizon, n_ch)),
            kernel=kernel,
        )
        heat_u = rng.normal(size=(n_ch, n_u)) * 0.3
        heat_w = rng.normal(size=(n_ch, n_w)) * 0.3
        feed_u[mem_rows] = 0.0
        feed_w[mem_rows] = 0.0
    else:
        mem_rows = np.zeros(0, dtype=int)
        temps = None
        heat_u = np.zeros((0, n_u))
        heat_w = np.zeros((0, n_w))

    output = LiftedOutputMap(
        feed_u=feed_u,
        feed_w=feed_w,
        const=const,
        memory_rows=mem_rows,
        heat_u=heat_u,
        heat_w=heat_w,
        temps=temps,
    )
    ssm = StateSpaceModel(
        A=A,
        B=B,
        D=D,
        output=output,
        manifest=synthetic_manifest(n_x, n_u, n_y, n_w),
        horizon=horizon,
        x0=np.zeros(n_x),
    )

    if nonzero_gain:
        k = rng.normal(size=(n_u, n_x)) * 0.2
        for _ in range(60):
            if np.max(np.abs(np.linalg.eigvals(A + B @ k))) <= 0.98:
                break
            k *= 0.5
        else:
            k = np.zeros((n_u, n_x))
        gain = FeedbackGain(k=k, phi=A + B @ k)
    else:
        gain = FeedbackGain(k=np.zeros((n_u, n_x)), phi=A.copy())

    def box(n, scale):
        rows = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            hi = rng.uniform(1.0, 3.0) * scale
            lo = -rng.uniform(1.0, 3.0) * scale
            rows.append((e, lo, hi, f"q{i}"))
        return rows

    constraints = ConstraintFamily(
        x=PolyhedronH.from_box_rows(box(n_x, 5.0), n_x),
        u=PolyhedronH.from_box_rows(box(n_u, 5.0), n_u),
        y=PolyhedronH.from_box_rows(box(n_y, 8.0), n_y),
        du=PolyhedronH.from_box_rows(box(n_u, 5.0), n_u),
        dy=PolyhedronH.from_box_rows(box(n_y, 8.0), n_y),
    )

    lo = rng.normal(size=(horizon, n_w)) * 0.2 - rng.uniform(0.0, 0.5, (horizon, n_w))
    hi = lo + rng.uniform(0.0, 1.0, (horizon, n_w))
    degenerate = rng.random((horizon, n_w)) < 0.1
    hi = np.where(degenerate, lo, hi)
    if centered:
        center = (lo + hi) / 2.0
    else:
        center = lo + rng.random((horizon, n_w)) * (hi - lo)
    tube = UncertaintyTube(w_min=lo, w_center=center, w_max=hi)
    return ssm, constraints, tube, gain
