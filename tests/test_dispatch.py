"""Nominal dispatch LP assembly and solution quality."""

import tracemalloc

import numpy as np
import pytest

import chpdispatch.dispatch as dispatch_module

from chpdispatch.compile import (
    balance_residuals,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from chpdispatch.dispatch import (
    CostModel,
    DispatchError,
    LpTooLargeError,
    Policy,
    build_nominal_problem,
    deterministic_schedule,
    solve_dispatch,
)
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import UncertaintyTube
from chpdispatch.tighten import choose_gain, tighten
from chpdispatch.validation import simulate


@pytest.fixture(scope="module")
def ref_sched(ref24):
    return tighten(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain, mode="box")


def test_output_rows_reproduce_lifted_map(ref24, ref_sched):
    """At any point z, each family row's g.z - h plus its tightened bound is
    S x(t), S u(t), S (u(t) - u(t-1)), S y(t) or S (y(t) - y(t-1)), with x
    and u from decode and y from evaluate, and each epigraph row's g.z - h
    is +y_r(t) - aux_r(t) (pos) or -y_r(t) - aux_r(t) (neg)."""
    prob = build_nominal_problem(ref24.ssm, ref_sched, ref24.costs, ref24.tube.w_center)
    lp = prob.lp
    z = np.random.default_rng(11).normal(size=lp.n_vars)
    x, u = prob.layout.decode(z)
    y = ref24.ssm.output.evaluate(u, ref24.tube.w_center)
    residual = lp.g @ z - lp.h

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    series = {"x": x, "u": u, "y": y}
    for name in ("x", "u", "du", "y", "dy"):
        fam = ref_sched.family(name)
        steps = fam.steps
        rows = [i for i, label in enumerate(lp.row_labels) if label.startswith(f"{name}[")]
        assert len(rows) == fam.reductions.size
        got = residual[rows].reshape(len(steps), -1) + fam.tightened_bounds
        if name.startswith("d"):
            value = series[name[1:]][steps] - series[name[1:]][steps - 1]
        else:
            value = series[name][steps]
        assert close(got, value @ fam.polyhedron.coefficients.T), name

    man = ref24.ssm.manifest
    T = ref24.ssm.horizon
    priced = man.indices("y", "battery_power") + man.indices("y", "tank_flow")
    aux = np.stack([z[prob.layout.epi_slice(t)] for t in range(T)])        # (T, n_epi)
    rows = [i for i, label in enumerate(lp.row_labels) if label.startswith("epigraph[")]
    assert [lp.row_labels[i] for i in rows[: 2 * len(priced)]] == [
        f"epigraph[{man.name('y', r)[1]}][t=0] {side}" for r in priced for side in ("pos", "neg")
    ]
    got = residual[rows].reshape(T, len(priced), 2)
    assert close(got[..., 0], y[:, priced] - aux)
    assert close(got[..., 1], -y[:, priced] - aux)


def test_epigraph_rows_counted(ref24, ref_sched):
    prob = build_nominal_problem(ref24.ssm, ref_sched, ref24.costs, ref24.tube.w_center)
    epi_rows = [lab for lab in prob.lp.row_labels if lab.startswith("epigraph")]
    n_storage = len(ref24.model.batteries) + len(ref24.model.tanks)
    assert len(epi_rows) == 2 * n_storage * ref24.ssm.horizon


@pytest.mark.parametrize("method", ["do", "erd-box", "erd-budget:10"])
def test_assembled_lp_matches_the_dynamics_and_lifted_map(reference_day, method):
    """G z and A z at a random x and u with a zero epigraph, against values
    computed without the build's code: each family's selector applied to x,
    u, y = evaluate(u, w_center) - evaluate(0, w_center), or their step
    differences, then +-y on the priced rows; and the dynamics."""
    ssm, tube = reference_day.ssm, reference_day.tube
    lp, schedule = reference_day.lps[method], reference_day.schedules[method]
    T, n_x, n_u = ssm.horizon, ssm.n_x, ssm.n_u
    rng = np.random.default_rng(23)
    x = rng.normal(size=(T + 1, n_x))
    u = rng.normal(size=(T, n_u))
    z = np.concatenate([x.ravel(), u.ravel(), np.zeros(lp.n_vars - x.size - u.size)])
    y = ssm.output.evaluate(u, tube.w_center) - ssm.output.evaluate(np.zeros_like(u), tube.w_center)
    series = {"x": x[1:], "u": u, "du": np.diff(u, axis=0), "y": y, "dy": np.diff(y, axis=0)}
    man = ssm.manifest
    priced = man.indices("y", "battery_power") + man.indices("y", "tank_flow")
    want_g = [series[name] @ schedule.family(name).polyhedron.coefficients.T
              for name in ("x", "u", "du", "y", "dy")]
    want_g.append(np.stack([y[:, priced], -y[:, priced]], axis=-1))
    want_g = np.concatenate([w.ravel() for w in want_g])
    g, a = lp.csr
    assert np.max(np.abs(g @ z - want_g)) <= 1e-12 * np.max(np.abs(want_g))

    want_a = [x[0], (x[1:] - x[:-1] @ ssm.A.T - u @ ssm.B.T).ravel()]
    if lp.n_eq > (T + 1) * n_x:
        want_a.append(u @ ssm.reactive_u)
    want_a = np.concatenate(want_a)
    assert np.max(np.abs(a @ z - want_a)) <= 1e-12 * np.max(np.abs(want_a))


@pytest.mark.parametrize("method", ["do", "erd-box", "erd-budget:10"])
def test_size_guard_counts_the_nonzeros_of_g_exactly(reference_day, method, monkeypatch):
    """The guard refuses G exactly when its CSR (12 B per nonzero, 4 B per
    row pointer) is over the limit."""
    day = reference_day
    g = day.lps[method].csr[0]
    size = g.data.nbytes + g.indices.nbytes + g.indptr.nbytes
    assert size == 12 * g.nnz + 4 * (g.shape[0] + 1)
    monkeypatch.setattr(dispatch_module, "MAX_LP_BYTES", size)
    build_nominal_problem(day.ssm, day.schedules[method], day.costs, day.tube.w_center)
    monkeypatch.setattr(dispatch_module, "MAX_LP_BYTES", size - 1)
    with pytest.raises(LpTooLargeError, match=f"with {g.nnz} nonzeros needs {size} bytes"):
        build_nominal_problem(day.ssm, day.schedules[method], day.costs, day.tube.w_center)


def test_box_dispatch_at_the_headline_size():
    """At the defaults (288 steps of 300 s) the box dispatch LP is built in
    well under the 1.16 GB its dense G took, solved, and passes the audit."""
    model = build_reference_system(288, 300.0)
    ssm = compile_state_space(model)
    cons = compile_constraints(model, ssm)
    tube = compile_uncertainty_tube(model)
    schedule = tighten(ssm, cons, tube, choose_gain(ssm), mode="box")
    costs = CostModel.from_model(model)
    tracemalloc.start()
    try:
        problem = build_nominal_problem(ssm, schedule, costs, tube.w_center)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    sol = solve_dispatch(ssm, schedule, costs, tube.w_center, problem=problem)
    kkt = sol.kkt
    assert max(kkt.primal_residual, kkt.dual_residual, kkt.complementarity, kkt.gap) <= 1e-7


def test_variable_count_order_of_magnitude(ref24, ref_sched):
    prob = build_nominal_problem(ref24.ssm, ref_sched, ref24.costs, ref24.tube.w_center)
    assert 100 <= prob.lp.n_vars < 1000   # hundreds, not thousands, at T = 24


def test_zero_width_schedule_reproduces_deterministic_rows(ref24):
    degenerate = UncertaintyTube(
        ref24.tube.w_center, ref24.tube.w_center, ref24.tube.w_center
    )
    sched_zero = tighten(ref24.ssm, ref24.constraints, degenerate, ref24.gain)
    sched_do = deterministic_schedule(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
    lp_a = build_nominal_problem(ref24.ssm, sched_zero, ref24.costs, ref24.tube.w_center).lp
    lp_b = build_nominal_problem(ref24.ssm, sched_do, ref24.costs, ref24.tube.w_center).lp
    assert lp_a.row_labels == lp_b.row_labels
    assert np.array_equal(lp_a.g, lp_b.g)
    assert np.array_equal(lp_a.h, lp_b.h)
    assert np.array_equal(lp_a.a_eq, lp_b.a_eq)
    assert np.array_equal(lp_a.b_eq, lp_b.b_eq)
    assert np.array_equal(lp_a.c, lp_b.c)


def test_solution_meets_dynamics_and_constraints(ref24, ref24_box_solution):
    sol = ref24_box_solution
    ssm = ref24.ssm
    # dynamics residual
    for t in range(ssm.horizon):
        nxt = ssm.A @ sol.x_seq[t] + ssm.B @ sol.u_seq[t] + ssm.D @ ref24.tube.w_center[t]
        assert np.max(np.abs(nxt - sol.x_seq[t + 1])) <= 1e-8
    # tightened rows hold
    fam = sol.schedule.family("x")
    for si, t in enumerate(fam.steps):
        vals = fam.polyhedron.coefficients @ sol.x_seq[int(t)]
        assert np.all(vals <= fam.tightened_bounds[si] + 1e-8)
    fam = sol.schedule.family("y")
    for si, t in enumerate(fam.steps):
        vals = fam.polyhedron.coefficients @ sol.y_seq[int(t)]
        assert np.all(vals <= fam.tightened_bounds[si] + 1e-8)


def test_initial_state_pinned(ref24, ref24_box_solution):
    assert np.allclose(ref24_box_solution.x_seq[0], ref24.ssm.x0, atol=1e-12)


def test_reactive_balance_at_solution(ref24, ref24_box_solution):
    res = balance_residuals(
        ref24.model, ref24.ssm,
        ref24_box_solution.u_seq, ref24.tube.w_center, ref24_box_solution.y_seq,
    )
    assert np.max(np.abs(res["reactive"])) <= 1e-9
    assert np.max(np.abs(res["active"])) <= 1e-9
    assert np.max(np.abs(res["heat"])) <= 1e-9


def test_kkt_audited(ref24_box_solution):
    assert ref24_box_solution.kkt is not None
    assert ref24_box_solution.kkt.primal_residual <= 1e-8
    assert ref24_box_solution.kkt.gap <= 1e-7


def test_do_recovery_objective(ref24, ref24_do_solution):
    degenerate = UncertaintyTube(
        ref24.tube.w_center, ref24.tube.w_center, ref24.tube.w_center
    )
    sched_zero = tighten(ref24.ssm, ref24.constraints, degenerate, ref24.gain)
    sol = solve_dispatch(ref24.ssm, sched_zero, ref24.costs, ref24.tube.w_center)
    assert sol.objective == pytest.approx(ref24_do_solution.objective, abs=1e-9)


def test_objective_monotone_in_tube_width(ref24):
    js = []
    for scale in (0.0, 0.5, 1.0):
        half = ref24.tube.half_width * scale
        tube = UncertaintyTube(
            ref24.tube.w_center - half, ref24.tube.w_center, ref24.tube.w_center + half
        )
        sched = tighten(ref24.ssm, ref24.constraints, tube, ref24.gain)
        sol = solve_dispatch(ref24.ssm, sched, ref24.costs, ref24.tube.w_center)
        js.append(sol.objective)
    assert js[0] <= js[1] + 1e-9
    assert js[1] <= js[2] + 1e-9


def test_budget_objective_monotone_in_gamma(ref24):
    js = []
    for budget in (0.0, 2.0, 5.0):
        sched = tighten(
            ref24.ssm, ref24.constraints, ref24.tube, ref24.gain,
            mode="budget", budget=budget,
        )
        sol = solve_dispatch(ref24.ssm, sched, ref24.costs, ref24.tube.w_center)
        js.append(sol.objective)
    assert js[0] <= js[1] + 1e-9
    assert js[1] <= js[2] + 1e-9


def test_policy_affine_identity(ref24, ref24_box_policy):
    """On the forecast the feedback term vanishes: the rollout replays the plan."""
    sol = ref24_box_policy.solution
    x, u, _ = simulate(ref24_box_policy, ref24.ssm, ref24.tube.w_center)
    assert np.max(np.abs(x - sol.x_seq)) <= 1e-10
    assert np.max(np.abs(u - sol.u_seq)) <= 1e-10


def test_infeasible_dispatch_names_blocking_rows(ref24):
    # clamp the grid exchange so hard the balance cannot close
    costs = ref24.costs
    sched = deterministic_schedule(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
    # doctor the u-family bounds: grid_p upper forced below its lower bound's negative
    fam = sched.family("u")
    labels = list(fam.polyhedron.labels)
    i_up = labels.index("grid_p upper")
    i_lo = labels.index("grid_p lower")
    reductions = {name: f.reductions.copy() for name, f in sched.families.items()}
    reductions["u"][:, i_up] = fam.polyhedron.bounds[i_up] + 2.9   # forces grid_p <= -2.9
    from chpdispatch.tighten import FamilySchedule, TightenedSchedule

    fams = dict(sched.families)
    fams["u"] = FamilySchedule(
        polyhedron=fam.polyhedron,
        steps=fam.steps,
        reductions=reductions["u"],
        empty_steps=fam.empty_steps,
    )
    doctored = TightenedSchedule(families=fams)
    with pytest.raises(DispatchError) as err:
        solve_dispatch(ref24.ssm, doctored, ref24.costs, ref24.tube.w_center)
    assert err.value.status == "infeasible"
    assert err.value.blocking_rows
    assert str(err.value) == f"dispatch infeasible; blocking rows: {', '.join(err.value.blocking_rows)}"


def test_cost_model_validation(ref24):
    with pytest.raises(ValueError):
        CostModel(
            chp=np.array([1.0]), hp=np.array([1.0]),
            battery=np.array([-1.0]), tank=np.array([1.0]),
            grid_price=np.ones(24),
        )
