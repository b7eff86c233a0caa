"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import time

import numpy as np
import pytest

from chpdispatch.compile import (
    balance_residuals,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from chpdispatch.dispatch import Policy, build_nominal_problem, deterministic_schedule, solve_dispatch
from chpdispatch.elecnet import nominal_operating_point, voltage_sensitivities
from chpdispatch.lp import LinearProgram, check_kkt, solve_lp
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import UncertaintyTube
from chpdispatch.tighten import choose_gain, gamma, tighten, tighten_iterative_lp
from chpdispatch.validation import evaluate, sample_disturbances

from synthetic import random_system
from test_tighten import budget_lp_oracle

KKT_GAPS: list[float] = []


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _audited_solve(ssm, schedule, costs, w_center):
    sol = solve_dispatch(ssm, schedule, costs, w_center)
    KKT_GAPS.append(sol.kkt.gap)
    return sol


@pytest.fixture(scope="module")
def batch10k(ref24):
    return sample_disturbances(ref24.tube, 10000, seed=2024, mode="uniform")


def test_criterion_1_direct_equals_iterative_lp():
    rng = np.random.default_rng(20240)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        ssm, cons, tube, gain = random_system(
            rng,
            n_x=int(rng.integers(1, 5)),
            n_u=int(rng.integers(1, 4)),
            n_y=int(rng.integers(2, 5)),
            n_w=int(rng.integers(1, 4)),
            horizon=int(rng.integers(4, 25)),
            with_memory=bool(trial % 3),
            nonzero_gain=bool(trial % 2),
        )
        direct = tighten(ssm, cons, tube, gain, mode="box", on_empty="flag")
        via_lp = tighten_iterative_lp(ssm, cons, tube, gain, mode="box", on_empty="flag")
        worst = max(worst, direct.max_abs_difference(via_lp))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        worst <= 1e-8 and elapsed < 120.0,
        f"50 randomized systems, max |direct - iterative| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_budget_closed_form():
    rng = np.random.default_rng(20241)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 25))
        v = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        budget = float(rng.uniform(0.0, n + 2.0))
        worst = max(worst, abs(gamma(v, budget) - budget_lp_oracle(v, budget)))
    endpoints_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 25))
        v = rng.normal(size=n)
        endpoints_ok &= gamma(v, 0.0) == 0.0
        endpoints_ok &= gamma(v, float(n)) == float(np.sum(np.abs(v)))
        endpoints_ok &= gamma(v, float(n) + 1.5) == float(np.sum(np.abs(v)))
    verdict(
        2,
        worst <= 1e-10 and endpoints_ok,
        f"500 (v, budget) pairs, max |gamma - LP| = {worst:.3e}, endpoints exact: {endpoints_ok}",
    )


def test_criterion_3_robust_policy_zero_violations(ref24, ref24_box_policy, batch10k):
    KKT_GAPS.append(ref24_box_policy.solution.kkt.gap)
    met, _ = evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch10k)
    vbatch = sample_disturbances(ref24.tube, 256, seed=77, mode="vertex")
    met_v, _ = evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, vbatch)
    verdict(
        3,
        met.violation_rate == 0.0 and met_v.violation_rate == 0.0,
        f"box policy: {met.violation_rate:.6f} over 10000 uniform, "
        f"{met_v.violation_rate:.6f} over 256 vertex scenarios",
    )


def test_criterion_4_deterministic_policy_fragile(ref24, ref24_do_policy, batch10k):
    KKT_GAPS.append(ref24_do_policy.solution.kkt.gap)
    met, _ = evaluate(ref24_do_policy, ref24.ssm, ref24.constraints, ref24.costs, batch10k)
    verdict(
        4,
        met.violation_rate > 0.5,
        f"deterministic policy violation rate {met.violation_rate:.4f} > 0.5",
    )


def test_criterion_5_budget_tradeoff_trend(ref24, batch10k, ref24_box_solution):
    entries = []
    for budget in (2.0, 5.0, 10.0):
        sched = tighten(
            ref24.ssm, ref24.constraints, ref24.tube, ref24.gain,
            mode="budget", budget=budget,
        )
        sol = _audited_solve(ref24.ssm, sched, ref24.costs, ref24.tube.w_center)
        met, _ = evaluate(
            Policy(solution=sol, gain=ref24.gain),
            ref24.ssm, ref24.constraints, ref24.costs, batch10k,
        )
        entries.append((f"budget={budget:g}", sol.objective, met.violation_rate))
    met_box, _ = evaluate(
        Policy(solution=ref24_box_solution, gain=ref24.gain),
        ref24.ssm, ref24.constraints, ref24.costs, batch10k,
    )
    entries.append(("box", ref24_box_solution.objective, met_box.violation_rate))
    js = [e[1] for e in entries]
    vs = [e[2] for e in entries]
    j_monotone = all(js[i] <= js[i + 1] + 1e-9 for i in range(len(js) - 1))
    v_monotone = all(vs[i] >= vs[i + 1] - 1e-12 for i in range(len(vs) - 1))
    verdict(
        5,
        j_monotone and v_monotone and vs[-1] == 0.0,
        "; ".join(f"{n}: J={j:.2f}, viol={v:.4f}" for n, j, v in entries),
    )


def test_criterion_6_direct_tightening_speed_at_full_horizon():
    model = build_reference_system(288, 300.0)
    ssm = compile_state_space(model)
    cons = compile_constraints(model, ssm)
    tube = compile_uncertainty_tube(model)
    gain = choose_gain(ssm)

    # median of three: a single ~0.1 s sample is at the mercy of a slow first call
    direct_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        direct = tighten(ssm, cons, tube, gain, mode="box")
        direct_times.append(time.perf_counter() - t0)
    t_direct = float(np.median(direct_times))
    t0 = time.perf_counter()
    via_lp = tighten_iterative_lp(ssm, cons, tube, gain, mode="box")
    t_iter = time.perf_counter() - t0
    agree = direct.max_abs_difference(via_lp)
    ratio = t_iter / t_direct
    verdict(
        6,
        t_direct < 5.0 and ratio >= 10.0 and agree <= 1e-8,
        f"T=288: direct {t_direct:.3f}s, iterative {t_iter:.1f}s, "
        f"ratio {ratio:.1f}x, agreement {agree:.2e}",
    )


def test_criterion_7_problem_size_equals_deterministic(ref24, ref24_box_solution):
    sched_box = ref24_box_solution.schedule
    sched_do = deterministic_schedule(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
    lp_erd = build_nominal_problem(ref24.ssm, sched_box, ref24.costs, ref24.tube.w_center).lp
    lp_do = build_nominal_problem(ref24.ssm, sched_do, ref24.costs, ref24.tube.w_center).lp
    # the same matrices, entry for entry: only h, the tightened bounds, differs
    same_matrices = all(
        np.array_equal(getattr(m_erd, part), getattr(m_do, part))
        for m_erd, m_do in zip(lp_erd.csr, lp_do.csr)
        for part in ("data", "indices", "indptr")
    )
    same = (
        lp_erd.n_vars == lp_do.n_vars
        and lp_erd.n_ineq == lp_do.n_ineq
        and lp_erd.n_eq == lp_do.n_eq
        and lp_erd.row_labels == lp_do.row_labels
        and lp_erd.eq_labels == lp_do.eq_labels
        and np.array_equal(lp_erd.c, lp_do.c)
        and same_matrices
        and np.array_equal(lp_erd.b_eq, lp_do.b_eq)
    )
    verdict(
        7,
        same,
        f"robust LP == deterministic LP: {lp_erd.n_vars} vars, "
        f"{lp_erd.n_ineq} inequalities, {lp_erd.n_eq} equalities, "
        f"{sum(m.nnz for m in lp_erd.csr)} nonzeros, the same c, G, A and b",
    )


def test_criterion_8_numerical_hygiene(ref24, ref24_box_solution, ref24_do_solution):
    # Z-bus sensitivities vs central finite differences, every bus pair
    net = ref24.model.electric
    fc = ref24.model.forecasts
    inj = -(fc.p_load_center[:, 0] + 1j * fc.q_load_center[:, 0])
    op = nominal_operating_point(net, inj)
    sens = voltage_sensitivities(net, op)
    h = 1e-5
    worst_fd = 0.0
    for k in range(net.n_bus):
        if k == net.slack_bus:
            continue
        for which in ("p", "q"):
            delta = np.zeros(net.n_bus, dtype=complex)
            delta[k] = h if which == "p" else 1j * h
            vp = nominal_operating_point(net, inj + delta, tolerance=1e-13).magnitudes
            vm = nominal_operating_point(net, inj - delta, tolerance=1e-13).magnitudes
            fd = (vp - vm) / (2.0 * h)
            an = (sens.dv_dp if which == "p" else sens.dv_dq)[:, k]
            scale = np.maximum(np.abs(fd), 1e-6)
            worst_fd = max(worst_fd, float(np.max(np.abs(an - fd) / scale)))

    worst_balance = 0.0
    for sol in (ref24_box_solution, ref24_do_solution):
        res = balance_residuals(
            ref24.model, ref24.ssm, sol.u_seq, ref24.tube.w_center, sol.y_seq
        )
        for arr in res.values():
            worst_balance = max(worst_balance, float(np.max(np.abs(arr))))
        KKT_GAPS.append(sol.kkt.gap)

    worst_gap = max(KKT_GAPS) if KKT_GAPS else 0.0
    verdict(
        8,
        worst_fd <= 1e-3 and worst_balance <= 1e-9 and worst_gap <= 1e-7,
        f"FD sensitivity error {worst_fd:.2e} (<=1e-3), balance residual "
        f"{worst_balance:.2e} (<=1e-9), worst KKT gap {worst_gap:.2e} (<=1e-7) "
        f"over {len(KKT_GAPS)} solves",
    )


def test_criterion_9_degeneracy_suite(ref24, ref24_do_solution):
    center = ref24.tube.w_center
    degenerate = UncertaintyTube(center, center, center)
    sched = tighten(ref24.ssm, ref24.constraints, degenerate, ref24.gain)
    reductions_zero = all(
        np.max(np.abs(f.reductions), initial=0.0) <= 1e-9 for f in sched.families.values()
    )
    sol = _audited_solve(ref24.ssm, sched, ref24.costs, center)
    j_match = abs(sol.objective - ref24_do_solution.objective) <= 1e-9 * max(
        1.0, abs(ref24_do_solution.objective)
    )
    from chpdispatch.validation import simulate

    policy = Policy(solution=sol, gain=ref24.gain)
    x, u, y = simulate(policy, ref24.ssm, center)
    traj_match = (
        np.max(np.abs(x - sol.x_seq)) <= 1e-9
        and np.max(np.abs(u - sol.u_seq)) <= 1e-9
        and np.max(np.abs(y - sol.y_seq)) <= 1e-9
    )
    verdict(
        9,
        reductions_zero and j_match and traj_match,
        f"zero-width tube: reductions zero {reductions_zero}, "
        f"J match {j_match} ({sol.objective:.6f} vs {ref24_do_solution.objective:.6f}), "
        f"closed loop = nominal {traj_match}",
    )
