"""State-space compilation: eliminations, manifest, constraints, tube."""

import numpy as np
import pytest

from chpdispatch.compile import (
    StructuralError,
    balance_residuals,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from chpdispatch.config_io import load_system
from chpdispatch.dispatch import DispatchSolution, Policy
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import UncertaintyTube
from chpdispatch.tighten import choose_gain
from chpdispatch.validation import simulate

from test_model import minimal_document


def test_single_battery_elimination_signs():
    doc = minimal_document()
    model = load_system(doc)
    ssm = compile_state_space(model)
    man = ssm.manifest
    assert ssm.A.shape == (1, 1) and ssm.A[0, 0] == 1.0
    # load raises discharge and lowers stored energy: -dt_hours / capacity
    load_col = man.index("w", "electric_load_p", "0")
    assert ssm.D[0, load_col] == pytest.approx(-1.0 / 2.0)
    pv_cols = man.indices("w", "pv_power")
    assert pv_cols == []
    grid_col = man.index("u", "grid_p", "grid")
    assert ssm.B[0, grid_col] == pytest.approx(1.0 / 2.0)


def test_no_battery_is_structural_error():
    doc = minimal_document()
    doc["batteries"] = []
    model = load_system(doc)
    with pytest.raises(StructuralError):
        compile_state_space(model)


def test_heat_side_without_tank_is_structural_error(ref24):
    from chpdispatch.config_io import dump_system

    doc = dump_system(ref24.model)
    doc["thermal_tanks"] = []
    model = load_system(doc)
    with pytest.raises(StructuralError):
        compile_state_space(model)


def test_manifest_round_trip_and_completeness(ref24):
    man = ref24.ssm.manifest
    model = ref24.model
    assert len(man.x) == len(model.batteries) + len(model.tanks)
    assert len(man.u) == 2 * len(model.chp_units) + 2 + len(model.heat_pumps)
    assert len(man.y) == (
        len(model.batteries) + len(model.tanks) + model.electric.n_branch
        + model.electric.n_bus + 2 * model.heat.n_node
    )
    assert len(man.w) == (
        len(model.pv_units) + 2 * model.electric.n_bus + model.heat.n_node
    )
    for vec in ("x", "u", "y", "w"):
        for i, (kind, name) in enumerate(getattr(man, vec)):
            assert man.index(vec, kind, name) == i
            assert man.name(vec, i) == (kind, name)


def test_manifest_lookups_match_linear_scan(ref24):
    man = ref24.ssm.manifest
    for vector in ("x", "u", "y", "w"):
        entries = getattr(man, vector)
        for kind in {k for k, _ in entries}:
            want = [i for i, (k, _) in enumerate(entries) if k == kind]
            assert man.indices(vector, kind) == want
        for i, entry in enumerate(entries):
            assert man.index(vector, *entry) == entries.index(entry) == i
        assert man.indices(vector, "no_such_kind") == []
    rows = man.indices("y", "voltage")
    want = list(rows)
    rows.append(0)
    rows[0] = -1
    assert man.indices("y", "voltage") == want
    with pytest.raises(KeyError):
        man.index("y", "voltage", "no_such_bus")
    with pytest.raises(KeyError):
        man.index("y", "no_such_kind", "0")


def test_u_ordering_follows_compact_form(ref24):
    kinds = [k for k, _ in ref24.ssm.manifest.u]
    assert kinds == ["chp_p", "chp_q", "grid_p", "grid_q", "hp_p"]


def test_y_ordering_follows_compact_form(ref24):
    kinds = []
    for k, _ in ref24.ssm.manifest.y:
        if not kinds or kinds[-1] != k:
            kinds.append(k)
    assert kinds == [
        "battery_power", "tank_flow", "branch_flow", "voltage",
        "supply_temp", "return_temp",
    ]


def test_balance_residuals_identically_zero(ref24):
    rng = np.random.default_rng(1)
    u = rng.normal(size=(24, ref24.ssm.n_u))
    w = rng.normal(size=(24, ref24.ssm.n_w)) * 0.3
    res = balance_residuals(ref24.model, ref24.ssm, u, w)
    assert np.max(np.abs(res["active"])) <= 1e-9
    assert np.max(np.abs(res["heat"])) <= 1e-9


def test_lifted_map_additive_and_homogeneous(ref24):
    rng = np.random.default_rng(2)
    out = ref24.ssm.output
    u1 = rng.normal(size=(24, ref24.ssm.n_u))
    w1 = rng.normal(size=(24, ref24.ssm.n_w))
    u2 = rng.normal(size=(24, ref24.ssm.n_u))
    w2 = rng.normal(size=(24, ref24.ssm.n_w))
    base = out.evaluate(np.zeros_like(u1), np.zeros_like(w1))
    f = lambda u, w: out.evaluate(u, w) - base
    lhs = f(2.5 * u1 + u2, 2.5 * w1 + w2)
    rhs = 2.5 * f(u1, w1) + f(u2, w2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def lag_loop(out, u_seq, w_seq):
    """y(t) from the raw fields of a LiftedOutputMap: a 3-D ``@`` against the
    transposed feed and heat maps, then one against each transposed kernel lag."""
    T = out.horizon
    y = out.const + u_seq @ out.feed_u.T + w_seq @ out.feed_w.T
    inputs = u_seq @ out.heat_u.T + w_seq @ out.heat_w.T
    mem = np.zeros(inputs.shape[:-1] + (len(out.memory_rows),))
    for lag in range(T):
        mem[..., lag:, :] += inputs[..., : T - lag, :] @ out.temps.kernel[lag].T
    y[..., out.memory_rows] += mem
    return y


@pytest.fixture(scope="module", params=[(24, 3600.0), (48, 1800.0)], ids=["T24", "T48"])
def reference_output(request):
    return compile_state_space(build_reference_system(*request.param)).output


@pytest.mark.parametrize("lead", [(), (4, 10), (502,)], ids=["single", "grid", "chunk"])
def test_lifted_map_matches_lag_loop(reference_output, lead):
    out = reference_output
    rng = np.random.default_rng(len(lead))
    u_seq = rng.normal(size=lead + (out.horizon, out.feed_u.shape[1]))
    w_seq = rng.normal(size=lead + (out.horizon, out.feed_w.shape[1]))
    got = out.evaluate(u_seq, w_seq)
    want = lag_loop(out, u_seq, w_seq)
    assert got.shape == want.shape == lead + (out.horizon, out.n_y)
    memoryless = np.setdiff1d(np.arange(out.n_y), out.memory_rows)
    assert len(out.memory_rows) > 0 and len(memoryless) > 0
    assert np.array_equal(got[..., memoryless], want[..., memoryless])
    # temperatures of random inputs can cancel to near zero, so the 1e-12 is
    # relative to the largest one
    mem_got, mem_want = got[..., out.memory_rows], want[..., out.memory_rows]
    np.testing.assert_allclose(mem_got, mem_want, rtol=0, atol=1e-12 * np.max(np.abs(mem_want)))
    # the memory rows are bit for bit too, for one sequence (the dispatch
    # path) and for batches: written Monte Carlo flags and costs rest on it
    assert np.array_equal(mem_got, mem_want)


def test_lossless_storage_conserves_energy():
    doc = minimal_document()
    doc["horizon"] = {"steps": 8, "step_seconds": 3600.0}
    doc["grid"]["price"] = 10.0
    model = load_system(doc)
    ssm = compile_state_space(model)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(8, ssm.n_u)) * 0.2
    w = rng.normal(size=(8, ssm.n_w)) * 0.2
    # the zero-gain policy applies the planned controls whatever the states
    planned = DispatchSolution(
        status="optimal", objective=0.0, x_seq=np.tile(ssm.x0, (9, 1)), u_seq=u,
        y_seq=None, schedule=None, kkt=None, iterations=0,
    )
    xs, _, y = simulate(Policy(planned, choose_gain(ssm)), ssm, w)
    man = ssm.manifest
    p_bu = y[:, man.index("y", "battery_power", "b1")]
    # capacity * dE = dt * P exactly when retention and efficiency are 1
    stored = 2.0 * (xs[-1, 0] - xs[0, 0])
    assert stored == pytest.approx(float(np.sum(p_bu)), abs=1e-12)


def test_row_count_matches_two_sided_limits(ref24):
    model = ref24.model
    cons = ref24.constraints
    n_two_sided_x = len(model.batteries) + len(model.tanks)
    n_two_sided_u = 2 * len(model.chp_units) + 2 + len(model.heat_pumps)
    n_two_sided_y = (
        len(model.batteries) + len(model.tanks) + model.electric.n_branch
        + model.electric.n_bus + 2 * model.heat.n_node
    )
    n_two_sided_du = 2 * len(model.chp_units) + len(model.heat_pumps)
    n_two_sided_dy = len(model.batteries) + len(model.tanks)
    assert cons.x.n_rows == 2 * n_two_sided_x
    assert cons.u.n_rows == 2 * n_two_sided_u
    assert cons.y.n_rows == 2 * n_two_sided_y
    assert cons.du.n_rows == 2 * n_two_sided_du
    assert cons.dy.n_rows == 2 * n_two_sided_dy


def test_interval_rows_h_form():
    doc = minimal_document()
    doc["batteries"][0]["e_min"] = 0.1
    doc["batteries"][0]["e_max"] = 0.9
    doc["batteries"][0]["e_initial"] = 0.5
    model = load_system(doc)
    ssm = compile_state_space(model)
    cons = compile_constraints(model, ssm)
    assert cons.x.n_rows == 2
    np.testing.assert_array_equal(cons.x.coefficients, [[1.0], [-1.0]])
    np.testing.assert_allclose(cons.x.bounds, [0.9, -0.1])


def test_chp_bounds_become_two_u_rows(ref24):
    cons = ref24.constraints
    labels = list(cons.u.labels)
    i_up = labels.index("chp_p[chp_main] upper")
    i_lo = labels.index("chp_p[chp_main] lower")
    assert cons.u.bounds[i_up] == pytest.approx(2.0)
    assert cons.u.bounds[i_lo] == pytest.approx(-0.8)


class TestPolyhedron:
    def test_zero_rows_rejected(self):
        from chpdispatch.sets import PolyhedronH

        with pytest.raises(ValueError):
            PolyhedronH(np.array([[0.0, 0.0]]), np.array([1.0]), ("dead row",))

    def test_nonfinite_bounds_rejected(self):
        from chpdispatch.sets import PolyhedronH

        with pytest.raises(ValueError):
            PolyhedronH(np.array([[1.0]]), np.array([np.inf]), ("r",))

    def test_violations_sign(self):
        from chpdispatch.sets import PolyhedronH

        poly = PolyhedronH.from_box_rows([(np.array([1.0]), -1.0, 2.0, "q")], 1)
        v = poly.violations(np.array([3.0]))
        assert v[0] == pytest.approx(1.0)    # upper row violated
        assert v[1] == pytest.approx(-4.0)   # lower row slack
        # leading axes: (samples, steps, n) -> (samples, steps, rows)
        batch = poly.violations(np.array([[[3.0], [0.0]], [[-2.0], [2.0]]]))
        assert batch.shape == (2, 2, 2)
        assert np.allclose(batch[0, 0], v)
        assert np.allclose(batch[:, 1], [[-2.0, -1.0], [0.0, -3.0]])
        assert np.allclose(batch[1, 0], [-4.0, 1.0])


class TestUncertaintyTube:
    def test_perfect_forecast_zero_widths(self, ref24):
        center = ref24.tube.w_center
        tube = UncertaintyTube(center, center, center)
        assert np.all(tube.half_width == 0.0)
        assert np.all(tube.normalized_offset() == 0.0)

    def test_symmetric_unit_interval(self):
        tube = UncertaintyTube(
            w_min=np.array([[-1.0]]), w_center=np.array([[0.0]]), w_max=np.array([[1.0]])
        )
        assert tube.half_width[0, 0] == 1.0
        assert tube.normalized_offset()[0, 0] == 0.0

    def test_center_at_lower_edge(self):
        tube = UncertaintyTube(
            w_min=np.array([[2.0]]), w_center=np.array([[2.0]]), w_max=np.array([[6.0]])
        )
        assert tube.normalized_offset()[0, 0] == pytest.approx(1.0)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyTube(
                w_min=np.array([[1.0]]), w_center=np.array([[0.5]]), w_max=np.array([[0.0]])
            )

    def test_reference_tube_ordering(self, ref24):
        tube = compile_uncertainty_tube(ref24.model, budget=5.0)
        assert tube.budget == 5.0
        assert tube.horizon == 24
        assert tube.n_channels == ref24.ssm.n_w
        assert np.all(tube.w_min <= tube.w_center + 1e-12)
        assert np.all(tube.w_center <= tube.w_max + 1e-12)
