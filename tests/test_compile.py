"""State-space compilation: eliminations, manifest, constraints, tube."""

import dataclasses

import numpy as np
import pytest

from chpdispatch import compile as compile_module
from chpdispatch.compile import (
    KIND_UNITS,
    Lags,
    StructuralError,
    balance_residuals,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
    family_form,
    unit_of,
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
    mem = np.zeros(inputs.shape[:-1] + (out.temps.kernel.shape[1],))
    for lag in range(T):
        mem[..., lag:, :] += inputs[..., : T - lag, :] @ out.temps.kernel[lag].T
    y[..., out.memory_rows] += mem
    return y


# horizon -> step seconds of the reference system
HORIZONS = {1: 3600.0, 24: 3600.0, 48: 1800.0, 96: 900.0, 288: 300.0}


@pytest.fixture(scope="module", params=sorted(HORIZONS), ids=lambda T: f"T{T}")
def reference_output(request):
    return compile_state_space(build_reference_system(request.param, HORIZONS[request.param])).output


def assert_matches_lag_loop(out, lead):
    """evaluate on random sequences with leading axes ``lead`` against
    :func:`lag_loop`: the GEMM blocks and the lifted convolution sum in another
    order than the loop, so each group of rows (memoryless and memory) agrees
    to 1e-13 of its largest value."""
    rng = np.random.default_rng(len(lead) + out.horizon)
    u_seq = rng.normal(size=lead + (out.horizon, out.feed_u.shape[1]))
    w_seq = rng.normal(size=lead + (out.horizon, out.feed_w.shape[1]))
    got = out.evaluate(u_seq, w_seq)
    want = lag_loop(out, u_seq, w_seq)
    assert got.shape == want.shape == lead + (out.horizon, out.n_y)
    memory = np.arange(out.n_y)[out.memory_rows]
    memoryless = np.setdiff1d(np.arange(out.n_y), memory)
    assert len(memory) > 0 and len(memoryless) > 0
    for rows in (memoryless, memory):
        np.testing.assert_allclose(
            got[..., rows], want[..., rows], rtol=0, atol=1e-13 * np.max(np.abs(want[..., rows]))
        )


def lead_shape(out, lead: str) -> tuple[int, ...]:
    # "chunk" is a Monte Carlo-sized lead of 1M output elements (502 samples at
    # T=24, 41 at T=288), two of the chunks that evaluate takes
    chunk = max(1, 1_000_000 // (out.horizon * out.n_y))
    return {"single": (), "grid": (4, 10)}.get(lead, (chunk,))


def test_memory_rows_are_one_range_of_temperatures(ref24):
    out, man = ref24.ssm.output, ref24.ssm.manifest
    assert isinstance(out.memory_rows, slice)
    temperatures = man.indices("y", "supply_temp") + man.indices("y", "return_temp")
    assert list(range(out.n_y)[out.memory_rows]) == temperatures


def test_system_without_heat_network_has_empty_memory():
    """Empty maps and an empty range, read as full ones: evaluate runs a
    batch through zero heat channels."""
    doc = minimal_document()
    doc["horizon"]["steps"] = T = 3
    out = compile_state_space(load_system(doc)).output
    assert out.temps.kernel.shape == (T, 0, 0) and out.temps.offset.shape == (T, 0)
    assert out.memory_rows == slice(0, 0) and out.heat_w.shape == (0, out.feed_w.shape[1])
    rng = np.random.default_rng(3)
    u_seq = rng.normal(size=(5, T, out.feed_u.shape[1]))
    w_seq = rng.normal(size=(5, T, out.feed_w.shape[1]))
    got = out.evaluate(u_seq, w_seq)
    assert got.shape == (5, T, out.n_y)
    np.testing.assert_allclose(got, lag_loop(out, u_seq, w_seq), rtol=0, atol=1e-13)


@pytest.mark.parametrize("lead", ["single", "grid", "chunk", "chunk-without-u"])
def test_lifted_map_matches_lag_loop(reference_output, lead):
    out = reference_output
    # the Toeplitz operator up to its byte budget (T=48: 4.7 MB), the rFFT
    # above it (T=96: 18.9 MB)
    assert (out._rollout_operands.memory.spectra is not None) == (out.horizon >= 96)
    if lead == "chunk-without-u":
        # a map without control columns: only w drives the outputs
        out = dataclasses.replace(out, feed_u=out.feed_u[:, :0], heat_u=out.heat_u[:, :0])
    assert_matches_lag_loop(out, lead_shape(out, lead))


@pytest.mark.parametrize("reference_output", [1, 24, 48, 96], indirect=True, ids=lambda T: f"T{T}")
@pytest.mark.parametrize("method", ["toeplitz", "rfft"])
@pytest.mark.parametrize("lead", ["single", "chunk"])
def test_both_convolution_methods_match_lag_loop(reference_output, method, lead, monkeypatch):
    out = reference_output
    n_mem, n_ch = out.temps.kernel.shape[1:]
    toeplitz_bytes = (out.horizon * n_ch) * (out.horizon * n_mem) * 8
    monkeypatch.setattr(
        compile_module, "_TOEPLITZ_MAX_BYTES", toeplitz_bytes if method == "toeplitz" else 0
    )
    out = dataclasses.replace(out)         # operands are built afresh under the budget
    ops = out._rollout_operands.memory
    assert (ops.toeplitz is None, ops.spectra is None) == (method == "rfft", method == "toeplitz")
    assert_matches_lag_loop(out, lead_shape(out, lead))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("zero_feed", [False, True], ids=["lag0", "no-lag0"])
def test_lags_of_matches_dense_blocks(seed, zero_feed):
    """Lags.of against the raw blocks embedded by hand, and with diff
    against np.diff of that dense array with lag 0 kept, for a lag 0 wider
    than the memory, memory on 2 of 6 rows and 2 of 5 channels, a zero lag
    inside it and three all-zero trailing lags; both bit for bit."""
    rng = np.random.default_rng(seed)
    T, M, n_in = 10, 6, 5
    rows, cols = np.array([1, 3]), np.array([0, 2])
    feed = np.zeros((M, n_in)) if zero_feed else rng.normal(size=(M, n_in))
    feed[4] = feed[:, 3] = 0.0
    memory = rng.normal(size=(T - 1, len(rows), len(cols)))
    memory[[2, -3, -2, -1]] = 0.0
    memory[:, 1, 1] = 0.0
    dense = np.zeros((T, M, n_in))
    dense[0] = feed
    dense[1:, rows[:, np.newaxis], cols] = memory
    diffed = np.concatenate([dense[:1], np.diff(dense, axis=0)])
    for lags, want, stop in (
        (Lags.of(feed, rows, cols, memory), dense, T - 3),
        (Lags.of(feed, rows, cols, memory, diff=True), diffed, T - 2),
    ):
        assert (lags.n_rows, lags.n_in) == (M, n_in)
        assert (lags.first, lags.stop) == (int(zero_feed), stop)
        for b in lags.blocks:      # trimmed: every lag, row and channel kept reads a nonzero
            assert b.values.any(axis=(1, 2))[[0, -1]].all()
            assert b.values.any(axis=(0, 2)).all() and b.values.any(axis=(0, 1)).all()
        for n in (1, 3, T, T + 2):
            cut = np.zeros((n, M, n_in))
            cut[: min(n, T)] = want[:n]
            assert np.array_equal(lags.dense(n), cut), n


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
        objective=0.0, x_seq=np.tile(ssm.x0, (9, 1)), u_seq=u,
        y_seq=None, schedule=None, kkt=None, iterations=0,
    )
    xs, _, y = simulate(Policy(planned, choose_gain(ssm)), ssm, w)
    man = ssm.manifest
    p_bu = y[:, man.index("y", "battery_power", "b1")]
    # capacity * dE = dt * P exactly when retention and efficiency are 1
    stored = 2.0 * (xs[-1, 0] - xs[0, 0])
    assert stored == pytest.approx(float(np.sum(p_bu)), abs=1e-12)


def test_family_forms():
    forms = {name: family_form(name, 3) for name in ("x", "u", "du", "y", "dy")}
    assert {name: (v, d, s.tolist()) for name, (v, d, s) in forms.items()} == {
        "x": ("x", False, [1, 2, 3]),
        "u": ("u", False, [0, 1, 2]),
        "du": ("u", True, [1, 2]),
        "y": ("y", False, [0, 1, 2]),
        "dy": ("y", True, [1, 2]),
    }


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


def compiled(ref24, source: str):
    """(model, ssm, constraints) of the T=24 reference or of minimal_document()."""
    if source == "reference":
        return ref24.model, ref24.ssm, ref24.constraints
    model = load_system(minimal_document())
    ssm = compile_state_space(model)
    return model, ssm, compile_constraints(model, ssm)


@pytest.mark.parametrize("source", ["reference", "minimal"])
def test_every_row_label_has_a_unit(ref24, source):
    # the unit column of schedule.csv: no row falls back to "mixed"
    _, _, cons = compiled(ref24, source)
    units = set(KIND_UNITS.values())
    unresolved = [
        (name, label)
        for name, poly in cons.families().items()
        for label in poly.labels
        if unit_of(label) not in units
    ]
    assert not unresolved


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

    def test_symmetric_unit_interval(self):
        tube = UncertaintyTube(
            w_min=np.array([[-1.0]]), w_center=np.array([[0.0]]), w_max=np.array([[1.0]])
        )
        assert tube.half_width[0, 0] == 1.0

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyTube(
                w_min=np.array([[1.0]]), w_center=np.array([[0.5]]), w_max=np.array([[0.0]])
            )

    def test_reference_tube_ordering(self, ref24):
        tube = compile_uncertainty_tube(ref24.model)
        assert tube.horizon == 24
        assert tube.n_channels == ref24.ssm.n_w
        assert np.all(tube.w_min <= tube.w_center + 1e-12)
        assert np.all(tube.w_center <= tube.w_max + 1e-12)

    @pytest.mark.parametrize("source", ["reference", "minimal"])
    def test_tube_columns_follow_the_w_kinds(self, ref24, source):
        # compile_uncertainty_tube stacks ForecastSeries.blocks() in the
        # manifest's w kind order
        model, ssm, _ = compiled(ref24, source)
        tube = compile_uncertainty_tube(model)
        fc = model.forecasts
        kinds = {"pv_power": "pv", "electric_load_p": "p_load",
                 "electric_load_q": "q_load", "heat_load": "heat_load"}
        for kind, prefix in kinds.items():
            cols = ssm.manifest.indices("w", kind)
            for side, stacked in (("min", tube.w_min), ("center", tube.w_center), ("max", tube.w_max)):
                np.testing.assert_array_equal(stacked[:, cols], getattr(fc, f"{prefix}_{side}").T)
