"""Reachable-set supports, dual-norm supports, budget closed form, tightening."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chpdispatch.compile import (
    ConstraintFamily,
    LagBlock,
    Lags,
    LiftedOutputMap,
    StateSpaceModel,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
    unit_of,
)
from chpdispatch.config_io import load_system
from chpdispatch.dispatch import CostModel, solve_dispatch
from chpdispatch.lp import LinearProgram, solve_lp, solve_lp_simplex
from chpdispatch.reference import build_reference_system, reference_document
from chpdispatch.sets import PolyhedronH, UncertaintyTube
from chpdispatch.tighten import (
    FamilySchedule,
    FeedbackGain,
    TightenedSchedule,
    TighteningInfeasibleError,
    _build_families,
    _DeviationFamily,
    _lag_convolve,
    _reductions,
    _support_lp,
    choose_gain,
    gamma,
    tighten,
    tighten_iterative_lp,
)

from synthetic import empty_maps, random_system, synthetic_manifest


def scalar_system(phi: float, d: float, horizon: int, widths) -> tuple:
    """1-state system with B = 0 and the given per-step symmetric tube."""
    A = np.array([[phi]])
    B = np.zeros((1, 1))
    D = np.array([[d]])
    out = LiftedOutputMap(
        feed_u=np.zeros((1, 1)),
        feed_w=np.zeros((1, 1)),
        const=np.zeros((horizon, 1)),
        memory_rows=slice(0, 0),
        heat_u=np.zeros((0, 1)),
        heat_w=np.zeros((0, 1)),
        temps=empty_maps(horizon),
    )
    ssm = StateSpaceModel(
        A=A, B=B, D=D, output=out,
        manifest=synthetic_manifest(1, 1, 1, 1),
        horizon=horizon, x0=np.zeros(1),
    )
    widths = np.asarray(widths, dtype=float).reshape(horizon, 1)
    tube = UncertaintyTube(w_min=-widths, w_center=np.zeros_like(widths), w_max=widths)
    gain = FeedbackGain(k=np.zeros((1, 1)), phi=A.copy())
    return ssm, tube, gain


def state_box(ssm) -> ConstraintFamily:
    """Wide two-sided limits on every state and no other rows."""
    n_x, n_u, n_y = ssm.n_x, ssm.n_u, ssm.n_y
    rows = [(np.eye(n_x)[i], -1e6, 1e6, f"state{i}") for i in range(n_x)]
    return ConstraintFamily(
        x=PolyhedronH.from_box_rows(rows, n_x),
        u=PolyhedronH.empty(n_u),
        y=PolyhedronH.empty(n_y),
        du=PolyhedronH.empty(n_u),
        dy=PolyhedronH.empty(n_y),
    )


def state_hull(ssm, tube, gain, t: int) -> tuple[float, float]:
    """(lo, hi) of the scalar state's reachable deviation set at step t, read
    off the x-family reductions (upper row: hi, lower row: -lo)."""
    fam = tighten(ssm, state_box(ssm), tube, gain, on_empty="flag").family("x")
    red = fam.reductions[list(fam.steps).index(t)]
    return -red[1], red[0]


class TestReachableSets:
    """The x-family reductions are the supports of the reachable deviation sets."""

    def test_interval_sum_identity_phi(self):
        ssm, tube, gain = scalar_system(1.0, 1.0, 4, np.ones(4))
        lo, hi = state_hull(ssm, tube, gain, 2)
        assert lo == pytest.approx(-2.0, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_geometric_decay(self):
        ssm, tube, gain = scalar_system(0.5, 1.0, 4, np.ones(4))
        lo, hi = state_hull(ssm, tube, gain, 3)
        assert hi == pytest.approx(1.75, abs=1e-12)
        assert lo == pytest.approx(-1.75, abs=1e-12)

    def test_zero_width_tube_gives_origin(self):
        ssm, tube, gain = scalar_system(0.9, 1.0, 5, np.zeros(5))
        for t in range(1, 6):
            lo, hi = state_hull(ssm, tube, gain, t)
            assert lo == 0.0 and hi == 0.0

    def test_generator_count_and_first_set(self):
        """Step t sees the first t deviation boxes only, and step 1 is the
        image of the first box under D."""
        rng = np.random.default_rng(0)
        ssm, cons, tube, gain = random_system(rng, horizon=6)
        cons = state_box(ssm)
        base = tighten(ssm, cons, tube, gain, on_empty="flag").family("x")
        dev_lo, dev_hi = tube.deviation_bounds()
        v = base.polyhedron.coefficients @ ssm.D
        first = np.sum(np.where(v >= 0, v * dev_hi[0], v * dev_lo[0]), axis=1)
        assert np.allclose(base.reductions[0], first, atol=1e-12)
        for t in range(1, 7):
            wider = UncertaintyTube(
                np.vstack([tube.w_min[:t], tube.w_min[t:] - 1.0]),
                tube.w_center,
                np.vstack([tube.w_max[:t], tube.w_max[t:] + 1.0]),
            )
            sched = tighten(ssm, cons, wider, gain, on_empty="flag").family("x")
            assert np.array_equal(sched.reductions[t - 1], base.reductions[t - 1])

    def test_recursion_by_support_functions(self):
        """h(s, t+1) = h(Phi^T s, t) + the support of s^T D over step t's box."""
        rng = np.random.default_rng(1)
        ssm, cons, tube, gain = random_system(rng, n_x=3, n_w=2, horizon=8)
        dev_lo, dev_hi = tube.deviation_bounds()
        for _ in range(20):
            s = rng.normal(size=3)
            rows = PolyhedronH(np.vstack([s, gain.phi.T @ s]), np.full(2, 1e6), ("s", "phi_s"))
            cons = ConstraintFamily(
                x=rows, u=PolyhedronH.empty(2), y=PolyhedronH.empty(3),
                du=PolyhedronH.empty(2), dy=PolyhedronH.empty(3),
            )
            red = tighten(ssm, cons, tube, gain, on_empty="flag").family("x").reductions
            v = s @ ssm.D
            for t in range(1, 8):
                step = float(np.sum(np.where(v >= 0, v * dev_hi[t], v * dev_lo[t])))
                assert red[t, 0] == pytest.approx(red[t - 1, 1] + step, abs=1e-10)


class TestSupportBox:
    """The worst case over the unit box is gamma with the budget at n."""

    def test_examples(self):
        assert gamma(np.array([1.0, -2.0, 0.0]), 3) == 3.0
        assert gamma(np.zeros(5), 5) == 0.0

    def test_matches_lp_over_box(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=24)
            lp = LinearProgram(c=-v, lower=-np.ones(24), upper=np.ones(24))
            sol = solve_lp(lp)
            assert gamma(v, len(v)) == pytest.approx(-sol.objective, abs=1e-10)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_equals_exhaustive_vertex_max(self, entries):
        v = np.array(entries)
        n = len(v)
        best = -np.inf
        for mask in range(2**n):
            w = np.where((mask >> np.arange(n)) & 1, 1.0, -1.0)
            best = max(best, float(v @ w))
        assert gamma(v, n) == pytest.approx(best, abs=1e-9)

    def test_offset_term(self):
        """An off-center forecast adds theta . center_shift to the 1-norm."""
        ssm, _, gain = scalar_system(0.5, 2.0, 2, np.ones(2))
        # deviation interval [-0.5, 1.5]: half-width 1, center shift 0.5
        tube = UncertaintyTube(
            w_min=np.full((2, 1), -1.0), w_center=np.full((2, 1), -0.5), w_max=np.ones((2, 1))
        )
        red = tighten(ssm, state_box(ssm), tube, gain, on_empty="flag").family("x").reductions
        assert red[0] == pytest.approx([2.0 + 1.0, 2.0 - 1.0])
        assert red[1] == pytest.approx([3.0 + 1.5, 3.0 - 1.5])


def budget_lp_oracle(v: np.ndarray, budget: float) -> float:
    """sup v.w over the box-and-budget intersection, via the bundled simplex."""
    n = len(v)
    g = np.zeros((2 * n + 1, 2 * n))
    h = np.zeros(2 * n + 1)
    g[:n, :n] = np.eye(n)
    g[:n, n:] = -np.eye(n)
    g[n : 2 * n, :n] = -np.eye(n)
    g[n : 2 * n, n:] = -np.eye(n)
    g[2 * n, n:] = 1.0
    h[2 * n] = budget
    lp = LinearProgram(
        c=np.concatenate([-v, np.zeros(n)]),
        g=g,
        h=h,
        lower=np.concatenate([-np.ones(n), np.zeros(n)]),
        upper=np.concatenate([np.ones(n), np.ones(n)]),
    )
    sol = solve_lp_simplex(lp)
    assert sol.status == "optimal"
    return -sol.objective


class TestGamma:
    def test_examples(self):
        assert gamma(np.array([3.0, 1.0, 2.0]), 2.0) == pytest.approx(5.0)
        assert gamma(np.array([2.0]), 0.5) == pytest.approx(1.0)

    def test_budget_beyond_length_recovers_one_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 20)))
            assert gamma(v, len(v)) == pytest.approx(np.sum(np.abs(v)), abs=1e-12)
            assert gamma(v, len(v) + 3.7) == pytest.approx(np.sum(np.abs(v)), abs=1e-12)

    def test_zero_budget(self):
        assert gamma(np.array([5.0, -3.0]), 0.0) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            gamma(np.array([1.0]), -0.1)

    def test_matches_threshold_form(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 16)))
            budget = float(rng.uniform(0, len(v) + 2))
            mags = np.abs(v)
            candidates = np.concatenate([[0.0], mags])
            threshold_min = min(
                budget * th + float(np.sum(np.maximum(mags - th, 0.0))) for th in candidates
            )
            assert gamma(v, budget) == pytest.approx(threshold_min, abs=1e-10)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=10),
        st.floats(0, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_concavity(self, entries, budget):
        v = np.array(entries)
        g0 = gamma(v, 0.0)
        g1 = gamma(v, budget)
        norm1 = float(np.sum(np.abs(v)))
        norm_inf = float(np.max(np.abs(v), initial=0.0))
        assert g0 == 0.0
        assert g1 <= min(budget * norm_inf, norm1) + 1e-9
        # nondecreasing and concave along a grid
        grid = np.linspace(0.0, len(v) + 1, 9)
        vals = [gamma(v, b) for b in grid]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
        for i in range(1, len(vals) - 1):
            assert vals[i] >= (vals[i - 1] + vals[i + 1]) / 2 - 1e-9

    def test_against_lp_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 16))
            v = rng.normal(size=n) * rng.uniform(0.1, 4.0)
            budget = float(rng.uniform(0.0, n + 1.0))
            assert gamma(v, budget) == pytest.approx(budget_lp_oracle(v, budget), abs=1e-9)


class TestGainGuard:
    def test_zero_default(self, ref24):
        gain = choose_gain(ref24.ssm)
        assert np.array_equal(gain.phi, ref24.ssm.A)
        assert not np.any(gain.k)

    def test_unstable_configured_gain_rejected(self):
        rng = np.random.default_rng(0)
        ssm, cons, tube, _ = random_system(rng, n_x=2, n_u=2, horizon=4)
        k = np.full((2, 2), 10.0)
        with pytest.raises(ValueError):
            choose_gain(ssm, k)

    def test_explicit_zero_matches_default(self, ref24):
        a = choose_gain(ref24.ssm)
        b = choose_gain(ref24.ssm, np.zeros((ref24.ssm.n_u, ref24.ssm.n_x)))
        sched_a = tighten(ref24.ssm, ref24.constraints, ref24.tube, a)
        sched_b = tighten(ref24.ssm, ref24.constraints, ref24.tube, b)
        assert sched_a.max_abs_difference(sched_b) == 0.0


class TestTighten:
    def test_interval_subtraction_example(self):
        ssm, tube, gain = scalar_system(1.0, 1.0, 2, np.ones(2))
        cons = ConstraintFamily(
            x=PolyhedronH.from_box_rows([(np.array([1.0]), -5.0, 5.0, "state")], 1),
            u=PolyhedronH.empty(1),
            y=PolyhedronH.empty(1),
            du=PolyhedronH.empty(1),
            dy=PolyhedronH.empty(1),
        )
        sched = tighten(ssm, cons, tube, gain)
        fam = sched.family("x")
        # at t = 2 the reachable set is [-2, 2]: bound 5 becomes 3
        assert list(fam.steps) == [1, 2]
        assert fam.tightened_bounds[1] == pytest.approx([3.0, 3.0])

    def test_zero_width_tube_keeps_original(self, ref24):
        tube = UncertaintyTube(
            ref24.tube.w_center, ref24.tube.w_center, ref24.tube.w_center
        )
        sched = tighten(ref24.ssm, ref24.constraints, tube, ref24.gain)
        for fam in sched.families.values():
            assert np.allclose(fam.reductions, 0.0, atol=1e-15)

    def test_budget_never_exceeds_box(self, ref24):
        box = tighten(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain, mode="box")
        for g in (1.0, 5.0, 10.0):
            bud = tighten(
                ref24.ssm, ref24.constraints, ref24.tube, ref24.gain,
                mode="budget", budget=g,
            )
            for name in box.families:
                diff = bud.family(name).reductions - box.family(name).reductions
                if diff.size:
                    assert float(diff.max()) <= 1e-12

    def test_budget_at_horizon_recovers_box(self, ref24):
        """A budget of T or more is inactive: the reductions are the box's
        bit for bit, sign bits included, on the reference and on systems
        with heat memory and a nonzero gain."""
        rng = np.random.default_rng(20)
        cases = [(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)]
        for _ in range(6):
            cases.append(random_system(rng, n_x=3, horizon=int(rng.integers(2, 10))))
        for ssm, cons, tube, gain in cases:
            box = tighten(ssm, cons, tube, gain, mode="box", on_empty="flag")
            for budget in (float(ssm.horizon), np.inf):
                bud = tighten(ssm, cons, tube, gain, mode="budget", budget=budget, on_empty="flag")
                for name, fam in box.families.items():
                    got = bud.family(name).reductions
                    assert got.shape == fam.reductions.shape
                    assert got.tobytes() == fam.reductions.tobytes(), (name, budget)

    def test_monotone_in_interval_widening(self, ref24):
        base = tighten(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
        w_min = ref24.tube.w_min.copy()
        w_max = ref24.tube.w_max.copy()
        w_min[5, 3] -= 0.2      # widen a single interval asymmetrically
        widened = UncertaintyTube(w_min, ref24.tube.w_center, w_max)
        sched = tighten(ref24.ssm, ref24.constraints, widened, ref24.gain)
        for name in sched.families:
            diff = sched.family(name).reductions - base.family(name).reductions
            if diff.size:
                assert float(diff.min()) >= -1e-12

    def test_empty_tightening_names_row_and_step(self):
        ssm, tube, gain = scalar_system(1.0, 1.0, 6, np.ones(6))
        cons = ConstraintFamily(
            x=PolyhedronH.from_box_rows([(np.array([1.0]), -2.0, 2.0, "state")], 1),
            u=PolyhedronH.empty(1),
            y=PolyhedronH.empty(1),
            du=PolyhedronH.empty(1),
            dy=PolyhedronH.empty(1),
        )
        with pytest.raises(TighteningInfeasibleError) as err:
            tighten(ssm, cons, tube, gain)
        assert err.value.family == "x"
        assert err.value.step == 3   # cumulative reduction first exceeds the span here
        sched = tighten(ssm, cons, tube, gain, on_empty="flag")
        assert sched.family("x").empty_steps.any()

    def test_one_sided_row_before_an_emptying_pair(self):
        # an infinite bound drops its row, so the pair after it starts at
        # an odd row; its emptiness is still found and named
        ssm, tube, gain = scalar_system(1.0, 1.0, 6, np.ones(6))
        rows = [(np.array([1.0]), -np.inf, 9.0, "cap"), (np.array([1.0]), -2.0, 2.0, "state")]
        x = PolyhedronH.from_box_rows(rows, 1)
        assert x.labels == ("cap upper", "state upper", "state lower")
        empty = PolyhedronH.empty(1)
        cons = ConstraintFamily(x=x, u=empty, y=empty, du=empty, dy=empty)
        with pytest.raises(TighteningInfeasibleError) as err:
            tighten(ssm, cons, tube, gain)
        assert (err.value.family, err.value.step, err.value.row) == ("x", 3, "state")

    def test_infinite_ramp_drops_its_rows(self):
        def dispatch(ramp: float):
            doc = reference_document(4, 3600.0)
            doc["chp_units"][0]["ramp_p"] = ramp
            model = load_system(doc)
            ssm = compile_state_space(model)
            tube = compile_uncertainty_tube(model)
            sched = tighten(ssm, compile_constraints(model, ssm), tube, choose_gain(ssm))
            sol = solve_dispatch(ssm, sched, CostModel.from_model(model), tube.w_center)
            return sched, sol.objective

        free, j_free = dispatch(np.inf)
        loose, j_loose = dispatch(100.0)
        stem = "chp_p_ramp[chp_main]"
        assert f"{stem} upper" in loose.family("du").polyhedron.labels
        assert stem not in free.to_csv()
        assert free.family("du").polyhedron.n_rows == loose.family("du").polyhedron.n_rows - 2
        assert j_free == pytest.approx(j_loose, rel=1e-8)

    def test_single_step_horizon(self):
        # the ramp families have no steps when T = 1
        rng = np.random.default_rng(6)
        ssm, cons, tube, gain = random_system(rng, horizon=1)
        for mode, budget in (("box", None), ("budget", 0.5)):
            direct = tighten(ssm, cons, tube, gain, mode=mode, budget=budget, on_empty="flag")
            via_lp = tighten_iterative_lp(
                ssm, cons, tube, gain, mode=mode, budget=budget, on_empty="flag"
            )
            assert direct.family("du").reductions.shape == (0, 4)
            assert direct.max_abs_difference(via_lp) <= 1e-12

    def test_csv_export_columns(self, ref24):
        sched = tighten(ref24.ssm, ref24.constraints, ref24.tube, ref24.gain)
        text = sched.to_csv()
        header = text.splitlines()[0]
        assert header == "family,step,row,unit,original_bound,reduction,tightened_bound"
        assert "battery_energy[bat_10] upper" in text

    @pytest.mark.parametrize(
        "horizon, dt, mode, budget",
        [(24, 3600.0, "box", None), (24, 3600.0, "budget", 10.0), (288, 300.0, "box", None)],
    )
    def test_csv_matches_per_cell_writer(self, horizon, dt, mode, budget):
        model = build_reference_system(horizon, dt)
        ssm = compile_state_space(model)
        sched = tighten(
            ssm, compile_constraints(model, ssm), compile_uncertainty_tube(model),
            choose_gain(ssm), mode=mode, budget=budget,
        )
        # one f-string per cell over numpy scalars, as the schedule was first written
        lines = ["family,step,row,unit,original_bound,reduction,tightened_bound"]
        for name, fam in sched.families.items():
            poly = fam.polyhedron
            for si, t in enumerate(fam.steps):
                for ri, label in enumerate(poly.labels):
                    r = poly.bounds[ri]
                    red = fam.reductions[si, ri]
                    lines.append(
                        f"{name},{t},{label},{unit_of(label)},{r:.12g},{red:.12g},{r - red:.12g}"
                    )
        assert sched.to_csv().encode() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("mode, budget", [("box", None), ("budget", 10.0)])
    def test_full_day_csv_matches_per_row_writer(self, mode, budget):
        model = build_reference_system(288, 300.0)
        ssm = compile_state_space(model)
        sched = tighten(
            ssm, compile_constraints(model, ssm), compile_uncertainty_tube(model),
            choose_gain(ssm), mode=mode, budget=budget,
        )
        text = sched.to_csv()
        assert text.count("\n") == 54_711
        assert text.encode() == per_row_csv(sched).encode()

    def test_csv_matches_per_row_writer_on_edge_values(self):
        # numbers on both sides of the exponent switch of .12g (1e-05 and
        # 0.0001, 1e+12 and 999999999999), signed zeros, a subnormal, the
        # non-finite values and labels that hold "%"
        edges = np.array([
            [-0.0, np.inf, -np.inf, np.nan],
            [1e-05, 0.0001, 1e12, 999999999999.0],
            [5e-324, -2.5e-308, 123456789012.5, -1.5e-05],
        ])
        labels = ("battery_energy[b%1] upper", "100% load lower", "%s%d%%(x)s", "grid_p lower")
        poly = PolyhedronH(np.eye(4), np.array([-0.0, 5e-324, 1e-05, 999999999999.0]), labels)
        pair = PolyhedronH(
            np.array([[1.0], [-1.0]]), np.array([1e12, 0.5]), ("chp_p[%] upper", "chp_p[%] lower")
        )
        sched = TightenedSchedule(families={
            "x%": FamilySchedule(poly, np.array([0, 1, 2]), edges, np.zeros(3, dtype=bool)),
            "no_rows": FamilySchedule(
                PolyhedronH.empty(3), np.array([0, 1]), np.zeros((2, 0)), np.zeros(2, dtype=bool)
            ),
            "no_steps": FamilySchedule(
                pair, np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0, dtype=bool)
            ),
            "d%s": FamilySchedule(
                pair, np.array([7]), np.array([[np.nan, -0.0]]), np.zeros(1, dtype=bool)
            ),
        })
        text = sched.to_csv()
        assert text.encode() == per_row_csv(sched).encode()
        assert "x%,0,%s%d%%(x)s,mixed,1e-05,-inf,inf\n" in text
        assert text.count("\n") == 1 + 3 * 4 + 2


def per_row_csv(schedule: TightenedSchedule) -> str:
    """The schedule CSV written one f-string per row, as it was before the
    block templates: the reference they must reproduce byte for byte."""
    lines = ["family,step,row,unit,original_bound,reduction,tightened_bound"]
    for name, fam in schedule.families.items():
        poly = fam.polyhedron
        rows = [
            f",{label},{unit_of(label)},{r:.12g},"
            for label, r in zip(poly.labels, poly.bounds.tolist())
        ]
        for t, reds, tights in zip(
            fam.steps.tolist(), fam.reductions.tolist(), fam.tightened_bounds.tolist()
        ):
            head = f"{name},{t}"
            lines.extend(
                f"{head}{row}{red:.12g},{tight:.12g}"
                for row, red, tight in zip(rows, reds, tights)
            )
    return "\n".join(lines) + "\n"


class TestIterativeEquivalence:
    def test_small_random_systems_box(self):
        rng = np.random.default_rng(100)
        for trial in range(6):
            ssm, cons, tube, gain = random_system(
                rng,
                n_x=int(rng.integers(1, 4)),
                n_u=2,
                n_y=3,
                n_w=int(rng.integers(1, 4)),
                horizon=int(rng.integers(4, 13)),
                nonzero_gain=bool(trial % 2),
            )
            direct = tighten(ssm, cons, tube, gain, on_empty="flag")
            via_lp = tighten_iterative_lp(ssm, cons, tube, gain, on_empty="flag")
            assert direct.max_abs_difference(via_lp) <= 1e-8

    def test_small_random_systems_budget(self):
        rng = np.random.default_rng(200)
        for trial in range(3):
            ssm, cons, tube, gain = random_system(
                rng, n_x=2, n_u=2, n_y=3, n_w=2, horizon=8,
                nonzero_gain=bool(trial % 2),
            )
            for budget in (1.0, 5.0, 10.0):
                direct = tighten(ssm, cons, tube, gain, mode="budget", budget=budget, on_empty="flag")
                via_lp = tighten_iterative_lp(
                    ssm, cons, tube, gain, mode="budget", budget=budget, on_empty="flag"
                )
                assert direct.max_abs_difference(via_lp) <= 1e-8

    def test_zero_width_tube_zero_reductions(self):
        rng = np.random.default_rng(5)
        ssm, cons, tube, gain = random_system(rng, horizon=6)
        degenerate = UncertaintyTube(tube.w_center, tube.w_center, tube.w_center)
        via_lp = tighten_iterative_lp(ssm, cons, degenerate, gain, on_empty="flag")
        for fam in via_lp.families.values():
            assert np.allclose(fam.reductions, 0.0, atol=1e-12)

    def test_budget_support_lp_sums_the_single_channel_oracle(self, monkeypatch):
        """The budget support LP has one row per channel over p and q, and
        its value is the single-channel oracle summed over the channels,
        plus the deviation-center term."""
        shapes = []

        def recording(lp):
            shapes.append((lp.g.shape, lp.n_eq))
            return solve_lp_simplex(lp)

        # the package exports the function tighten under the module's name
        monkeypatch.setattr(sys.modules["chpdispatch.tighten"], "solve_lp_simplex", recording)
        rng = np.random.default_rng(41)
        for trial in range(12):
            count, n_w = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            coeff = rng.normal(size=(count, n_w)) * (rng.random((count, n_w)) < 0.6)
            coeff[:, rng.random(n_w) < 0.3] = 0.0
            coeff[:, trial % n_w] = 0.0                       # an all-zero channel
            widths = rng.uniform(0.0, 2.0, size=(count, n_w))
            shifts = rng.uniform(-0.5, 0.5, size=(count, n_w))
            center = float(np.sum(coeff * shifts))
            for budget in (0.0, 0.5, 2.5, float(count), count + 1.5):
                got = _support_lp(coeff, widths, shifts, shifts - widths, shifts + widths, budget)
                want = sum(budget_lp_oracle(coeff[:, j] * widths[:, j], budget) for j in range(n_w))
                want += center
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                assert shapes[-1] == ((n_w, 2 * count * n_w), 0)
            # an infinite budget is the box set: a rowless LP over w_dev
            got = _support_lp(coeff, widths, shifts, shifts - widths, shifts + widths, np.inf)
            want = float(np.sum(np.abs(coeff) * widths)) + center
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert shapes[-1] == ((0, count * n_w), 0)

    @pytest.mark.parametrize("budget", [2.0, 10.0])
    def test_reference_budget_row_matches_lp_oracle(self, ref24, budget):
        """The reference at T=24, one heat-memory row pair over all 76
        channels and 24 lags, and one branch-flow pair whose scaled
        coefficients reach below the simplex's reduced-cost tolerance: the
        budget closed form against its LP."""
        cons = ref24.constraints
        y = cons.y
        rows = [
            y.labels.index(f"{row} {side}")
            for row in ("supply_temp[3]", "branch_flow[23]") for side in ("upper", "lower")
        ]
        single = ConstraintFamily(
            x=PolyhedronH.empty(cons.x.dimension),
            u=PolyhedronH.empty(cons.u.dimension),
            y=PolyhedronH(y.coefficients[rows], y.bounds[rows], [y.labels[r] for r in rows]),
            du=PolyhedronH.empty(cons.du.dimension),
            dy=PolyhedronH.empty(cons.dy.dimension),
        )
        args = (ref24.ssm, single, ref24.tube, ref24.gain)
        direct = tighten(*args, mode="budget", budget=budget, on_empty="flag")
        via_lp = tighten_iterative_lp(*args, mode="budget", budget=budget, on_empty="flag")
        assert np.any(direct.family("y").reductions[1:] > 0.0)
        assert direct.max_abs_difference(via_lp) <= 1e-8


class TestWorstCaseExactness:
    """The reduction equals the realized deviation at the adversarial vertex.

    An independent simulation of the closed-loop deviation recursion under
    the constructed worst-case disturbance sequence must reproduce the
    reduction exactly, and random in-box sequences must never exceed it.
    """

    def test_state_rows_exact(self):
        rng = np.random.default_rng(77)
        ssm, cons, tube, gain = random_system(
            rng, n_x=2, n_u=2, n_y=3, n_w=2, horizon=8, nonzero_gain=True
        )
        sched = tighten(ssm, cons, tube, gain, on_empty="flag")
        fam = sched.family("x")
        dev_lo, dev_hi = tube.deviation_bounds()
        poly = fam.polyhedron
        for si, t in enumerate(fam.steps):
            t = int(t)
            for ri in range(poly.n_rows):
                s = poly.coefficients[ri]
                # adversarial sequence per step: maximize s' Phi^(t-1-tau) D w
                w_seq = np.zeros((ssm.horizon, ssm.n_w))
                for tau in range(t):
                    theta = s @ np.linalg.matrix_power(gain.phi, t - 1 - tau) @ ssm.D
                    w_seq[tau] = np.where(theta >= 0, dev_hi[tau], dev_lo[tau])
                x_dev = np.zeros(ssm.n_x)
                for tau in range(t):
                    x_dev = gain.phi @ x_dev + ssm.D @ w_seq[tau]
                assert s @ x_dev == pytest.approx(fam.reductions[si, ri], abs=1e-10)

    def test_random_sequences_never_exceed(self):
        rng = np.random.default_rng(88)
        ssm, cons, tube, gain = random_system(
            rng, n_x=3, n_u=2, n_y=4, n_w=2, horizon=8, nonzero_gain=True
        )
        sched = tighten(ssm, cons, tube, gain, on_empty="flag")
        dev_lo, dev_hi = tube.deviation_bounds()
        fam_x = sched.family("x")
        fam_u = sched.family("u")
        fam_y = sched.family("y")
        out = ssm.output
        for _ in range(300):
            w_dev = dev_lo + rng.random((ssm.horizon, ssm.n_w)) * (dev_hi - dev_lo)
            x_dev = np.zeros((ssm.horizon + 1, ssm.n_x))
            for tau in range(ssm.horizon):
                x_dev[tau + 1] = gain.phi @ x_dev[tau] + ssm.D @ w_dev[tau]
            u_dev = x_dev[: ssm.horizon] @ gain.k.T
            y_dev = out.evaluate(u_dev, w_dev) - out.evaluate(
                np.zeros_like(u_dev), np.zeros_like(w_dev)
            )
            for si, t in enumerate(fam_x.steps):
                vals = fam_x.polyhedron.coefficients @ x_dev[int(t)]
                assert np.all(vals <= fam_x.reductions[si] + 1e-9)
            for si, t in enumerate(fam_u.steps):
                vals = fam_u.polyhedron.coefficients @ u_dev[int(t)]
                assert np.all(vals <= fam_u.reductions[si] + 1e-9)
            for si, t in enumerate(fam_y.steps):
                vals = fam_y.polyhedron.coefficients @ y_dev[int(t)]
                assert np.all(vals <= fam_y.reductions[si] + 1e-9)


BUDGETS = (0.0, 0.5, 1.0, 2.5, 10.0)


def budgets_for(horizon: int) -> tuple[float, ...]:
    """The budget list of the kernel tests plus one at or beyond the horizon."""
    return BUDGETS + (float(horizon), horizon + 1.5)


def impulse_responses(ssm, gain) -> dict:
    """d q(t) / d w_dev(tau, j) for q = x (t = 0..T), u, y (t = 0..T-1),
    by simulating the closed loop under one unit impulse at a time."""
    T, n_w = ssm.horizon, ssm.n_w
    resp = {
        "x": np.zeros((T + 1, ssm.n_x, T, n_w)),
        "u": np.zeros((T, ssm.n_u, T, n_w)),
        "y": np.zeros((T, ssm.output.n_y, T, n_w)),
    }
    y_zero = ssm.output.evaluate(np.zeros((T, ssm.n_u)), np.zeros((T, n_w)))
    for tau in range(T):
        for j in range(n_w):
            w = np.zeros((T, n_w))
            w[tau, j] = 1.0
            x = np.zeros((T + 1, ssm.n_x))
            for t in range(T):
                x[t + 1] = gain.phi @ x[t] + ssm.D @ w[t]
            u = x[:T] @ gain.k.T
            resp["x"][:, :, tau, j] = x
            resp["u"][:, :, tau, j] = u
            resp["y"][:, :, tau, j] = ssm.output.evaluate(u, w) - y_zero
    return resp


def family_responses(ssm, gain) -> dict:
    """Family name -> (steps, response of the constrained quantity per step)."""
    resp = impulse_responses(ssm, gain)
    T = ssm.horizon
    return {
        "x": (range(1, T + 1), resp["x"][1:]),
        "u": (range(T), resp["u"]),
        "du": (range(1, T), resp["u"][1:] - resp["u"][:-1]),
        "y": (range(T), resp["y"]),
        "dy": (range(1, T), resp["y"][1:] - resp["y"][:-1]),
    }


def sorted_budget_reduction(theta, widths, shifts, budget):
    """Budget reduction of rows theta (..., T, n_w) from a full descending
    sort per channel, and the scale (1-norm plus |shift term|) the
    tolerance is relative to; a budget of T or more gives the box one."""
    total = np.sum(theta * shifts, axis=(-2, -1))
    scale = 1.0 + np.abs(total)
    mags = -np.sort(-np.abs(theta * widths), axis=-2)
    whole = int(np.floor(budget))
    total = total + mags[..., :whole, :].sum(axis=(-2, -1))
    if whole < mags.shape[-2]:
        total = total + (budget - whole) * mags[..., whole, :].sum(axis=-1)
    return total, scale + mags.sum(axis=(-2, -1))


@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(2, 12),
    n_w=st.integers(1, 3),
    nonzero_gain=st.booleans(),
    centered=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_budget_kernel_matches_sorted_reference(
    seed, horizon, n_w, nonzero_gain, centered
):
    """The top-k kernel against a full sort over simulated impulse responses."""
    rng = np.random.default_rng(seed)
    ssm, cons, tube, gain = random_system(
        rng, n_x=2, n_u=2, n_y=4, n_w=n_w, horizon=horizon,
        nonzero_gain=nonzero_gain, centered=centered,
    )
    responses = family_responses(ssm, gain)
    widths, shifts = tube.half_width, tube.center_shift
    for budget in budgets_for(horizon):
        sched = tighten(ssm, cons, tube, gain, mode="budget", budget=budget, on_empty="flag")
        for name, (steps, resp) in responses.items():
            fam = sched.family(name)
            assert list(fam.steps) == list(steps)
            for si in range(len(fam.steps)):
                for ri, s in enumerate(fam.polyhedron.coefficients):
                    theta = np.tensordot(s, resp[si], axes=1)     # (T, n_w)
                    ref, scale = sorted_budget_reduction(theta, widths, shifts, budget)
                    assert abs(fam.reductions[si, ri] - ref) <= 1e-12 * scale, (
                        name, int(fam.steps[si]), ri, budget
                    )


def dense_lags(fam, per_block=None) -> np.ndarray:
    """One (lags, M, n_w) array of the family's blocks, or of ``per_block``
    arrays shaped as those blocks' values."""
    blocks = fam.lags.blocks
    per_block = [b.values for b in blocks] if per_block is None else per_block
    lag = np.zeros((fam.lags.stop, fam.lags.n_rows, fam.lags.n_in))
    for b, values in zip(blocks, per_block):
        lag[b.first : b.first + len(values), b.rows[:, np.newaxis], b.cols] += values
    return lag


def all_lags_convolve(fam, terms) -> np.ndarray:
    """The lag convolution of the dense lags summed over every lag, zero
    blocks included."""
    horizon = terms[0][1].shape[0]
    dense = [(dense_lags(fam, values), weights) for values, weights in terms]
    rho = np.zeros((len(fam.steps), fam.poly.n_rows))
    for k in range(dense[0][0].shape[0]):
        hit = (fam.steps >= k) & (fam.steps - k < horizon)
        if hit.any():
            tau = fam.steps[hit] - k
            rho[hit] += sum(weights[tau] @ values[k].T for values, weights in dense)
    return rho


def block_family(first, stop, n_lags, zero_first, mem_rows, mem_cols, shared=0):
    """A family with steps first..stop-1 over lags 0..n_lags-1 in blocks: a
    lag-0 block unless ``zero_first``, and a memory block over mem_rows x
    mem_cols with all-zero lags inside and near the end and a lag zero in
    part; the memory of pair (0, 0) is cut to ``shared`` nonzero lags."""
    T, M, n_w = 12, 4, 3
    rng = np.random.default_rng(first + n_lags + len(mem_rows) + shared)
    poly = PolyhedronH(rng.normal(size=(M, 2)), np.ones(M), [f"r{i}" for i in range(M)])
    memory = rng.normal(size=(n_lags - 1, len(mem_rows), len(mem_cols)))
    memory[[2, 3, 6, T - 3, T - 2]] = 0.0
    memory[4, :2] = 0.0
    if shared:
        memory[shared:, 0, 0] = 0.0
    blocks = [LagBlock(1, np.array(mem_rows), np.array(mem_cols), memory)]
    if not zero_first:
        blocks.insert(0, LagBlock(0, np.arange(M), np.arange(n_w), rng.normal(size=(1, M, n_w))))
    fam = _DeviationFamily("f", poly, np.arange(first, stop), Lags(tuple(blocks), M, n_w))
    widths = rng.uniform(0.0, 1.0, size=(T, n_w))
    shifts = rng.normal(size=(T, n_w))
    return fam, widths, shifts


FULL = ([0, 1, 2, 3], [0, 1, 2])


# x: steps 1..T over T+1 lags, no lag 0; u: steps 0..T-1, no lag 0; dy:
# steps 1..T-1 with a lag 0; a memory block over 2 of 4 rows and 2 of 3
# channels; pair (0, 0) with 1 lag-0 and 2 memory lags, long at budget 2
# only when the two blocks' counts are added
@pytest.mark.parametrize(
    "first,stop,n_lags,zero_first,mem,shared",
    [
        (1, 13, 13, True, FULL, 0),
        (0, 12, 12, True, FULL, 0),
        (1, 12, 12, False, FULL, 0),
        (0, 12, 12, False, ([1, 3], [0, 2]), 0),
        (0, 12, 12, False, FULL, 2),
    ],
    ids=["state-x", "state-u", "output-dy", "memory-subset", "pair-in-both"],
)
def test_lag_convolve_skips_only_zero_lags(first, stop, n_lags, zero_first, mem, shared):
    """The block convolution against the dense one over every lag, and the
    budget reductions built on it against a full sort of the dense lags."""
    fam, widths, shifts = block_family(first, stop, n_lags, zero_first, *mem, shared=shared)
    mags = [np.abs(b.values) for b in fam.lags.blocks]
    mags[-1][:, 0, 0] = 0.0                      # as the budget kernel zeroes long pairs
    terms = [(mags, widths), ([b.values for b in fam.lags.blocks], shifts)]
    got = _lag_convolve(fam, terms)
    want = all_lags_convolve(fam, terms)
    assert np.array_equal(got, want)
    assert np.all(got[-1] != 0.0)
    lag = dense_lags(fam)
    budget = 2.0
    reductions = _reductions(fam, widths, shifts, budget)
    for si, t in enumerate(fam.steps.tolist()):
        count = min(t + 1, len(widths))
        theta = lag[t - np.arange(count)].transpose(1, 0, 2)      # (M, count, n_w)
        ref, scale = sorted_budget_reduction(theta, widths[:count], shifts[:count], budget)
        assert np.all(np.abs(reductions[si] - ref) <= 1e-12 * scale), t


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_lag_convention_matches_simulated_responses(seed):
    """The dense lags of every family, lag t - tau at each step t, are its
    rows' simulated response to w_dev(tau) for tau = 0..min(t, T-1), and
    later impulses move nothing."""
    rng = np.random.default_rng(seed)
    ssm, cons, _, gain = random_system(rng, n_x=3, n_u=2, n_y=4, n_w=2, horizon=7, nonzero_gain=True)
    assert np.any(gain.k)
    T = ssm.horizon
    responses = family_responses(ssm, gain)
    covered = set()
    for fam in _build_families(ssm, cons, gain):
        steps, resp = responses[fam.name]
        assert list(fam.steps) == list(steps)
        lag = fam.lags.dense(T + 1)
        for si, t in enumerate(fam.steps.tolist()):
            want = np.tensordot(fam.poly.coefficients, resp[si], axes=1).transpose(1, 0, 2)
            theta = lag[t - np.arange(min(t + 1, T))]         # (count, M, n_w)
            count = theta.shape[0]
            assert count == min(t + 1, T)
            assert np.max(np.abs(theta - want[:count])) <= 1e-12, (fam.name, t)
            assert np.max(np.abs(want[count:]), initial=0.0) <= 1e-12, (fam.name, t)
            covered.add((fam.name, t))
    assert {("x", T), ("du", 1), ("dy", 1)} <= covered


@pytest.fixture(scope="module")
def ref24_responses(ref24):
    """Gain name -> (gain, simulated family responses) on the T=24 reference."""
    ssm = ref24.ssm
    gains = {"k0": choose_gain(ssm), "k-pinv": choose_gain(ssm, -0.5 * np.linalg.pinv(ssm.B))}
    return {name: (gain, family_responses(ssm, gain)) for name, gain in gains.items()}


@pytest.mark.parametrize("gain_name", ["k0", "k-pinv"])
@pytest.mark.parametrize("mode,budget", [("box", None), ("budget", 10.0)])
def test_reference_reductions_match_simulated_responses(ref24, ref24_responses, gain_name, mode, budget):
    """Every family, row and step of the T=24 reference, whose lags are
    sparse blocks, against its simulated responses sorted per channel (a
    box is a budget of T); nothing here reads the lag blocks."""
    gain, responses = ref24_responses[gain_name]
    tube = ref24.tube
    sched = tighten(ref24.ssm, ref24.constraints, tube, gain, mode=mode, budget=budget, on_empty="flag")
    per_mode = float(ref24.ssm.horizon) if budget is None else budget
    for name, (steps, resp) in responses.items():
        fam = sched.family(name)
        assert list(fam.steps) == list(steps)
        for si, t in enumerate(fam.steps.tolist()):
            theta = np.tensordot(fam.polyhedron.coefficients, resp[si], axes=1)    # (M, T, n_w)
            ref, scale = sorted_budget_reduction(theta, tube.half_width, tube.center_shift, per_mode)
            bad = np.flatnonzero(np.abs(fam.reductions[si] - ref) > 1e-12 * scale)
            assert not bad.size, (name, t, [fam.polyhedron.labels[i] for i in bad[:3]])


@pytest.mark.parametrize(
    "mode,budget,k_scale,mib",
    [("box", None, 0.0, 4.76), ("budget", 10.0, 0.0, 3.85), ("box", None, -0.5, 34.86)],
    ids=["box", "budget", "box-k-pinv"],
)
def test_full_day_tighten_peak_memory(mode, budget, k_scale, mib):
    """Tightening reads the lifted map's sparse lag blocks and never builds a
    dense (T, M, n_w) lag array: a T=288 tighten of the reference peaks at
    4.76 MiB (box) and 3.85 MiB (budget:10) of Python allocations, against
    60.9 and 75.6 MiB with the dense y lags, and at 34.86 MiB in box mode
    with K = -0.5 pinv(B), whose y lags touch nearly every row."""
    model = build_reference_system(288, 300.0)
    ssm = compile_state_space(model)
    cons = compile_constraints(model, ssm)
    tube = compile_uncertainty_tube(model)
    gain = choose_gain(ssm, k_scale * np.linalg.pinv(ssm.B))
    tracemalloc.start()
    try:
        tighten(ssm, cons, tube, gain, mode=mode, budget=budget, on_empty="flag")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 1.1 * mib
