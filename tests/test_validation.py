"""Scenario sampling, closed-loop simulation, and Monte Carlo metrics."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from chpdispatch import compile as compile_module
from chpdispatch import validation
from chpdispatch.compile import (
    ConstraintFamily,
    LiftedOutputMap,
    StateSpaceModel,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from chpdispatch.dispatch import CostModel, DispatchSolution, Policy, _cost_weights, realized_cost
from chpdispatch.reference import build_reference_system
from chpdispatch.sets import PolyhedronH, UncertaintyTube
from chpdispatch.tighten import FeedbackGain, choose_gain
from chpdispatch.validation import (
    VIOLATION_SLACK,
    Metrics,
    evaluate,
    parse_method,
    sample_disturbances,
    simulate,
)

from synthetic import empty_maps, synthetic_manifest
from test_compile import lag_loop


class TestSampling:
    def test_zero_width_tube_returns_center(self, ref24):
        center = ref24.tube.w_center
        tube = UncertaintyTube(center, center, center)
        batch = sample_disturbances(tube, 10, seed=1, mode="uniform")
        assert np.allclose(batch.samples, center[np.newaxis], atol=0.0)

    def test_determinism(self, ref24):
        a = sample_disturbances(ref24.tube, 100, seed=7, mode="uniform")
        b = sample_disturbances(ref24.tube, 100, seed=7, mode="uniform")
        assert np.array_equal(a.samples, b.samples)
        c = sample_disturbances(ref24.tube, 100, seed=8, mode="uniform")
        assert not np.array_equal(a.samples, c.samples)

    def test_all_samples_inside_tube(self, ref24):
        for mode in ("uniform", "vertex"):
            batch = sample_disturbances(ref24.tube, 64, seed=3, mode=mode)
            assert np.all(batch.samples >= ref24.tube.w_min - 1e-12)
            assert np.all(batch.samples <= ref24.tube.w_max + 1e-12)

    def test_budget_respecting_audit(self, ref24):
        budget = 2.0
        batch = sample_disturbances(ref24.tube, 200, seed=5, mode="budget", budget=budget)
        assert np.all(batch.samples >= ref24.tube.w_min - 1e-12)
        assert np.all(batch.samples <= ref24.tube.w_max + 1e-12)
        width = ref24.tube.half_width
        shift = ref24.tube.center_shift
        dev = batch.samples - ref24.tube.w_center[np.newaxis] - shift[np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore"):
            tilde = np.where(width[np.newaxis] > 0, dev / width[np.newaxis], 0.0)
        norms = np.sum(np.abs(tilde), axis=1)
        assert np.all(norms <= budget + 1e-9)

    def test_negative_budget_rejected(self, ref24):
        with pytest.raises(ValueError, match="budget must be >= 0, got -2.0"):
            sample_disturbances(ref24.tube, 10, seed=0, mode="budget", budget=-2.0)

    def test_vertex_enumeration_small_tube(self):
        lo = np.array([[0.0, -1.0], [0.5, 2.0]])
        hi = np.array([[1.0, -1.0], [0.5, 3.0]])   # two degenerate entries
        tube = UncertaintyTube(lo, (lo + hi) / 2, hi)
        batch = sample_disturbances(tube, 16, seed=0, mode="vertex")
        assert batch.count == 4   # 2 free entries -> 4 corners
        uniq = {tuple(s.ravel()) for s in batch.samples}
        assert len(uniq) == 4
        for s in batch.samples:
            assert np.all((s == lo) | (s == hi))

    def test_vertex_sampling_matches_one_draw(self, ref24):
        tube = ref24.tube
        shape = (tube.horizon, tube.n_channels)
        for count in (1, 7, 1001):
            batch = sample_disturbances(tube, count, seed=11, mode="vertex")
            bits = np.random.default_rng(11).integers(0, 2, (count, *shape))
            assert np.array_equal(batch.samples, np.where(bits == 1, tube.w_max, tube.w_min))


BUDGET = 2.5


def small_tube() -> UncertaintyTube:
    """Three free entries (8 corners) and one degenerate entry."""
    lo = np.array([[0.0, -1.0], [0.5, 2.0]])
    hi = np.array([[1.0, -0.5], [0.5, 3.0]])
    return UncertaintyTube(lo, (lo + hi) / 2, hi)


def direct_draw(tube: UncertaintyTube, mode: str, count: int, seed: int) -> np.ndarray:
    """The whole (count, T, n_w) batch from one draw of default_rng(seed)."""
    rng = np.random.default_rng(seed)
    shape = (count, tube.horizon, tube.n_channels)
    if mode == "uniform":
        return rng.random(shape) * (tube.w_max - tube.w_min) + tube.w_min
    if mode == "budget":
        tilde = rng.uniform(-1.0, 1.0, shape)
        norms = np.abs(tilde).sum(axis=1, keepdims=True)
        scale = np.minimum(1.0, BUDGET / np.maximum(norms, 1e-300))
        return tilde * scale * tube.half_width + (tube.w_center + tube.center_shift)
    if mode == "vertex":
        bits = rng.integers(0, 2, shape)
        return np.where(bits == 1, tube.w_max, tube.w_min)
    # every corner, free entry k at its upper end when bit k of the index is 1
    free = list(zip(*np.nonzero(tube.w_max > tube.w_min)))
    corners = []
    for i in range(2 ** len(free)):
        w = tube.w_min.copy()
        for k, (t, j) in enumerate(free):
            if (i >> k) & 1:
                w[t, j] = tube.w_max[t, j]
        corners.append(w)
    return np.array(corners)


class TestScenarioStream:
    @pytest.mark.parametrize("mode", ["uniform", "budget", "vertex", "vertex-enumerated"])
    def test_chunk_splits_match_one_direct_draw(self, ref24, mode):
        if mode == "vertex-enumerated":
            tube, count = small_tube(), 8
            batch = sample_disturbances(tube, 50, seed=3, mode="vertex")
        else:
            tube, count = ref24.tube, 50
            batch = sample_disturbances(tube, count, seed=3, mode=mode, budget=BUDGET)
        assert batch.count == count
        want = direct_draw(tube, mode, count, seed=3)
        # one sample at a time, a size that does not divide the count, more than the count
        for size in (1, 3, 7, count + 5):
            chunks = list(batch.chunks(size))
            assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
            assert np.array_equal(np.concatenate(chunks), want)
        assert np.array_equal(batch.samples, want)

    def test_batch_holds_no_samples(self, ref24):
        batch = sample_disturbances(ref24.tube, 10**9, seed=0)
        assert batch.count == 10**9
        first = next(batch.chunks(2))
        assert np.array_equal(first, direct_draw(ref24.tube, "uniform", 2, seed=0))

    def test_evaluate_memory_does_not_grow_with_the_batch(self, ref24, ref24_box_policy):
        count = 10_000
        whole = count * ref24.tube.horizon * ref24.tube.n_channels * 8   # 146 MB
        tracemalloc.start()
        try:
            batch = sample_disturbances(ref24.tube, count, seed=5)
            evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20 < whole

    def test_evaluate_peak_stays_chunk_sized(self, ref24, ref24_box_policy):
        """A 10k-sample T=24 evaluate under the 500k-element chunk (251
        samples) peaks near 15 MiB; 1M-element chunks took it to 28.7 MiB."""
        tracemalloc.start()
        try:
            batch = sample_disturbances(ref24.tube, 10_000, seed=5)
            evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_t288_chunk_memory_stays_chunk_sized(self, ref288):
        ssm, _, tube, _, _ = ref288
        out = dataclasses.replace(ssm.output)     # operands built under the trace
        count = validation._chunk_size(ssm, 10_000)
        w = np.broadcast_to(tube.w_center, (count,) + tube.w_center.shape).copy()
        u = np.zeros((count, ssm.horizon, ssm.n_u))
        n_mem, n_ch = out.temps.kernel.shape[1:]
        toeplitz = (ssm.horizon * n_ch) * (ssm.horizon * n_mem) * 8   # 170 MB
        tracemalloc.start()
        try:
            y = out.evaluate(u, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._rollout_operands.memory.toeplitz is None
        # the output (20 samples, 3.8 MB) and spectra of the same order
        assert peak < 4 * y.nbytes < toeplitz


def scalar_policy(phi: float, horizon: int):
    A = np.array([[phi]])
    B = np.array([[1.0]])
    D = np.array([[1.0]])
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
    gain = FeedbackGain(k=np.array([[-0.25]]), phi=A + B @ np.array([[-0.25]]))
    u_seq = np.linspace(0.1, 0.5, horizon).reshape(-1, 1)
    x_seq = np.zeros((horizon + 1, 1))
    for t in range(horizon):
        x_seq[t + 1] = A @ x_seq[t] + B @ u_seq[t]
    y_seq = out.evaluate(u_seq, np.zeros((horizon, 1)))
    sol = DispatchSolution(
        objective=0.0, x_seq=x_seq, u_seq=u_seq, y_seq=y_seq,
        schedule=None, kkt=None, iterations=0,
    )
    return ssm, Policy(solution=sol, gain=gain)


class TestSimulate:
    def test_nominal_scenario_reproduces_nominal(self, ref24, ref24_box_policy):
        x, u, y = simulate(ref24_box_policy, ref24.ssm, ref24.tube.w_center)
        sol = ref24_box_policy.solution
        assert np.max(np.abs(x - sol.x_seq)) <= 1e-10
        assert np.max(np.abs(u - sol.u_seq)) <= 1e-10
        assert np.max(np.abs(y - sol.y_seq)) <= 1e-10

    def test_zero_gain_keeps_planned_controls(self, ref24, ref24_box_policy):
        batch = sample_disturbances(ref24.tube, 3, seed=9, mode="uniform")
        for w in batch.samples:
            _, u, _ = simulate(ref24_box_policy, ref24.ssm, w)
            assert np.array_equal(u, ref24_box_policy.solution.u_seq)

    def test_hand_computed_two_step_recursion(self):
        ssm, pol = scalar_policy(0.8, 2)
        w = np.array([[0.3], [-0.2]])
        x, u, y = simulate(pol, ssm, w)
        # by hand: x1 = 0.8*0 + u0 + 0.3; u1 = ubar1 + k (x1 - xbar1); ...
        k = pol.gain.k[0, 0]
        x1 = 0.8 * 0.0 + pol.solution.u_seq[0, 0] + w[0, 0]
        u1 = pol.solution.u_seq[1, 0] + k * (x1 - pol.solution.x_seq[1, 0])
        x2 = 0.8 * x1 + u1 + w[1, 0]
        assert x[1, 0] == pytest.approx(x1, abs=1e-12)
        assert u[1, 0] == pytest.approx(u1, abs=1e-12)
        assert x[2, 0] == pytest.approx(x2, abs=1e-12)

    def test_deviation_matches_autonomous_recursion(self, ref24, ref24_box_policy):
        """x(t) - xbar(t) follows the closed-loop deviation recursion."""
        batch = sample_disturbances(ref24.tube, 5, seed=13, mode="uniform")
        sol = ref24_box_policy.solution
        phi = ref24.gain.phi
        for w in batch.samples:
            x, _, _ = simulate(ref24_box_policy, ref24.ssm, w)
            dev = np.zeros(ref24.ssm.n_x)
            for t in range(ref24.ssm.horizon):
                assert np.max(np.abs((x[t] - sol.x_seq[t]) - dev)) <= 1e-10
                dev = phi @ dev + ref24.ssm.D @ (w[t] - ref24.tube.w_center[t])


class TestLiftedRollout:
    """simulate's state convolution against the per-step oracle loop."""

    @staticmethod
    def off_dynamics_policy(ref24, policy, a):
        """``policy`` with K = -a pinv(B) and a nominal x_seq moved off the
        dynamics, so that the rollout has to carry the equality residual."""
        rng = np.random.default_rng(17)
        sol = policy.solution
        x_seq = sol.x_seq + rng.normal(scale=1e-2, size=sol.x_seq.shape) * np.abs(sol.x_seq).max()
        gain = choose_gain(ref24.ssm, k=-a * np.linalg.pinv(ref24.ssm.B))
        return Policy(solution=dataclasses.replace(sol, x_seq=x_seq), gain=gain)

    @staticmethod
    def assert_matches_oracle(policy, ssm, w):
        got = simulate(policy, ssm, w)
        want = oracle_rollout(policy, ssm, w)
        for g, h in zip(got, want):
            assert g.shape == h.shape
            np.testing.assert_allclose(g, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))

    @pytest.mark.parametrize("a", [0.0, 0.2], ids=["K0", "K-0.2pinvB"])
    def test_matches_oracle_off_the_dynamics(self, ref24, ref24_box_policy, a):
        policy = self.off_dynamics_policy(ref24, ref24_box_policy, a)
        sol = policy.solution
        ssm = ref24.ssm
        residual = sol.x_seq[1:] - sol.x_seq[:-1] @ ssm.A.T - sol.u_seq @ ssm.B.T
        assert np.max(np.abs(residual - ref24.tube.w_center @ ssm.D.T)) > 1e-3
        w = sample_disturbances(ref24.tube, 40, seed=21).samples
        self.assert_matches_oracle(policy, ssm, w)

    def test_rfft_side_matches_oracle(self, ref24, ref24_box_policy, monkeypatch):
        monkeypatch.setattr(compile_module, "_TOEPLITZ_MAX_BYTES", 0)
        policy = self.off_dynamics_policy(ref24, ref24_box_policy, 0.2)
        state = validation._state_convolution(policy, ref24.ssm)
        assert state.toeplitz is None and state.spectra is not None
        w = sample_disturbances(ref24.tube, 40, seed=22).samples
        self.assert_matches_oracle(policy, ref24.ssm, w)

    def test_evaluate_builds_the_state_operator_once(self, ref24, ref24_box_policy, monkeypatch):
        calls = {"build": 0, "rollout": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(validation, "_state_convolution", counted("build", validation._state_convolution))
        monkeypatch.setattr(validation, "_rollout", counted("rollout", validation._rollout))
        monkeypatch.setattr(validation, "EVALUATE_CHUNK_ELEMENTS", 30 * 24 * ref24.ssm.n_y)
        batch = sample_disturbances(ref24.tube, 100, seed=4)
        evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
        assert calls == {"build": 1, "rollout": 4}


class TestEvaluate:
    def test_single_center_sample_matches_nominal_cost(self, ref24, ref24_box_policy):
        tube = ref24.tube
        center_batch = sample_disturbances(
            UncertaintyTube(tube.w_center, tube.w_center, tube.w_center), 1, 0, "uniform"
        )
        met, _ = evaluate(
            ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, center_batch
        )
        assert met.violation_rate == 0.0
        assert met.j_expected == pytest.approx(met.j_nominal, abs=1e-9)
        assert met.j_max == pytest.approx(met.j_min, abs=1e-12)

    def test_cost_ordering_invariant(self, ref24, ref24_box_policy):
        batch = sample_disturbances(ref24.tube, 500, seed=3, mode="uniform")
        met, _ = evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
        assert met.j_min <= met.j_expected <= met.j_max
        assert 0.0 <= met.violation_rate <= 1.0
        assert met.sample_count == 500

    def test_do_policy_violates_more(self, ref24, ref24_box_policy, ref24_do_policy):
        batch = sample_disturbances(ref24.tube, 1000, seed=21, mode="uniform")
        met_box, _ = evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
        met_do, _ = evaluate(ref24_do_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
        assert met_box.violation_rate == 0.0
        assert met_do.violation_rate > met_box.violation_rate
        assert met_do.violations_by_row   # histogram populated

    @pytest.mark.parametrize("limits", ["original", "zero"])
    def test_by_row_counts_match_per_sample_check(self, ref24, ref24_do_policy, monkeypatch, limits):
        """Chunked counts equal a per-sample, per-step PolyhedronH.violations
        scan; with every bound at zero, every family has offenders."""
        constraints = ref24.constraints
        if limits == "zero":
            constraints = ConstraintFamily(**{
                name: dataclasses.replace(poly, bounds=np.zeros(poly.n_rows))
                for name, poly in constraints.families().items()
            })
        monkeypatch.setattr(validation, "EVALUATE_CHUNK_ELEMENTS", 37 * 24 * ref24.ssm.n_y)
        batch = sample_disturbances(ref24.tube, 200, seed=17, mode="uniform")
        met, traces = evaluate(ref24_do_policy, ref24.ssm, constraints, ref24.costs, batch)
        want: dict[str, int] = {}
        flags = []
        families_hit = set()
        for w in batch.samples:
            x, u, y = simulate(ref24_do_policy, ref24.ssm, w)
            series = {"x": x[1:], "u": u, "y": y, "du": np.diff(u, axis=0), "dy": np.diff(y, axis=0)}
            hit = set()
            for name, poly in constraints.families().items():
                for z in series[name]:
                    for ri in np.flatnonzero(poly.violations(z) > VIOLATION_SLACK):
                        hit.add((name, poly.labels[ri]))
            for name, label in hit:
                want[label] = want.get(label, 0) + 1
                families_hit.add(name)
            flags.append(bool(hit))
        assert met.violations_by_row == want
        assert traces["violated"].tolist() == flags
        assert met.violation_rate == np.mean(flags) > 0
        if limits == "zero":
            assert families_hit == set(constraints.families())

    def test_traced_envelopes_span_the_batch(self, ref24, ref24_box_policy, monkeypatch):
        monkeypatch.setattr(validation, "EVALUATE_CHUNK_ELEMENTS", 30 * 24 * ref24.ssm.n_y)
        batch = sample_disturbances(ref24.tube, 100, seed=4, mode="uniform")
        _, traces = evaluate(ref24_box_policy, ref24.ssm, ref24.constraints, ref24.costs, batch)
        # the same 30-sample chunks: a rollout of another batch size may round
        # its state products differently
        x, u, y = (np.concatenate(parts) for parts in zip(
            *(simulate(ref24_box_policy, ref24.ssm, w) for w in batch.chunks(30))
        ))
        assert len(x) == batch.count
        assert np.array_equal(traces["state_min"], x.min(axis=0))
        assert np.array_equal(traces["state_max"], x.max(axis=0))
        want = [per_sample_cost(ref24.ssm, ref24.costs, u[i], y[i]) for i in range(batch.count)]
        np.testing.assert_allclose(traces["realized_cost"], want, rtol=1e-12, atol=0)


def scaled_limits(constraints: ConstraintFamily, series: dict, quantile: float) -> ConstraintFamily:
    """Rows scaled by 2.0, -0.5 and 1.0 in turn, each bound at a value the
    row takes in ``series``, so some samples break it and some do not."""
    families = {}
    for name, poly in constraints.families().items():
        if poly.n_rows == 0:
            families[name] = poly
            continue
        coeff = poly.coefficients * np.resize([2.0, -0.5, 1.0], poly.n_rows)[:, np.newaxis]
        values = (series[name] @ coeff.T).reshape(-1, poly.n_rows)
        bounds = np.sort(values, axis=0)[int(quantile * (len(values) - 1))]
        families[name] = dataclasses.replace(poly, coefficients=coeff, bounds=bounds)
    return ConstraintFamily(**families)


def subset_limits(constraints: ConstraintFamily, series: dict, quantile: float) -> ConstraintFamily:
    """Rows on a subset of each family's columns, out of order and repeated
    (y rows on columns 40, 3, 40, ...), scaled and bounded as in
    :func:`scaled_limits`."""
    picks = {"x": [1, 0, 1], "u": [4, 0, 4, 2], "y": [40, 3, 40, 70], "du": [2, 0], "dy": [1, 1, 0]}
    families = {}
    for name, poly in constraints.families().items():
        cols = picks[name]
        coeff = np.zeros((len(cols), poly.dimension))
        coeff[np.arange(len(cols)), cols] = 1.0
        labels = [f"{name}[{j}]#{k}" for k, j in enumerate(cols)]
        families[name] = PolyhedronH(coeff, np.zeros(len(cols)), labels)
    return scaled_limits(ConstraintFamily(**families), series, quantile)


class TestLimitCheck:
    @staticmethod
    def check_against_oracle(ref24, policy, limits, quantile):
        batch = sample_disturbances(ref24.tube, 60, seed=8)
        x, u, y = simulate(policy, ref24.ssm, batch.samples)
        series = {"x": x[:, 1:], "u": u, "y": y, "du": np.diff(u, axis=1), "dy": np.diff(y, axis=1)}
        constraints = limits(ref24.constraints, series, quantile)
        by_row: dict[str, int] = {}
        flags = validation._violations(
            validation._limit_rows(constraints), x, u, y, by_row
        )
        want: dict[str, int] = {}
        want_flags = np.zeros(batch.count, dtype=bool)
        for i in range(batch.count):
            for name, poly in constraints.families().items():
                hit = np.zeros(poly.n_rows, dtype=bool)
                for z in series[name][i]:
                    hit |= poly.violations(z) > VIOLATION_SLACK
                for ri in np.flatnonzero(hit):
                    want[poly.labels[ri]] = want.get(poly.labels[ri], 0) + 1
                want_flags[i] |= hit.any()
        assert by_row == want
        assert np.array_equal(flags, want_flags)
        assert 0 < want_flags.sum() <= batch.count

    @pytest.mark.parametrize("quantile", [0.5, 0.99])
    def test_step_extrema_match_per_step_oracle(self, ref24, ref24_do_policy, quantile):
        self.check_against_oracle(ref24, ref24_do_policy, scaled_limits, quantile)

    @pytest.mark.parametrize("quantile", [0.5, 0.99])
    def test_subset_columns_match_per_step_oracle(self, ref24, ref24_do_policy, quantile):
        # the reference's x, u and y rows cover every column in column order,
        # and its du and dy rows read 3 of u's and 2 of y's columns; these
        # rows also take columns out of order and repeat them
        self.check_against_oracle(ref24, ref24_do_policy, subset_limits, quantile)

    def test_row_on_two_columns_is_refused(self, ref24, ref24_box_policy):
        u = ref24.constraints.u
        coeff = u.coefficients.copy()
        coeff[3, (np.flatnonzero(coeff[3])[0] + 1) % u.dimension] = 0.5
        constraints = dataclasses.replace(
            ref24.constraints, u=dataclasses.replace(u, coefficients=coeff)
        )
        batch = sample_disturbances(ref24.tube, 2, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"u row {u.labels[3]!r} has 2 nonzero")):
            evaluate(ref24_box_policy, ref24.ssm, constraints, ref24.costs, batch)


def oracle_rollout(policy, ssm, w):
    """x, u and y of a batch by a per-step state loop and the per-lag heat loop."""
    sol, k = policy.solution, policy.gain.k
    count, T = len(w), ssm.horizon
    x = np.empty((count, T + 1, ssm.n_x))
    u = np.empty((count, T, ssm.n_u))
    x[:, 0] = sol.x_seq[0]
    for t in range(T):
        u[:, t] = sol.u_seq[t] + (x[:, t] - sol.x_seq[t]) @ k.T
        x[:, t + 1] = x[:, t] @ ssm.A.T + u[:, t] @ ssm.B.T + w[:, t] @ ssm.D.T
    return x, u, lag_loop(ssm.output, u, w)


def oracle_verdicts(constraints, x, u, y):
    """Per-sample flags and per-row offender counts from PolyhedronH.violations at every step."""
    series = {"x": x[:, 1:], "u": u, "y": y, "du": np.diff(u, axis=1), "dy": np.diff(y, axis=1)}
    flags = np.zeros(len(x), dtype=bool)
    by_row: dict[str, int] = {}
    for name, poly in constraints.families().items():
        hit = (poly.violations(series[name]) > VIOLATION_SLACK).any(axis=1)   # (count, rows)
        flags |= hit.any(axis=1)
        for ri in np.flatnonzero(hit.any(axis=0)):
            by_row[poly.labels[ri]] = int(hit[:, ri].sum())
    return flags, by_row


@pytest.fixture(scope="module")
def ref288():
    """The full-day reference with a feedback gain and a fixed nominal
    schedule (controls at mid-range, no LP): evaluate takes the rFFT path."""
    model = build_reference_system(288, 300.0)
    ssm = compile_state_space(model)
    constraints = compile_constraints(model, ssm)
    tube = compile_uncertainty_tube(model)
    # each u row is +-e_j <= bound: the mean of a column's two limits
    on = constraints.u.coefficients != 0
    limits = constraints.u.bounds / constraints.u.coefficients.sum(axis=1)
    u_seq = np.tile(on.T @ limits / on.sum(axis=0), (ssm.horizon, 1))
    x_seq = np.empty((ssm.horizon + 1, ssm.n_x))
    x_seq[0] = ssm.x0
    for t in range(ssm.horizon):
        x_seq[t + 1] = ssm.A @ x_seq[t] + ssm.B @ u_seq[t] + ssm.D @ tube.w_center[t]
    sol = DispatchSolution(
        objective=0.0, x_seq=x_seq, u_seq=u_seq, y_seq=None,
        schedule=None, kkt=None, iterations=0,
    )
    policy = Policy(solution=sol, gain=choose_gain(ssm, k=-5.0 * ssm.B.T))
    return ssm, constraints, tube, CostModel.from_model(model), policy


class TestVerdictGate:
    """evaluate against an oracle rollout: identical verdicts, costs and the
    state envelope within 1e-12 relative."""

    @staticmethod
    def check(policy, ssm, constraints, costs, batch):
        met, traces = evaluate(policy, ssm, constraints, costs, batch)
        x, u, y = oracle_rollout(policy, ssm, batch.samples)
        flags, by_row = oracle_verdicts(constraints, x, u, y)
        assert np.array_equal(traces["violated"], flags)
        assert met.violations_by_row == by_row
        np.testing.assert_allclose(
            traces["realized_cost"], realized_cost(ssm, costs, u, y), rtol=1e-12, atol=0
        )
        for got, want in ((traces["state_min"], x.min(axis=0)), (traces["state_max"], x.max(axis=0))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        return by_row

    @pytest.mark.parametrize("case", ["do", "do-zero", "box"])
    def test_t24(self, ref24, ref24_do_policy, ref24_box_policy, case):
        policy = ref24_box_policy if case == "box" else ref24_do_policy
        batch = sample_disturbances(ref24.tube, 2000, seed=29)
        constraints = ref24.constraints
        if case == "do-zero":
            # every bound at zero: every family offends
            constraints = ConstraintFamily(**{
                name: dataclasses.replace(poly, bounds=np.zeros(poly.n_rows))
                for name, poly in constraints.families().items()
            })
        by_row = self.check(policy, ref24.ssm, constraints, ref24.costs, batch)
        families = {
            name for name, poly in constraints.families().items() if set(poly.labels) & set(by_row)
        }
        want = {"box": set(), "do": {"x", "y", "dy"}, "do-zero": set(constraints.families())}
        assert families == want[case]

    def test_t288_rfft(self, ref288):
        ssm, constraints, tube, costs, policy = ref288
        assert ssm.output._rollout_operands.memory.spectra is not None
        by_row = self.check(policy, ssm, constraints, costs, sample_disturbances(tube, 200, seed=3))
        assert by_row


def per_sample_cost(ssm, costs, u, y) -> float:
    """The cost of one (T, n_u), (T, n_y) trajectory, term by term."""
    man = ssm.manifest
    total = 0.0
    for t in range(ssm.horizon):
        for k, i in enumerate(man.indices("u", "chp_p")):
            total += costs.chp[k] * u[t, i]
        for k, i in enumerate(man.indices("u", "hp_p")):
            total += costs.hp[k] * u[t, i]
        total += costs.grid_price[t] * u[t, man.index("u", "grid_p", "grid")]
        for k, i in enumerate(man.indices("y", "battery_power")):
            total += costs.battery[k] * abs(y[t, i])
        for k, i in enumerate(man.indices("y", "tank_flow")):
            total += costs.tank[k] * abs(y[t, i])
    return total


class TestRealizedCost:
    def test_batch_matches_per_sample_sum(self, ref24, ref24_do_policy):
        batch = sample_disturbances(ref24.tube, 40, seed=6, mode="uniform")
        _, u, y = simulate(ref24_do_policy, ref24.ssm, batch.samples)
        got = realized_cost(ref24.ssm, ref24.costs, u, y)
        assert got.shape == (40,)
        want = [per_sample_cost(ref24.ssm, ref24.costs, u[i], y[i]) for i in range(40)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        grid = realized_cost(ref24.ssm, ref24.costs, u.reshape(4, 10, *u.shape[1:]),
                             y.reshape(4, 10, *y.shape[1:]))
        np.testing.assert_allclose(grid.ravel(), want, rtol=1e-12, atol=0)
        single = realized_cost(ref24.ssm, ref24.costs, u[0], y[0])
        assert isinstance(single, float) and single == pytest.approx(want[0], rel=1e-12)

    def test_weights_built_once_match_default(self, ref24, ref24_box_policy):
        batch = sample_disturbances(ref24.tube, 40, seed=9, mode="uniform")
        _, u, y = simulate(ref24_box_policy, ref24.ssm, batch.samples)
        weights = _cost_weights(ref24.ssm, ref24.costs)
        once = realized_cost(ref24.ssm, ref24.costs, u, y, weights)
        assert once.shape == (40,)
        assert np.array_equal(once, realized_cost(ref24.ssm, ref24.costs, u, y))
        single = realized_cost(ref24.ssm, ref24.costs, u[3], y[3], weights)
        assert isinstance(single, float)
        assert single == realized_cost(ref24.ssm, ref24.costs, u[3], y[3])

    @pytest.mark.parametrize("which", ["do", "box"])
    def test_nominal_trajectory_prices_at_lp_objective(
        self, ref24, ref24_do_solution, ref24_box_solution, which
    ):
        sol = ref24_do_solution if which == "do" else ref24_box_solution
        cost = realized_cost(ref24.ssm, ref24.costs, sol.u_seq, sol.y_seq)
        assert cost == pytest.approx(sol.objective, rel=1e-9)


class TestMetrics:
    @staticmethod
    def metrics(j_min, j_expected, j_max):
        return Metrics(
            violation_rate=0.0, j_nominal=j_expected, j_expected=j_expected,
            j_max=j_max, j_min=j_min, sample_count=10000,
        )

    def test_mean_of_equal_large_costs_is_accepted(self):
        cost = 17123456.789
        mean = float(np.mean(np.full(10000, cost)))
        assert mean - cost > 1e-9     # the mean rounds past the costs
        m = self.metrics(cost, mean, cost)
        assert m.j_min == m.j_max == cost

    @pytest.mark.parametrize("triple", [
        (1.7e7 + 1.0, 1.7e7, 1.7e7 + 2.0),
        (1.7e7 - 2.0, 1.7e7, 1.7e7 - 1.0),
        (0.0, 2e-9, 0.0),
        (-1.7e7, -1.7e7 - 1.0, 0.0),
    ], ids=["mean-below-min", "mean-above-max", "small", "negative"])
    def test_out_of_order_costs_raise(self, triple):
        with pytest.raises(ValueError, match="cost ordering"):
            self.metrics(*triple)

    def test_zero_width_tube_at_large_costs_evaluates(self, ref24, ref24_do_policy):
        # equal realized costs near 1.7e7, whose mean rounds past them
        costs = CostModel(*(getattr(ref24.costs, f.name) * 1e4 for f in dataclasses.fields(CostModel)))
        center = ref24.tube.w_center
        batch = sample_disturbances(UncertaintyTube(center, center, center), 1000, seed=0)
        m, _ = evaluate(ref24_do_policy, ref24.ssm, ref24.constraints, costs, batch)
        assert m.j_min == m.j_max > 1e7
        assert m.j_expected == pytest.approx(m.j_min, rel=1e-14)


def test_parse_method():
    assert parse_method("do") == ("do", None)
    assert parse_method("erd-box") == ("erd-box", None)
    assert parse_method("erd-budget:10") == ("erd-budget", 10.0)
    assert parse_method("ERD-Iterative-Box") == ("erd-iterative-box", None)
    with pytest.raises(ValueError):
        parse_method("erd-budget")
    with pytest.raises(ValueError):
        parse_method("lorem")
    # the head must be exactly erd-budget, and the budget a number
    with pytest.raises(ValueError, match="unknown method 'erd-budgetxyz:2'"):
        parse_method("erd-budgetXYZ:2")
    with pytest.raises(ValueError, match="method 'erd-budget:abc': budget 'abc' is not a number"):
        parse_method("erd-budget:abc")
