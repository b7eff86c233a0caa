"""Monte Carlo validation of dispatch policies.

Disturbance scenarios are drawn from the uncertainty tube, closed-loop
trajectories are rolled out under the affine policy, realized trajectories
are checked against the ORIGINAL (untightened) constraint families, and
realized costs are aggregated.  A batch is a seeded stream drawn one chunk
at a time, so memory does not grow with the sample count.  The comparison
harness runs several tightening methods on the same scenarios with
wall-clock timings.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .compile import ConstraintFamily, LiftedConvolution, StateSpaceModel, family_form
from .dispatch import (
    CostModel, DispatchError, Policy, _cost_weights, deterministic_schedule, realized_cost,
    solve_dispatch,
)
from .sets import UncertaintyTube
from .tighten import FeedbackGain, TightenedSchedule, check_budget, tighten, tighten_iterative_lp

__all__ = [
    "ScenarioBatch",
    "Metrics",
    "MethodResult",
    "ComparisonReport",
    "sample_disturbances",
    "simulate",
    "evaluate",
    "compare_methods",
    "parse_method",
]

VIOLATION_SLACK = 1e-9
# output elements (samples x steps x outputs) simulated per chunk in evaluate.
# With no per-step state loop a chunk has little fixed cost, so 500k rather
# than 1M halves the chunk's arrays: a 10k-sample T=24 evaluate peaked at
# 14.9 instead of 28.7 MiB (tracemalloc) at the same speed (256 against
# 257 ms), and a 2k-sample T=288 one took 739-743 ms, against 684-705 ms at
# 1M and 797-810 ms with the loop at 1M (2-vCPU x86-64, numpy 2.4.6,
# OpenBLAS 0.3.31, min of 7-9 calls).
EVALUATE_CHUNK_ELEMENTS = 500_000


@dataclass(frozen=True)
class ScenarioBatch:
    """``count`` disturbance sequences (T, n_w) from the tube, held as one
    seeded stream rather than an array.

    :meth:`chunks` draws them from ``np.random.default_rng(seed)`` in sample
    order, so every chunk split yields the samples of one (count, T, n_w)
    draw, and memory does not grow with ``count``.  ``budget`` is the
    resolved 1-norm budget of "budget" mode.
    """

    mode: str
    seed: int
    count: int
    tube: UncertaintyTube
    budget: float | None = None

    @property
    def samples(self) -> np.ndarray:
        """The whole (count, T, n_w) batch as one array."""
        return next(self.chunks(self.count))

    def chunks(self, size: int) -> Iterator[np.ndarray]:
        """The samples in order, ``size`` at a time (the last chunk may be shorter)."""
        tube = self.tube
        rng = np.random.default_rng(self.seed)
        free = _free_entries(tube)
        enumerate_corners = self.mode == "vertex" and _corner_count(tube, self.count) is not None
        width = tube.w_max - tube.w_min
        half_width = tube.half_width
        center = tube.w_center + tube.center_shift
        # draws are scaled and shifted in place
        for start in range(0, self.count, size):
            stop = min(start + size, self.count)
            shape = (stop - start, tube.horizon, tube.n_channels)
            if self.mode == "uniform":
                block = rng.random(shape)
                block *= width
                block += tube.w_min
            elif self.mode == "budget":
                block = rng.uniform(-1.0, 1.0, shape)
                norms = np.sum(np.abs(block), axis=1, keepdims=True)   # (n, 1, n_w)
                block *= np.minimum(1.0, self.budget / np.maximum(norms, 1e-300))
                block *= half_width
                block += center
            elif enumerate_corners:
                # corner i sets free entry k to w_max when bit k of i is 1
                bits = (np.arange(start, stop)[:, np.newaxis] >> np.arange(len(free[0]))) & 1
                block = np.broadcast_to(tube.w_min, shape).copy()
                block[:, free[0], free[1]] = np.where(bits == 1, tube.w_max[free], tube.w_min[free])
            else:
                bits = rng.integers(0, 2, shape)
                block = np.where(bits == 1, tube.w_max, tube.w_min)
            yield block


def sample_disturbances(
    tube: UncertaintyTube,
    count: int,
    seed: int,
    mode: str = "uniform",
    budget: float | None = None,
) -> ScenarioBatch:
    """Reproducible scenario generation; nothing is drawn until the batch is read.

    "uniform": independent uniform draws inside every interval.
    "budget": uniform draws whose normalized per-channel deviation sequences
    are rescaled onto the 1-norm budget ball when they exceed it.
    "vertex": box corners; enumerated exhaustively when there are at most
    ``count`` corners over the non-degenerate entries, sampled otherwise.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if mode == "budget":
        check_budget(budget)
    elif mode == "vertex":
        count = _corner_count(tube, count) or count
    elif mode != "uniform":
        raise ValueError(f"unknown sampling mode {mode!r}")
    return ScenarioBatch(
        mode=mode, seed=seed, count=count, tube=tube,
        budget=budget if mode == "budget" else None,
    )


def _free_entries(tube: UncertaintyTube) -> tuple[np.ndarray, np.ndarray]:
    """(step, channel) indices of the entries with a nonzero interval width."""
    return np.nonzero(tube.w_max - tube.w_min > 0)


def _corner_count(tube: UncertaintyTube, count: int) -> int | None:
    """The number of box corners when vertex mode enumerates them all."""
    n_free = len(_free_entries(tube)[0])
    if n_free <= 30 and 2**n_free <= count:
        return 2**n_free
    return None


def simulate(
    policy: Policy, ssm: StateSpaceModel, w_seq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-loop rollout of one (T, n_w) or many (count, T, n_w) disturbance
    sequences; x, u and y carry the same leading axes.  Exact for any gain."""
    return _rollout(policy, ssm, _state_convolution(policy, ssm), w_seq)


def _state_convolution(policy: Policy, ssm: StateSpaceModel) -> LiftedConvolution:
    """The causal convolution with kernel Phi^k, k < T, Phi = A + B K, in
    row form: block k is (Phi^k).T.  One per policy."""
    T = ssm.horizon
    phi_t = policy.gain.phi.T
    kernel = np.empty((T, ssm.n_x, ssm.n_x))
    kernel[0] = np.eye(ssm.n_x)
    known = 1
    while known < T:
        # (Phi^(known + j)).T = (Phi^j).T (Phi^known).T: double the powers known
        more = min(known, T - known)
        kernel[known : known + more] = kernel[:more] @ (kernel[known - 1] @ phi_t)
        known += more
    return LiftedConvolution.of(kernel)


def _rollout(
    policy: Policy, ssm: StateSpaceModel, state: LiftedConvolution, w_seq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`simulate` with the policy's state convolution ``state`` given.

    The affine policy keeps the deviation from the nominal linear whatever
    the nominal is: x(t+1) - x_nom(t+1) = Phi (x(t) - x_nom(t)) + e(t) with
    e(t) = D w(t) + A x_nom(t) + B u_nom(t) - x_nom(t+1), which carries the
    LP's equality residual.  So the deviation is one causal convolution of
    e with Phi^k, u = u_nom + (x - x_nom) K^T, and y comes from the lifted
    output map.  Sums run in another order than a per-step loop's, so
    results agree with it to rounding (about 1e-15 relative).
    """
    sol = policy.solution
    T, n_x = ssm.horizon, ssm.n_x
    w_seq = np.atleast_2d(w_seq)
    lead = w_seq.shape[:-2]
    e = w_seq @ ssm.D.T
    e += sol.x_seq[:-1] @ ssm.A.T + sol.u_seq @ ssm.B.T - sol.x_seq[1:]
    dev = np.zeros(lead + (T + 1, n_x))                    # x(t) - x_nom(t)
    dev[..., 1:, :] = state.apply(e.reshape(-1, T, n_x)).reshape(lead + (T, n_x))
    u = sol.u_seq + dev[..., :-1, :] @ policy.gain.k.T
    return dev + sol.x_seq, u, ssm.output.evaluate(u, w_seq)


@dataclass(frozen=True)
class Metrics:
    """Violation statistics and realized-cost spread over a batch."""

    violation_rate: float
    j_nominal: float
    j_expected: float
    j_max: float
    j_min: float
    sample_count: int
    violations_by_row: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.violation_rate <= 1.0:
            raise ValueError("violation rate must lie in [0, 1]")
        # the mean of equal costs can round a few ulps past them
        tol = 1e-9 * max(1.0, abs(self.j_min), abs(self.j_max))
        if self.j_min > self.j_expected + tol or self.j_expected > self.j_max + tol:
            raise ValueError("cost ordering j_min <= j_expected <= j_max violated")

    def to_dict(self) -> dict:
        return {
            "violation_rate": self.violation_rate,
            "j_nominal": self.j_nominal,
            "j_expected": self.j_expected,
            "j_max": self.j_max,
            "j_min": self.j_min,
            "sample_count": self.sample_count,
            "violations_by_row": dict(sorted(self.violations_by_row.items())),
        }


def evaluate(
    policy: Policy,
    ssm: StateSpaceModel,
    constraints: ConstraintFamily,
    costs: CostModel,
    batch: ScenarioBatch,
) -> tuple[Metrics, dict[str, np.ndarray]]:
    """Check every sample against the original families and price it.

    Each chunk of the batch is drawn right before it is rolled out, checked
    and priced, so no array holds the whole batch.  Prices are taken one
    sample per ``realized_cost`` call (``bench/test_bench.py`` counts those
    calls per sample, although ``realized_cost`` takes a whole chunk), with
    the cost weights built once per call of ``evaluate``.  Returns the
    aggregate metrics and the traces: the per-sample violation flags
    ("violated") and realized costs ("realized_cost"), and the per-step
    state envelope over the batch ("state_min"/"state_max", (T+1, n_x)).
    """
    count = batch.count
    limits = _limit_rows(constraints)
    weights = _cost_weights(ssm, costs)

    violated = np.zeros(count, dtype=bool)
    by_row: dict[str, int] = {}
    costs_out = np.zeros(count)
    state_min = np.full((ssm.horizon + 1, ssm.n_x), np.inf)
    state_max = np.full((ssm.horizon + 1, ssm.n_x), -np.inf)

    state = _state_convolution(policy, ssm)
    chunk = _chunk_size(ssm, count)
    for start, w_c in zip(range(0, count, chunk), batch.chunks(chunk)):
        rows = slice(start, start + len(w_c))
        x_c, u_c, y_c = _rollout(policy, ssm, state, w_c)
        violated[rows] = _violations(limits, x_c, u_c, y_c, by_row)
        costs_out[rows] = [realized_cost(ssm, costs, u_s, y_s, weights) for u_s, y_s in zip(u_c, y_c)]
        state_min = np.minimum(state_min, x_c.min(axis=0))
        state_max = np.maximum(state_max, x_c.max(axis=0))

    metrics = Metrics(
        violation_rate=float(np.mean(violated)),
        j_nominal=float(policy.solution.objective),
        j_expected=float(np.mean(costs_out)),
        j_max=float(np.max(costs_out)),
        j_min=float(np.min(costs_out)),
        sample_count=count,
        violations_by_row=by_row,
    )
    return metrics, {
        "violated": violated,
        "realized_cost": costs_out,
        "state_min": state_min,
        "state_max": state_max,
    }


def _chunk_size(ssm: StateSpaceModel, count: int) -> int:
    """Scenarios per simulated chunk under ``EVALUATE_CHUNK_ELEMENTS``."""
    return max(1, min(count, EVALUATE_CHUNK_ELEMENTS // max(1, ssm.horizon * ssm.n_y)))


@dataclass(frozen=True)
class _LimitRows:
    """One family's rows c z[j] <= r, each with one nonzero coefficient c."""

    family: str
    columns: np.ndarray        # (M,) j
    coefficients: np.ndarray   # (M,) c
    bounds: np.ndarray         # (M,) r
    labels: tuple[str, ...]


def _limit_rows(constraints: ConstraintFamily) -> list[_LimitRows]:
    """The (column, coefficient) of every row; a row on two or more columns is refused."""
    limits = []
    for name, poly in constraints.families().items():
        if poly.n_rows == 0:
            continue
        nonzero = poly.coefficients != 0.0
        per_row = nonzero.sum(axis=1)
        if np.any(per_row != 1):
            ri = int(np.flatnonzero(per_row != 1)[0])
            raise ValueError(
                f"{name} row {poly.labels[ri]!r} has {per_row[ri]} nonzero coefficients; "
                "the Monte Carlo limit check takes one per row"
            )
        j = np.argmax(nonzero, axis=1)
        limits.append(_LimitRows(
            family=name,
            columns=j,
            coefficients=poly.coefficients[np.arange(poly.n_rows), j],
            bounds=poly.bounds,
            labels=poly.labels,
        ))
    return limits


def _violations(
    limits: list[_LimitRows],
    x: np.ndarray,
    u: np.ndarray,
    y: np.ndarray,
    by_row: dict[str, int],
) -> np.ndarray:
    """Per-sample any-violation flags; adds per-row offender counts to ``by_row``.

    c z - r is monotone in z under rounding, so a row is violated at some
    step exactly when it is violated at the step maximum of z[j] (c > 0) or
    the step minimum (c < 0): the flags and counts of the per-step
    ``PolyhedronH.violations`` check, without its matrix product.
    """
    series = {"x": x, "u": u, "y": y}
    flags = np.zeros(x.shape[0], dtype=bool)
    for lim in limits:
        vector, diff, steps = family_form(lim.family, u.shape[1])
        if not len(steps):
            continue
        # the family's steps, and one earlier for a step difference
        z = series[vector][:, steps[0] - diff : steps[-1] + 1]
        if diff:
            # the rate rows read a few columns: difference only those
            z = np.diff(z[:, :, lim.columns], axis=1)
            z_max = z.max(axis=1)                          # (count, rows)
            z_min = z.min(axis=1)
        else:
            # step extrema of the whole series are faster than those of a
            # fancy-indexed column copy
            z_max = z.max(axis=1)[:, lim.columns]
            z_min = z.min(axis=1)[:, lim.columns]
        extreme = np.where(lim.coefficients > 0, z_max, z_min)
        bad = extreme * lim.coefficients - lim.bounds > VIOLATION_SLACK
        flags |= bad.any(axis=1)
        per_row = bad.sum(axis=0)
        for ri in np.flatnonzero(per_row):
            by_row[lim.labels[ri]] = by_row.get(lim.labels[ri], 0) + int(per_row[ri])
    return flags


def parse_method(spec: str) -> tuple[str, float | None]:
    """'do' | 'erd-box' | 'erd-budget:G' | 'erd-iterative-box' -> (kind, gamma)."""
    spec = spec.strip().lower()
    if spec in ("do", "erd-box", "erd-iterative-box"):
        return spec, None
    head, _, raw = spec.partition(":")
    if head != "erd-budget":
        raise ValueError(f"unknown method {spec!r}")
    if not raw:
        raise ValueError("erd-budget requires a budget, e.g. erd-budget:10")
    try:
        return head, float(raw)
    except ValueError:
        raise ValueError(f"method {spec!r}: budget {raw!r} is not a number") from None


def _label(kind: str, gamma: float | None) -> str:
    return kind if gamma is None else f"{kind}:{gamma:g}"


@dataclass(frozen=True)
class MethodResult:
    method: str
    gamma: float | None
    metrics: Metrics
    tighten_seconds: float
    solve_seconds: float

    @property
    def label(self) -> str:
        return _label(self.method, self.gamma)

    def to_dict(self) -> dict:
        """Deterministic part only; wall-clock timings live elsewhere."""
        d = {"method": self.method, "gamma": self.gamma}
        d.update(self.metrics.to_dict())
        return d


@dataclass(frozen=True)
class ComparisonReport:
    results: tuple[MethodResult, ...]
    sample_count: int
    seed: int

    def to_dict(self) -> dict:
        """Metrics only: a pure function of (config, methods, seed)."""
        return {
            "sample_count": self.sample_count,
            "seed": self.seed,
            "methods": [r.to_dict() for r in self.results],
        }

    def timings_dict(self) -> dict:
        return {
            r.label: {
                "tighten_seconds": r.tighten_seconds,
                "solve_seconds": r.solve_seconds,
            }
            for r in self.results
        }

    def to_text(self) -> str:
        header = (
            f"{'method':<22}{'violation %':>12}{'J_nom':>14}{'J_exp':>14}"
            f"{'J_max':>14}{'J_min':>14}{'tighten s':>12}{'solve s':>10}"
        )
        lines = [header, "-" * len(header)]
        for r in self.results:
            m = r.metrics
            lines.append(
                f"{r.label:<22}{100 * m.violation_rate:>12.2f}{m.j_nominal:>14.2f}"
                f"{m.j_expected:>14.2f}{m.j_max:>14.2f}{m.j_min:>14.2f}"
                f"{r.tighten_seconds:>12.4f}{r.solve_seconds:>10.4f}"
            )
        return "\n".join(lines) + "\n"


def compare_methods(
    ssm: StateSpaceModel,
    constraints: ConstraintFamily,
    tube: UncertaintyTube,
    gain: FeedbackGain,
    costs: CostModel,
    methods: list[str],
    sample_count: int = 10000,
    seed: int = 0,
) -> ComparisonReport:
    """Tighten + dispatch + evaluate each method on the same scenarios: one
    seeded stream that each ``evaluate`` draws afresh, chunk by chunk.
    Every method's label must be its own: the timings are keyed by it."""
    if not methods:
        raise ValueError("no methods given")
    parsed = [parse_method(spec) for spec in methods]
    labels = [_label(kind, gamma_value) for kind, gamma_value in parsed]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"method {label} given twice")
    batch = sample_disturbances(tube, sample_count, seed, mode="uniform")
    results: list[MethodResult] = []
    for spec, (kind, gamma_value) in zip(methods, parsed):
        t0 = time.perf_counter()
        schedule = _schedule_for(kind, gamma_value, ssm, constraints, tube, gain)
        t_tighten = time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            sol = solve_dispatch(ssm, schedule, costs, tube.w_center)
        except DispatchError as exc:
            raise RuntimeError(f"method {spec}: {exc}") from exc
        t_solve = time.perf_counter() - t0
        metrics, _ = evaluate(Policy(solution=sol, gain=gain), ssm, constraints, costs, batch)
        results.append(
            MethodResult(
                method=kind,
                gamma=gamma_value,
                metrics=metrics,
                tighten_seconds=t_tighten,
                solve_seconds=t_solve,
            )
        )
    return ComparisonReport(results=tuple(results), sample_count=sample_count, seed=seed)


def _schedule_for(kind, gamma_value, ssm, constraints, tube, gain) -> TightenedSchedule:
    if kind == "do":
        return deterministic_schedule(ssm, constraints, tube, gain)
    if kind == "erd-box":
        return tighten(ssm, constraints, tube, gain, mode="box")
    if kind == "erd-budget":
        return tighten(ssm, constraints, tube, gain, mode="budget", budget=gamma_value)
    if kind == "erd-iterative-box":
        return tighten_iterative_lp(ssm, constraints, tube, gain, mode="box")
    raise ValueError(f"unknown method kind {kind!r}")
