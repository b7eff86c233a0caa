"""Monte Carlo validation of dispatch policies.

Disturbance scenarios are drawn from the uncertainty tube, closed-loop
trajectories are rolled out under the affine policy, realized trajectories
are checked against the ORIGINAL (untightened) constraint families, and
realized costs are aggregated.  The comparison harness runs several
tightening methods on one shared scenario batch with wall-clock timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .compile import ConstraintFamily, StateSpaceModel
from .dispatch import CostModel, Policy, deterministic_schedule, realized_cost, solve_dispatch
from .sets import UncertaintyTube
from .tighten import FeedbackGain, TightenedSchedule, tighten, tighten_iterative_lp

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
# output elements (samples x steps x outputs) simulated per chunk in evaluate
EVALUATE_CHUNK_ELEMENTS = 1_000_000
# disturbance entries (samples x steps x channels) per chunk of vertex bits
VERTEX_CHUNK_ELEMENTS = 1_000_000


@dataclass(frozen=True)
class ScenarioBatch:
    """Disturbance sequences drawn from the tube; (count, T, n_w)."""

    mode: str
    seed: int
    samples: np.ndarray

    @property
    def count(self) -> int:
        return self.samples.shape[0]


def sample_disturbances(
    tube: UncertaintyTube,
    count: int,
    seed: int,
    mode: str = "uniform",
    budget: float | None = None,
) -> ScenarioBatch:
    """Reproducible scenario generation.

    "uniform": independent uniform draws inside every interval.
    "budget": uniform draws whose normalized per-channel deviation sequences
    are rescaled onto the 1-norm budget ball when they exceed it.
    "vertex": box corners; enumerated exhaustively when there are at most
    ``count`` corners over the non-degenerate entries, sampled otherwise.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    T, n_w = tube.horizon, tube.n_channels

    # every draw is scaled and shifted in place: no batch-sized temporaries
    if mode == "uniform":
        samples = rng.random((count, T, n_w))
        samples *= tube.w_max - tube.w_min
        samples += tube.w_min
    elif mode == "budget":
        if budget is None:
            budget = tube.budget
        if budget is None:
            raise ValueError("budget mode requires a budget")
        tilde = rng.uniform(-1.0, 1.0, (count, T, n_w))
        norms = np.sum(np.abs(tilde), axis=1, keepdims=True)      # (count, 1, n_w)
        scale = np.minimum(1.0, budget / np.maximum(norms, 1e-300))
        samples = tilde
        samples *= scale
        samples *= tube.half_width
        samples += tube.w_center + tube.center_shift
    elif mode == "vertex":
        width_mask = (tube.w_max - tube.w_min) > 0
        n_free = int(np.sum(width_mask))
        if n_free <= 30 and 2**n_free <= count:
            picks = np.arange(2**n_free)
            bits = (picks[:, np.newaxis] >> np.arange(n_free)) & 1
            samples = np.broadcast_to(tube.w_min, (2**n_free, T, n_w)).copy()
            flat_idx = np.argwhere(width_mask)
            for k, (t, j) in enumerate(flat_idx):
                samples[bits[:, k] == 1, t, j] = tube.w_max[t, j]
        else:
            # int64 bits drawn chunk by chunk along the sample axis give the
            # same stream as one draw, without a batch-sized temporary
            samples = np.empty((count, T, n_w))
            chunk = max(1, VERTEX_CHUNK_ELEMENTS // max(1, T * n_w))
            for start in range(0, count, chunk):
                block = samples[start : start + chunk]
                bits = rng.integers(0, 2, block.shape)
                block[...] = np.where(bits == 1, tube.w_max, tube.w_min)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return ScenarioBatch(mode=mode, seed=seed, samples=samples)


def simulate(
    policy: Policy, ssm: StateSpaceModel, w_seq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-loop rollout of one (T, n_w) or many (count, T, n_w) disturbance
    sequences; x, u and y carry the same leading axes.  Exact for any gain."""
    sol = policy.solution
    T = ssm.horizon
    w_seq = np.atleast_2d(w_seq)
    lead = w_seq.shape[:-2]
    x = np.zeros(lead + (T + 1, ssm.n_x))
    u = np.zeros(lead + (T, ssm.n_u))
    x[..., 0, :] = sol.x_seq[0]
    k = policy.gain.k
    for t in range(T):
        u[..., t, :] = sol.u_seq[t] + (x[..., t, :] - sol.x_seq[t]) @ k.T
        x[..., t + 1, :] = x[..., t, :] @ ssm.A.T + u[..., t, :] @ ssm.B.T + w_seq[..., t, :] @ ssm.D.T
    return x, u, ssm.output.evaluate(u, w_seq)


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
        if self.j_min > self.j_expected + 1e-9 or self.j_expected > self.j_max + 1e-9:
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
    slack: float = VIOLATION_SLACK,
    return_traces: bool = False,
):
    """Check every sample against the original families and price it.

    The batch is rolled out and checked one chunk at a time and priced one
    sample per ``realized_cost`` call (``bench/test_bench.py`` counts those
    calls per sample, although ``realized_cost`` takes a whole chunk).  With
    ``return_traces`` the per-sample violation flags and realized costs, and
    the per-step state envelope over the batch ("state_min"/"state_max",
    (T+1, n_x)), come back alongside the aggregate metrics.
    """
    sol = policy.solution
    if not sol.is_optimal:
        raise ValueError("cannot evaluate a non-optimal dispatch solution")
    count = batch.count

    violated = np.zeros(count, dtype=bool)
    by_row: dict[str, int] = {}
    costs_out = np.zeros(count)
    state_min = np.full((ssm.horizon + 1, ssm.n_x), np.inf)
    state_max = np.full((ssm.horizon + 1, ssm.n_x), -np.inf)

    chunk = _chunk_size(ssm, count)
    for start in range(0, count, chunk):
        rows = slice(start, min(start + chunk, count))
        x_c, u_c, y_c = simulate(policy, ssm, batch.samples[rows])
        violated[rows] = _violations(constraints, x_c, u_c, y_c, slack, by_row)
        costs_out[rows] = [realized_cost(ssm, costs, u_s, y_s) for u_s, y_s in zip(u_c, y_c)]
        state_min = np.minimum(state_min, x_c.min(axis=0))
        state_max = np.maximum(state_max, x_c.max(axis=0))

    j_nom = sol.objective
    metrics = Metrics(
        violation_rate=float(np.mean(violated)),
        j_nominal=float(j_nom),
        j_expected=float(np.mean(costs_out)),
        j_max=float(np.max(costs_out)),
        j_min=float(np.min(costs_out)),
        sample_count=count,
        violations_by_row=by_row,
    )
    if return_traces:
        return metrics, {
            "violated": violated,
            "realized_cost": costs_out,
            "state_min": state_min,
            "state_max": state_max,
        }
    return metrics


def _chunk_size(ssm: StateSpaceModel, count: int) -> int:
    """Scenarios per simulated chunk under ``EVALUATE_CHUNK_ELEMENTS``."""
    return max(1, min(count, EVALUATE_CHUNK_ELEMENTS // max(1, ssm.horizon * ssm.n_y)))


def _violations(
    constraints: ConstraintFamily,
    x: np.ndarray,
    u: np.ndarray,
    y: np.ndarray,
    slack: float,
    by_row: dict[str, int],
) -> np.ndarray:
    """Per-sample any-violation flags; adds per-row offender counts to ``by_row``."""
    series = {"x": x[:, 1:], "u": u, "y": y, "du": np.diff(u, axis=1), "dy": np.diff(y, axis=1)}
    flags = np.zeros(x.shape[0], dtype=bool)
    for name, poly in constraints.families().items():
        if poly.n_rows == 0:
            continue
        bad = poly.violations(series[name]) > slack       # (count, steps, rows)
        flags |= bad.any(axis=(1, 2))
        per_row = bad.any(axis=1).sum(axis=0)
        for ri in np.flatnonzero(per_row):
            by_row[poly.labels[ri]] = by_row.get(poly.labels[ri], 0) + int(per_row[ri])
    return flags


def parse_method(spec: str) -> tuple[str, float | None]:
    """'do' | 'erd-box' | 'erd-budget:G' | 'erd-iterative-box' -> (kind, gamma)."""
    spec = spec.strip().lower()
    if spec in ("do", "erd-box", "erd-iterative-box"):
        return spec, None
    if spec.startswith("erd-budget"):
        _, _, raw = spec.partition(":")
        if not raw:
            raise ValueError("erd-budget requires a budget, e.g. erd-budget:10")
        return "erd-budget", float(raw)
    raise ValueError(f"unknown method {spec!r}")


@dataclass(frozen=True)
class MethodResult:
    method: str
    gamma: float | None
    metrics: Metrics
    tighten_seconds: float
    solve_seconds: float

    @property
    def label(self) -> str:
        return self.method if self.gamma is None else f"{self.method}:{self.gamma:g}"

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
    """Tighten + dispatch + evaluate each method on one shared batch."""
    batch = sample_disturbances(tube, sample_count, seed, mode="uniform")
    results: list[MethodResult] = []
    for spec in methods:
        kind, gamma_value = parse_method(spec)
        t0 = time.perf_counter()
        schedule = _schedule_for(kind, gamma_value, ssm, constraints, tube, gain)
        t_tighten = time.perf_counter() - t0
        t0 = time.perf_counter()
        sol = solve_dispatch(ssm, schedule, costs, tube.w_center)
        t_solve = time.perf_counter() - t0
        if not sol.is_optimal:
            raise RuntimeError(
                f"method {spec}: dispatch {sol.status}; blocking rows {sol.blocking_rows}"
            )
        policy = Policy(solution=sol, gain=gain)
        metrics = evaluate(policy, ssm, constraints, costs, batch)
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
