"""Nominal dispatch problem and the affine feedback policy.

The decision variables are the states over the horizon, the control
sequence, and epigraph auxiliaries for the storage throughput terms of
the cost; dynamics and the reactive balance enter as equalities, and every
row of the (tightened) constraint families enters as an inequality with
the analysis expressions substituted through the lifted output maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compile import Lags, StateSpaceModel, family_form
from .lp import KktReport, LinearProgram, check_kkt, solve_lp
from .model import SystemModel
from .sets import UncertaintyTube
from .tighten import FeedbackGain, TightenedSchedule, tighten

__all__ = [
    "CostModel",
    "NominalProblem",
    "DispatchSolution",
    "Policy",
    "build_nominal_problem",
    "lp_shape",
    "solve_dispatch",
    "deterministic_schedule",
    "realized_cost",
]


@dataclass(frozen=True)
class CostModel:
    """Linear fuel/maintenance/exchange costs, $ per pu (or MW) per step."""

    chp: np.ndarray          # per CHP unit
    hp: np.ndarray
    battery: np.ndarray      # throughput cost on |battery power|
    tank: np.ndarray
    grid_price: np.ndarray   # (T,)

    def __post_init__(self) -> None:
        for name in ("chp", "hp", "battery", "tank", "grid_price"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if np.any(self.battery < 0) or np.any(self.tank < 0):
            raise ValueError("storage maintenance cost coefficients must be >= 0")

    @classmethod
    def from_model(cls, model: SystemModel) -> "CostModel":
        return cls(
            chp=np.array([c.cost for c in model.chp_units]),
            hp=np.array([h.cost for h in model.heat_pumps]),
            battery=np.array([b.cost for b in model.batteries]),
            tank=np.array([s.cost for s in model.tanks]),
            grid_price=model.grid.price.copy(),
        )


@dataclass(frozen=True)
class _Layout:
    """Index layout of the LP variables [x(0..T), u(0..T-1), epigraph]."""

    horizon: int
    n_x: int
    n_u: int
    n_epi: int
    reactive: bool           # one reactive balance equality per step

    @classmethod
    def of(cls, ssm: StateSpaceModel) -> "_Layout":
        reactive = ssm.reactive_u is not None and bool(np.any(ssm.reactive_u))
        return cls(ssm.horizon, ssm.n_x, ssm.n_u, len(_priced_rows(ssm)), reactive)

    @property
    def n_vars(self) -> int:
        return (self.horizon + 1) * self.n_x + self.horizon * (self.n_u + self.n_epi)

    def x_slice(self, t: int) -> slice:
        return slice(t * self.n_x, (t + 1) * self.n_x)

    def u_slice(self, t: int) -> slice:
        base = (self.horizon + 1) * self.n_x
        return slice(base + t * self.n_u, base + (t + 1) * self.n_u)

    def epi_slice(self, t: int) -> slice:
        base = (self.horizon + 1) * self.n_x + self.horizon * self.n_u
        return slice(base + t * self.n_epi, base + (t + 1) * self.n_epi)

    def decode(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        T, u0 = self.horizon, self.u_slice(0).start
        return z[:u0].reshape(T + 1, self.n_x), z[u0 : self.epi_slice(0).start].reshape(T, self.n_u)


@dataclass(frozen=True)
class NominalProblem:
    """The assembled LP plus the variable layout needed to decode solutions."""

    lp: LinearProgram
    layout: _Layout


@dataclass(frozen=True)
class DispatchSolution:
    """Nominal trajectories, objective, and the audit of the solve."""

    status: str
    objective: float | None
    x_seq: np.ndarray | None
    u_seq: np.ndarray | None
    y_seq: np.ndarray | None
    schedule: TightenedSchedule
    kkt: KktReport | None
    iterations: int
    blocking_rows: tuple[str, ...] = ()

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class Policy:
    """u(t) = u_nom(t) + K (x(t) - x_nom(t))."""

    solution: DispatchSolution
    gain: FeedbackGain


def deterministic_schedule(
    ssm: StateSpaceModel, constraints, tube: UncertaintyTube, gain: FeedbackGain
) -> TightenedSchedule:
    """Tightening disabled: the schedule produced by a zero-width tube."""
    degenerate = UncertaintyTube(tube.w_center, tube.w_center, tube.w_center)
    return tighten(ssm, constraints, degenerate, gain, mode="box")


def lp_shape(ssm: StateSpaceModel, schedule: TightenedSchedule) -> tuple[int, int, int]:
    """(n_ineq, n_eq, n_vars) of the nominal LP: one inequality per tightened
    row and step plus a pos and a neg epigraph row per priced flow and step;
    the initial state, the dynamics and any reactive balance as equalities."""
    layout = _Layout.of(ssm)
    T = layout.horizon
    n_ineq = sum(fam.reductions.size for fam in schedule.families.values()) + 2 * layout.n_epi * T
    n_eq = (T + 1) * layout.n_x + (T if layout.reactive else 0)
    return n_ineq, n_eq, layout.n_vars


def build_nominal_problem(
    ssm: StateSpaceModel,
    schedule: TightenedSchedule,
    costs: CostModel,
    w_center: np.ndarray,
) -> NominalProblem:
    """Assemble the nominal LP over x(0..T), u(0..T-1), and epigraph terms.

    The dense G and A are allocated once and filled block by block.  Every
    family, and the epigraph rows as rows over y, takes its coefficients
    from the :class:`~chpdispatch.compile.Lags` of its row selector over the
    vector it is decided by (``StateSpaceModel.row_blocks``), written from
    each step's latest to its earliest nonzero lag.
    """
    T = ssm.horizon
    n_x, n_u = ssm.n_x, ssm.n_u
    man = ssm.manifest
    w_center = np.atleast_2d(np.asarray(w_center, dtype=float))
    if w_center.shape != (T, ssm.n_w):
        raise ValueError(f"w_center shape {w_center.shape} != ({T}, {ssm.n_w})")

    u_costs, epi_rows, epi_costs = _cost_weights(ssm, costs)
    n_epi = len(epi_rows)

    prob = _Layout.of(ssm)
    n_ineq, n_eq, n_vars = lp_shape(ssm, schedule)
    u0 = prob.u_slice(0).start
    e0 = prob.epi_slice(0).start
    y_base = ssm.output.evaluate(np.zeros((T, n_u)), w_center)   # w and constant parts

    # objective
    c = np.zeros(n_vars)
    c[u0:e0] = u_costs.ravel()
    c[e0:] = np.tile(epi_costs, T)

    # equalities: initial state, dynamics, reactive balance
    x_names = [man.name("x", i)[1] for i in range(n_x)]
    a_eq = np.zeros((n_eq, n_vars))
    b_eq = np.zeros(n_eq)
    a_eq[:n_x, prob.x_slice(0)] = np.eye(n_x)
    b_eq[:n_x] = ssm.x0
    eq_labels = [f"initial_state[{name}]" for name in x_names]
    # row by row, D[i] . w(t): a matrix product rounds the last bit differently
    dyn_rhs = [[d_row @ w for d_row in ssm.D] for w in w_center]
    for t in range(T):
        rows = slice((t + 1) * n_x, (t + 2) * n_x)
        a_eq[rows, prob.x_slice(t + 1)] = np.eye(n_x)
        a_eq[rows, prob.x_slice(t)] -= ssm.A
        a_eq[rows, prob.u_slice(t)] -= ssm.B
        b_eq[rows] = dyn_rhs[t]
        eq_labels += [f"dynamics[{name}][t={t}]" for name in x_names]
    if prob.reactive:
        for t in range(T):
            a_eq[(T + 1) * n_x + t, prob.u_slice(t)] = ssm.reactive_u
        b_eq[(T + 1) * n_x :] = [-ssm.reactive_w @ w for w in w_center]
        eq_labels += [f"reactive_balance[t={t}]" for t in range(T)]

    # inequalities: per step t, a block of rows for each family and then the
    # epigraph rows |storage flow| <= auxiliary, a pos and a neg row each.
    # Every family reads x or u through the lags of its row selector, from
    # step t - latest lag, or step 0, to step t - earliest lag, and the w and
    # constant parts of y move to the right-hand side
    epi_s = np.zeros((2 * n_epi, ssm.n_y))
    epi_s[np.arange(2 * n_epi), np.repeat(epi_rows, 2)] = np.tile([1.0, -1.0], n_epi)
    epi_aux = np.repeat(-np.eye(n_epi), 2, axis=0)
    epi_labels = [(f"epigraph[{man.name('y', r)[1]}]", f" {side}") for r in epi_rows for side in ("pos", "neg")]
    # (family, selector, right-hand side, labels, epigraph auxiliary columns)
    blocks = [
        (name, fam.polyhedron.coefficients, fam.tightened_bounds,
         [(name, f" {label}") for label in fam.polyhedron.labels], None)
        for name, fam in schedule.families.items()
    ]
    blocks.append(("y", epi_s, np.zeros((T, 2 * n_epi)), epi_labels, epi_aux))
    g = np.zeros((n_ineq, n_vars))
    h = np.zeros(n_ineq)
    g_labels: list[str] = []
    row = 0
    for name, s, rhs, labels, aux in blocks:
        vector, diff, steps = family_form(name, T)
        if vector == "y":
            rhs = rhs - (y_base[steps] - y_base[steps - 1] if diff else y_base[steps]) @ s.T
        h[row : row + rhs.size] = rhs.ravel()
        width, at = (n_x, prob.x_slice) if vector == "x" else (n_u, prob.u_slice)
        lags = Lags.of(*ssm.row_blocks(vector, s), diff=diff)
        n, first = lags.stop, lags.first
        # (M, n width): lag n - 1 over the first width columns, lag 0 over the last
        rev = lags.dense(n)[::-1].transpose(1, 0, 2).reshape(len(s), n * width)
        for t in steps.tolist():
            lo = max(t - n + 1, 0)               # the earliest step read
            start, block = at(lo).start, rev[:, (lo - t + n - 1) * width : (n - first) * width]
            g[row : row + len(s), start : start + block.shape[1]] = block
            if aux is not None:
                g[row : row + len(s), prob.epi_slice(t)] = aux
            g_labels += [f"{prefix}[t={t}]{suffix}" for prefix, suffix in labels]
            row += len(s)

    lp = LinearProgram(
        c=c,
        g=g if n_ineq else None,
        h=h if n_ineq else None,
        a_eq=a_eq if n_eq else None,
        b_eq=b_eq if n_eq else None,
        row_labels=tuple(g_labels),
        eq_labels=tuple(eq_labels),
    )
    return NominalProblem(lp=lp, layout=prob)


def _cost_weights(ssm: StateSpaceModel, costs: CostModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cost as weights: per-step control weights (T, n_u), and the y rows
    priced on their absolute value (battery power, then tank flow, as an
    index array) with their weights.  The LP objective and
    ``realized_cost`` both read this."""
    T, man = ssm.horizon, ssm.manifest
    if len(costs.grid_price) != T:
        raise ValueError(f"price series length {len(costs.grid_price)} != horizon {T}")
    u_costs = np.zeros((T, ssm.n_u))
    u_costs[:, man.indices("u", "chp_p")] = costs.chp
    u_costs[:, man.indices("u", "hp_p")] = costs.hp
    u_costs[:, man.index("u", "grid_p", "grid")] = costs.grid_price
    return u_costs, _priced_rows(ssm), np.concatenate([costs.battery, costs.tank])


def _priced_rows(ssm: StateSpaceModel) -> np.ndarray:
    """The y rows priced on their absolute value: battery power, then tank flow."""
    man = ssm.manifest
    return np.array(man.indices("y", "battery_power") + man.indices("y", "tank_flow"), dtype=np.intp)


def solve_dispatch(
    ssm: StateSpaceModel,
    schedule: TightenedSchedule,
    costs: CostModel,
    w_center: np.ndarray,
    problem: NominalProblem | None = None,
) -> DispatchSolution:
    """Build and solve the nominal problem; audit the result with KKT."""
    prob = problem or build_nominal_problem(ssm, schedule, costs, w_center)
    sol = solve_lp(prob.lp)
    if not sol.is_optimal:
        return DispatchSolution(
            status=sol.status,
            objective=None,
            x_seq=None,
            u_seq=None,
            y_seq=None,
            schedule=schedule,
            kkt=None,
            iterations=sol.iterations,
            blocking_rows=sol.blocking_rows,
        )
    x_seq, u_seq = prob.layout.decode(sol.z)
    y_seq = ssm.output.evaluate(u_seq, np.atleast_2d(w_center))
    kkt = check_kkt(prob.lp, sol)
    return DispatchSolution(
        status="optimal",
        objective=sol.objective,
        x_seq=x_seq,
        u_seq=u_seq,
        y_seq=y_seq,
        schedule=schedule,
        kkt=kkt,
        iterations=sol.iterations,
    )


def realized_cost(
    ssm: StateSpaceModel,
    costs: CostModel,
    u_seq: np.ndarray,
    y_seq: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float | np.ndarray:
    """Total cost with realized storage flows in the absolute-value terms.

    ``u_seq`` (..., T, n_u) and ``y_seq`` (..., T, n_y) give one cost per
    leading index; a single (T, n_u), (T, n_y) pair gives a float.
    ``weights`` is ``_cost_weights(ssm, costs)`` built once by a caller
    that prices many trajectories under the same costs.
    """
    u_costs, abs_rows, abs_costs = _cost_weights(ssm, costs) if weights is None else weights
    u_seq = np.asarray(u_seq, dtype=float)
    y_seq = np.asarray(y_seq, dtype=float)
    total = u_seq.reshape(u_seq.shape[:-2] + (-1,)) @ u_costs.ravel()
    total = total + np.abs(y_seq[..., abs_rows]).sum(axis=-2) @ abs_costs
    return float(total) if total.ndim == 0 else total
