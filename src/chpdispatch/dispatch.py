"""Nominal dispatch problem and the affine feedback policy.

The decision variables are the states over the horizon, the control
sequence, epigraph auxiliaries for the storage throughput terms of the
cost, and the heat network's node temperatures at each step.  The
dynamics, the reactive balance and the heat network's step recursion
enter as equalities.  Every row of the (tightened) constraint families
enters as an inequality that reads x, u and the node temperatures at its
own step, and at the step before for a step difference, so the LP grows
linearly with the horizon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .compile import StateSpaceModel, family_form
from .lp import KktReport, LinearProgram, check_kkt, solve_lp
from .model import SystemModel
from .sets import UncertaintyTube
from .tighten import FeedbackGain, TightenedSchedule, tighten

# Largest CSR of the inequality matrix G or the equality matrix A that
# ``build_nominal_problem`` builds: 64 MiB.  The bundled reference's G takes
# 2.3 MB at 288 steps of 300 s and 9.4 MB at 1152 steps of 75 s.
MAX_LP_BYTES = 1 << 26

__all__ = [
    "CostModel",
    "NominalProblem",
    "DispatchSolution",
    "DispatchError",
    "Policy",
    "LpTooLargeError",
    "MAX_LP_BYTES",
    "build_nominal_problem",
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
    """Index layout of the LP variables [x(0..T), u(0..T-1), epigraph,
    node temperatures theta(0..T-1)]."""

    horizon: int
    n_x: int
    n_u: int
    n_epi: int
    n_theta: int
    reactive: bool           # one reactive balance equality per step

    @classmethod
    def of(cls, ssm: StateSpaceModel) -> "_Layout":
        reactive = ssm.reactive_u is not None and bool(np.any(ssm.reactive_u))
        n_theta = len(ssm.output.temps.recursion.mat)
        return cls(ssm.horizon, ssm.n_x, ssm.n_u, len(_priced_rows(ssm)), n_theta, reactive)

    @property
    def n_vars(self) -> int:
        return (self.horizon + 1) * self.n_x + self.horizon * (self.n_u + self.n_epi + self.n_theta)

    def u_slice(self, t: int) -> slice:
        base = (self.horizon + 1) * self.n_x
        return slice(base + t * self.n_u, base + (t + 1) * self.n_u)

    def epi_slice(self, t: int) -> slice:
        base = (self.horizon + 1) * self.n_x + self.horizon * self.n_u
        return slice(base + t * self.n_epi, base + (t + 1) * self.n_epi)

    def theta_slice(self, t: int) -> slice:
        base = self.epi_slice(self.horizon).start
        return slice(base + t * self.n_theta, base + (t + 1) * self.n_theta)

    def decode(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        T, u0 = self.horizon, self.u_slice(0).start
        return z[:u0].reshape(T + 1, self.n_x), z[u0 : self.epi_slice(0).start].reshape(T, self.n_u)


class _StepLabels(Sequence):
    """Row labels "prefix[t=step]suffix", formatted only when read.
    ``blocks`` lists (pairs, steps) in row order, one row per step and
    (prefix, suffix) pair, step by step; a block whose ``steps`` is None
    has one row per pair, labelled prefix + suffix."""

    def __init__(self, blocks: list) -> None:
        self._blocks = [(pairs, [None] if steps is None else steps.tolist()) for pairs, steps in blocks]
        self._ends = np.cumsum([len(pairs) * len(steps) for pairs, steps in self._blocks])

    def __len__(self) -> int:
        return int(self._ends[-1]) if len(self._ends) else 0

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < len(self):
            raise IndexError(i)
        b = int(np.searchsorted(self._ends, i, side="right"))
        pairs, steps = self._blocks[b]
        k = i - (int(self._ends[b - 1]) if b else 0)
        (prefix, suffix), t = pairs[k % len(pairs)], steps[k // len(pairs)]
        return prefix + suffix if t is None else f"{prefix}[t={t}]{suffix}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(frozen=True)
class NominalProblem:
    """The assembled LP plus the variable layout needed to decode solutions."""

    lp: LinearProgram
    layout: _Layout


@dataclass(frozen=True)
class DispatchSolution:
    """Nominal trajectories, objective, and the KKT audit of an optimal solve."""

    objective: float
    x_seq: np.ndarray
    u_seq: np.ndarray
    y_seq: np.ndarray
    schedule: TightenedSchedule
    kkt: KktReport
    iterations: int


class DispatchError(RuntimeError):
    """The dispatch LP has no optimal solution: ``status`` is the solver's
    verdict, ``blocking_rows`` the rows its elastic re-solve names."""

    def __init__(self, status: str, blocking_rows: tuple[str, ...]) -> None:
        super().__init__(f"dispatch {status}; blocking rows: {', '.join(blocking_rows) or 'n/a'}")
        self.status = status
        self.blocking_rows = blocking_rows


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


def build_nominal_problem(
    ssm: StateSpaceModel,
    schedule: TightenedSchedule,
    costs: CostModel,
    w_center: np.ndarray,
) -> NominalProblem:
    """Assemble the nominal LP over x(0..T), u(0..T-1), epigraph terms and
    the node temperatures theta(0..T-1).

    G and A are collected as COO triplets and built as one CSR each; no
    dense matrix of the LP's size is made.  Each family's rows read its
    vector at their own step, and at the step before for a step difference:
    S x(t), S u(t), or, for rows over y, S feed_u u(t) plus S theta(t) on
    the temperature rows, with y's w and constant parts on the right-hand
    side.  The temperatures are tied to u by the heat network's step
    recursion (:class:`~chpdispatch.heatnet.HeatRecursion`), 2N equality
    rows per step, so no row reads u through the heat kernel's lags.
    Before any triplet is made, a G or an A whose CSR would exceed
    ``MAX_LP_BYTES`` is refused with :class:`LpTooLargeError`.
    """
    T = ssm.horizon
    n_x, n_u = ssm.n_x, ssm.n_u
    man, out = ssm.manifest, ssm.output
    w_center = np.atleast_2d(np.asarray(w_center, dtype=float))
    if w_center.shape != (T, ssm.n_w):
        raise ValueError(f"w_center shape {w_center.shape} != ({T}, {ssm.n_w})")

    u_costs, epi_rows, epi_costs = _cost_weights(ssm, costs)
    prob = _Layout.of(ssm)
    n_epi, n_th = prob.n_epi, prob.n_theta
    u0, e0, th0 = prob.u_slice(0).start, prob.epi_slice(0).start, prob.theta_slice(0).start
    # y's w and constant parts; the temperature rows read theta, offset included
    y_base = w_center @ out.feed_w.T + out.const
    y_base[:, out.memory_rows] -= out.temps.offset

    # objective
    c = np.zeros(prob.n_vars)
    c[u0:e0] = u_costs.ravel()
    c[e0:th0] = np.tile(epi_costs, T)

    # inequalities: per step t, a block of rows for each family and then the
    # epigraph rows |storage flow| <= auxiliary, a pos and a neg row each;
    # a step difference reads [-M, M] over the vector at steps t - 1 and t
    ineq, h, g_labels = [], [], []
    row = 0
    for name, s, rhs, labels, aux in _ineq_blocks(ssm, schedule, epi_rows):
        vector, diff, steps = family_form(name, T)
        reads = [(s, 0, n_x)] if vector == "x" else [(s, u0, n_u)]
        if vector == "y":
            rhs = rhs - (y_base[steps] - y_base[steps - 1] if diff else y_base[steps]) @ s.T
            reads = [(s @ out.feed_u, u0, n_u), (s[:, out.memory_rows], th0, n_th)]
        row_at = row + np.arange(len(steps)) * len(s)
        for block, start, width in reads:
            ineq.append((np.hstack([-block, block]) if diff else block, row_at, start + (steps - diff) * width))
        if aux is not None:
            ineq.append((aux, row_at, e0 + steps * n_epi))
        h.append(rhs.ravel())
        g_labels.append((labels, steps))
        row += rhs.size

    # equalities: initial state, dynamics, reactive balance, heat recursion
    x_names = [man.name("x", i)[1] for i in range(n_x)]
    x_at, u_at = np.arange(T + 1) * n_x, u0 + np.arange(T) * n_u
    eq = [
        (np.eye(n_x), x_at, x_at),
        (-ssm.A, x_at[1:], x_at[:-1]),
        (-ssm.B, x_at[1:], u_at),
    ]
    # row by row, D[i] . w(t): a matrix product rounds the last bit differently
    b_eq = [ssm.x0, np.ravel([[d_row @ w for d_row in ssm.D] for w in w_center])]
    eq_labels = [
        ([(f"initial_state[{name}]", "") for name in x_names], None),
        ([(f"dynamics[{name}]", "") for name in x_names], np.arange(T)),
    ]
    if prob.reactive:
        eq.append((ssm.reactive_u[np.newaxis], (T + 1) * n_x + np.arange(T), u_at))
        b_eq.append([-ssm.reactive_w @ w for w in w_center])
        eq_labels.append(([("reactive_balance", "")], np.arange(T)))
    eq_rows = sum(len(b) for b in b_eq) + np.arange(T) * n_th
    blocks, rhs = _recursion_rows(out, w_center, eq_rows, th0 + np.arange(T) * n_th, u_at)
    eq += blocks
    b_eq.append(rhs.ravel())
    eq_labels.append(([(f"heat_recursion[{k}[{name}]]", "") for k, name in man.y[out.memory_rows]], np.arange(T)))

    h, b_eq = np.concatenate(h), np.concatenate(b_eq)
    _check_size(ineq, len(h), eq, len(b_eq))
    lp = LinearProgram(
        c=c,
        g=_csr([_placed(*piece) for piece in ineq], (len(h), len(c))) if len(h) else None,
        h=h if len(h) else None,
        a_eq=_csr([_placed(*piece) for piece in eq], (len(b_eq), len(c))),
        b_eq=b_eq,
        row_labels=_StepLabels(g_labels),
        eq_labels=_StepLabels(eq_labels),
    )
    return NominalProblem(lp=lp, layout=prob)


def _recursion_rows(out, w_center: np.ndarray, rows: np.ndarray, theta_at: np.ndarray, u_at: np.ndarray):
    """The heat recursion at every step: its left-hand side as (block,
    row_at, col_at), mat over theta(t) less the history terms over
    theta(t - delay) inside the horizon (a block per delay) and scale sign
    heat_u over u(t); and its (T, 2N) right-hand side, the history terms
    before t = 0 at the initial temperatures, the ground terms and scale
    sign heat_w w(t)."""
    rec = out.temps.recursion
    hist = rec.history
    blocks = [(rec.mat, rows, theta_at), (-rec.scale * rec.sign[:, np.newaxis] * out.heat_u, rows, u_at)]
    for delay in np.unique(hist["delay"]).tolist():
        terms = hist[hist["delay"] == delay]
        block = np.zeros_like(rec.mat)
        np.subtract.at(block, (terms["row"], terms["slot"]), terms["weight"])
        blocks.append((block, rows[delay:], theta_at[: max(len(rows) - delay, 0)]))
    rhs = (w_center @ out.heat_w.T) * (rec.scale * rec.sign)
    before = np.arange(len(w_center))[:, np.newaxis] < hist["delay"]
    np.add.at(rhs, (slice(None), hist["row"]), before * (hist["weight"] * rec.initial[hist["slot"]]))
    np.add.at(rhs, (slice(None), rec.ground["row"]), rec.ground_temps[:, np.newaxis] * rec.ground["weight"])
    return blocks, rhs


class LpTooLargeError(ValueError):
    """The dispatch LP's G or A would not fit ``MAX_LP_BYTES`` as CSR."""


def _ineq_blocks(ssm: StateSpaceModel, schedule: TightenedSchedule, epi_rows: np.ndarray) -> list:
    """(family, selector, right-hand side, labels, epigraph auxiliary block)
    for each row block of G, in row order: the families, then the epigraph
    rows as rows over y."""
    T, man = ssm.horizon, ssm.manifest
    n_epi = len(epi_rows)
    epi_s = np.zeros((2 * n_epi, ssm.n_y))
    epi_s[np.arange(2 * n_epi), np.repeat(epi_rows, 2)] = np.tile([1.0, -1.0], n_epi)
    epi_aux = np.repeat(-np.eye(n_epi), 2, axis=0)
    epi_labels = [(f"epigraph[{man.name('y', r)[1]}]", f" {side}") for r in epi_rows for side in ("pos", "neg")]
    blocks = [
        (name, fam.polyhedron.coefficients, fam.tightened_bounds,
         [(name, f" {label}") for label in fam.polyhedron.labels], None)
        for name, fam in schedule.families.items()
    ]
    blocks.append(("y", epi_s, np.zeros((T, 2 * n_epi)), epi_labels, epi_aux))
    return blocks


def _check_size(ineq: list, n_ineq: int, eq: list, n_eq: int) -> None:
    """Raise :class:`LpTooLargeError` if the CSR (float64 values, int32
    indices) of G or of A would exceed ``MAX_LP_BYTES``.  The nonzeros are
    counted exactly, as those of each (block, row_at, col_at) times its
    placements: no two placements share an entry."""
    shapes = []
    for pieces, n_rows in ((ineq, n_ineq), (eq, n_eq)):
        nnz = sum(np.count_nonzero(block) * len(row_at) for block, row_at, _ in pieces)
        shapes.append((n_rows, nnz, 12 * nnz + 4 * (n_rows + 1)))
    (g_rows, g_nnz, g_size), (a_rows, a_nnz, a_size) = shapes
    if max(g_size, a_size) > MAX_LP_BYTES:
        raise LpTooLargeError(
            f"dispatch LP of {g_rows} inequality rows with {g_nnz} nonzeros needs {g_size} bytes"
            f" as CSR, and of {a_rows} equality rows with {a_nnz} nonzeros needs {a_size} bytes;"
            f" the limit is {MAX_LP_BYTES} each"
        )


def _placed(block: np.ndarray, row_at: np.ndarray, col_at: np.ndarray):
    """COO triplets of the nonzeros of ``block`` placed with its top-left
    corner at (row_at[i], col_at[i]) for each i."""
    rows, cols = np.nonzero(block)
    i = np.repeat(np.arange(len(row_at)), len(rows))
    k = np.tile(np.arange(len(rows)), len(row_at))
    return row_at[i] + rows[k], col_at[i] + cols[k], block[rows, cols][k]


def _csr(triplets: list, shape: tuple[int, int]):
    """One ``csr_array`` from COO triplets of nonzeros, with int32 indices
    where they fit, as ``csr_array`` of the dense matrix has them; built
    from triplets, it sums duplicates and sorts each row's indices."""
    from scipy.sparse import csr_array

    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    index = np.int32 if max(*shape, vals.size) <= np.iinfo(np.int32).max else np.int64
    return csr_array((vals, (rows.astype(index), cols.astype(index))), shape=shape)


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
    """Build (unless ``problem`` is given) and solve the nominal problem, and
    audit the optimum with KKT.  A solve that ends other than optimal raises
    :class:`DispatchError` with the solver's status and blocking rows."""
    prob = problem or build_nominal_problem(ssm, schedule, costs, w_center)
    sol = solve_lp(prob.lp)
    if not sol.is_optimal:
        raise DispatchError(sol.status, sol.blocking_rows)
    x_seq, u_seq = prob.layout.decode(sol.z)
    y_seq = ssm.output.evaluate(u_seq, np.atleast_2d(w_center))
    return DispatchSolution(
        objective=sol.objective,
        x_seq=x_seq,
        u_seq=u_seq,
        y_seq=y_seq,
        schedule=schedule,
        kkt=check_kkt(prob.lp, sol),
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
