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

# Largest CSR of the inequality matrix G that ``build_nominal_problem``
# builds: 64 MiB.  The bundled reference's G takes 8 MB at 288 steps of
# 300 s and 41 MB at 1152 steps of 75 s, where one ``dispatch`` peaks at
# 244 MB and 855 MB of RSS.
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
    """Assemble the nominal LP over x(0..T), u(0..T-1), and epigraph terms.

    G and A are collected as COO triplets and built as one CSR each; no
    dense matrix of the LP's size is made.  Every family, and the epigraph
    rows as rows over y, takes its coefficients from the
    :class:`~chpdispatch.compile.Lags` of its row selector over the vector
    it is decided by (``StateSpaceModel.row_blocks``): each step's rows
    read the lags that fall inside the horizon.  Before any triplet is
    made, a G whose CSR would exceed ``MAX_LP_BYTES`` is refused with
    :class:`LpTooLargeError`.
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
    n_vars = prob.n_vars
    blocks = _ineq_blocks(ssm, schedule, epi_rows)
    # one inequality per tightened row and step, the epigraph rows included;
    # the initial state, the dynamics and any reactive balance as equalities
    n_ineq = sum(block[2].size for block in blocks)
    n_eq = (T + 1) * n_x + (T if prob.reactive else 0)
    _check_size(n_ineq, blocks, T)
    u0 = prob.u_slice(0).start
    e0 = prob.epi_slice(0).start
    y_base = ssm.output.evaluate(np.zeros((T, n_u)), w_center)   # w and constant parts

    # objective
    c = np.zeros(n_vars)
    c[u0:e0] = u_costs.ravel()
    c[e0:] = np.tile(epi_costs, T)

    # equalities: initial state, dynamics, reactive balance
    x_names = [man.name("x", i)[1] for i in range(n_x)]
    x_at, u_at = np.arange(T + 1) * n_x, u0 + np.arange(T) * n_u
    eq = [
        _placed(np.eye(n_x), x_at, x_at),
        _placed(-ssm.A, x_at[1:], x_at[:-1]),
        _placed(-ssm.B, x_at[1:], u_at),
    ]
    b_eq = np.zeros(n_eq)
    b_eq[:n_x] = ssm.x0
    eq_labels = [f"initial_state[{name}]" for name in x_names]
    # row by row, D[i] . w(t): a matrix product rounds the last bit differently
    b_eq[n_x : (T + 1) * n_x] = np.ravel([[d_row @ w for d_row in ssm.D] for w in w_center])
    eq_labels += [f"dynamics[{name}][t={t}]" for t in range(T) for name in x_names]
    if prob.reactive:
        eq.append(_placed(ssm.reactive_u[np.newaxis], (T + 1) * n_x + np.arange(T), u_at))
        b_eq[(T + 1) * n_x :] = [-ssm.reactive_w @ w for w in w_center]
        eq_labels += [f"reactive_balance[t={t}]" for t in range(T)]

    # inequalities: per step t, a block of rows for each family and then the
    # epigraph rows |storage flow| <= auxiliary, a pos and a neg row each.
    # Every family reads x or u through the lags of its row selector, from
    # step t - latest lag, or step 0, to step t - earliest lag, and the w and
    # constant parts of y move to the right-hand side
    ineq = []
    h = np.zeros(n_ineq)
    g_labels: list[str] = []
    row = 0
    for name, s, rhs, labels, aux, lags in blocks:
        vector, diff, steps = family_form(name, T)
        if vector == "y":
            rhs = rhs - (y_base[steps] - y_base[steps - 1] if diff else y_base[steps]) @ s.T
        h[row : row + rhs.size] = rhs.ravel()
        width, at = (n_x, prob.x_slice) if vector == "x" else (n_u, prob.u_slice)
        n = lags.stop
        # (M, n width): lag n - 1 over the first width columns, lag 0 over the
        # last; step t places it from step t - n + 1 on and drops the lags
        # that reach before step 0
        rev = lags.dense(n)[::-1].transpose(1, 0, 2).reshape(len(s), n * width)
        row_at = row + np.arange(len(steps)) * len(s)
        ineq.append(_placed(
            rev, row_at, at(0).start + (steps - n + 1) * width, np.maximum(n - 1 - steps, 0) * width
        ))
        if aux is not None:
            ineq.append(_placed(aux, row_at, e0 + steps * n_epi))
        g_labels += [f"{prefix}[t={t}]{suffix}" for t in steps.tolist() for prefix, suffix in labels]
        row += rhs.size

    lp = LinearProgram(
        c=c,
        g=_csr(ineq, (n_ineq, n_vars)) if n_ineq else None,
        h=h if n_ineq else None,
        a_eq=_csr(eq, (n_eq, n_vars)) if n_eq else None,
        b_eq=b_eq if n_eq else None,
        row_labels=tuple(g_labels),
        eq_labels=tuple(eq_labels),
    )
    return NominalProblem(lp=lp, layout=prob)


class LpTooLargeError(ValueError):
    """The dispatch LP's G would not fit ``MAX_LP_BYTES`` as CSR."""


def _ineq_blocks(ssm: StateSpaceModel, schedule: TightenedSchedule, epi_rows: np.ndarray) -> list:
    """(family, selector, right-hand side, labels, epigraph auxiliary block,
    lags) for each row block of G, in row order: the families, then the
    epigraph rows as rows over y."""
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
    out = []
    for block in blocks:
        vector, diff, _ = family_form(block[0], T)
        out.append((*block, Lags.of(*ssm.row_blocks(vector, block[1]), diff=diff)))
    return out


def _check_size(n_ineq: int, blocks: list, horizon: int) -> None:
    """Raise :class:`LpTooLargeError` if G's CSR (float64 values, int32
    indices) would exceed ``MAX_LP_BYTES``.  G's nonzeros are counted
    exactly: a row block at step t holds its lags 0..t, and each epigraph
    row one auxiliary entry."""
    nnz = 0
    for name, _, _, _, aux, lags in blocks:
        steps = family_form(name, horizon)[2]
        per_lag = np.zeros(lags.stop + 1, dtype=np.int64)
        for b in lags.blocks:
            per_lag[b.first + 1 : b.first + 1 + len(b.values)] = np.count_nonzero(b.values, axis=(1, 2))
        nnz += int(np.cumsum(per_lag)[np.minimum(steps + 1, lags.stop)].sum())
        nnz += 0 if aux is None else int(np.count_nonzero(aux)) * len(steps)
    size = 12 * nnz + 4 * (n_ineq + 1)
    if size > MAX_LP_BYTES:
        raise LpTooLargeError(
            f"dispatch LP of {n_ineq} inequality rows with {nnz} nonzeros needs"
            f" {size} bytes as CSR, more than the limit of {MAX_LP_BYTES}"
        )


def _placed(block: np.ndarray, row_at: np.ndarray, col_at: np.ndarray, skip=None):
    """COO triplets of the nonzeros of ``block`` placed with its top-left
    corner at (row_at[i], col_at[i]) for each i, without its first
    ``skip[i]`` columns (none if ``skip`` is None)."""
    cols, rows = np.nonzero(block.T)       # sorted by column: a skip drops a prefix
    first = np.zeros(len(row_at), np.intp) if skip is None else np.searchsorted(cols, skip)
    counts = len(cols) - first
    i = np.repeat(np.arange(len(row_at)), counts)
    k = np.arange(i.size) + np.repeat(first + counts - np.cumsum(counts), counts)
    rows, cols = rows[k], cols[k]
    return row_at[i] + rows, col_at[i] + cols, block[rows, cols]


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
