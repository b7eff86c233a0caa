"""Linear programs: the dispatch solver, the bundled oracle and the KKT audit.

``solve_lp`` hands the problem to HiGHS through ``scipy.optimize.linprog``
(dual revised simplex, Huangfu & Hall 2018).  ``solve_lp_simplex`` is a
bundled bounded-variable revised simplex (two-phase, Dantzig pricing with a
Bland's-rule fallback against cycling) that shares no code with HiGHS; it
is the independent oracle behind the iterative tightening baseline and the
tests.  ``check_kkt`` audits a point from either solver.

An LP stores each of G and A once, in the form it was given: the dispatch
LP as CSR, the small oracle LPs dense.  HiGHS, the KKT audit and the CLI's
nonzero count read the sparse view (``LinearProgram.csr``); the simplex
oracle reads the dense views (``g``, ``a_eq``).  A view in the other form
is made on first use and kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "KktReport",
    "solve_lp",
    "solve_lp_simplex",
    "check_kkt",
]

COST_TOL = 1e-9
REFACTOR_EVERY = 100
STALL_LIMIT = 60
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}   # linprog status codes
# HiGHS's own primal feasibility tolerance: elastic slack below it is zero
ELASTIC_TOL = 1e-7
MAX_BLOCKING_ROWS = 20


class LinearProgram:
    """min c^T z  s.t.  G z <= h,  A z = b,  lower <= z <= upper.

    G (``g``) and A (``a_eq``) may each be given dense or as a
    ``scipy.sparse`` matrix, and each is stored once, as given.  The row
    labels may be any sequence of strings; the dispatch LP's are formatted
    only when read.
    """

    def __init__(
        self,
        c: np.ndarray,
        g=None,
        h: np.ndarray | None = None,
        a_eq=None,
        b_eq: np.ndarray | None = None,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        row_labels: Sequence[str] = (),
        eq_labels: Sequence[str] = (),
    ) -> None:
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        g, a = _stored(g, n), _stored(a_eq, n)
        h = np.zeros(0) if h is None else np.atleast_1d(np.asarray(h, dtype=float))
        b = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
        lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
        up = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        for name, val in (("c", c), ("g", g), ("h", h), ("a_eq", a), ("b_eq", b)):
            values = val if isinstance(val, np.ndarray) else val.data
            if values.size and not np.all(np.isfinite(values)):
                raise ValueError(f"non-finite coefficients in {name}")
        if g.shape != (h.shape[0], n) or a.shape != (b.shape[0], n):
            raise ValueError(
                f"dimension mismatch: c has {n} vars, G {g.shape}, h {h.shape}, "
                f"A {a.shape}, b {b.shape}"
            )
        if lo.shape != (n,) or up.shape != (n,):
            raise ValueError("bound arrays must match the variable count")
        if np.any(lo > up):
            raise ValueError("some lower bound exceeds its upper bound")
        self.c, self.h, self.b_eq, self.lower, self.upper = c, h, b, lo, up
        self._g, self._a_eq = g, a
        self.row_labels, self.eq_labels = row_labels, eq_labels

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_ineq(self) -> int:
        return self._g.shape[0]

    @property
    def n_eq(self) -> int:
        return self._a_eq.shape[0]

    @cached_property
    def g(self) -> np.ndarray:
        """G as a dense array: the stored one, or the sparse one expanded on first use."""
        return _dense(self._g)

    @cached_property
    def a_eq(self) -> np.ndarray:
        """A as a dense array: the stored one, or the sparse one expanded on first use."""
        return _dense(self._a_eq)

    @cached_property
    def csr(self):
        """(G, A) as CSR: the stored matrices, or ``csr_array`` of the dense
        ones, converted on first use."""
        return _sparse(self._g), _sparse(self._a_eq)


def _stored(matrix, n: int):
    """G or A as given: a CSR matrix if sparse, else a 2-D float array
    (with no rows for None)."""
    if matrix is None:
        return np.zeros((0, n))
    if hasattr(matrix, "tocsr"):     # any scipy.sparse matrix or array
        return matrix.tocsr().astype(float, copy=False)
    return np.atleast_2d(np.asarray(matrix, dtype=float))


def _dense(matrix) -> np.ndarray:
    return matrix if isinstance(matrix, np.ndarray) else matrix.toarray()


def _sparse(matrix):
    if not isinstance(matrix, np.ndarray):
        return matrix
    from scipy.sparse import csr_array

    return csr_array(matrix)


@dataclass(frozen=True)
class LpSolution:
    status: str                      # optimal | infeasible | unbounded | failed
    z: np.ndarray | None = None
    objective: float | None = None
    duals_ineq: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    iterations: int = 0
    blocking_rows: tuple[str, ...] = ()

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class KktReport:
    primal_residual: float
    dual_residual: float
    complementarity: float
    gap: float


class _Simplex:
    """Bounded-variable revised simplex on min c^T x, A x = b, l <= x <= u.

    Nonbasic variables sit at a finite bound (or at zero when free); the
    dense basis inverse is maintained by product-form updates with periodic
    refactorization.
    """

    AT_LOWER = 0
    AT_UPPER = 1
    BASIC = 2

    def __init__(self, a: np.ndarray, b: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.a = a
        self.b = b
        self.lower = lower
        self.upper = upper
        self.iterations = 0
        self.free_mask = ~np.isfinite(lower) & ~np.isfinite(upper)

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(
            self.state == self.AT_UPPER,
            np.where(np.isfinite(self.upper), self.upper, 0.0),
            np.where(np.isfinite(self.lower), self.lower, 0.0),
        )
        vals[self.state == self.BASIC] = 0.0
        return vals

    def _recompute(self) -> None:
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.nbvals = self._nonbasic_values()
        self.xb = self.binv @ (self.b - self.a @ self.nbvals)

    def run(self, c: np.ndarray, basis: list[int], state: np.ndarray, max_iter: int):
        """Returns (status, x, duals)."""
        self.basis = list(basis)
        self.state = state
        self._recompute()
        stall = 0
        at_lower_state, at_upper_state = self.AT_LOWER, self.AT_UPPER
        for it in range(max_iter):
            self.iterations += 1
            if it and it % REFACTOR_EVERY == 0:
                self._recompute()
            duals = c[self.basis] @ self.binv
            reduced = c - duals @ self.a
            use_bland = stall > STALL_LIMIT

            at_lower = self.state == at_lower_state
            at_upper = self.state == at_upper_state
            can_inc = at_lower & (reduced < -COST_TOL)
            can_dec = (at_upper & (reduced > COST_TOL)) | (
                at_lower & self.free_mask & (reduced > COST_TOL)
            )
            eligible = can_inc | can_dec
            if not np.any(eligible):
                x = self.nbvals.copy()
                x[self.basis] = self.xb
                return "optimal", x, duals
            if use_bland:
                entering = int(np.argmax(eligible))
            else:
                score = np.where(eligible, np.abs(reduced), -1.0)
                entering = int(np.argmax(score))
            direction = 1.0 if can_inc[entering] else -1.0

            col = self.binv @ self.a[:, entering]
            delta = -direction * col
            basis_arr = np.asarray(self.basis)
            theta = np.inf
            leaving = -1
            leaving_to = at_lower_state
            span = self.upper[entering] - self.lower[entering]
            if np.isfinite(span):
                theta = span
            up_lim = self.upper[basis_arr]
            lo_lim = self.lower[basis_arr]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_up = np.where(
                    (delta > 1e-11) & np.isfinite(up_lim), (up_lim - self.xb) / delta, np.inf
                )
                t_lo = np.where(
                    (delta < -1e-11) & np.isfinite(lo_lim), (lo_lim - self.xb) / delta, np.inf
                )
            t_up = np.maximum(t_up, 0.0)
            t_lo = np.maximum(t_lo, 0.0)
            ratios = np.minimum(t_up, t_lo)
            if ratios.size:
                if use_bland:
                    best = np.min(ratios)
                    candidates = np.where(ratios <= best + 1e-12)[0]
                    k = candidates[int(np.argmin(basis_arr[candidates]))]
                else:
                    k = int(np.argmin(ratios))
                if ratios[k] < theta - 1e-12:
                    theta = float(ratios[k])
                    leaving = k
                    leaving_to = at_upper_state if t_up[k] <= t_lo[k] else at_lower_state
            if not np.isfinite(theta):
                return "unbounded", None, duals
            if theta < 1e-10:
                stall += 1
            else:
                stall = 0

            if leaving < 0:
                # bound flip: entering slides to its opposite bound
                self.xb = self.xb + delta * theta
                self.state[entering] = (
                    at_upper_state if self.state[entering] == at_lower_state else at_lower_state
                )
                self.nbvals[entering] = (
                    self.upper[entering]
                    if self.state[entering] == at_upper_state
                    else self.lower[entering]
                )
                continue

            out = self.basis[leaving]
            entering_value = self.nbvals[entering] + direction * theta
            self.xb = self.xb + delta * theta
            self.xb[leaving] = entering_value
            self.state[out] = leaving_to
            self.nbvals[out] = self.upper[out] if leaving_to == at_upper_state else self.lower[out]
            self.state[entering] = self.BASIC
            self.nbvals[entering] = 0.0
            self.basis[leaving] = entering

            pivot = col[leaving]
            if abs(pivot) < 1e-11:
                self._recompute()
            else:
                row = self.binv[leaving].copy()
                factor = col / pivot
                self.binv -= np.outer(factor, row)
                self.binv[leaving] = row / pivot
        return "failed", None, None


def _solve_standard(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
):
    """Two-phase bounded simplex; returns (status, x, duals, iterations)."""
    m, n = a.shape
    x_start = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    resid = b - a @ x_start
    sign = np.where(resid >= 0, 1.0, -1.0)
    a1 = np.hstack([a, np.diag(sign)])
    lower1 = np.concatenate([lower, np.zeros(m)])
    upper1 = np.concatenate([upper, np.full(m, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    state = np.empty(n + m, dtype=int)
    state[:n] = np.where(np.isfinite(lower), _Simplex.AT_LOWER, np.where(np.isfinite(upper), _Simplex.AT_UPPER, _Simplex.AT_LOWER))
    state[n:] = _Simplex.BASIC
    basis = list(range(n, n + m))

    max_iter = 200 * (m + n) + 10000
    sx = _Simplex(a1, b, lower1, upper1)
    status, x1, _ = sx.run(c1, basis, state, max_iter)
    iters = sx.iterations
    if status == "failed" or status == "unbounded":
        return "failed", None, None, iters
    if float(c1 @ x1) > 1e-7:
        return "infeasible", None, None, iters

    lower1[n:] = 0.0
    upper1[n:] = 0.0
    c2 = np.concatenate([c, np.zeros(m)])
    state = sx.state
    state[n:][state[n:] != _Simplex.BASIC] = _Simplex.AT_LOWER
    sx2 = _Simplex(a1, b, lower1, upper1)
    status, x2, duals2 = sx2.run(c2, sx.basis, state, max_iter)
    iters += sx2.iterations
    if status == "optimal":
        return "optimal", x2[:n], duals2, iters
    return status, None, None, iters


def _solve_boxed(c: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Rowless LP: each variable independently runs to its cheaper bound."""
    x = np.zeros_like(c)
    pos = c > 0
    neg = c < 0
    if np.any(pos & ~np.isfinite(lower)) or np.any(neg & ~np.isfinite(upper)):
        return None, "unbounded"
    x[pos] = lower[pos]
    x[neg] = upper[neg]
    zero = ~pos & ~neg
    x[zero] = np.clip(0.0, lower[zero], upper[zero])
    return x, "optimal"


def solve_lp_simplex(lp: LinearProgram) -> LpSolution:
    """Solve with the bundled dense simplex; deterministic for identical inputs.

    This is the oracle: it shares no code with HiGHS or with the closed-form
    tightening it checks.  Its dense basis inverse is (rows x rows), so it
    suits LPs of a few hundred rows.  Infeasible results name no rows.
    """
    n, m1, m2 = lp.n_vars, lp.n_ineq, lp.n_eq
    if m1 + m2 == 0:
        x, status = _solve_boxed(lp.c, lp.lower, lp.upper)
        if status != "optimal":
            return LpSolution(status=status)
        return LpSolution(
            status="optimal",
            z=x,
            objective=float(lp.c @ x),
            duals_ineq=np.zeros(0),
            duals_eq=np.zeros(0),
        )
    a = np.zeros((m1 + m2, n + m1))
    a[:m1, :n] = lp.g
    a[:m1, n:] = np.eye(m1)
    a[m1:, :n] = lp.a_eq
    b = np.concatenate([lp.h, lp.b_eq])
    lower = np.concatenate([lp.lower, np.zeros(m1)])
    upper = np.concatenate([lp.upper, np.full(m1, np.inf)])
    c = np.concatenate([lp.c, np.zeros(m1)])
    status, x, duals, iters = _solve_standard(a, b, c, lower, upper)
    if status != "optimal":
        return LpSolution(status=status, iterations=iters)
    z = x[:n]
    lam = np.maximum(-duals[:m1], 0.0) if m1 else np.zeros(0)
    nu = -duals[m1:] if m2 else np.zeros(0)
    return LpSolution(
        status="optimal",
        z=z,
        objective=float(lp.c @ z),
        duals_ineq=lam,
        duals_eq=nu,
        iterations=iters,
    )


def _highs(c, g, h, a_eq, b_eq, lower, upper):
    """One ``linprog`` call; scipy.optimize is imported here, never at package import."""
    from scipy.optimize import linprog

    return linprog(
        c, A_ub=g, b_ub=h, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lower, upper]), method="highs",
    )


def import_solver() -> None:
    """Import the HiGHS backend now, so that a timed ``solve_lp`` does not
    include its first import."""
    import scipy.optimize  # noqa: F401


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS (``scipy.optimize.linprog``); deterministic for identical inputs.

    HiGHS reads G and A from ``lp.csr``.  Row duals are the negated HiGHS
    marginals, so ``check_kkt`` audits the point like any other.  An
    infeasible problem names its blocking rows through an elastic re-solve.
    """
    g, a = lp.csr
    res = _highs(lp.c, g, lp.h, a, lp.b_eq, lp.lower, lp.upper)
    status = HIGHS_STATUS.get(res.status, "failed")
    if status == "infeasible":
        return LpSolution(
            status=status, iterations=res.nit, blocking_rows=_elastic_blocking_rows(lp)
        )
    if status != "optimal":
        return LpSolution(status=status, iterations=res.nit)
    z = res.x
    lam, nu = -res.ineqlin.marginals, -res.eqlin.marginals
    return LpSolution(
        status="optimal",
        z=z,
        objective=float(lp.c @ z),
        duals_ineq=lam,
        duals_eq=nu,
        iterations=res.nit,
    )


def _elastic_blocking_rows(lp: LinearProgram) -> tuple[str, ...]:
    """Rows that must give way for the LP to become feasible.

    Every inequality gets a slack s >= 0 and every equality a pair p, q >= 0
    (G z - s <= h, A z + p - q = b); the total slack is minimised under the
    original bounds.  Rows left with slack come first, then rows priced by
    the elastic duals, which together form the infeasibility certificate.
    """
    from scipy.sparse import coo_array, eye_array, hstack

    n, m1, m2 = lp.n_vars, lp.n_ineq, lp.n_eq
    g, a = lp.csr
    g_el = hstack([g, -eye_array(m1), coo_array((m1, 2 * m2))], format="csr")
    a_el = hstack([a, coo_array((m2, m1)), eye_array(m2), -eye_array(m2)], format="csr")
    n_slack = m1 + 2 * m2
    res = _highs(
        np.concatenate([np.zeros(n), np.ones(n_slack)]),
        g_el, lp.h, a_el, lp.b_eq,
        np.concatenate([lp.lower, np.zeros(n_slack)]),
        np.concatenate([lp.upper, np.full(n_slack, np.inf)]),
    )
    if res.status != 0:
        return ()
    s = res.x[n:]
    slack = np.concatenate([s[:m1], s[m1 : m1 + m2] + s[m1 + m2 :]])
    price = np.abs(np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]))
    slacked = np.flatnonzero(slack > ELASTIC_TOL)
    priced = np.flatnonzero((price > ELASTIC_TOL) & (slack <= ELASTIC_TOL))
    rows = np.concatenate([slacked, priced])[:MAX_BLOCKING_ROWS]
    return tuple(_row_label(lp, int(i)) for i in rows)


def _row_label(lp: LinearProgram, i: int) -> str:
    """Label of row ``i`` counted over the inequalities, then the equalities."""
    if i < lp.n_ineq:
        return lp.row_labels[i] if lp.row_labels else f"ineq[{i}]"
    k = i - lp.n_ineq
    return lp.eq_labels[k] if lp.eq_labels else f"eq[{k}]"


def check_kkt(lp: LinearProgram, sol: LpSolution) -> KktReport:
    """Primal/dual residuals, complementary slackness, and the duality gap.

    The products read G and A as built (``lp.csr``), not as any solver
    received them.
    """
    if not sol.is_optimal:
        raise ValueError("KKT audit requires an optimal solution")
    z = sol.z
    g, a = lp.csr
    lam, nu = sol.duals_ineq, sol.duals_eq

    primal = 0.0
    slack = lp.h - g @ z
    primal = max(primal, float(np.max(-slack, initial=0.0)))
    primal = max(primal, float(np.max(np.abs(a @ z - lp.b_eq), initial=0.0)))
    finite_l = np.isfinite(lp.lower)
    finite_u = np.isfinite(lp.upper)
    primal = max(primal, float(np.max(lp.lower[finite_l] - z[finite_l], initial=0.0)))
    primal = max(primal, float(np.max(z[finite_u] - lp.upper[finite_u], initial=0.0)))

    r = lp.c + g.T @ lam + a.T @ nu
    mu_l = np.where(finite_l, np.maximum(r, 0.0), 0.0)
    mu_u = np.where(finite_u, np.maximum(-r, 0.0), 0.0)
    dual = float(np.max(np.abs(r - mu_l + mu_u), initial=0.0))
    dual = max(dual, float(np.max(-lam, initial=0.0)))

    comp = float(np.max(np.abs(lam * slack), initial=0.0))
    comp = max(comp, float(np.max(np.abs(mu_l[finite_l] * (z - lp.lower)[finite_l]), initial=0.0)))
    comp = max(comp, float(np.max(np.abs(mu_u[finite_u] * (lp.upper - z)[finite_u]), initial=0.0)))

    dual_obj = 0.0
    dual_obj -= float(lp.h @ lam)
    dual_obj -= float(lp.b_eq @ nu)
    dual_obj += float(lp.lower[finite_l] @ mu_l[finite_l])
    dual_obj -= float(lp.upper[finite_u] @ mu_u[finite_u])
    obj = float(lp.c @ z)
    gap = abs(obj - dual_obj) / (1.0 + abs(obj))
    return KktReport(primal_residual=primal, dual_residual=dual, complementarity=comp, gap=gap)

