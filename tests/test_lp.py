"""LP solvers: HiGHS, the bundled simplex and vertex enumeration agree."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chpdispatch
from chpdispatch.lp import LinearProgram, check_kkt, solve_lp, solve_lp_simplex


def brute_force_optimum(lp: LinearProgram) -> float | None:
    """Enumerate basic points of {Gz <= h, Az = b, l <= z <= u}; None if empty.

    All candidate vertices arise as intersections of n active constraints
    drawn from rows and bounds; feasible candidates are scored directly.
    """
    n = lp.n_vars
    rows = [(lp.g[i], lp.h[i]) for i in range(lp.n_ineq)]
    rows += [(lp.a_eq[i], lp.b_eq[i]) for i in range(lp.n_eq)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if np.isfinite(lp.lower[i]):
            rows.append((e.copy(), lp.lower[i]))
        if np.isfinite(lp.upper[i]):
            rows.append((e.copy(), lp.upper[i]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        try:
            z = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if _feasible(lp, z):
            val = float(lp.c @ z)
            if best is None or val < best:
                best = val
    return best


def _feasible(lp: LinearProgram, z: np.ndarray, tol: float = 1e-7) -> bool:
    if lp.n_ineq and np.any(lp.g @ z - lp.h > tol):
        return False
    if lp.n_eq and np.any(np.abs(lp.a_eq @ z - lp.b_eq) > tol):
        return False
    return not (np.any(z < lp.lower - tol) or np.any(z > lp.upper + tol))


def test_min_x_above_one():
    lp = LinearProgram(c=np.array([1.0]), g=np.array([[-1.0]]), h=np.array([-1.0]))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.objective == pytest.approx(1.0, abs=1e-10)


def test_conflicting_rows_infeasible():
    lp = LinearProgram(
        c=np.array([1.0]),
        g=np.array([[1.0], [-1.0]]),
        h=np.array([0.0, -1.0]),
        row_labels=("x_low", "x_high"),
    )
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert set(sol.blocking_rows) == {"x_low", "x_high"}  # elastic re-solve names both
    assert solve_lp_simplex(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(c=np.array([-1.0]), g=np.array([[-1.0]]), h=np.array([0.0]))
    sol = solve_lp(lp)
    assert sol.status == "unbounded"


def test_bounds_only_fast_path():
    lp = LinearProgram(
        c=np.array([2.0, -3.0, 0.0]),
        lower=np.array([-1.0, -2.0, -4.0]),
        upper=np.array([5.0, 7.0, 4.0]),
    )
    sol = solve_lp_simplex(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.z, [-1.0, 7.0, 0.0])
    # HiGHS may park the zero-cost variable anywhere in its box
    highs = solve_lp(lp)
    assert highs.status == "optimal"
    assert highs.objective == pytest.approx(-23.0, abs=1e-12)
    assert np.allclose(highs.z[:2], [-1.0, 7.0])


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        lp = LinearProgram(
            c=rng.normal(size=n),
            g=rng.normal(size=(m, n)),
            h=rng.normal(size=m) + 1.0,
            lower=np.full(n, -3.0),
            upper=np.full(n, 3.0),
        )
        expected = brute_force_optimum(lp)
        sol = solve_lp_simplex(lp)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-8)
            checked += 1
    assert checked > 60


def test_random_lps_with_equalities():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        lp = LinearProgram(
            c=rng.normal(size=n),
            g=rng.normal(size=(4, n)),
            h=rng.normal(size=4) + 2.0,
            a_eq=rng.normal(size=(1, n)),
            b_eq=rng.normal(size=1) * 0.2,
            lower=np.full(n, -4.0),
            upper=np.full(n, 4.0),
        )
        expected = brute_force_optimum(lp)
        sol = solve_lp_simplex(lp)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-8)
            rep = check_kkt(lp, sol)
            assert rep.primal_residual <= 1e-8
            assert rep.gap <= 1e-7


def test_kkt_residuals_on_clean_solution():
    lp = LinearProgram(c=np.array([1.0]), g=np.array([[-1.0]]), h=np.array([-1.0]))
    sol = solve_lp(lp)
    rep = check_kkt(lp, sol)
    assert rep.primal_residual <= 1e-10
    assert rep.dual_residual <= 1e-10
    assert rep.complementarity <= 1e-10
    assert rep.gap <= 1e-10


def test_kkt_detects_constructed_violation():
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        g=np.array([[-1.0, 0.0], [0.0, -1.0]]),
        h=np.array([0.0, 0.0]),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    perturbed = sol.z.copy()
    perturbed[0] -= 1e-3   # violates z >= 0 by 1e-3
    from dataclasses import replace

    bad = replace(sol, z=perturbed)
    rep = check_kkt(lp, bad)
    assert rep.primal_residual == pytest.approx(1e-3, rel=1e-6)


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    lp = LinearProgram(
        c=rng.normal(size=5),
        g=rng.normal(size=(8, 5)),
        h=rng.normal(size=8) + 1.0,
        lower=np.full(5, -2.0),
        upper=np.full(5, 2.0),
    )
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status
    assert a.objective == b.objective
    assert np.array_equal(a.z, b.z)


def test_objective_scaling_leaves_argmin_face():
    rng = np.random.default_rng(9)
    lp = LinearProgram(
        c=rng.normal(size=4),
        g=rng.normal(size=(6, 4)),
        h=rng.normal(size=6) + 1.5,
        lower=np.full(4, -2.0),
        upper=np.full(4, 2.0),
    )
    sol1 = solve_lp(lp)
    lp5 = LinearProgram(c=5.0 * lp.c, g=lp.g, h=lp.h, lower=lp.lower, upper=lp.upper)
    sol5 = solve_lp(lp5)
    assert sol1.status == sol5.status == "optimal"
    assert sol5.objective == pytest.approx(5.0 * sol1.objective, rel=1e-10)


def test_free_variable_handled():
    # min x + y with x free via equality coupling
    lp = LinearProgram(
        c=np.array([0.0, 1.0]),
        a_eq=np.array([[1.0, -1.0]]),
        b_eq=np.array([-2.0]),
        lower=np.array([-np.inf, 0.0]),
        upper=np.array([np.inf, np.inf]),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.z[1] == pytest.approx(0.0, abs=1e-9)
    assert sol.z[0] == pytest.approx(-2.0, abs=1e-9)


HALVES = st.integers(-6, 6).map(lambda k: k / 2.0)   # exact, well-conditioned data


@st.composite
def boxed_lps(draw) -> LinearProgram:
    """Small LPs with every variable boxed and at most one equality."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    n_eq = draw(st.integers(0, 1))

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(HALVES, min_size=size, max_size=size))).reshape(shape)

    lower = np.array(draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n)), dtype=float)
    widths = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), dtype=float)
    return LinearProgram(
        c=array(n),
        g=array(m, n),
        h=array(m) + 1.0,
        a_eq=array(n_eq, n),
        b_eq=array(n_eq) / 2.0,
        lower=lower,
        upper=lower + widths,
    )


@given(boxed_lps())
@settings(max_examples=60, deadline=None)
def test_highs_simplex_and_vertex_enumeration_agree(lp):
    expected = brute_force_optimum(lp)
    highs = solve_lp(lp)
    simplex = solve_lp_simplex(lp)
    status = "infeasible" if expected is None else "optimal"
    assert highs.status == simplex.status == status
    if expected is None:
        return
    assert highs.objective == pytest.approx(expected, abs=1e-8)
    assert simplex.objective == pytest.approx(expected, abs=1e-8)
    rep = check_kkt(lp, highs)
    assert rep.primal_residual <= 1e-8
    assert rep.gap <= 1e-7


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(chpdispatch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, chpdispatch.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def assert_csr_of(matrix, dense):
    """``matrix`` is ``csr_array(dense)``, index dtype and stored order included."""
    from scipy.sparse import csr_array

    ref = csr_array(dense)
    assert matrix.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(matrix, attr), getattr(ref, attr)
        assert got.dtype == want.dtype, attr
        assert np.array_equal(got, want), attr


@pytest.mark.parametrize("method", ["do", "erd-box", "erd-budget:10"])
def test_cached_csr_equals_scipy_conversion_on_reference_lps(reference_day, method):
    lp = reference_day.lps[method]
    g, a = lp.csr
    assert lp.csr[0] is g   # the stored matrix, not a copy
    assert_csr_of(g, lp.g)
    assert_csr_of(a, lp.a_eq)


def test_cached_csr_of_rowless_lp():
    lp = LinearProgram(c=np.ones(3), lower=np.zeros(3), upper=np.ones(3))
    g, a = lp.csr
    assert g.shape == a.shape == (0, 3)
    assert_csr_of(g, lp.g)
    assert_csr_of(a, lp.a_eq)


def test_sparse_lp_is_stored_once_and_checked():
    from scipy.sparse import csr_array

    g = csr_array(np.array([[1.0, 1.0], [1.0, -1.0]]))
    lp = LinearProgram(c=np.array([-1.0, -2.0]), g=g, h=np.array([4.0, 1.0]),
                       lower=np.zeros(2), upper=np.full(2, 3.0))
    assert lp.csr[0] is g
    assert lp.g is lp.g and np.array_equal(lp.g, g.toarray())   # expanded once
    assert lp.a_eq.shape == (0, 2) and lp.csr[1].shape == (0, 2)
    assert solve_lp_simplex(lp).objective == pytest.approx(solve_lp(lp).objective)
    g.data[0] = np.nan
    with pytest.raises(ValueError, match="non-finite coefficients in g"):
        LinearProgram(c=np.ones(2), g=g, h=np.ones(2))
