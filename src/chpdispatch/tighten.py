"""Constraint tightening against time-variant interval uncertainty.

Every constrained quantity (state, control, analysis row, or a ramp
difference) deviates from its nominal trajectory by a linear function of
the disturbance deviations; the worst case of that linear functional over
the per-step boxes is a 1-norm (dual of the infinity norm), and over the
budget set it is the partial-sum form of the box/1-norm intersection.
Reductions are computed directly from those closed forms; the iterative
variant solves one support LP per row and step instead and exists as an
oracle and timing baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .compile import ConstraintFamily, StateSpaceModel, unit_of
from .lp import LinearProgram, solve_lp_simplex
from .sets import PolyhedronH, UncertaintyTube

__all__ = [
    "FeedbackGain",
    "FamilySchedule",
    "TightenedSchedule",
    "TighteningInfeasibleError",
    "choose_gain",
    "gamma",
    "tighten",
    "tighten_iterative_lp",
]

SPECTRAL_WARN = 1.0 + 1e-9
SPECTRAL_CAP = 1.1


class TighteningInfeasibleError(RuntimeError):
    def __init__(self, family: str, step: int, row: str, message: str):
        self.family = family
        self.step = step
        self.row = row
        super().__init__(f"family '{family}' step {step} row '{row}': {message}")


@dataclass(frozen=True)
class FeedbackGain:
    """Feedback matrix K and the closed-loop matrix Phi = A + B K."""

    k: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))

    @property
    def is_zero(self) -> bool:
        return not np.any(self.k)

    def spectral_radius(self) -> float:
        if self.phi.size == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.phi))))


def choose_gain(
    ssm: StateSpaceModel,
    k: np.ndarray | None = None,
    spectral_cap: float = SPECTRAL_CAP,
) -> FeedbackGain:
    """K = 0 by default; a configured K is validated against the radius cap."""
    n_x, n_u = ssm.n_x, ssm.n_u
    if k is None:
        k = np.zeros((n_u, n_x))
    k = np.asarray(k, dtype=float)
    if k.shape != (n_u, n_x):
        raise ValueError(f"gain shape {k.shape} != ({n_u}, {n_x})")
    gain = FeedbackGain(k=k, phi=ssm.A + ssm.B @ k)
    rho = gain.spectral_radius()
    if rho > spectral_cap:
        raise ValueError(
            f"closed-loop spectral radius {rho:.6g} exceeds the cap {spectral_cap:.6g}"
        )
    if rho > SPECTRAL_WARN:
        warnings.warn(
            f"closed-loop spectral radius {rho:.6g} > 1: reachable sets grow "
            "over the horizon",
            stacklevel=2,
        )
    return gain


def gamma(v: np.ndarray, budget: float) -> float:
    """Worst case of v . w over the budget set {|w|_inf <= 1, |w|_1 <= budget}.

    Equals the sum of the floor(budget) largest magnitudes plus the fraction
    of the next one, clipped at the full 1-norm; also the minimum over
    thresholds of budget*theta + sum(max(|v_k| - theta, 0)).
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return float(_top_k_sums(np.abs(np.asarray(v, dtype=float)), budget))


def _top_k_sums(mags: np.ndarray, budget: float) -> np.ndarray:
    """gamma over the last axis of nonnegative magnitudes (shape (..., n)).

    Only the ceil(budget) largest entries are selected (``np.partition``)
    and sorted; a budget at or beyond n sums everything, so an inactive
    budget recovers the 1-norm exactly.
    """
    n = mags.shape[-1]
    if budget >= n:
        return mags.sum(axis=-1)
    whole = int(budget)
    k = whole + (budget > whole)
    if k == 0:
        return np.zeros(mags.shape[:-1])
    head = np.sort(np.partition(mags, n - k, axis=-1)[..., n - k :], axis=-1)
    total = head[..., k - whole :].sum(axis=-1)
    if k > whole:
        total = total + (budget - whole) * head[..., 0]
    return total


@dataclass(frozen=True)
class FamilySchedule:
    """Per-step reductions for one constraint family."""

    polyhedron: PolyhedronH
    steps: np.ndarray                 # the t each row block applies to
    reductions: np.ndarray            # (n_steps, n_rows) >= worst-case deviation
    empty_steps: np.ndarray           # bool per step

    @property
    def tightened_bounds(self) -> np.ndarray:
        return self.polyhedron.bounds[np.newaxis, :] - self.reductions


@dataclass(frozen=True)
class TightenedSchedule:
    """Reductions for every family plus the mode that produced them."""

    families: dict[str, FamilySchedule]
    mode: str                          # "box" or "budget"
    budget: float | None

    def family(self, name: str) -> FamilySchedule:
        return self.families[name]

    def max_abs_difference(self, other: "TightenedSchedule") -> float:
        worst = 0.0
        for name, fam in self.families.items():
            o = other.families[name]
            if fam.reductions.size:
                worst = max(worst, float(np.max(np.abs(fam.reductions - o.reductions))))
        return worst

    def to_csv(self) -> str:
        lines = ["family,step,row,unit,original_bound,reduction,tightened_bound"]
        for name, fam in self.families.items():
            poly = fam.polyhedron
            # the text between step and reduction is fixed per row
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


class _DeviationFamily:
    """Deviation coefficients of one constraint family's rows.

    For each step t the family's rows deviate by sum_tau theta(t, tau) w_dev(tau),
    and theta depends on the lag only: ``lag`` holds it per lag.  ``kind``
    fixes the lag convention: "state" rows see disturbances up to t-1
    (lag = t-1-tau), "output" rows up to t (lag = t-tau).

    Row pairs are fixed once: ``gamma_rows`` drops every row 2i+1 whose
    coefficients negate row 2i (same |theta|, so the same budget term) and
    ``gamma_index`` maps each row to its entry there; ``upper_rows`` lists
    the rows i labelled "... upper" that row i+1 closes as "... lower".
    """

    def __init__(
        self,
        name: str,
        poly: PolyhedronH,
        steps: np.ndarray,
        kind: str,
        lag: np.ndarray,
    ):
        self.name = name
        self.poly = poly
        self.steps = steps
        self.kind = kind
        self.lag = lag
        coeff = poly.coefficients
        even = np.arange(0, poly.n_rows - 1, 2)
        mirrored = even[np.all(coeff[even + 1] == -coeff[even], axis=1)] + 1
        source = np.arange(poly.n_rows)
        source[mirrored] -= 1
        self.gamma_rows = np.delete(source, mirrored)
        self.gamma_index = np.searchsorted(self.gamma_rows, source)
        labels = poly.labels
        self.upper_rows = np.array(
            [i for i in even if labels[i].endswith(" upper") and labels[i + 1].endswith(" lower")],
            dtype=int,
        )

    def theta_for_step(self, t: int) -> np.ndarray:
        """(tau_count, M, n_w) with tau = 0..t-1 (state) or 0..t (output)."""
        count = t if self.kind == "state" else t + 1
        if count == 0:
            return np.zeros((0,) + self.lag.shape[1:])
        if self.kind == "state":
            idx = t - 1 - np.arange(count)
        else:
            idx = t - np.arange(count)
        return self.lag[idx]


def _phi_power_images(front: np.ndarray, phi: np.ndarray, d: np.ndarray, count: int) -> np.ndarray:
    """Stack front @ Phi^k @ D for k = 0..count-1."""
    out = np.zeros((count, front.shape[0], d.shape[1]))
    cur = front.copy()
    for k in range(count):
        out[k] = cur @ d
        cur = cur @ phi
    return out


def _build_families(
    ssm: StateSpaceModel, constraints: ConstraintFamily, gain: FeedbackGain
) -> list[_DeviationFamily]:
    T = ssm.horizon
    n_w = ssm.n_w
    fams: list[_DeviationFamily] = []

    sx = constraints.x.coefficients
    fams.append(
        _DeviationFamily(
            "x", constraints.x, np.arange(1, T + 1), "state",
            _phi_power_images(sx, gain.phi, ssm.D, T) if sx.size else np.zeros((T, 0, n_w)),
        )
    )

    su = constraints.u.coefficients
    front_u = su @ gain.k if su.size else np.zeros((0, ssm.n_x))
    fams.append(
        _DeviationFamily(
            "u", constraints.u, np.arange(0, T), "state",
            _phi_power_images(front_u, gain.phi, ssm.D, T) if su.size else np.zeros((T, 0, n_w)),
        )
    )

    sdu = constraints.du.coefficients
    if sdu.size and T > 1:
        front = sdu @ gain.k
        lag_du = np.zeros((T, sdu.shape[0], n_w))
        lag_du[0] = front @ ssm.D
        if T > 1:
            lag_du[1:] = _phi_power_images(front @ (gain.phi - np.eye(ssm.n_x)), gain.phi, ssm.D, T - 1)
    else:
        lag_du = np.zeros((T, sdu.shape[0] if sdu.size else 0, n_w))
    fams.append(_DeviationFamily("du", constraints.du, np.arange(1, T), "state", lag_du))

    for name, steps, diff in (("y", np.arange(0, T), False), ("dy", np.arange(1, T), True)):
        poly = getattr(constraints, name)
        lag = _output_deviation(ssm, poly.coefficients, gain, diff)
        fams.append(_DeviationFamily(name, poly, steps, "output", lag))
    return fams


def _output_deviation(ssm: StateSpaceModel, sy: np.ndarray, gain: FeedbackGain, diff: bool):
    """Deviation coefficients by lag for rows over y (over its step
    difference with ``diff``).

    theta(t, tau) = S dy(t)/dw(tau) + sum_{tau < sigma <= t} S dy(t)/du(sigma)
    K Phi^(sigma-1-tau) D: the disturbance reaches y directly and through the
    control response u_dev(sigma) = K x_dev(sigma).
    """
    T = ssm.horizon
    out = ssm.output
    lag = out.w_blocks(sy, diff=diff)
    if not gain.is_zero and T > 1:
        powers = _phi_power_images(np.eye(ssm.n_x), gain.phi, ssm.D, T - 1)  # Phi^j D
        u_k = out.u_blocks(sy, diff=diff) @ gain.k     # (T, M, n_x) by lag
        for a in range(T - 1):
            lag[a + 1 :] += np.matmul(u_k[a], powers[: T - 1 - a])
    return lag


def _lag_convolve(fam: _DeviationFamily, terms) -> np.ndarray:
    """Per step and row, sum over tau and the (values, weights) terms of
    weights[tau] . values[lag(t, tau)] for a lag-structured family.

    Every term's values are zero wherever ``fam.lag`` is, so the all-zero
    lags (transport delays, a zero gain) are skipped."""
    steps = fam.steps
    rho = np.zeros((len(steps), fam.poly.n_rows))
    if not len(steps):
        return rho
    state_like = fam.kind == "state"
    first = int(steps[0])
    hi_t = int(steps[-1])
    for k in np.flatnonzero(fam.lag.any(axis=(1, 2))):
        # steps with a contribution at this lag
        lo_t = max(first, k + 1) if state_like else max(first, k)
        if lo_t > hi_t:
            continue
        pos = lo_t - first
        tau_first = (lo_t - 1 - k) if state_like else (lo_t - k)
        count = hi_t - lo_t + 1
        rho[pos : pos + count] += sum(
            weights[tau_first : tau_first + count] @ values[k].T for values, weights in terms
        )
    return rho


def _box_reductions(fam: _DeviationFamily, widths: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Closed-form reductions: per row, sum over channels of |theta| W plus
    the deviation-center term."""
    M = fam.poly.n_rows
    if M == 0:
        return np.zeros((len(fam.steps), M))
    return _lag_convolve(fam, [(np.abs(fam.lag), widths), (fam.lag, shifts)])


def _budget_reductions(
    fam: _DeviationFamily, widths: np.ndarray, shifts: np.ndarray, budget: float
) -> np.ndarray:
    """gamma per channel on the scaled coefficient sequences, plus offsets.

    A (row, channel) pair with at most max(floor(budget), 1) nonzero lags
    has gamma equal to min(budget, 1) times its 1-norm, so those pairs (the
    identically zero ones included) go through the box convolution.  The
    remaining pairs are ranked one step at a time, where step t's scaled
    sequence is the contiguous product |lag[0:count]| * widths[count-1::-1];
    mirrored rows reuse their partner's gamma.
    """
    steps = fam.steps
    M = fam.poly.n_rows
    if M == 0:
        return np.zeros((len(steps), M))
    rows = fam.gamma_rows
    abs_lag = np.abs(fam.lag)
    long = np.count_nonzero(abs_lag[:, rows], axis=0) > max(int(budget), 1)   # (len(rows), n_w)
    pair_row, pair_ch = np.nonzero(long)
    mags_lag = np.ascontiguousarray(abs_lag[:, rows[pair_row], pair_ch].T)   # (P, T)
    abs_lag[:, long[fam.gamma_index]] = 0.0
    abs_lag *= min(budget, 1.0)
    rho = _lag_convolve(fam, [(abs_lag, widths), (fam.lag, shifts)])
    if not pair_row.size:
        return rho
    widths_rev = np.ascontiguousarray(widths[::-1, pair_ch].T)              # (P, T)
    horizon = widths.shape[0]
    offset = 1 if fam.kind == "state" else 0
    for si, t in enumerate(steps):
        count = int(t) + 1 - offset
        if count <= 0:
            continue
        per_pair = _top_k_sums(mags_lag[:, :count] * widths_rev[:, horizon - count :], budget)
        per_row = np.bincount(pair_row, weights=per_pair, minlength=len(rows))
        rho[si] += per_row[fam.gamma_index]
    return rho


def _empty_rows(fam: _DeviationFamily, rho: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """Per step, whether a paired upper/lower interval is empty once tightened,
    and (family, step, quantity) of the first such interval."""
    up = fam.upper_rows
    tightened = fam.poly.bounds[np.newaxis, :] - rho
    bad = tightened[:, up] + tightened[:, up + 1] < -1e-12     # (steps, pairs)
    empties = bad.any(axis=1)
    if not empties.any():
        return empties, None
    si = int(np.argmax(empties))
    label = fam.poly.labels[up[int(np.argmax(bad[si]))]]
    return empties, (fam.name, int(fam.steps[si]), label.rsplit(" upper", 1)[0])


def _resolve_budget(mode: str, budget: float | None, tube: UncertaintyTube) -> float | None:
    """The budget a tightening mode uses (None for box), validated."""
    if mode == "box":
        return None
    if mode != "budget":
        raise ValueError(f"unknown mode {mode!r}")
    if budget is None:
        budget = tube.budget
    if budget is None:
        raise ValueError("budget mode requires a budget value")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


def _schedule(
    fams: list[_DeviationFamily],
    reductions: list[np.ndarray],
    mode: str,
    budget: float | None,
    on_empty: str,
) -> TightenedSchedule:
    """Assemble the per-family schedules; raise on the first empty interval
    unless ``on_empty`` asks to flag it only."""
    out: dict[str, FamilySchedule] = {}
    first_empty = None
    for fam, rho in zip(fams, reductions):
        empties, where = _empty_rows(fam, rho)
        if first_empty is None:
            first_empty = where
        out[fam.name] = FamilySchedule(
            polyhedron=fam.poly, steps=fam.steps, reductions=rho, empty_steps=empties
        )
    if first_empty is not None and on_empty == "raise":
        raise TighteningInfeasibleError(
            *first_empty, "tightened interval is empty (nominal problem infeasible)"
        )
    return TightenedSchedule(families=out, mode=mode, budget=budget)


def tighten(
    ssm: StateSpaceModel,
    constraints: ConstraintFamily,
    tube: UncertaintyTube,
    gain: FeedbackGain,
    mode: str = "box",
    budget: float | None = None,
    on_empty: str = "raise",
) -> TightenedSchedule:
    """Direct dual-norm tightening of every family over the horizon.

    mode "box" uses the per-step interval sets; mode "budget" additionally
    caps each channel's normalized 1-norm over the horizon at ``budget``.
    Off-center forecast intervals enter exactly, through the center shift
    of the deviation set.
    """
    budget = _resolve_budget(mode, budget, tube)
    widths = tube.half_width
    shifts = tube.center_shift

    fams = _build_families(ssm, constraints, gain)
    if mode == "box":
        reductions = [_box_reductions(fam, widths, shifts) for fam in fams]
    else:
        reductions = [_budget_reductions(fam, widths, shifts, budget) for fam in fams]
    return _schedule(fams, reductions, mode, budget, on_empty)


def tighten_iterative_lp(
    ssm: StateSpaceModel,
    constraints: ConstraintFamily,
    tube: UncertaintyTube,
    gain: FeedbackGain,
    mode: str = "box",
    budget: float | None = None,
    on_empty: str = "raise",
) -> TightenedSchedule:
    """Reference tightening that solves one support LP per row and step.

    Semantically identical to :func:`tighten`; kept as an oracle and a
    timing baseline.
    """
    budget = _resolve_budget(mode, budget, tube)
    widths = tube.half_width
    shifts = tube.center_shift
    dev_lo, dev_hi = tube.deviation_bounds()

    fams = _build_families(ssm, constraints, gain)
    reductions = []
    for fam in fams:
        M = fam.poly.n_rows
        rho = np.zeros((len(fam.steps), M))
        for si, t in enumerate(fam.steps):
            theta = fam.theta_for_step(int(t))   # (count, M, n_w)
            count = theta.shape[0]
            if count == 0 or M == 0:
                continue
            for ri in range(M):
                coeff = theta[:, ri, :]          # (count, n_w)
                if not np.any(coeff):
                    continue
                rho[si, ri] = _support_lp(
                    coeff, widths[:count], shifts[:count],
                    dev_lo[:count], dev_hi[:count], mode, budget,
                )
        reductions.append(rho)
    return _schedule(fams, reductions, mode, budget, on_empty)


def _support_lp(
    coeff: np.ndarray,
    widths: np.ndarray,
    shifts: np.ndarray,
    dev_lo: np.ndarray,
    dev_hi: np.ndarray,
    mode: str,
    budget: float | None,
) -> float:
    """sup of sum_tau coeff(tau) . w_dev(tau) over the tube, via the bundled simplex."""
    count, n_w = coeff.shape
    if mode == "box":
        # variables: the deviation sequence itself, pure bounds
        lp = LinearProgram(
            c=-coeff.ravel(),
            lower=dev_lo.ravel(),
            upper=dev_hi.ravel(),
        )
        sol = solve_lp_simplex(lp)
        if not sol.is_optimal:
            raise RuntimeError(f"support LP failed with status {sol.status}")
        return -sol.objective

    # budget: normalized deviations w with |w| <= s, per-channel sum s <= budget
    n = count * n_w
    scaled = (coeff * widths).ravel()
    g = np.zeros((2 * n + n_w, 2 * n))
    h = np.zeros(2 * n + n_w)
    g[:n, :n] = np.eye(n)
    g[:n, n:] = -np.eye(n)
    g[n : 2 * n, :n] = -np.eye(n)
    g[n : 2 * n, n:] = -np.eye(n)
    for j in range(n_w):
        g[2 * n + j, n + j :: n_w][:count] = 1.0
        h[2 * n + j] = budget
    lp = LinearProgram(
        c=np.concatenate([-scaled, np.zeros(n)]),
        g=g,
        h=h,
        lower=np.concatenate([-np.ones(n), np.zeros(n)]),
        upper=np.concatenate([np.ones(n), np.ones(n)]),
    )
    sol = solve_lp_simplex(lp)
    if not sol.is_optimal:
        raise RuntimeError(f"support LP failed with status {sol.status}")
    return -sol.objective + float(np.sum(coeff * shifts))
