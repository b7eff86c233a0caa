"""Constraint tightening against time-variant interval uncertainty.

Every constrained quantity (state, control, analysis row, or a ramp
difference) deviates from its nominal trajectory by a linear function of
the disturbance deviations; the worst case of that linear functional over
the budget set (the per-step boxes, each channel's normalized 1-norm over
the horizon capped at the budget) is the partial-sum form of its scaled
coefficients.  The box set is the budget set at an infinite budget, where
that form is the 1-norm (dual of the infinity norm).  Reductions are
computed directly from that closed form; the iterative variant solves one
support LP per row and step instead and exists as an oracle and timing
baseline.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import csvtext
from .compile import ConstraintFamily, Lags, StateSpaceModel, family_form, unit_of
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

    def spectral_radius(self) -> float:
        if self.phi.size == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.phi))))


def choose_gain(ssm: StateSpaceModel, k: np.ndarray | None = None) -> FeedbackGain:
    """K = 0 by default; a configured K is validated against the radius cap."""
    n_x, n_u = ssm.n_x, ssm.n_u
    if k is None:
        k = np.zeros((n_u, n_x))
    k = np.asarray(k, dtype=float)
    if k.shape != (n_u, n_x):
        raise ValueError(f"gain shape {k.shape} != ({n_u}, {n_x})")
    gain = FeedbackGain(k=k, phi=ssm.A + ssm.B @ k)
    rho = gain.spectral_radius()
    if rho > SPECTRAL_CAP:
        raise ValueError(
            f"closed-loop spectral radius {rho:.6g} exceeds the cap {SPECTRAL_CAP:.6g}"
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
    check_budget(budget)
    return float(_top_k_sums(np.abs(np.asarray(v, dtype=float)), budget))


def check_budget(budget: float | None) -> float:
    """The budget of budget mode, refused if missing or not >= 0 (NaN)."""
    if budget is None:
        raise ValueError("budget mode requires a budget")
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


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
    """Reductions for every family."""

    families: dict[str, FamilySchedule]

    def family(self, name: str) -> FamilySchedule:
        return self.families[name]

    def max_abs_difference(self, other: "TightenedSchedule") -> float:
        worst = 0.0
        for name, fam in self.families.items():
            o = other.families[name]
            if fam.reductions.size:
                worst = max(worst, float(np.max(np.abs(fam.reductions - o.reductions))))
        return worst

    def csv_blocks(self) -> Iterator[str]:
        """The text of :meth:`to_csv` in parts: the header line, then one
        block of lines per family and step."""
        yield "family,step,row,unit,original_bound,reduction,tightened_bound\n"
        for name, fam in self.families.items():
            poly = fam.polyhedron
            # the text between step and reduction is fixed per row
            lines = [
                csvtext.line((label, unit_of(label), f"{r:.12g}", None, None))
                for label, r in zip(poly.labels, poly.bounds.tolist())
            ]
            # per step, the (reduction, tightened bound) of each row in turn
            values = np.stack((fam.reductions, fam.tightened_bounds), axis=-1)
            yield from csvtext.blocks(
                (f"{name},{t}" for t in fam.steps.tolist()),
                lines,
                values.reshape(len(fam.steps), 2 * poly.n_rows).tolist(),
            )

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())


class _DeviationFamily:
    """Deviation coefficients of one constraint family's rows.

    At step t the family's rows deviate by sum_k lag[k] w_dev(t - k) over
    the lags k with 0 <= t - k <= T - 1: ``lag[k]`` is their response to
    the disturbance k steps earlier, one convention for every family, held
    as ``lags`` (:class:`~chpdispatch.compile.Lags`), never as one dense
    (lags, M, n_w) array.

    Row pairs are fixed once from the labels, as a row with an infinite
    bound has no partner: ``upper_rows`` lists the rows i labelled
    "<stem> upper" that row i+1 closes as "<stem> lower".  ``gamma_rows``
    drops every such row i+1 whose coefficients negate row i (same |theta|,
    so the same budget term) and ``gamma_index`` maps each row to its entry
    there.
    """

    def __init__(self, name: str, poly: PolyhedronH, steps: np.ndarray, lags: Lags):
        self.name = name
        self.poly = poly
        self.steps = steps
        self.lags = lags
        coeff = poly.coefficients
        labels = poly.labels
        self.upper_rows = np.array(
            [
                i for i in range(poly.n_rows - 1)
                if labels[i].endswith(" upper") and labels[i + 1] == labels[i][:-5] + "lower"
            ],
            dtype=int,
        )
        up = self.upper_rows
        mirrored = up[np.all(coeff[up + 1] == -coeff[up], axis=1)] + 1
        source = np.arange(poly.n_rows)
        source[mirrored] -= 1
        self.gamma_rows = np.delete(source, mirrored)
        self.gamma_index = np.searchsorted(self.gamma_rows, source)


def _build_families(
    ssm: StateSpaceModel, constraints: ConstraintFamily, gain: FeedbackGain
) -> list[_DeviationFamily]:
    """Every family's w lags from one closed-loop recursion.  Its rows see
    the disturbance directly (the w lags of ``row_blocks``) and through the
    vector the LP decides, whose lags V they read: the state responds to
    w_dev(t - k) through Phi^(k-1) D (k >= 1), and u through K times it.
    With E = I over x and E = K over u, lag k gains c[k] D, where
    c[1] = V[0] E and c[k+1] = c[k] Phi + V[k] E; E = 0 adds nothing.  A
    ramp family takes the step difference of the sum."""
    d_cols = np.flatnonzero(ssm.D.any(axis=0))
    d = ssm.D[:, d_cols]
    fams: list[_DeviationFamily] = []
    for name, poly in constraints.families().items():
        vector, diff, steps = family_form(name, ssm.horizon)
        s = poly.coefficients
        feed, rows, cols, memory = ssm.row_blocks(vector, s, over_w=True)
        e = np.eye(ssm.n_x) if vector == "x" else gain.k
        if np.any(e) and len(steps):
            n = int(steps[-1])                                      # lags 1..n reach every step
            v_e = Lags.of(*ssm.row_blocks(vector, s)).dense(n) @ e  # V[k] E, k = 0..n-1
            all_cols = np.union1d(cols, d_cols)
            on_d = np.searchsorted(all_cols, d_cols)
            path = np.zeros((n, poly.n_rows, len(all_cols)))
            c = np.zeros((poly.n_rows, ssm.n_x))
            for k in range(n):
                c = c @ gain.phi + v_e[k]
                path[k][:, on_d] = c @ d
            path[: len(memory), rows[:, np.newaxis], np.searchsorted(all_cols, cols)] += memory
            rows, cols, memory = np.arange(poly.n_rows), all_cols, path
        lags = Lags.of(feed, rows, cols, memory, diff=diff)
        fams.append(_DeviationFamily(name, poly, steps, lags))
    return fams


def _lag_convolve(fam: _DeviationFamily, terms) -> np.ndarray:
    """Per step and row, sum over tau and the (values, weights) terms of
    weights[tau] . values[t - tau] for a lag-structured family, where each
    term's values hold one array per block of ``fam.lags.blocks`` (shaped
    as its values) and its weights are (T, n_w).

    Every block runs over its own channels and its lags with a nonzero
    entry only (transport delays, lag 0 of x and u hold none).  Its rows
    are read from ``rho`` and written back once, so a row in two blocks
    sums its lags in lag order, as a dense convolution would."""
    steps = fam.steps
    rho = np.zeros((len(steps), fam.poly.n_rows))
    if not len(steps):
        return rho
    horizon = terms[0][1].shape[0]
    first, last = int(steps[0]), int(steps[-1])
    for bi, b in enumerate(fam.lags.blocks):
        block_terms = [(values[bi], weights[:, b.cols]) for values, weights in terms]
        part = rho[:, b.rows]
        for j in np.flatnonzero(b.values.any(axis=(1, 2))):
            k = b.first + int(j)
            # steps t with a contribution at this lag: 0 <= t - k <= T - 1
            lo_t, hi_t = max(first, k), min(last, k + horizon - 1)
            if lo_t > hi_t:
                continue
            pos, tau_first, count = lo_t - first, lo_t - k, hi_t - lo_t + 1
            part[pos : pos + count] += sum(
                weights[tau_first : tau_first + count] @ values[j].T for values, weights in block_terms
            )
        rho[:, b.rows] = part
    return rho


def _reductions(
    fam: _DeviationFamily, widths: np.ndarray, shifts: np.ndarray, budget: float
) -> np.ndarray:
    """gamma per channel on the scaled coefficient sequences, plus offsets.

    A (row, channel) pair with at most max(floor(budget), 1) nonzero lags
    (any number for an infinite budget, the box set), counted over every
    block, has gamma equal to min(budget, 1) times its 1-norm, so those
    pairs (the identically zero ones included) go through one convolution
    of |theta| W.  The remaining pairs are ranked one step at a time,
    where step t's scaled sequence is the contiguous product
    |lag[t-count+1:t+1]| * widths[count-1::-1] with count = min(t + 1, T);
    mirrored rows reuse their partner's gamma.
    """
    steps = fam.steps
    M = fam.poly.n_rows
    if M == 0 or not len(steps):
        return np.zeros((len(steps), M))
    rows = fam.gamma_rows
    nonzero = np.zeros((M, fam.lags.n_in), dtype=np.intp)
    for b in fam.lags.blocks:
        nonzero[np.ix_(b.rows, b.cols)] += np.count_nonzero(b.values, axis=0)
    long = nonzero[rows] > max(np.floor(budget), 1)                              # (len(rows), n_w)
    pair_row, pair_ch = np.nonzero(long)
    long = long[fam.gamma_index]                                            # mirrors included
    short = []
    for b in fam.lags.blocks:
        mags = np.abs(b.values)
        mags[:, long[np.ix_(b.rows, b.cols)]] = 0.0
        mags *= min(budget, 1.0)
        short.append(mags)
    rho = _lag_convolve(fam, [(short, widths), ([b.values for b in fam.lags.blocks], shifts)])
    del short                                   # before the per-pair buffers below
    if not pair_row.size:
        return rho
    # each long pair's magnitudes over lags 0..last step, gathered per block
    n_lags = max(int(steps[-1]) + 1, fam.lags.stop)
    mags_lag = np.zeros((pair_row.size, n_lags))                            # (P, lags)
    for b in fam.lags.blocks:
        r = _positions(b.rows, M)[rows[pair_row]]
        c = _positions(b.cols, fam.lags.n_in)[pair_ch]
        hit = (r >= 0) & (c >= 0)
        gathered = b.values[:, r[hit], c[hit]]
        mags_lag[hit, b.first : b.first + len(b.values)] = np.abs(gathered, out=gathered).T
    widths_rev = np.ascontiguousarray(widths[::-1, pair_ch].T)              # (P, T)
    horizon = widths.shape[0]
    for si, t in enumerate(steps.tolist()):
        count = min(t + 1, horizon)
        window = mags_lag[:, t + 1 - count : t + 1]
        per_pair = _top_k_sums(window * widths_rev[:, horizon - count :], budget)
        per_row = np.bincount(pair_row, weights=per_pair, minlength=len(rows))
        rho[si] += per_row[fam.gamma_index]
    return rho


def _positions(index: np.ndarray, n: int) -> np.ndarray:
    """Position of each of 0..n-1 in ``index``, -1 where absent."""
    pos = np.full(n, -1)
    pos[index] = np.arange(len(index))
    return pos


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


def _resolve_budget(mode: str, budget: float | None) -> float:
    """The budget a tightening mode uses (infinite for box), validated."""
    if mode not in ("box", "budget"):
        raise ValueError(f"unknown mode {mode!r}")
    return np.inf if mode == "box" else check_budget(budget)


def _schedule(
    fams: list[_DeviationFamily],
    reductions: list[np.ndarray],
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
    return TightenedSchedule(families=out)


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

    mode "box" uses the per-step interval sets, the budget set at an
    infinite budget; mode "budget" additionally caps each channel's
    normalized 1-norm over the horizon at ``budget``.
    Off-center forecast intervals enter exactly, through the center shift
    of the deviation set.
    """
    budget = _resolve_budget(mode, budget)
    widths = tube.half_width
    shifts = tube.center_shift

    fams = _build_families(ssm, constraints, gain)
    reductions = [_reductions(fam, widths, shifts, budget) for fam in fams]
    return _schedule(fams, reductions, on_empty)


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
    budget = _resolve_budget(mode, budget)
    widths = tube.half_width
    shifts = tube.center_shift
    dev_lo, dev_hi = tube.deviation_bounds()

    fams = _build_families(ssm, constraints, gain)
    reductions = []
    for fam in fams:
        M = fam.poly.n_rows
        rho = np.zeros((len(fam.steps), M))
        lag = fam.lags.dense(ssm.horizon + 1)
        for si, t in enumerate(fam.steps.tolist()):
            count = min(t + 1, ssm.horizon)
            theta = lag[t - np.arange(count)]    # (count, M, n_w)
            for ri in range(M):
                coeff = theta[:, ri, :]          # (count, n_w)
                if not np.any(coeff):
                    continue
                rho[si, ri] = _support_lp(
                    coeff, widths[:count], shifts[:count],
                    dev_lo[:count], dev_hi[:count], budget,
                )
        reductions.append(rho)
    return _schedule(fams, reductions, on_empty)


def _support_lp(
    coeff: np.ndarray,
    widths: np.ndarray,
    shifts: np.ndarray,
    dev_lo: np.ndarray,
    dev_hi: np.ndarray,
    budget: float,
) -> float:
    """sup of sum_tau coeff(tau) . w_dev(tau) over the tube, via the bundled simplex."""
    count, n_w = coeff.shape
    if budget == np.inf:
        # the box set: variables are the deviation sequence itself, pure bounds
        lp = LinearProgram(c=-coeff.ravel(), lower=dev_lo.ravel(), upper=dev_hi.ravel())
        offset, scale = 0.0, 1.0
    else:
        # normalized deviations w = p - q with p, q in [0, 1] and one
        # row per channel, sum over tau of (p + q) <= budget.  Every such w
        # lies in the budget set, and every w there is max(w, 0) - max(-w, 0),
        # so the LP's value is the set's support.  The objective is divided
        # by its largest magnitude, so that no entry falls below the
        # simplex's reduced-cost tolerance unless it is that much smaller
        scaled = (coeff * widths).ravel()
        scale = np.max(np.abs(scaled)) or 1.0
        scaled = scaled / scale
        lp = LinearProgram(
            c=np.concatenate([-scaled, scaled]),
            g=np.tile(np.eye(n_w), (1, 2 * count)),
            h=np.full(n_w, budget),
            lower=np.zeros(2 * scaled.size),
            upper=np.ones(2 * scaled.size),
        )
        offset = float(np.sum(coeff * shifts))
    sol = solve_lp_simplex(lp)
    if not sol.is_optimal:
        raise RuntimeError(f"support LP failed with status {sol.status}")
    return -sol.objective * scale + offset
