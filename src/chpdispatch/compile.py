"""Compile a SystemModel into the linear dispatch form.

State x stacks storage levels; control u stacks CHP active/reactive power,
grid exchange, and heat-pump power; the analysis vector y stacks battery
power, tank flow, branch flows, voltages, and node temperatures; the
disturbance w stacks PV power, electric loads, and heat loads.  Battery and
tank flows are eliminated through the instantaneous balances, which yields
the storage dynamics and makes every y row an affine function of the control
and disturbance sequences (node temperatures keep their transport-delay
memory through the heat kernel, or the step recursion it comes from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elecnet import branch_flow_map, nominal_operating_point, voltage_sensitivities
from .heatnet import TemperatureMaps, compute_delays, temperature_maps
from .model import SystemModel
from .sets import PolyhedronH, UncertaintyTube

__all__ = [
    "StructuralError",
    "VariableManifest",
    "KIND_UNITS",
    "unit_of",
    "LagBlock",
    "Lags",
    "LiftedOutputMap",
    "LiftedConvolution",
    "StateSpaceModel",
    "ConstraintFamily",
    "family_form",
    "compile_state_space",
    "compile_constraints",
    "compile_uncertainty_tube",
    "balance_residuals",
]


class StructuralError(ValueError):
    pass


@dataclass(frozen=True)
class VariableManifest:
    """Orders every physical quantity into the x/u/y/w vectors."""

    x: tuple[tuple[str, str], ...]
    u: tuple[tuple[str, str], ...]
    y: tuple[tuple[str, str], ...]
    w: tuple[tuple[str, str], ...]

    @cached_property
    def _kind_indices(self) -> dict[str, dict[str, list[int]]]:
        """vector -> kind -> positions, built once per manifest."""
        table: dict[str, dict[str, list[int]]] = {}
        for vector in ("x", "u", "y", "w"):
            kinds = table[vector] = {}
            for i, (kind, _) in enumerate(getattr(self, vector)):
                kinds.setdefault(kind, []).append(i)
        return table

    def index(self, vector: str, kind: str, name: str) -> int:
        entries = getattr(self, vector)
        for i in self._kind_indices[vector].get(kind, ()):
            if entries[i][1] == name:
                return i
        raise KeyError(f"{vector} has no entry ({kind}, {name})")

    def name(self, vector: str, index: int) -> tuple[str, str]:
        return getattr(self, vector)[index]

    def indices(self, vector: str, kind: str) -> list[int]:
        """Positions of ``kind`` in ``vector``, as a new list the caller may change."""
        return list(self._kind_indices[vector].get(kind, ()))


@dataclass(frozen=True)
class _Quantity:
    """One entry of a quantity kind: its limits and ramp limit (None: no
    limit rows, no rate rows) and, for u and w, where it enters the
    balances and networks: active ``p`` and reactive ``q`` at ``bus``, and
    ``heat`` at heat node ``node``.  A negative heat (a heat load) draws on
    the return-side channel n + node."""

    name: str
    lower: float | None = None
    upper: float | None = None
    ramp: float | None = None
    label: str | None = None          # row label, if not "kind[name]"
    bus: int | None = None
    p: float = 0.0
    q: float = 0.0
    node: int | None = None
    heat: float = 0.0


# Every quantity kind, in manifest order, as (vector, kind, unit, entries):
# entries(model) lists the kind's quantities, and the manifest, the units,
# the limit and ramp rows and the balance and network couplings all read it.
_QUANTITIES = (
    ("x", "battery_energy", "fraction", lambda m: [
        _Quantity(b.name, b.e_min, b.e_max) for b in m.batteries]),
    ("x", "tank_level", "fraction", lambda m: [
        _Quantity(s.name, s.e_min, s.e_max) for s in m.tanks]),
    ("u", "chp_p", "pu", lambda m: [
        _Quantity(c.name, c.p_min, c.p_max, c.ramp_p, bus=c.bus, p=1.0,
                  node=c.heat_node, heat=c.power_to_heat)
        for c in m.chp_units]),
    ("u", "chp_q", "pu", lambda m: [
        _Quantity(c.name, c.q_min, c.q_max, c.ramp_q, bus=c.bus, q=1.0) for c in m.chp_units]),
    ("u", "grid_p", "pu", lambda m: [
        _Quantity("grid", m.grid.p_min, m.grid.p_max, label="grid_p", bus=m.grid.bus, p=1.0)]),
    ("u", "grid_q", "pu", lambda m: [
        _Quantity("grid", m.grid.q_min, m.grid.q_max, label="grid_q", bus=m.grid.bus, q=1.0)]),
    ("u", "hp_p", "pu", lambda m: [
        _Quantity(h.name, h.p_min, h.p_max, h.ramp_p, bus=h.bus, p=-1.0, q=-h.reactive_ratio,
                  node=h.heat_node, heat=h.power_to_heat)
        for h in m.heat_pumps]),
    ("y", "battery_power", "pu", lambda m: [
        _Quantity(b.name, b.p_min, b.p_max, b.ramp_p) for b in m.batteries]),
    ("y", "tank_flow", "MW", lambda m: [
        _Quantity(s.name, s.h_min, s.h_max, s.ramp_h) for s in m.tanks]),
    ("y", "branch_flow", "pu", lambda m: [
        _Quantity(str(l), -br.flow_max, br.flow_max) for l, br in enumerate(m.electric.branches)]),
    ("y", "voltage", "pu", lambda m: [
        _Quantity(str(i), m.electric.v_min[i], m.electric.v_max[i]) for i in range(m.electric.n_bus)]),
    ("y", "supply_temp", "degC", lambda m: [
        _Quantity(str(i), m.heat.ts_min[i], m.heat.ts_max[i]) for i in range(m.heat.n_node)]),
    ("y", "return_temp", "degC", lambda m: [
        _Quantity(str(i), m.heat.tr_min[i], m.heat.tr_max[i]) for i in range(m.heat.n_node)]),
    ("w", "pv_power", "pu", lambda m: [_Quantity(p.name, bus=p.bus, p=1.0) for p in m.pv_units]),
    ("w", "electric_load_p", "pu", lambda m: [
        _Quantity(str(i), bus=i, p=-1.0) for i in range(m.electric.n_bus)]),
    ("w", "electric_load_q", "pu", lambda m: [
        _Quantity(str(i), bus=i, q=-1.0) for i in range(m.electric.n_bus)]),
    ("w", "heat_load", "MW", lambda m: [
        _Quantity(str(i), node=i, heat=-1.0) for i in range(m.heat.n_node)]),
)

# physical unit per manifest kind, for CSV headers
KIND_UNITS = {kind: unit for _, kind, unit, _ in _QUANTITIES}


def unit_of(kind_or_label: str) -> str:
    """Unit of a manifest kind or a row label such as "chp_p_ramp[c1] upper"
    or "grid_p lower"."""
    key = kind_or_label.split("[", 1)[0].split(" ", 1)[0]
    if key.endswith("_ramp"):
        key = key[: -len("_ramp")]
    return KIND_UNITS.get(key, "mixed")


@dataclass(frozen=True)
class LagBlock:
    """Lags ``first``..``first + len(values) - 1`` over the rows and input
    channels they touch: ``values[j]`` is the (len(rows), len(cols)) part
    of lag ``first + j``, and every entry outside it is zero."""

    first: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Lags:
    """The response of ``n_rows`` rows at step t to one of ``n_in`` inputs
    at step t - k, lag by lag, as lag-disjoint :class:`LagBlock` s in lag
    order (lag 0, then the memory lags), never as one dense array."""

    blocks: tuple[LagBlock, ...]
    n_rows: int
    n_in: int

    @classmethod
    def of(cls, feed, rows, cols, memory, diff: bool = False) -> "Lags":
        """The lags whose lag 0 is the dense (n_rows, n_in) ``feed`` and
        whose lags 1.. are ``memory`` over rows x cols, each block trimmed to
        its nonzero lags, rows and channels; with ``diff``, those of the step
        difference, whose lag 1 (lag 1 - lag 0) also reaches lag 0's support."""
        n_rows, n_in = feed.shape
        if diff:
            all_rows = np.union1d(rows, np.flatnonzero(feed.any(axis=1)))
            all_cols = np.union1d(cols, np.flatnonzero(feed.any(axis=0)))
            embedded = np.zeros((len(memory), len(all_rows), len(all_cols)))
            at_rows = np.searchsorted(all_rows, rows)[:, np.newaxis]
            embedded[:, at_rows, np.searchsorted(all_cols, cols)] = memory
            memory = np.diff(embedded, axis=0, prepend=feed[np.ix_(all_rows, all_cols)][np.newaxis])
            rows, cols = all_rows, all_cols
        blocks = (
            _trimmed(0, np.arange(n_rows), np.arange(n_in), feed[np.newaxis]),
            _trimmed(1, rows, cols, memory),
        )
        return cls(tuple(b for b in blocks if b is not None), n_rows, n_in)

    @property
    def first(self) -> int:
        """The first lag held (0 if none is); :meth:`of` holds lags from the
        earliest to the latest with a nonzero entry."""
        return self.blocks[0].first if self.blocks else 0

    @property
    def stop(self) -> int:
        """One past the last lag held (0 if none is)."""
        return self.blocks[-1].first + len(self.blocks[-1].values) if self.blocks else 0

    def dense(self, n_lags: int) -> np.ndarray:
        """Lags 0..n_lags-1 as one (n_lags, n_rows, n_in) array."""
        out = np.zeros((n_lags, self.n_rows, self.n_in))
        for b in self.blocks:
            values = b.values[: max(n_lags - b.first, 0)]
            out[b.first : b.first + len(values), b.rows[:, np.newaxis], b.cols] = values
        return out


def _trimmed(first: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> LagBlock | None:
    """The block of ``values`` (lags from ``first`` over rows x cols) trimmed
    to the lags, rows and channels with a nonzero entry; None if all zero."""
    lags = np.flatnonzero(values.any(axis=(1, 2)))
    if not lags.size:
        return None
    r = np.flatnonzero(values.any(axis=(0, 2)))
    c = np.flatnonzero(values.any(axis=(0, 1)))
    kept = values[np.ix_(np.arange(lags[0], lags[-1] + 1), r, c)]
    return LagBlock(first + int(lags[0]), rows[r], cols[c], kept)


@dataclass(frozen=True)
class LiftedOutputMap:
    """y(t) as an affine function of the control and disturbance sequences.

    y(t) = feed_u u(t) + feed_w w(t)
         + sum_{tau <= t} K(t - tau) (heat_u u(tau) + heat_w w(tau)) + const(t)

    where K embeds the heat-network lag kernel into the temperature rows
    ``memory_rows``, one range of y (all other rows are memoryless; a system
    without a heat network has empty ``temps`` and an empty range).  This
    class is the only reader of the kernel, and the tightening its only
    user outside: a row selector's response to u and to w comes as raw
    sparse lags (:meth:`StateSpaceModel.row_blocks`), from which
    :meth:`Lags.of` builds the :class:`Lags` whose closed form the
    tightening reads.  The dispatch LP reads no lag: it holds the
    temperatures as variables tied by ``temps.recursion``.  The closed-loop
    rollout comes from ``evaluate``, which applies the whole
    sum over tau as one lifted convolution operator (a block-Toeplitz GEMM
    at short horizons, an rFFT at long ones) instead of one product per lag.
    """

    feed_u: np.ndarray          # (n_y, n_u)
    feed_w: np.ndarray          # (n_y, n_w)
    const: np.ndarray           # (T, n_y)
    memory_rows: slice          # the rows of y with kernel memory
    heat_u: np.ndarray          # (n_ch, n_u)
    heat_w: np.ndarray          # (n_ch, n_w)
    temps: TemperatureMaps

    @property
    def horizon(self) -> int:
        return self.const.shape[0]

    @property
    def n_y(self) -> int:
        return self.feed_u.shape[0]

    def _lags(self) -> np.ndarray:
        """The lags whose kernel block is not all zero (transport delays
        leave the others empty: 116 of 288 in the full-day reference)."""
        return np.flatnonzero(self.temps.kernel.any(axis=(1, 2)))

    def _lag_blocks(self, s_rows, feed, heat):
        """S dy(t)/d(input)(t - k) for the row selector S = ``s_rows`` and
        one input's feed and heat matrices, as raw lags: lag 0 (the kernel's
        included) as a dense (M, n_in) matrix, and lags 1..T-1 over only the
        rows of S that read a memory row and the channels the heat inputs
        read (32 x 8 of 166 x 76 for the full-day reference's y rows over w).
        The tightening reads these; the dispatch LP does not."""
        lag0 = s_rows @ feed
        sel = s_rows[:, self.memory_rows]
        rows = np.flatnonzero(sel.any(axis=1))
        cols = np.flatnonzero(heat.any(axis=0))
        sel, heat = sel[rows], heat[:, cols]
        memory = np.zeros((self.horizon - 1, len(rows), len(cols)))
        if rows.size and cols.size:
            for k in self._lags():
                block = sel @ self.temps.kernel[k] @ heat
                if k:
                    memory[k - 1] = block
                else:
                    lag0[np.ix_(rows, cols)] += block
        return lag0, rows, cols, memory

    @cached_property
    def _rollout_operands(self) -> _RolloutOperands:
        """What :meth:`evaluate` multiplies by, built once per map, every
        operand C-contiguous (a transposed one sends an OpenBLAS product
        down a path 2-3x slower): [feed_u; feed_w].T and [heat_u; heat_w].T,
        so that one GEMM over the stacked [u, w] rows gives each, and the
        heat kernel as one :class:`LiftedConvolution` (a GEMM at T=24 and
        T=48 in the reference, 1.2 and 4.7 MB; an rFFT from T=96 on)."""
        c = np.ascontiguousarray
        feed = c(np.vstack([self.feed_u.T, self.feed_w.T]))
        heat = c(np.vstack([self.heat_u.T, self.heat_w.T]))
        # (T, n_ch, n_mem): heat inputs in, memory rows out
        memory = LiftedConvolution.of(self.temps.kernel.transpose(0, 2, 1))
        return _RolloutOperands(feed, heat, memory)

    def evaluate(self, u_seq: np.ndarray, w_seq: np.ndarray) -> np.ndarray:
        """All y(t) for sequences shaped (..., T, n_u) and (..., T, n_w) with
        the same leading axes (e.g. a scenario batch), which carry through.

        The memoryless part and the heat inputs are 2-D GEMMs of the stacked
        [u, w] rows against the operands of :attr:`_rollout_operands`, in
        blocks of ``_GEMM_BLOCK_ROWS`` rows that stay in cache, written into
        one preallocated output.  The heat memory is then one product with
        the lifted convolution operator over the whole batch, added to the
        slice ``memory_rows`` of y.  Sums run in another order than the
        formula's, so results agree with a per-lag loop to rounding (about
        1e-15 relative), not bit for bit; the Monte Carlo verdicts are the same.
        """
        ops = self._rollout_operands
        u_seq = np.atleast_2d(u_seq)
        w_seq = np.atleast_2d(w_seq)
        T = self.horizon
        lead = w_seq.shape[:-2]
        n_rows = math.prod(w_seq.shape[:-1])
        u_rows = u_seq.reshape(n_rows, u_seq.shape[-1])
        w_rows = w_seq.reshape(n_rows, w_seq.shape[-1])
        out = np.empty((n_rows, self.n_y))
        inputs = np.empty((n_rows, ops.heat.shape[1]))
        for start in range(0, n_rows, _GEMM_BLOCK_ROWS):
            block = slice(start, start + _GEMM_BLOCK_ROWS)
            uw = np.concatenate([u_rows[block], w_rows[block]], axis=1)
            np.matmul(uw, ops.feed, out=out[block])
            np.matmul(uw, ops.heat, out=inputs[block])
        out = out.reshape(lead + (T, self.n_y))
        out += self.const
        # explicit sizes: a -1 cannot be resolved for zero heat channels
        mem = ops.memory.apply(inputs.reshape(n_rows // T, T, inputs.shape[1]))
        out[..., self.memory_rows] += mem.reshape(lead + mem.shape[1:])
        return out


# bytes of a dense Toeplitz operator above which a LiftedConvolution uses the rFFT
_TOEPLITZ_MAX_BYTES = 16 * 2**20
# stacked [u, w] rows per GEMM block in evaluate
_GEMM_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class LiftedConvolution:
    """The causal convolution out[:, t] = sum_{tau <= t} inputs[:, tau] @ kernel[t - tau]
    of a (T, n_in, n_out) kernel over a batch, as one lifted operator.

    That operator is the lower block-triangular Toeplitz matrix whose
    (tau, t) block is kernel[t - tau] while it fits ``_TOEPLITZ_MAX_BYTES``,
    and otherwise the kernel's real FFT of length 2T, long enough that the
    circular wrap-around misses the T outputs, taken against one
    (n_in, n_out) matrix per frequency; exactly one of ``toeplitz`` and
    ``spectra`` is set.  The choice reads only T, n_in and n_out.  On a
    Monte Carlo chunk of the reference's heat memory the GEMM is 5-7x
    faster than the rFFT at T=24 and 3-4x at T=48, the two meet near
    T=140 (a 40 MiB operator), and at T=288 the GEMM is 3x slower
    (162 MiB); the budget stops below the crossover so that an operator,
    kept for the life of its owner, stays small.  The closed-loop state
    deviation of :func:`chpdispatch.validation.simulate` (kernel Phi^k,
    n_x = 2 in the reference) is a 2.6 MB GEMM at T=288.
    """

    toeplitz: np.ndarray | None = None     # (T n_in, T n_out)
    spectra: np.ndarray | None = None      # (T + 1, n_in, n_out)

    @classmethod
    def of(cls, kernel: np.ndarray) -> "LiftedConvolution":
        """The operator of a (T, n_in, n_out) kernel."""
        T, n_in, n_out = kernel.shape
        if T * n_in * T * n_out * 8 <= _TOEPLITZ_MAX_BYTES:
            toeplitz = np.zeros((T, n_in, T, n_out))
            tau, t = np.triu_indices(T)
            toeplitz[tau, :, t, :] = kernel[t - tau]
            return cls(toeplitz=toeplitz.reshape(T * n_in, T * n_out))
        return cls(spectra=np.ascontiguousarray(np.fft.rfft(kernel, n=2 * T, axis=0)))

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """The convolution of inputs (n, T, n_in), as (n, T, n_out)."""
        n, T, _ = inputs.shape
        if self.toeplitz is not None:
            return (inputs.reshape(n, -1) @ self.toeplitz).reshape(n, T, -1)
        spectrum = np.fft.rfft(inputs, n=2 * T, axis=1)                 # (n, T + 1, n_in)
        out = np.fft.irfft(np.matmul(spectrum.transpose(1, 0, 2), self.spectra), n=2 * T, axis=0)
        return out[:T].transpose(1, 0, 2)


@dataclass(frozen=True)
class _RolloutOperands:
    """The contiguous operands of :meth:`LiftedOutputMap.evaluate`; without
    heat memory ``heat`` has no columns and ``memory`` a (T, 0, 0) kernel."""

    feed: np.ndarray                # (n_u + n_w, n_y)
    heat: np.ndarray                # (n_u + n_w, n_ch)
    memory: LiftedConvolution       # kernel (T, n_ch, n_mem)


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time storage dynamics plus the lifted analysis maps."""

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    output: LiftedOutputMap
    manifest: VariableManifest
    horizon: int
    x0: np.ndarray
    # reactive balance rows: reactive_u @ u(t) + reactive_w @ w(t) = 0
    reactive_u: np.ndarray | None = None
    reactive_w: np.ndarray | None = None

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_w(self) -> int:
        return self.D.shape[1]

    @property
    def n_y(self) -> int:
        return self.output.n_y

    def row_blocks(self, vector: str, s_rows: np.ndarray, over_w: bool = False) -> tuple:
        """The raw lags (:meth:`Lags.of` arguments) of the rows ``s_rows``
        over ``vector``, over the decided vector (x for rows over x, u
        otherwise) or, with ``over_w``, over w: rows over x or u read lag
        0 of their vector and no w, rows over y the lifted map."""
        if vector == "y":
            out = self.output
            feed, heat = (out.feed_w, out.heat_w) if over_w else (out.feed_u, out.heat_u)
            return out._lag_blocks(s_rows, feed, heat)
        none = np.zeros(0, dtype=np.intp)
        feed = np.zeros((len(s_rows), self.n_w)) if over_w else s_rows
        return feed, none, none, np.zeros((self.horizon - 1, 0, 0))


@dataclass(frozen=True)
class ConstraintFamily:
    """H-representations over x, u, y and the step differences of u and y."""

    x: PolyhedronH
    u: PolyhedronH
    y: PolyhedronH
    du: PolyhedronH
    dy: PolyhedronH

    def families(self) -> dict[str, PolyhedronH]:
        """Every family, in LP and schedule order."""
        return {name: getattr(self, name) for name in ("x", "u", "du", "y", "dy")}


def family_form(name: str, horizon: int) -> tuple[str, bool, np.ndarray]:
    """(vector, diff, steps) of a constraint family: the vector its rows
    read, whether they read its step difference, and the steps they hold
    at: x at 1..T, u and y at 0..T-1, a "d" family at 1..T-1."""
    diff = name.startswith("d")
    vector = name[1:] if diff else name
    first = int(diff or vector == "x")
    return vector, diff, np.arange(first, horizon + (vector == "x"))


def _build_manifest(model: SystemModel) -> VariableManifest:
    vectors = {"x": [], "u": [], "y": [], "w": []}
    for vector, kind, _, entries in _QUANTITIES:
        vectors[vector] += [(kind, q.name) for q in entries(model)]
    return VariableManifest(**{v: tuple(e) for v, e in vectors.items()})


def _inputs(model: SystemModel, man: VariableManifest):
    """(vector, index, quantity) for every u and w entry of the table."""
    for vector, kind, _, entries in _QUANTITIES:
        if vector in ("u", "w"):
            for q in entries(model):
                yield vector, man.index(vector, kind, q.name), q


def _balance_rows(model: SystemModel, man: VariableManifest) -> dict[str, np.ndarray]:
    """Coefficient rows of the instantaneous active, reactive and heat
    balances over u and w."""
    rows = {
        f"{balance}_{v}": np.zeros(len(getattr(man, v)))
        for balance in ("active", "reactive", "heat") for v in ("u", "w")
    }
    for vector, i, q in _inputs(model, man):
        rows[f"active_{vector}"][i] = q.p
        rows[f"reactive_{vector}"][i] = q.q
        rows[f"heat_{vector}"][i] = q.heat
    return rows


def compile_state_space(model: SystemModel) -> StateSpaceModel:
    """Assemble A, B, D and the lifted output maps for a validated model."""
    man = _build_manifest(model)
    T = model.horizon
    n_x, n_u, n_y, n_w = len(man.x), len(man.u), len(man.y), len(man.w)

    if not model.batteries:
        raise StructuralError(
            "no battery on the electric balance: nothing absorbs the active-power slack"
        )
    heat_side = bool(model.chp_units or model.heat_pumps or model.heat.n_node > 0)
    if heat_side and not model.tanks:
        raise StructuralError(
            "no thermal tank on the heat balance: nothing absorbs the heat slack"
        )

    bal = _balance_rows(model, man)
    cap_b = np.array([b.capacity for b in model.batteries])
    share_b = cap_b / cap_b.sum()
    if model.tanks:
        cap_s = np.array([s.capacity for s in model.tanks])
        share_s = cap_s / cap_s.sum()
    else:
        share_s = np.zeros(0)

    # storage dynamics with the balance-eliminated flows substituted in
    A = np.zeros((n_x, n_x))
    B = np.zeros((n_x, n_u))
    D = np.zeros((n_x, n_w))
    dt_h = model.step_hours
    for k, b in enumerate(model.batteries):
        i = man.index("x", "battery_energy", b.name)
        A[i, i] = b.retention
        coef = dt_h * b.linear_efficiency / b.capacity
        B[i] = coef * share_b[k] * bal["active_u"]
        D[i] = coef * share_b[k] * bal["active_w"]
    for k, s in enumerate(model.tanks):
        i = man.index("x", "tank_level", s.name)
        A[i, i] = s.retention
        coef = dt_h * s.linear_efficiency / s.capacity
        B[i] = coef * share_s[k] * bal["heat_u"]
        D[i] = coef * share_s[k] * bal["heat_w"]

    # output rows
    feed_u = np.zeros((n_y, n_u))
    feed_w = np.zeros((n_y, n_w))
    const = np.zeros((T, n_y))

    for k, b in enumerate(model.batteries):
        i = man.index("y", "battery_power", b.name)
        feed_u[i] = share_b[k] * bal["active_u"]
        feed_w[i] = share_b[k] * bal["active_w"]
    for k, s in enumerate(model.tanks):
        i = man.index("y", "tank_flow", s.name)
        feed_u[i] = share_s[k] * bal["heat_u"]
        feed_w[i] = share_s[k] * bal["heat_w"]

    _electric_rows(model, man, feed_u, feed_w, const, share_b, bal)
    heat_u, heat_w, memory_rows, temps = _heat_rows(model, man, const, share_s, bal)

    output = LiftedOutputMap(
        feed_u=feed_u,
        feed_w=feed_w,
        const=const,
        memory_rows=memory_rows,
        heat_u=heat_u,
        heat_w=heat_w,
        temps=temps,
    )
    x0 = np.array(
        [b.e_initial for b in model.batteries] + [s.e_initial for s in model.tanks]
    )
    return StateSpaceModel(
        A=A, B=B, D=D, output=output, manifest=man, horizon=T, x0=x0,
        reactive_u=bal["reactive_u"], reactive_w=bal["reactive_w"],
    )


def _electric_rows(model, man, feed_u, feed_w, const, share_b, bal) -> None:
    """Voltage and branch-flow rows linearized at the t = 0 forecast center."""
    net = model.electric
    fc = model.forecasts
    n_bus = net.n_bus

    inj0 = np.zeros(n_bus, dtype=complex)
    for k, p in enumerate(model.pv_units):
        inj0[p.bus] += fc.pv_center[k, 0]
    if fc.p_load_center.size:
        inj0 -= fc.p_load_center[:, 0] + 1j * fc.q_load_center[:, 0]
    op = nominal_operating_point(net, inj0)
    sens = voltage_sensitivities(net, op)
    fmap = branch_flow_map(net, op, sens)

    # nodal injections as affine functions of u and w (slack columns are inert)
    n_u, n_w = len(man.u), len(man.w)
    ju_p = np.zeros((n_bus, n_u))
    jw_p = np.zeros((n_bus, n_w))
    ju_q = np.zeros((n_bus, n_u))
    jw_q = np.zeros((n_bus, n_w))
    into = {"u": (ju_p, ju_q), "w": (jw_p, jw_q)}
    for vector, i, q in _inputs(model, man):
        if q.bus is not None:
            j_p, j_q = into[vector]
            j_p[q.bus, i] += q.p
            j_q[q.bus, i] += q.q
    for k, b in enumerate(model.batteries):
        ju_p[b.bus] -= share_b[k] * bal["active_u"]
        jw_p[b.bus] -= share_b[k] * bal["active_w"]
    ju_p[net.slack_bus] = 0.0
    jw_p[net.slack_bus] = 0.0
    ju_q[net.slack_bus] = 0.0
    jw_q[net.slack_bus] = 0.0

    p0 = op.injections.real
    q0 = op.injections.imag

    volt_rows = man.indices("y", "voltage")
    if volt_rows:
        rows = np.asarray(volt_rows)
        feed_u[rows] = sens.dv_dp @ ju_p + sens.dv_dq @ ju_q
        feed_w[rows] = sens.dv_dp @ jw_p + sens.dv_dq @ jw_q
        base = op.magnitudes - sens.dv_dp @ p0 - sens.dv_dq @ q0
        const[:, rows] += base[np.newaxis, :]

    flow_rows = man.indices("y", "branch_flow")
    if flow_rows:
        rows = np.asarray(flow_rows)
        feed_u[rows] = fmap.dt_dp @ ju_p + fmap.dt_dq @ ju_q
        feed_w[rows] = fmap.dt_dp @ jw_p + fmap.dt_dq @ jw_q
        base = fmap.base - fmap.dt_dp @ p0 - fmap.dt_dq @ q0
        const[:, rows] += base[np.newaxis, :]


def _heat_rows(model, man, const, share_s, bal):
    """Temperature rows through the node-method kernel."""
    heat = model.heat
    n_u, n_w = len(man.u), len(man.w)
    n = heat.n_node
    heat_u = np.zeros((2 * n, n_u))
    heat_w = np.zeros((2 * n, n_w))
    into = {"u": heat_u, "w": heat_w}
    for vector, i, q in _inputs(model, man):
        if q.node is not None:
            into[vector][q.node + n * (q.heat < 0), i] += abs(q.heat)
    for k, s in enumerate(model.tanks):
        # tank charging removes heat from its node
        heat_u[s.heat_node] -= share_s[k] * bal["heat_u"]
        heat_w[s.heat_node] -= share_s[k] * bal["heat_w"]

    delays = compute_delays(heat, model.step_seconds, model.horizon)
    temps = temperature_maps(heat, delays, model.horizon, model.step_seconds)

    # supply then return temperatures are adjacent kinds (y rows 67-82 in the reference)
    rows = man.indices("y", "supply_temp") + man.indices("y", "return_temp")
    memory_rows = slice(rows[0], rows[-1] + 1) if rows else slice(0, 0)
    const[:, memory_rows] += temps.offset
    return heat_u, heat_w, memory_rows, temps


def compile_constraints(model: SystemModel, ssm: StateSpaceModel) -> ConstraintFamily:
    """Every two-sided physical limit becomes one labeled row pair, and
    every ramp limit one pair on the step difference."""
    man = ssm.manifest
    size = {"x": ssm.n_x, "u": ssm.n_u, "y": ssm.n_y, "du": ssm.n_u, "dy": ssm.n_y}
    rows = {family: [] for family in size}
    for vector, kind, _, entries in _QUANTITIES:
        for q in entries(model):
            if q.lower is None:
                continue
            s = np.zeros(size[vector])
            s[man.index(vector, kind, q.name)] = 1.0
            rows[vector].append((s, q.lower, q.upper, q.label or f"{kind}[{q.name}]"))
            if q.ramp is not None:
                rows["d" + vector].append((s, -q.ramp, q.ramp, f"{kind}_ramp[{q.name}]"))
    return ConstraintFamily(
        **{family: PolyhedronH.from_box_rows(r, size[family]) for family, r in rows.items()}
    )


def compile_uncertainty_tube(model: SystemModel) -> UncertaintyTube:
    """Stack the forecast intervals into the manifest's w ordering."""
    fc = model.forecasts
    T = model.horizon
    mins, mids, maxs = [], [], []
    for _, lo, mid, hi in fc.blocks():
        mins.append(lo.T if lo.size else np.zeros((T, 0)))
        mids.append(mid.T if mid.size else np.zeros((T, 0)))
        maxs.append(hi.T if hi.size else np.zeros((T, 0)))
    return UncertaintyTube(w_min=np.hstack(mins), w_center=np.hstack(mids), w_max=np.hstack(maxs))


def balance_residuals(
    model: SystemModel,
    ssm: StateSpaceModel,
    u_seq: np.ndarray,
    w_seq: np.ndarray,
    y_seq: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Residuals of the active, reactive, and heat balances per step."""
    man = ssm.manifest
    if y_seq is None:
        y_seq = ssm.output.evaluate(u_seq, w_seq)
    bal = _balance_rows(model, man)

    battery_rows = man.indices("y", "battery_power")
    tank_rows = man.indices("y", "tank_flow")
    active = (
        u_seq @ bal["active_u"] + w_seq @ bal["active_w"] - y_seq[:, battery_rows].sum(axis=1)
    )
    heat = u_seq @ bal["heat_u"] + w_seq @ bal["heat_w"]
    if tank_rows:
        heat = heat - y_seq[:, tank_rows].sum(axis=1)
    reactive = u_seq @ bal["reactive_u"] + w_seq @ bal["reactive_w"]
    return {"active": active, "reactive": reactive, "heat": heat}
