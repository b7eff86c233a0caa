"""Compile a SystemModel into the linear dispatch form.

State x stacks storage levels; control u stacks CHP active/reactive power,
grid exchange, and heat-pump power; the analysis vector y stacks battery
power, tank flow, branch flows, voltages, and node temperatures; the
disturbance w stacks PV power, electric loads, and heat loads.  Battery and
tank flows are eliminated through the instantaneous balances, which yields
the storage dynamics and makes every y row an affine function of the control
and disturbance sequences (node temperatures keep their transport-delay
memory through the heat kernel).
"""

from __future__ import annotations

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
    "LiftedOutputMap",
    "StateSpaceModel",
    "ConstraintFamily",
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


# physical unit per manifest kind, for CSV headers
KIND_UNITS = {
    "battery_energy": "fraction",
    "tank_level": "fraction",
    "chp_p": "pu",
    "chp_q": "pu",
    "grid_p": "pu",
    "grid_q": "pu",
    "hp_p": "pu",
    "battery_power": "pu",
    "tank_flow": "MW",
    "branch_flow": "pu",
    "voltage": "pu",
    "supply_temp": "degC",
    "return_temp": "degC",
    "pv_power": "pu",
    "electric_load_p": "pu",
    "electric_load_q": "pu",
    "heat_load": "MW",
}


def unit_of(kind_or_label: str) -> str:
    """Unit of a manifest kind or a row label such as "chp_p_ramp[c1] upper"."""
    key = kind_or_label.split("[", 1)[0]
    if key.endswith("_ramp"):
        key = key[: -len("_ramp")]
    return KIND_UNITS.get(key, "mixed")


@dataclass(frozen=True)
class LiftedOutputMap:
    """y(t) as an affine function of the control and disturbance sequences.

    y(t) = feed_u u(t) + feed_w w(t)
         + sum_{tau <= t} K(t - tau) (heat_u u(tau) + heat_w w(tau)) + const(t)

    where K embeds the heat-network lag kernel into the temperature rows
    listed in ``memory_rows`` (all other rows are memoryless).  This class
    is the only reader of the kernel: the LP rows, the tightening
    coefficients and the closed-loop rollout all take y(t) from
    ``u_blocks``, ``w_blocks`` and ``evaluate``.
    """

    feed_u: np.ndarray          # (n_y, n_u)
    feed_w: np.ndarray          # (n_y, n_w)
    const: np.ndarray           # (T, n_y)
    memory_rows: np.ndarray     # indices into y with kernel memory
    heat_u: np.ndarray          # (n_ch, n_u)
    heat_w: np.ndarray          # (n_ch, n_w)
    temps: TemperatureMaps | None

    @property
    def horizon(self) -> int:
        return self.const.shape[0]

    @property
    def n_y(self) -> int:
        return self.feed_u.shape[0]

    @property
    def _has_memory(self) -> bool:
        return self.temps is not None and len(self.memory_rows) > 0

    def u_blocks(self, s_rows: np.ndarray, diff: bool = False) -> np.ndarray:
        """S dy(t)/du(t - k) for the row selector S = ``s_rows`` (M, n_y), as
        lag blocks (T, M, n_u) indexed by k.  ``diff`` gives the blocks of
        the step difference S (y(t) - y(t-1))."""
        return self._blocks(s_rows, self.feed_u, self.heat_u, diff)

    def w_blocks(self, s_rows: np.ndarray, diff: bool = False) -> np.ndarray:
        """S dy(t)/dw(t - k), shaped as in :meth:`u_blocks`."""
        return self._blocks(s_rows, self.feed_w, self.heat_w, diff)

    def _lags(self) -> np.ndarray:
        """The lags whose kernel block is not all zero (transport delays
        leave the others empty: 116 of 288 in the full-day reference)."""
        return np.flatnonzero(self.temps.kernel.any(axis=(1, 2)))

    def _blocks(self, s_rows, feed, heat, diff):
        blocks = np.zeros((self.horizon, s_rows.shape[0], feed.shape[1]))
        if self._has_memory:
            sel = s_rows[:, self.memory_rows]
            # one lag at a time: no temporary as large as the result
            for k in self._lags():
                blocks[k] = sel @ self.temps.kernel[k] @ heat
        blocks[0] += s_rows @ feed
        if diff:
            blocks[1:] = np.diff(blocks, axis=0)
        return blocks

    @cached_property
    def _rollout_operands(self):
        """What :meth:`evaluate` multiplies by, built once: feed_u.T, feed_w.T,
        heat_u.T, heat_w.T and (lag, kernel[lag].T) for the nonzero lags.
        A transposed view sends each OpenBLAS product down a path 2-3x
        slower on a scenario chunk, so most operands are C-contiguous
        copies.  heat_w.T and the last lag's one-row product keep the view:
        their copies round differently (a small-matrix GEMM kernel and a
        GEMV) and take under a tenth of the rollout."""
        c = np.ascontiguousarray
        T = self.horizon
        kernels = []
        if self._has_memory:
            kernels = [
                (int(lag), self.temps.kernel[lag].T if lag == T - 1 else c(self.temps.kernel[lag].T))
                for lag in self._lags()
            ]
        return c(self.feed_u.T), c(self.feed_w.T), c(self.heat_u.T), self.heat_w.T, kernels

    def evaluate(self, u_seq: np.ndarray, w_seq: np.ndarray) -> np.ndarray:
        """All y(t) for sequences shaped (..., T, n_u) and (..., T, n_w) with
        the same leading axes (e.g. a scenario batch), which carry through.

        Each product is a 3-D ``@``, one BLAS call per sequence, and the
        sums are taken in place in the order of the formula above.  Folding
        the sample axis into the GEMM rows is avoided: it changes the
        rounding and can make OpenBLAS start a second thread.
        """
        feed_u, feed_w, heat_u, heat_w, kernels = self._rollout_operands
        u_seq = np.atleast_2d(u_seq)
        w_seq = np.atleast_2d(w_seq)
        T = self.horizon
        out = u_seq @ feed_u
        out += self.const
        out += w_seq @ feed_w
        if kernels:
            inputs = u_seq @ heat_u
            inputs += w_seq @ heat_w                     # (..., T, n_ch)
            mem = np.zeros(inputs.shape[:-1] + (len(self.memory_rows),))
            for lag, kernel_t in kernels:
                mem[..., lag:, :] += inputs[..., : T - lag, :] @ kernel_t
            out[..., self.memory_rows] += mem
        return out


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
    delays: np.ndarray | None = None      # transport delay per pipe, in steps
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


@dataclass(frozen=True)
class ConstraintFamily:
    """H-representations over x, u, y and the step differences of u and y."""

    x: PolyhedronH
    u: PolyhedronH
    y: PolyhedronH
    du: PolyhedronH
    dy: PolyhedronH

    def families(self) -> dict[str, PolyhedronH]:
        return {"x": self.x, "u": self.u, "y": self.y, "du": self.du, "dy": self.dy}


def _build_manifest(model: SystemModel) -> VariableManifest:
    x = [("battery_energy", b.name) for b in model.batteries]
    x += [("tank_level", s.name) for s in model.tanks]
    u = [("chp_p", c.name) for c in model.chp_units]
    u += [("chp_q", c.name) for c in model.chp_units]
    u += [("grid_p", "grid"), ("grid_q", "grid")]
    u += [("hp_p", h.name) for h in model.heat_pumps]
    y = [("battery_power", b.name) for b in model.batteries]
    y += [("tank_flow", s.name) for s in model.tanks]
    y += [("branch_flow", str(l)) for l in range(model.electric.n_branch)]
    y += [("voltage", str(i)) for i in range(model.electric.n_bus)]
    y += [("supply_temp", str(i)) for i in range(model.heat.n_node)]
    y += [("return_temp", str(i)) for i in range(model.heat.n_node)]
    w = [("pv_power", p.name) for p in model.pv_units]
    w += [("electric_load_p", str(i)) for i in range(model.electric.n_bus)]
    w += [("electric_load_q", str(i)) for i in range(model.electric.n_bus)]
    w += [("heat_load", str(i)) for i in range(model.heat.n_node)]
    return VariableManifest(tuple(x), tuple(u), tuple(y), tuple(w))


def _balance_rows(model: SystemModel, man: VariableManifest) -> dict[str, np.ndarray]:
    """Coefficient rows of the instantaneous balances over u and w."""
    n_u, n_w = len(man.u), len(man.w)
    active_u = np.zeros(n_u)
    active_w = np.zeros(n_w)
    heat_u = np.zeros(n_u)
    heat_w = np.zeros(n_w)
    for c in model.chp_units:
        i = man.index("u", "chp_p", c.name)
        active_u[i] = 1.0
        heat_u[i] = c.power_to_heat
    active_u[man.index("u", "grid_p", "grid")] = 1.0
    for h in model.heat_pumps:
        i = man.index("u", "hp_p", h.name)
        active_u[i] = -1.0
        heat_u[i] = h.power_to_heat
    for p in model.pv_units:
        active_w[man.index("w", "pv_power", p.name)] = 1.0
    for i in range(model.electric.n_bus):
        active_w[man.index("w", "electric_load_p", str(i))] = -1.0
    for i in range(model.heat.n_node):
        heat_w[man.index("w", "heat_load", str(i))] = -1.0
    return {"active_u": active_u, "active_w": active_w, "heat_u": heat_u, "heat_w": heat_w}


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
    heat_u, heat_w, memory_rows, temps, delays = _heat_rows(model, man, const, share_s, bal)

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
    reactive_u = np.zeros(n_u)
    for c in model.chp_units:
        reactive_u[man.index("u", "chp_q", c.name)] = 1.0
    reactive_u[man.index("u", "grid_q", "grid")] = 1.0
    for h in model.heat_pumps:
        reactive_u[man.index("u", "hp_p", h.name)] = -h.reactive_ratio
    reactive_w = np.zeros(n_w)
    for i in range(model.electric.n_bus):
        reactive_w[man.index("w", "electric_load_q", str(i))] = -1.0
    return StateSpaceModel(
        A=A, B=B, D=D, output=output, manifest=man, horizon=T, x0=x0, delays=delays,
        reactive_u=reactive_u, reactive_w=reactive_w,
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
    for c in model.chp_units:
        ju_p[c.bus, man.index("u", "chp_p", c.name)] += 1.0
        ju_q[c.bus, man.index("u", "chp_q", c.name)] += 1.0
    for h in model.heat_pumps:
        i = man.index("u", "hp_p", h.name)
        ju_p[h.bus, i] -= 1.0
        ju_q[h.bus, i] -= h.reactive_ratio
    for k, p in enumerate(model.pv_units):
        jw_p[p.bus, man.index("w", "pv_power", p.name)] += 1.0
    for i in range(n_bus):
        jw_p[i, man.index("w", "electric_load_p", str(i))] -= 1.0
        jw_q[i, man.index("w", "electric_load_q", str(i))] -= 1.0
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
    if n == 0:
        return heat_u, heat_w, np.zeros(0, dtype=int), None, None

    for c in model.chp_units:
        heat_u[c.heat_node, man.index("u", "chp_p", c.name)] += c.power_to_heat
    for h in model.heat_pumps:
        heat_u[h.heat_node, man.index("u", "hp_p", h.name)] += h.power_to_heat
    for k, s in enumerate(model.tanks):
        # tank charging removes heat from its node
        heat_u[s.heat_node] -= share_s[k] * bal["heat_u"]
        heat_w[s.heat_node] -= share_s[k] * bal["heat_w"]
    for i in range(n):
        heat_w[n + i, man.index("w", "heat_load", str(i))] = 1.0

    delays = compute_delays(heat, model.step_seconds, model.horizon)
    temps = temperature_maps(heat, delays, model.horizon, model.step_seconds)

    supply_rows = man.indices("y", "supply_temp")
    return_rows = man.indices("y", "return_temp")
    memory_rows = np.asarray(supply_rows + return_rows, dtype=int)
    const[:, memory_rows] += temps.offset
    return heat_u, heat_w, memory_rows, temps, delays


def compile_constraints(model: SystemModel, ssm: StateSpaceModel) -> ConstraintFamily:
    """Every two-sided physical limit becomes one labeled row pair."""
    man = ssm.manifest
    n_x, n_u, n_y = ssm.n_x, ssm.n_u, ssm.n_y

    def unit(n: int, i: int) -> np.ndarray:
        e = np.zeros(n)
        e[i] = 1.0
        return e

    x_rows = []
    for b in model.batteries:
        i = man.index("x", "battery_energy", b.name)
        x_rows.append((unit(n_x, i), b.e_min, b.e_max, f"battery_energy[{b.name}]"))
    for s in model.tanks:
        i = man.index("x", "tank_level", s.name)
        x_rows.append((unit(n_x, i), s.e_min, s.e_max, f"tank_level[{s.name}]"))

    u_rows = []
    for c in model.chp_units:
        u_rows.append((unit(n_u, man.index("u", "chp_p", c.name)), c.p_min, c.p_max, f"chp_p[{c.name}]"))
    for c in model.chp_units:
        u_rows.append((unit(n_u, man.index("u", "chp_q", c.name)), c.q_min, c.q_max, f"chp_q[{c.name}]"))
    g = model.grid
    u_rows.append((unit(n_u, man.index("u", "grid_p", "grid")), g.p_min, g.p_max, "grid_p"))
    u_rows.append((unit(n_u, man.index("u", "grid_q", "grid")), g.q_min, g.q_max, "grid_q"))
    for h in model.heat_pumps:
        u_rows.append((unit(n_u, man.index("u", "hp_p", h.name)), h.p_min, h.p_max, f"hp_p[{h.name}]"))

    y_rows = []
    for b in model.batteries:
        i = man.index("y", "battery_power", b.name)
        y_rows.append((unit(n_y, i), b.p_min, b.p_max, f"battery_power[{b.name}]"))
    for s in model.tanks:
        i = man.index("y", "tank_flow", s.name)
        y_rows.append((unit(n_y, i), s.h_min, s.h_max, f"tank_flow[{s.name}]"))
    for l, br in enumerate(model.electric.branches):
        i = man.index("y", "branch_flow", str(l))
        y_rows.append((unit(n_y, i), -br.flow_max, br.flow_max, f"branch_flow[{l}]"))
    for bus in range(model.electric.n_bus):
        i = man.index("y", "voltage", str(bus))
        y_rows.append(
            (unit(n_y, i), model.electric.v_min[bus], model.electric.v_max[bus], f"voltage[{bus}]")
        )
    for node in range(model.heat.n_node):
        i = man.index("y", "supply_temp", str(node))
        y_rows.append(
            (unit(n_y, i), model.heat.ts_min[node], model.heat.ts_max[node], f"supply_temp[{node}]")
        )
    for node in range(model.heat.n_node):
        i = man.index("y", "return_temp", str(node))
        y_rows.append(
            (unit(n_y, i), model.heat.tr_min[node], model.heat.tr_max[node], f"return_temp[{node}]")
        )

    du_rows = []
    for c in model.chp_units:
        du_rows.append((unit(n_u, man.index("u", "chp_p", c.name)), -c.ramp_p, c.ramp_p, f"chp_p_ramp[{c.name}]"))
    for c in model.chp_units:
        du_rows.append((unit(n_u, man.index("u", "chp_q", c.name)), -c.ramp_q, c.ramp_q, f"chp_q_ramp[{c.name}]"))
    for h in model.heat_pumps:
        du_rows.append((unit(n_u, man.index("u", "hp_p", h.name)), -h.ramp_p, h.ramp_p, f"hp_p_ramp[{h.name}]"))

    dy_rows = []
    for b in model.batteries:
        i = man.index("y", "battery_power", b.name)
        dy_rows.append((unit(n_y, i), -b.ramp_p, b.ramp_p, f"battery_power_ramp[{b.name}]"))
    for s in model.tanks:
        i = man.index("y", "tank_flow", s.name)
        dy_rows.append((unit(n_y, i), -s.ramp_h, s.ramp_h, f"tank_flow_ramp[{s.name}]"))

    return ConstraintFamily(
        x=PolyhedronH.from_box_rows(x_rows, n_x),
        u=PolyhedronH.from_box_rows(u_rows, n_u),
        y=PolyhedronH.from_box_rows(y_rows, n_y),
        du=PolyhedronH.from_box_rows(du_rows, n_u),
        dy=PolyhedronH.from_box_rows(dy_rows, n_y),
    )


def compile_uncertainty_tube(model: SystemModel, budget: float | None = None) -> UncertaintyTube:
    """Stack the forecast intervals into the manifest's w ordering."""
    fc = model.forecasts
    T = model.horizon
    mins, mids, maxs = [], [], []
    for _, lo, mid, hi in fc.blocks():
        mins.append(lo.T if lo.size else np.zeros((T, 0)))
        mids.append(mid.T if mid.size else np.zeros((T, 0)))
        maxs.append(hi.T if hi.size else np.zeros((T, 0)))
    return UncertaintyTube(
        w_min=np.hstack(mins), w_center=np.hstack(mids), w_max=np.hstack(maxs), budget=budget
    )


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

    if ssm.reactive_u is not None:
        reactive = u_seq @ ssm.reactive_u + w_seq @ ssm.reactive_w
    else:
        reactive = np.zeros(len(u_seq))
    return {"active": active, "reactive": reactive, "heat": heat}
