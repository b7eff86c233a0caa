"""Node-method transport delays and temperature propagation.

Pipe delays count how many steps of cumulative mass flow are needed to
displace the water held by the pipe.  Temperatures then propagate along
the supply tree (and in reverse along the return network) with an
exponential attenuation toward the ground temperature, mixing mass flows
at the nodes, which makes every node temperature an affine function of
the node heat injections and extractions over the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HeatNetwork

__all__ = [
    "DelayTable",
    "TemperatureMaps",
    "HeatTopologyError",
    "DelayError",
    "compute_delays",
    "attenuation_factors",
    "temperature_maps",
]

MW_TO_W = 1e6


class HeatTopologyError(ValueError):
    pass


class DelayError(ValueError):
    pass


@dataclass(frozen=True)
class DelayTable:
    """Integer transport delay per pipe and step."""

    delays: np.ndarray        # (n_pipe, T) int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delays", np.asarray(self.delays, dtype=int))

    @property
    def horizon(self) -> int:
        return self.delays.shape[1]

    def is_time_invariant(self) -> bool:
        if self.delays.size == 0:
            return True
        return bool(np.all(self.delays == self.delays[:, :1]))


def compute_delays(net: HeatNetwork, step_seconds: float, horizon: int) -> DelayTable:
    """Minimal tau >= 0 with the mass delivered over (t-tau..t] strictly above
    the pipe's water mass; flow before t = 0 is frozen at its first value.
    """
    cap = 10 * horizon + 1000
    out = np.zeros((net.n_pipe, horizon), dtype=int)
    for j, pipe in enumerate(net.pipes):
        mass = net.pipe_mass(pipe)
        steps = np.array([pipe.flow_at(t) for t in range(horizon)]) * step_seconds
        prefix = np.concatenate([[0.0], np.cumsum(steps)])
        m0_step = float(steps[0])
        for t in range(horizon):
            tau = None
            for back in range(0, t + 1):
                if prefix[t + 1] - prefix[t - back] > mass:
                    tau = back
                    break
            if tau is None:
                if m0_step <= 0:
                    raise DelayError(f"pipe {j}: zero mass flow cannot deliver heat")
                remaining = mass - (prefix[t + 1] - prefix[0])
                tau = t + int(math.floor(remaining / m0_step)) + 1
            if tau > cap:
                raise DelayError(
                    f"pipe {j}: delay {tau} steps at t={t} exceeds cap {cap}; "
                    "pipe volume is out of proportion to the delivered mass"
                )
            out[j, t] = tau
    return DelayTable(out)


def attenuation_factors(
    net: HeatNetwork, delays: DelayTable, step_seconds: float
) -> np.ndarray:
    """exp(-k dt tau / (A rho c_w)) per pipe and step; in (0, 1]."""
    T = delays.horizon
    psi = np.ones((net.n_pipe, T))
    for j, pipe in enumerate(net.pipes):
        denom = pipe.cross_section * net.water_density * net.water_heat_capacity
        psi[j] = np.exp(-pipe.conductivity * step_seconds * delays.delays[j] / denom)
    return psi


@dataclass(frozen=True)
class TemperatureMaps:
    """Affine maps from node heat to supply/return temperatures over the horizon.

    Temperatures stack as [T_s(0..N-1), T_r(0..N-1)] per step.  Input
    channels stack as [source heat per node (MW), demand heat per node (MW)].
    ``kernel_ti`` holds the lag-k impulse response when the network is
    time-invariant; otherwise ``kernel_full[t][tau]`` is used.
    """

    n_node: int
    horizon: int
    offset: np.ndarray                     # (T, 2N) temps with zero heat input
    kernel_ti: np.ndarray | None           # (T, 2N, 2N)
    kernel_full: list[list[np.ndarray]] | None

    @property
    def n_channel(self) -> int:
        return 2 * self.n_node

    def evaluate(self, source_heat: np.ndarray, demand_heat: np.ndarray) -> np.ndarray:
        """Temperatures (..., T, 2N) for heat series shaped (..., T, n_node), in MW."""
        from .compile import LiftedOutputMap   # compile builds on this module

        inputs = np.concatenate([np.atleast_2d(source_heat), np.atleast_2d(demand_heat)], axis=-1)
        n_ch = self.n_channel
        if inputs.shape[-2:] != (self.horizon, n_ch):
            raise ValueError(f"heat input shape {inputs.shape} != (..., {self.horizon}, {n_ch})")
        # the temperatures are the lifted map whose only inputs are the heat channels
        lifted = LiftedOutputMap(
            feed_u=np.zeros((n_ch, 0)),
            feed_w=np.zeros((n_ch, n_ch)),
            const=self.offset,
            memory_rows=np.arange(n_ch),
            heat_u=np.zeros((n_ch, 0)),
            heat_w=np.eye(n_ch),
            temps=self,
        )
        return lifted.evaluate(np.zeros(inputs.shape[:-1] + (0,)), inputs)


class _StepStructure:
    """Factorized linear system for one schedule step.

    Unknowns z = [T_s, T_r]; equations are supply and return nodal energy
    balances with same-step couplings (zero-delay arrivals) on the left and
    delayed arrivals, ground pickup, and heat injections on the right.
    """

    def __init__(
        self,
        net: HeatNetwork,
        delays: DelayTable,
        psi: np.ndarray,
        ts: int,
        parent: dict[int, int | None],
        children: dict[int, list[int]],
    ):
        n = net.n_node
        self.n = n
        self.ts = ts
        mat = np.zeros((2 * n, 2 * n))
        # (row, pipe index, weight, read-slot) entries referencing history
        self.history_terms: list[tuple[int, int, float, int]] = []
        # (row, weight) ground pickup entries
        self.ground_terms: list[tuple[int, float]] = []

        for i in range(n):
            row = i
            m_in = net.inflow[i]
            pj = parent[i]
            m_arr = net.pipes[pj].flow_at(ts) if pj is not None else 0.0
            total = m_arr + m_in
            if total <= 0:
                raise HeatTopologyError(
                    f"heat node {i}: no supply mass (parent + inflow = 0)"
                )
            mat[row, i] = total
            mat[row, n + i] = -m_in
            if pj is not None:
                tau = int(delays.delays[pj, ts])
                w = m_arr * psi[pj, ts]
                src = net.pipes[pj].from_node
                if tau == 0:
                    mat[row, src] -= w
                else:
                    self.history_terms.append((row, pj, w, src))
                self.ground_terms.append((row, m_arr * (1.0 - psi[pj, ts])))

            rrow = n + i
            m_ret = net.outflow[i] + sum(net.pipes[c].flow_at(ts) for c in children[i])
            if m_ret <= 0:
                raise HeatTopologyError(
                    f"heat node {i}: no return mass (children + outflow = 0)"
                )
            mat[rrow, n + i] = m_ret
            mat[rrow, i] = -net.outflow[i]
            for c in children[i]:
                tau = int(delays.delays[c, ts])
                w = net.pipes[c].flow_at(ts) * psi[c, ts]
                child_slot = n + net.pipes[c].to_node
                if tau == 0:
                    mat[rrow, child_slot] -= w
                else:
                    self.history_terms.append((rrow, c, w, child_slot))
                self.ground_terms.append(
                    (rrow, net.pipes[c].flow_at(ts) * (1.0 - psi[c, ts]))
                )
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > 1e12:
            raise HeatTopologyError(
                "temperature level is indeterminate (lossless zero-delay loop "
                "leaves no anchor); add losses, delays, or check the topology"
            )
        self.inv = np.linalg.inv(mat)
        self.delay_of_pipe = {j: int(delays.delays[j, ts]) for j in range(net.n_pipe)}


def _simulate(
    net: HeatNetwork,
    structures: list[_StepStructure],
    ground: np.ndarray,
    inputs: list[np.ndarray | None],
    initial: np.ndarray | None,
    width: int,
) -> np.ndarray:
    """Forward solve over the horizon; inputs[t] is (2N, width) in MW or None.

    Returns temperatures shaped (T, 2N, width).
    """
    n = net.n_node
    horizon = len(structures)
    frames = np.zeros((horizon, 2 * n, width))
    scale = MW_TO_W / net.water_heat_capacity
    for t, st in enumerate(structures):
        rhs = np.zeros((2 * n, width))
        for row, pipe_idx, weight, slot in st.history_terms:
            src_t = t - st.delay_of_pipe[pipe_idx]
            if src_t >= 0:
                rhs[row] += weight * frames[src_t, slot]
            elif initial is not None:
                rhs[row] += weight * initial[slot]
        g = float(ground[min(t, len(ground) - 1)])
        if g != 0.0:
            for row, weight in st.ground_terms:
                rhs[row] += weight * g
        if inputs[t] is not None:
            rhs[:n] += inputs[t][:n] * scale       # source heat adds enthalpy
            rhs[n:] -= inputs[t][n:] * scale       # demand removes it on the return
        frames[t] = st.inv @ rhs
    return frames


def temperature_maps(
    net: HeatNetwork, delays: DelayTable, horizon: int, step_seconds: float
) -> TemperatureMaps:
    """Compose pipe propagation and nodal mixing into horizon-lifted affine maps."""
    if net.n_node == 0:
        return TemperatureMaps(
            n_node=0,
            horizon=horizon,
            offset=np.zeros((horizon, 0)),
            kernel_ti=np.zeros((horizon, 0, 0)),
            kernel_full=None,
        )
    if not net.is_tree():
        raise HeatTopologyError("supply network must be a tree (cycle or multiple roots found)")
    psi = attenuation_factors(net, delays, step_seconds)
    n = net.n_node
    parent = net.parent_pipe()
    children = net.children()

    flows_constant = all(
        len(p.mass_flow) == 1 or np.all(p.mass_flow == p.mass_flow[0]) for p in net.pipes
    )
    time_invariant = flows_constant and delays.is_time_invariant()

    if time_invariant:
        st0 = _StepStructure(net, delays, psi, 0, parent, children)
        structures = [st0] * horizon
    else:
        structures = [
            _StepStructure(net, delays, psi, t, parent, children) for t in range(horizon)
        ]

    init = np.concatenate(
        [
            np.full(n, net.initial_supply_temperature),
            np.full(n, net.initial_return_temperature),
        ]
    )[:, np.newaxis]
    ground_series = np.array([net.ground_at(t) for t in range(horizon)])
    offset = _simulate(net, structures, ground_series, [None] * horizon, init, 1)[:, :, 0]

    zero_ground = np.zeros(horizon)
    if time_invariant:
        inputs: list[np.ndarray | None] = [None] * horizon
        inputs[0] = np.eye(2 * n)
        kernel = _simulate(net, structures, zero_ground, inputs, None, 2 * n)
        return TemperatureMaps(n, horizon, offset, kernel, None)

    kernel_full: list[list[np.ndarray]] = [
        [np.zeros((2 * n, 2 * n)) for _ in range(t + 1)] for t in range(horizon)
    ]
    for tau in range(horizon):
        inputs = [None] * horizon
        inputs[tau] = np.eye(2 * n)
        frames = _simulate(net, structures, zero_ground, inputs, None, 2 * n)
        for t in range(tau, horizon):
            kernel_full[t][tau] = frames[t]
    return TemperatureMaps(n, horizon, offset, None, kernel_full)
