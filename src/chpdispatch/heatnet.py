"""Node-method transport delays and temperature propagation.

A pipe's delay counts how many steps of its constant mass flow are needed
to displace the water it holds.  Temperatures then propagate along
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


def compute_delays(net: HeatNetwork, step_seconds: float, horizon: int) -> np.ndarray:
    """Integer delay per pipe: the smallest tau >= 0 with (tau + 1) steps of
    the pipe's constant mass flow strictly above the water it holds."""
    cap = 10 * horizon + 1000
    out = np.zeros(net.n_pipe, dtype=int)
    for j, pipe in enumerate(net.pipes):
        mass = net.pipe_mass(pipe)
        step_mass = pipe.mass_flow * step_seconds
        if step_mass <= 0:
            raise DelayError(f"pipe {j}: zero mass flow cannot deliver heat")
        tau = int(math.floor(mass / step_mass))
        # the quotient rounds; settle tau on the products themselves
        while (tau + 1) * step_mass <= mass:
            tau += 1
        while tau > 0 and tau * step_mass > mass:
            tau -= 1
        if tau > cap:
            raise DelayError(
                f"pipe {j}: delay {tau} steps exceeds cap {cap}; "
                "pipe volume is out of proportion to the delivered mass"
            )
        out[j] = tau
    return out


def attenuation_factors(net: HeatNetwork, delays: np.ndarray, step_seconds: float) -> np.ndarray:
    """exp(-k dt tau / (A rho c_w)) per pipe; in (0, 1]."""
    psi = np.ones(net.n_pipe)
    for j, pipe in enumerate(net.pipes):
        denom = pipe.cross_section * net.water_density * net.water_heat_capacity
        psi[j] = np.exp(-pipe.conductivity * step_seconds * delays[j] / denom)
    return psi


@dataclass(frozen=True)
class TemperatureMaps:
    """Affine maps from node heat to supply/return temperatures over the horizon.

    Temperatures stack as [T_s(0..N-1), T_r(0..N-1)] per step.  Input
    channels stack as [source heat per node (MW), demand heat per node (MW)].
    ``kernel[k]`` is the response of the temperatures to heat input k steps
    earlier: flows are constant, so the response depends on the lag only.
    """

    n_node: int
    horizon: int
    offset: np.ndarray                     # (T, 2N) temps with zero heat input
    kernel: np.ndarray                     # (T, 2N, 2N)


class _StepStructure:
    """Factorized linear system of one schedule step, the same at every step.

    Unknowns z = [T_s, T_r]; equations are supply and return nodal energy
    balances with same-step couplings (zero-delay arrivals) on the left and
    delayed arrivals, ground pickup, and heat injections on the right.
    """

    def __init__(
        self,
        net: HeatNetwork,
        delays: np.ndarray,
        psi: np.ndarray,
        parent: dict[int, int | None],
        children: dict[int, list[int]],
    ):
        n = net.n_node
        self.n = n
        mat = np.zeros((2 * n, 2 * n))
        # (row, delay, weight, read-slot) entries referencing history
        self.history_terms: list[tuple[int, int, float, int]] = []
        # (row, weight) ground pickup entries
        self.ground_terms: list[tuple[int, float]] = []

        for i in range(n):
            row = i
            m_in = net.inflow[i]
            pj = parent[i]
            m_arr = net.pipes[pj].mass_flow if pj is not None else 0.0
            total = m_arr + m_in
            if total <= 0:
                raise HeatTopologyError(
                    f"heat node {i}: no supply mass (parent + inflow = 0)"
                )
            mat[row, i] = total
            mat[row, n + i] = -m_in
            if pj is not None:
                tau = int(delays[pj])
                w = m_arr * psi[pj]
                src = net.pipes[pj].from_node
                if tau == 0:
                    mat[row, src] -= w
                else:
                    self.history_terms.append((row, tau, w, src))
                self.ground_terms.append((row, m_arr * (1.0 - psi[pj])))

            rrow = n + i
            m_ret = net.outflow[i] + sum(net.pipes[c].mass_flow for c in children[i])
            if m_ret <= 0:
                raise HeatTopologyError(
                    f"heat node {i}: no return mass (children + outflow = 0)"
                )
            mat[rrow, n + i] = m_ret
            mat[rrow, i] = -net.outflow[i]
            for c in children[i]:
                tau = int(delays[c])
                m_c = net.pipes[c].mass_flow
                w = m_c * psi[c]
                child_slot = n + net.pipes[c].to_node
                if tau == 0:
                    mat[rrow, child_slot] -= w
                else:
                    self.history_terms.append((rrow, tau, w, child_slot))
                self.ground_terms.append((rrow, m_c * (1.0 - psi[c])))
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > 1e12:
            raise HeatTopologyError(
                "temperature level is indeterminate (lossless zero-delay loop "
                "leaves no anchor); add losses, delays, or check the topology"
            )
        self.inv = np.linalg.inv(mat)
        self.history_ranks = _ranked(self.history_terms)
        self.ground_ranks = _ranked(self.ground_terms)


def _ranked(terms: list[tuple]) -> list[tuple[np.ndarray, ...]]:
    """(row, ...) terms grouped by their rank among their row's terms, in
    rank order: group r holds the r-th term of every row that has one, as
    one array per tuple field, so each group touches a row at most once."""
    rank: dict[int, int] = {}
    groups: list[list[tuple]] = []
    for term in terms:
        r = rank[term[0]] = rank.get(term[0], -1) + 1
        if r == len(groups):
            groups.append([])
        groups[r].append(term)
    return [tuple(np.array(field) for field in zip(*group)) for group in groups]


def _simulate(
    st: _StepStructure,
    ground: np.ndarray,
    initial: np.ndarray | None,
    impulse: np.ndarray | None,
    scale: float,
) -> np.ndarray:
    """Forward solve over the steps of ``ground``; ``impulse`` (2N, width),
    heat in MW, enters at t = 0 only.  Returns temperatures (T, 2N, width).

    A step reads no frame nearer than the shortest delay, so the steps run
    in blocks that long (12 steps at 288 x 300 s, 1 at 24 x 3600 s) whose
    right-hand sides are gathered at once, one term rank at a time.  Every
    row still adds its history terms, then its ground terms, in the order
    the step structure lists them, so the frames are bit for bit those of a
    per-step, per-term loop.
    """
    n = st.n
    horizon = len(ground)
    width = 1 if impulse is None else impulse.shape[1]
    delays = [tau for _, tau, _, _ in st.history_terms]
    depth = max(delays, default=0)
    # the frames behind ``depth`` frames of history before t = 0: the
    # initial temperatures, or zero, which adds nothing to a right-hand side
    padded = np.zeros((depth + horizon, 2 * n, width))
    if initial is not None:
        padded[:depth] = initial
    frames = padded[depth:]
    block = min(delays, default=horizon)
    for start in range(0, horizon, block):
        steps = np.arange(start, min(start + block, horizon))
        rhs = np.zeros((len(steps), 2 * n, width))
        here = depth + steps[:, np.newaxis]        # the steps' indices into padded
        for rows, taus, weights, slots in st.history_ranks:
            rhs[:, rows] += weights[:, np.newaxis] * padded[here - taus, slots]
        if ground[steps].any():
            for rows, weights in st.ground_ranks:
                rhs[:, rows] += (weights * ground[steps, np.newaxis])[:, :, np.newaxis]
        if start == 0 and impulse is not None:
            rhs[0, :n] += impulse[:n] * scale       # source heat adds enthalpy
            rhs[0, n:] -= impulse[n:] * scale       # demand removes it on the return
        frames[steps] = np.matmul(st.inv, rhs)
    return frames


def temperature_maps(
    net: HeatNetwork, delays: np.ndarray, horizon: int, step_seconds: float
) -> TemperatureMaps:
    """Compose pipe propagation and nodal mixing into horizon-lifted affine maps."""
    if net.n_node == 0:
        return TemperatureMaps(0, horizon, np.zeros((horizon, 0)), np.zeros((horizon, 0, 0)))
    if not net.is_tree():
        raise HeatTopologyError("supply network must be a tree (cycle or multiple roots found)")
    psi = attenuation_factors(net, delays, step_seconds)
    n = net.n_node
    st = _StepStructure(net, delays, psi, net.parent_pipe(), net.children())
    scale = MW_TO_W / net.water_heat_capacity

    init = np.concatenate(
        [
            np.full(n, net.initial_supply_temperature),
            np.full(n, net.initial_return_temperature),
        ]
    )[:, np.newaxis]
    ground = np.array([net.ground_at(t) for t in range(horizon)])
    offset = _simulate(st, ground, init, None, scale)[:, :, 0]
    kernel = _simulate(st, np.zeros(horizon), None, np.eye(2 * n), scale)
    return TemperatureMaps(n, horizon, offset, kernel)
