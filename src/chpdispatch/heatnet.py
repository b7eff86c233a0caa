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
    "HeatRecursion",
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


_HISTORY = np.dtype([("row", np.intp), ("delay", np.intp), ("weight", float), ("slot", np.intp)])
_GROUND = np.dtype([("row", np.intp), ("weight", float)])


@dataclass(frozen=True)
class HeatRecursion:
    """The nodal energy balances as a step recursion, the same at every step:

        mat theta(t) = sum_history weight theta(t - delay)[slot]
                       + sum_ground weight ground_temps[t] + scale sign h(t)

    for temperatures theta = [T_s, T_r] and heat h per channel in MW (source,
    then demand heat per node); a history term that reaches before t = 0
    reads ``initial``.  ``history`` and ``ground`` are structured arrays in
    equation order, and ``sign`` is +1 on source channels and -1 on demand
    channels, whose heat leaves the return water.
    """

    mat: np.ndarray              # (2N, 2N), zero-delay arrivals included
    history: np.ndarray          # _HISTORY records
    ground: np.ndarray           # _GROUND records
    scale: float                 # mass flow times K per MW: 1e6 / c_w
    sign: np.ndarray             # (2N,)
    initial: np.ndarray          # (2N,)
    ground_temps: np.ndarray     # (T,)


@dataclass(frozen=True)
class TemperatureMaps:
    """Affine maps from node heat to supply/return temperatures over the horizon.

    Temperatures stack as [T_s(0..N-1), T_r(0..N-1)] per step.  Input
    channels stack as [source heat per node (MW), demand heat per node (MW)].
    ``kernel[k]`` is the response of the temperatures to heat input k steps
    earlier: flows are constant, so the response depends on the lag only.
    Both come from ``recursion`` by a forward solve.
    """

    offset: np.ndarray                     # (T, 2N) temps with zero heat input
    kernel: np.ndarray                     # (T, 2N, 2N)
    recursion: HeatRecursion


def _recursion(net: HeatNetwork, delays: np.ndarray, psi: np.ndarray, horizon: int) -> HeatRecursion:
    """The step recursion of a tree network with constant flows."""
    n = net.n_node
    parent, children = net.parent_pipe(), net.children()
    mat = np.zeros((2 * n, 2 * n))
    history, ground = [], []

    for i in range(n):
        row = i
        m_in = net.inflow[i]
        pj = parent[i]
        m_arr = net.pipes[pj].mass_flow if pj is not None else 0.0
        total = m_arr + m_in
        if total <= 0:
            raise HeatTopologyError(f"heat node {i}: no supply mass (parent + inflow = 0)")
        mat[row, i] = total
        mat[row, n + i] = -m_in
        if pj is not None:
            tau = int(delays[pj])
            w = m_arr * psi[pj]
            src = net.pipes[pj].from_node
            if tau == 0:
                mat[row, src] -= w
            else:
                history.append((row, tau, w, src))
            ground.append((row, m_arr * (1.0 - psi[pj])))

        rrow = n + i
        m_ret = net.outflow[i] + sum(net.pipes[c].mass_flow for c in children[i])
        if m_ret <= 0:
            raise HeatTopologyError(f"heat node {i}: no return mass (children + outflow = 0)")
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
                history.append((rrow, tau, w, child_slot))
            ground.append((rrow, m_c * (1.0 - psi[c])))
    cond = np.linalg.cond(mat) if n else 1.0
    if not np.isfinite(cond) or cond > 1e12:
        raise HeatTopologyError(
            "temperature level is indeterminate (lossless zero-delay loop "
            "leaves no anchor); add losses, delays, or check the topology"
        )
    return HeatRecursion(
        mat=mat,
        history=np.array(history, dtype=_HISTORY),
        ground=np.array(ground, dtype=_GROUND),
        scale=MW_TO_W / net.water_heat_capacity,
        sign=np.repeat([1.0, -1.0], n),
        initial=np.repeat([net.initial_supply_temperature, net.initial_return_temperature], n),
        ground_temps=np.array([net.ground_at(t) for t in range(horizon)]),
    )


def _simulate(
    st: HeatRecursion,
    ground: np.ndarray,
    initial: np.ndarray | None,
    impulse: np.ndarray | None,
) -> np.ndarray:
    """Forward solve over the steps of ``ground``; ``impulse`` (2N, width),
    heat in MW, enters at t = 0 only.  Returns temperatures (T, 2N, width).

    A step reads no frame nearer than the shortest delay, so the steps run
    in blocks that long (12 steps at 288 x 300 s, 1 at 24 x 3600 s) whose
    right-hand sides are gathered at once, with one ``np.add.at`` per term
    list.  That adds a row's terms in list order, history then ground, so
    the frames are bit for bit those of a per-step, per-term loop.
    """
    n_th, inv = len(st.mat), np.linalg.inv(st.mat)
    horizon = len(ground)
    width = 1 if impulse is None else impulse.shape[1]
    depth = int(st.history["delay"].max(initial=0))
    # the frames behind ``depth`` frames of history before t = 0: the
    # initial temperatures, or zero, which adds nothing to a right-hand side
    padded = np.zeros((depth + horizon, n_th, width))
    if initial is not None:
        padded[:depth] = initial
    frames = padded[depth:]
    block = int(st.history["delay"].min(initial=horizon))
    for start in range(0, horizon, block):
        steps = np.arange(start, min(start + block, horizon))
        rhs = np.zeros((len(steps), n_th, width))
        here = depth + steps[:, np.newaxis]        # the steps' indices into padded
        past = padded[here - st.history["delay"], st.history["slot"]]
        np.add.at(rhs, (slice(None), st.history["row"]), st.history["weight"][:, np.newaxis] * past)
        if ground[steps].any():
            picked = st.ground["weight"] * ground[steps, np.newaxis]
            np.add.at(rhs, (slice(None), st.ground["row"]), picked[:, :, np.newaxis])
        if start == 0 and impulse is not None:
            rhs[0] += impulse * (st.sign[:, np.newaxis] * st.scale)
        frames[steps] = np.matmul(inv, rhs)
    return frames


def temperature_maps(
    net: HeatNetwork, delays: np.ndarray, horizon: int, step_seconds: float
) -> TemperatureMaps:
    """The network's step recursion and the horizon-lifted affine maps it gives."""
    if not net.is_tree():
        raise HeatTopologyError("supply network must be a tree (cycle or multiple roots found)")
    rec = _recursion(net, delays, attenuation_factors(net, delays, step_seconds), horizon)
    offset = _simulate(rec, rec.ground_temps, rec.initial[:, np.newaxis], None)[:, :, 0]
    kernel = _simulate(rec, np.zeros(horizon), None, np.eye(len(rec.mat)))
    return TemperatureMaps(offset, kernel, rec)
