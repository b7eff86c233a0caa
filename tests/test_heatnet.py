"""Node-method delays and temperature propagation."""

import numpy as np
import pytest

from chpdispatch import heatnet
from chpdispatch.heatnet import (
    DelayError,
    HeatTopologyError,
    attenuation_factors,
    compute_delays,
    temperature_maps,
)
from chpdispatch.compile import compile_state_space
from chpdispatch.config_io import load_system
from chpdispatch.model import HeatNetwork, HeatPipe
from chpdispatch.reference import build_reference_system, reference_document

C_W = 4182.0
RHO = 1000.0


def pipe_with_mass(mass_kg: float, flow_kg_s: float, conductivity: float = 0.0) -> HeatPipe:
    """A pipe whose water mass is exactly mass_kg (via the length)."""
    diameter = 0.2
    area = np.pi * diameter**2 / 4.0
    length = mass_kg / (area * RHO) if mass_kg > 0 else 1e-12
    return HeatPipe(
        from_node=0,
        to_node=1,
        length=length,
        diameter=diameter,
        conductivity=conductivity,
        mass_flow=flow_kg_s,
    )


def two_node_net(pipe: HeatPipe, inflow: float, outflow: float, ground: float = 0.0,
                 init_supply: float = 80.0, init_return: float = 40.0) -> HeatNetwork:
    return HeatNetwork(
        n_node=2,
        pipes=(pipe,),
        ts_min=np.array([0.0, 0.0]),
        ts_max=np.array([200.0, 200.0]),
        tr_min=np.array([0.0, 0.0]),
        tr_max=np.array([200.0, 200.0]),
        inflow=np.array([inflow, 0.0]),
        outflow=np.array([0.0, outflow]),
        ground_temperature=np.array([ground]),
        initial_supply_temperature=init_supply,
        initial_return_temperature=init_return,
        water_density=RHO,
        water_heat_capacity=C_W,
    )


def temperatures(maps, source: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """offset[t] + sum_{k<=t} kernel[k] @ [source; demand](t - k), lag by lag:
    the maps' own definition, kept apart from the lifted-map rollout."""
    heat = np.concatenate([source, demand], axis=1)
    temps = maps.offset.copy()
    for t in range(maps.horizon):
        for k in range(t + 1):
            temps[t] += maps.kernel[k] @ heat[t - k]
    return temps


class TestDelays:
    def test_enumeration_500kg_at_1kgps(self):
        net = two_node_net(pipe_with_mass(500.0, 1.0), 1.0, 1.0)
        # 300 <= 500 < 600: one extra step needed
        assert list(compute_delays(net, 300.0, 4)) == [1]

    def test_zero_mass_pipe(self):
        net = two_node_net(pipe_with_mass(0.0, 1.0), 1.0, 1.0)
        assert list(compute_delays(net, 300.0, 3)) == [0]

    def test_fast_flow_no_delay(self):
        net = two_node_net(pipe_with_mass(500.0, 10.0), 10.0, 10.0)
        assert list(compute_delays(net, 300.0, 3)) == [0]  # 3000 > 500 on the first step

    def test_minimality_against_enumeration(self):
        rng = np.random.default_rng(3)
        # whole numbers of steps of flow whose quotient mass / (flow dt)
        # rounds up to the integer although the product exceeds the mass
        cases = [(2.262, 3 * 2.262 * 300.0), (1.298, 5 * 1.298 * 300.0)]
        for trial in range(40):
            flow = rng.uniform(0.5, 5.0)
            # every other pipe holds a whole number of steps of flow exactly
            mass = rng.uniform(0.0, 5000.0) if trial % 2 else rng.integers(0, 8) * flow * 300.0
            cases.append((flow, mass))
        for flow, mass in cases:
            net = two_node_net(pipe_with_mass(mass, flow), flow, flow)
            held, step = net.pipe_mass(net.pipes[0]), flow * 300.0
            (tau,) = compute_delays(net, 300.0, 8)
            assert (tau + 1) * step > held
            if tau > 0:
                assert tau * step <= held

    def test_delay_monotone_in_flow_scaling(self):
        for mass in (900.0, 1200.0, 4321.0):
            base = compute_delays(two_node_net(pipe_with_mass(mass, 1.0), 1.0, 1.0), 300.0, 5)
            for scale in (1.5, 2.0, 5.0):
                net = two_node_net(pipe_with_mass(mass, scale), scale, scale)
                assert np.all(compute_delays(net, 300.0, 5) <= base)

    def test_absurd_geometry_raises(self):
        net = two_node_net(pipe_with_mass(1e9, 0.001), 0.001, 0.001)
        with pytest.raises(DelayError):
            compute_delays(net, 1.0, 2)

    def test_pipe_holding_one_step_of_flow(self):
        """A pipe whose water is exactly one step of its flow delays by one
        step at every t; the reference accepts it at 96 x 900 s."""
        doc = reference_document(96, 900.0)
        pipe = doc["heat_network"]["pipes"][0]
        area = np.pi * pipe["diameter"] ** 2 / 4.0
        pipe["length"] = pipe["mass_flow"] * 900.0 / (RHO * area)
        model = load_system(doc)
        delays = compute_delays(model.heat, model.step_seconds, model.horizon)
        assert delays.shape == (len(model.heat.pipes),)
        assert delays[0] == 1
        ssm = compile_state_space(model)
        assert ssm.output.temps.kernel.shape == (96, 16, 16)


def pipe_maps(net: HeatNetwork, horizon: int):
    """Temperatures of ``net`` at 300 s steps under a varying source heat
    at node 0; supply temperatures come first in each row."""
    delays = compute_delays(net, 300.0, horizon)
    maps = temperature_maps(net, delays, horizon, 300.0)
    source = np.zeros((horizon, net.n_node))
    source[:, 0] = np.linspace(0.5, 2.0, horizon)
    return delays, temperatures(maps, source, np.zeros((horizon, net.n_node)))


class TestPipePropagation:
    def test_identity_when_lossless_and_instant(self):
        # 0 -> 1 holds 10 kg at 3000 kg per step (no delay); 1 -> 2 delays
        # by a step, which anchors the temperature level of the tree
        m = 10.0
        area = np.pi * 0.2**2 / 4.0
        instant = HeatPipe(0, 1, 10.0 / (area * RHO), 0.2, 0.0, m)
        delayed = HeatPipe(1, 2, 4000.0 / (area * RHO), 0.2, 0.0, m)
        net = HeatNetwork(
            n_node=3, pipes=(instant, delayed),
            ts_min=np.zeros(3), ts_max=np.full(3, 200.0),
            tr_min=np.zeros(3), tr_max=np.full(3, 200.0),
            inflow=np.array([m, 0.0, 0.0]), outflow=np.array([0.0, 0.0, m]),
            ground_temperature=np.array([0.0]),
            initial_supply_temperature=80.0, initial_return_temperature=40.0,
            water_density=RHO, water_heat_capacity=C_W,
        )
        delays, temps = pipe_maps(net, 5)
        assert list(delays) == [0, 1]
        assert np.allclose(temps[:, 1], temps[:, 0], rtol=0.0, atol=1e-12)
        assert np.ptp(temps[:, 0]) > 1.0     # the inlet series does vary

    def test_half_attenuation_two_step_delay(self):
        # 750 kg at 300 kg per step: a 2-step delay; the conductivity makes
        # the attenuation over those 2 steps exactly one half
        area = np.pi * 0.2**2 / 4.0
        k = np.log(2.0) * area * RHO * C_W / (300.0 * 2)
        net = two_node_net(pipe_with_mass(750.0, 1.0, conductivity=k), 1.0, 1.0,
                           init_supply=80.0)
        delays, temps = pipe_maps(net, 6)
        assert list(delays) == [2]
        assert np.allclose(temps[:2, 1], 40.0, rtol=0.0, atol=1e-12)   # pre-horizon inlet
        assert np.allclose(temps[2:, 1], 0.5 * temps[:-2, 0], rtol=0.0, atol=1e-12)

    def test_attenuation_factor_bounds(self, ref24):
        delays = compute_delays(ref24.model.heat, 3600.0, 24)
        psi = attenuation_factors(ref24.model.heat, delays, 3600.0)
        assert psi.shape == delays.shape
        assert np.all(psi > 0.0)
        assert np.all(psi <= 1.0)
        # factor is 1 exactly iff conductivity or delay vanish
        for j, pipe in enumerate(ref24.model.heat.pipes):
            if pipe.conductivity == 0.0 or delays[j] == 0:
                assert psi[j] == 1.0
            else:
                assert psi[j] < 1.0


class TestTemperatureMaps:
    def test_source_injection_temperature_split(self):
        # 1 MW at a pure source node with 23.9 kg/s: Ts - Tr ~ 10 K
        m = 23.9
        pipe = pipe_with_mass(5e5, m, conductivity=0.0)
        net = two_node_net(pipe, m, m)
        delays = compute_delays(net, 300.0, 6)
        assert np.all(delays >= 1)
        maps = temperature_maps(net, delays, 6, 300.0)
        source = np.zeros((6, 2))
        source[:, 0] = 1.0
        demand = np.zeros((6, 2))
        demand[:, 1] = 1.0
        temps = temperatures(maps, source, demand)
        split = temps[:, 0] - temps[:, 2]     # Ts(0) - Tr(0)
        expected = 1e6 / (C_W * m)
        assert expected == pytest.approx(10.0, abs=0.01)
        assert np.allclose(split, expected, atol=1e-9)

    def test_ground_equilibrium_with_losses(self):
        m = 10.0
        pipe = pipe_with_mass(4000.0, m, conductivity=5.0)
        ground = 7.5
        net = two_node_net(pipe, m, m, ground=ground, init_supply=ground, init_return=ground)
        delays = compute_delays(net, 300.0, 8)
        maps = temperature_maps(net, delays, 8, 300.0)
        temps = temperatures(maps, np.zeros((8, 2)), np.zeros((8, 2)))
        assert np.allclose(temps, ground, atol=1e-9)

    def test_nodal_energy_balance_residual(self, ref24):
        heat = ref24.model.heat
        delays = compute_delays(heat, 3600.0, 24)
        psi = attenuation_factors(heat, delays, 3600.0)
        maps = temperature_maps(heat, delays, 24, 3600.0)
        rng = np.random.default_rng(5)
        source = np.zeros((24, heat.n_node))
        source[:, 0] = rng.uniform(0.5, 3.0, 24)
        demand = np.zeros((24, heat.n_node))
        demand[:, [2, 3, 5, 6, 7]] = rng.uniform(0.1, 0.7, (24, 5))
        temps = temperatures(maps, source, demand)
        worst = _balance_residual(heat, delays, psi, temps, source, demand, 3600.0)
        assert worst <= 1e-9

    @pytest.mark.parametrize("horizon, step", [(24, 3600.0), (48, 1800.0), (96, 900.0), (288, 300.0)])
    def test_blocked_solve_matches_step_loop_bit_for_bit(self, horizon, step, monkeypatch):
        """The reference's kernel and offset from the blocked solve (blocks
        of 1 to 12 steps) against the per-step, per-term loop."""
        heat = build_reference_system(horizon, step).heat
        delays = compute_delays(heat, step, horizon)
        got = temperature_maps(heat, delays, horizon, step)
        monkeypatch.setattr(heatnet, "_simulate", step_loop)
        want = temperature_maps(heat, delays, horizon, step)
        assert np.array_equal(got.kernel, want.kernel)
        assert np.array_equal(got.offset, want.offset)

    def test_all_lossless_instant_network_raises(self):
        m = 50.0
        pipe = pipe_with_mass(10.0, m, conductivity=0.0)   # tiny mass: tau = 0
        net = two_node_net(pipe, m, m)
        delays = compute_delays(net, 300.0, 3)
        assert np.all(delays == 0)
        with pytest.raises(HeatTopologyError):
            temperature_maps(net, delays, 3, 300.0)

    def test_cyclic_topology_raises(self):
        pipe1 = pipe_with_mass(1000.0, 5.0)
        pipe2 = HeatPipe(1, 0, pipe1.length, pipe1.diameter, 0.0, 5.0)
        net = HeatNetwork(
            n_node=2, pipes=(pipe1, pipe2),
            ts_min=np.zeros(2), ts_max=np.full(2, 200.0),
            tr_min=np.zeros(2), tr_max=np.full(2, 200.0),
            inflow=np.array([5.0, 0.0]), outflow=np.array([0.0, 5.0]),
            ground_temperature=np.array([0.0]),
            initial_supply_temperature=80.0, initial_return_temperature=40.0,
        )
        delays = compute_delays(net, 300.0, 2)
        with pytest.raises(HeatTopologyError):
            temperature_maps(net, delays, 2, 300.0)


def step_loop(st, ground, initial, impulse, scale):
    """The forward solve one step and one history or ground term at a time."""
    n = st.n
    width = 1 if impulse is None else impulse.shape[1]
    frames = np.zeros((len(ground), 2 * n, width))
    for t in range(len(ground)):
        rhs = np.zeros((2 * n, width))
        for row, tau, weight, slot in st.history_terms:
            if t >= tau:
                rhs[row] += weight * frames[t - tau, slot]
            elif initial is not None:
                rhs[row] += weight * initial[slot]
        g = float(ground[t])
        if g != 0.0:
            for row, weight in st.ground_terms:
                rhs[row] += weight * g
        if t == 0 and impulse is not None:
            rhs[:n] += impulse[:n] * scale
            rhs[n:] -= impulse[n:] * scale
        frames[t] = st.inv @ rhs
    return frames


def _balance_residual(heat, delays, psi, temps, source, demand, dt):
    """Max nodal energy-balance violation (MW) across nodes and steps."""
    n = heat.n_node
    T = temps.shape[0]
    parent = heat.parent_pipe()
    children = heat.children()
    init_s = heat.initial_supply_temperature
    init_r = heat.initial_return_temperature
    worst = 0.0
    for t in range(T):
        for i in range(n):
            # supply side: inflow enthalpy + source heat = outflow enthalpy
            supply_in = 0.0
            mass_in = 0.0
            pj = parent[i]
            if pj is not None:
                src_t = t - delays[pj]
                upstream = temps[src_t, heat.pipes[pj].from_node] if src_t >= 0 else init_s
                g = heat.ground_at(t)
                arr = g + (upstream - g) * psi[pj]
                flow = heat.pipes[pj].mass_flow
                supply_in += flow * arr
                mass_in += flow
            supply_in += heat.inflow[i] * temps[t, n + i]
            mass_in += heat.inflow[i]
            supply_in += source[t, i] * 1e6 / heat.water_heat_capacity
            residual = supply_in - mass_in * temps[t, i]
            worst = max(worst, abs(residual) * heat.water_heat_capacity / 1e6)

            # return side
            ret_in = 0.0
            mass_ret = 0.0
            for c in children[i]:
                src_t = t - delays[c]
                downstream = temps[src_t, n + heat.pipes[c].to_node] if src_t >= 0 else init_r
                g = heat.ground_at(t)
                arr = g + (downstream - g) * psi[c]
                flow = heat.pipes[c].mass_flow
                ret_in += flow * arr
                mass_ret += flow
            ret_in += heat.outflow[i] * temps[t, i] - demand[t, i] * 1e6 / heat.water_heat_capacity
            mass_ret += heat.outflow[i]
            residual = ret_in - mass_ret * temps[t, n + i]
            worst = max(worst, abs(residual) * heat.water_heat_capacity / 1e6)
    return worst
