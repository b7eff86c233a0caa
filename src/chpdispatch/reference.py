"""Bundled reference test system.

Electric side: the public 33-bus radial distribution feeder (Baran-Wu
topology and impedances, 12.66 kV, converted to per-unit on a 1 MVA base
so that per-unit power is numerically MW).  Heat side: an 8-node supply
tree fed from a single plant node hosting the CHP, the heat pump, and the
thermal tank.  Day profiles are smooth synthesized curves (heat load peaks
at night, PV peaks at noon) with documented amplitudes; all device
parameters are package choices, not published data.
"""

from __future__ import annotations

import numpy as np

from .config_io import load_system
from .model import SystemModel

__all__ = ["build_reference_system", "reference_document", "BASE_KV", "BASE_MVA"]

BASE_KV = 12.66
BASE_MVA = 1.0
Z_BASE = BASE_KV**2 / BASE_MVA

# Baran-Wu 33-bus feeder: (from, to, R ohm, X ohm), buses renumbered from 0
BW33_BRANCHES = [
    (0, 1, 0.0922, 0.0470), (1, 2, 0.4930, 0.2511), (2, 3, 0.3660, 0.1864),
    (3, 4, 0.3811, 0.1941), (4, 5, 0.8190, 0.7070), (5, 6, 0.1872, 0.6188),
    (6, 7, 0.7114, 0.2351), (7, 8, 1.0300, 0.7400), (8, 9, 1.0440, 0.7400),
    (9, 10, 0.1966, 0.0650), (10, 11, 0.3744, 0.1238), (11, 12, 1.4680, 1.1550),
    (12, 13, 0.5416, 0.7129), (13, 14, 0.5910, 0.5260), (14, 15, 0.7463, 0.5450),
    (15, 16, 1.2890, 1.7210), (16, 17, 0.7320, 0.5740), (1, 18, 0.1640, 0.1565),
    (18, 19, 1.5042, 1.3554), (19, 20, 0.4095, 0.4784), (20, 21, 0.7089, 0.9373),
    (2, 22, 0.4512, 0.3083), (22, 23, 0.8980, 0.7091), (23, 24, 0.8960, 0.7011),
    (5, 25, 0.2030, 0.1034), (25, 26, 0.2842, 0.1447), (26, 27, 1.0590, 0.9337),
    (27, 28, 0.8042, 0.7006), (28, 29, 0.5075, 0.2585), (29, 30, 0.9744, 0.9630),
    (30, 31, 0.3105, 0.3619), (31, 32, 0.3410, 0.5302),
]

# peak loads (kW, kvar) per bus, bus 0 is the slack / grid interface
BW33_LOADS = {
    1: (100, 60), 2: (90, 40), 3: (120, 80), 4: (60, 30), 5: (60, 20),
    6: (200, 100), 7: (200, 100), 8: (60, 20), 9: (60, 20), 10: (45, 30),
    11: (60, 35), 12: (60, 35), 13: (120, 80), 14: (60, 10), 15: (60, 20),
    16: (60, 20), 17: (90, 40), 18: (90, 40), 19: (90, 40), 20: (90, 40),
    21: (90, 40), 22: (90, 50), 23: (420, 200), 24: (420, 200), 25: (60, 25),
    26: (60, 25), 27: (60, 20), 28: (120, 70), 29: (200, 600), 30: (150, 70),
    31: (210, 100), 32: (60, 40),
}

# 8-node heating tree: (from, to, length m, diameter m); flows follow demand.
# Lengths keep the water transit above one hour so transport delays stay
# >= 1 step even at hourly resolution.
HEAT_PIPES = [
    (0, 1, 1100.0, 0.25),
    (1, 2, 1100.0, 0.20),
    (2, 3, 1050.0, 0.15),
    (1, 4, 1200.0, 0.15),
    (4, 5, 1200.0, 0.15),
    (0, 6, 1150.0, 0.20),
    (6, 7, 1200.0, 0.15),
]
PIPE_CONDUCTIVITY = 0.25          # W/(m K), insulated pipe

# peak heat demand (MW) per load node; nodes 0, 1, 4 carry no load
HEAT_PEAKS = {2: 0.5, 3: 0.6, 5: 0.7, 6: 0.5, 7: 0.7}
DESIGN_DELTA_T = 30.0             # K across the load heat exchangers

PV_UNITS = [("pv_12", 11, 1.2), ("pv_30", 29, 1.5)]   # name, bus, peak pu

LOAD_WIDTH = 0.03                 # electric-load interval half-width (relative)
PV_WIDTH = 0.20                   # PV interval half-width (relative)
HEAT_WIDTH = 0.04                 # heat-load interval half-width (relative)


def _hours(horizon: int, step_seconds: float) -> np.ndarray:
    return np.arange(horizon) * step_seconds / 3600.0


def electric_profile(hours: np.ndarray) -> np.ndarray:
    """Relative electric demand: morning and evening shoulders, low night."""
    h = np.mod(hours, 24.0)
    return 0.75 - 0.15 * np.cos(2 * np.pi * h / 24.0) - 0.10 * np.cos(4 * np.pi * h / 24.0)

def heat_profile(hours: np.ndarray) -> np.ndarray:
    """Relative heat demand: peaks at night, dips at noon."""
    h = np.mod(hours, 24.0)
    return 0.75 + 0.25 * np.cos(2 * np.pi * h / 24.0)


def pv_profile(hours: np.ndarray) -> np.ndarray:
    """Relative PV output: zero at night, bell-shaped peak at noon."""
    h = np.mod(hours, 24.0)
    s = np.sin(np.pi * (h - 6.0) / 12.0)
    return np.where((h > 6.0) & (h < 18.0), s**2, 0.0)


def price_profile(hours: np.ndarray) -> np.ndarray:
    """Electricity price in $/MWh: base 35, daytime adder up to 30."""
    h = np.mod(hours, 24.0)
    bump = np.sin(np.pi * (h - 7.0) / 13.0)
    return 35.0 + 30.0 * np.where((h > 7.0) & (h < 20.0), bump**2, 0.0)


def reference_document(horizon: int = 288, step_seconds: float = 300.0) -> dict:
    """The reference system as a plain config document."""
    hours = _hours(horizon, step_seconds)
    dt_h = step_seconds / 3600.0

    f_elec = electric_profile(hours)
    f_heat = heat_profile(hours)
    f_pv = pv_profile(hours)
    price = price_profile(hours) * dt_h

    buses = [{"id": i, "v_min": 0.90, "v_max": 1.05} for i in range(33)]
    branches = []
    for f, t, r, x in BW33_BRANCHES:
        branches.append(
            {
                "from": f, "to": t,
                "r": round(r / Z_BASE, 12), "x": round(x / Z_BASE, 12),
                "flow_max": 8.0 if f == 0 else 5.0,
            }
        )

    c_w = 4182.0
    outflow = {n: peak * 1e6 / (c_w * DESIGN_DELTA_T) for n, peak in HEAT_PEAKS.items()}
    inflow_root = sum(outflow.values())
    nodes = []
    for n in range(8):
        nodes.append(
            {
                "id": n,
                "ts_min": 55.0, "ts_max": 98.0,
                "tr_min": 22.0, "tr_max": 62.0,
                "inflow_kg_s": round(inflow_root, 9) if n == 0 else 0.0,
                "outflow_kg_s": round(outflow.get(n, 0.0), 9),
            }
        )

    # each pipe carries the total demand of its downstream subtree
    children: dict[int, list[int]] = {n: [] for n in range(8)}
    for f, t, *_ in HEAT_PIPES:
        children[f].append(t)

    def subtree_flow(node: int) -> float:
        return outflow.get(node, 0.0) + sum(subtree_flow(c) for c in children[node])

    pipes = [
        {
            "from": f, "to": t, "length": length, "diameter": dia,
            "conductivity": PIPE_CONDUCTIVITY,
            "mass_flow": round(subtree_flow(t), 9),
        }
        for f, t, length, dia in HEAT_PIPES
    ]

    battery_retention = (1.0 - 5e-4) ** dt_h
    tank_retention = (1.0 - 2e-3) ** dt_h

    doc: dict = {
        "schema_version": 1,
        "base_mva": BASE_MVA,
        "horizon": {"steps": horizon, "step_seconds": step_seconds},
        "electric_network": {
            "slack_bus": 0,
            "slack_voltage": 1.0,
            "buses": buses,
            "branches": branches,
        },
        "heat_network": {
            "water": {"density": 1000.0, "heat_capacity": c_w},
            "ground_temperature": 5.0,
            "initial_supply_temperature": 82.0,
            "initial_return_temperature": 50.0,
            "nodes": nodes,
            "pipes": pipes,
        },
        "chp_units": [
            {
                "name": "chp_main", "bus": 5, "heat_node": 0,
                "power_to_heat": 1.3,
                "p_min": 0.8, "p_max": 2.0, "q_min": -1.0, "q_max": 1.0,
                "ramp_p": 0.6, "ramp_q": 0.6,
                "cost": 45.0 * dt_h,
            }
        ],
        "heat_pumps": [
            {
                "name": "hp_plant", "bus": 13, "heat_node": 0,
                "power_to_heat": 4.0, "power_factor": 0.95,
                "p_min": 0.0, "p_max": 0.6, "ramp_p": 0.3,
                "cost": 5.0 * dt_h,
            }
        ],
        "batteries": [
            {
                "name": "bat_10", "bus": 9,
                "retention": battery_retention,
                "eta_charge": 0.95, "eta_discharge": 0.95,
                "capacity": 15.0,
                "e_min": 0.10, "e_max": 0.90, "e_initial": 0.50,
                "p_min": -3.0, "p_max": 3.0, "ramp_p": 1.8,
                "cost": 4.0 * dt_h,
            }
        ],
        "thermal_tanks": [
            {
                "name": "tank_hub", "heat_node": 1,
                "retention": tank_retention,
                "eta_charge": 0.98, "eta_discharge": 0.98,
                "capacity": 12.0,
                "e_min": 0.05, "e_max": 0.95, "e_initial": 0.50,
                "h_min": -2.0, "h_max": 2.0, "ramp_h": 1.2,
                "cost": 2.0 * dt_h,
            }
        ],
        "pv_units": [{"name": name, "bus": bus} for name, bus, _ in PV_UNITS],
        "grid": {
            "bus": 0,
            "p_min": -3.0, "p_max": 6.0, "q_min": -3.0, "q_max": 3.0,
            "price": [round(float(v), 12) for v in price],
        },
    }

    forecasts: dict = {"pv": {}, "electric_load_p": {}, "electric_load_q": {}, "heat_load": {}}
    for name, _, peak in PV_UNITS:
        center = peak * f_pv
        width = PV_WIDTH * center
        forecasts["pv"][name] = _interval(center, width)
    for bus, (p_kw, q_kvar) in BW33_LOADS.items():
        p = p_kw / 1e3 / BASE_MVA * f_elec
        q = q_kvar / 1e3 / BASE_MVA * f_elec
        forecasts["electric_load_p"][str(bus)] = _interval(p, LOAD_WIDTH * p)
        forecasts["electric_load_q"][str(bus)] = _interval(q, LOAD_WIDTH * q)
    for node, peak in HEAT_PEAKS.items():
        h = peak * f_heat
        forecasts["heat_load"][str(node)] = _interval(h, HEAT_WIDTH * h)
    doc["forecasts"] = forecasts
    return doc


def _interval(center: np.ndarray, width: np.ndarray) -> dict:
    # Python's round on Python floats: np.round rounds some values differently
    return {
        key: [round(v, 12) for v in values.tolist()]
        for key, values in (("min", center - width), ("center", center), ("max", center + width))
    }


def build_reference_system(horizon: int = 288, step_seconds: float = 300.0) -> SystemModel:
    """Load the bundled reference system at the requested resolution."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if step_seconds <= 0:
        raise ValueError(f"step_seconds must be > 0, got {step_seconds}")
    return load_system(reference_document(horizon, step_seconds))
