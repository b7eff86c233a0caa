"""Domain model for a combined heat-and-power system.

All electrical quantities are per-unit on the system MVA base, thermal
quantities are in MW, temperatures in degC, mass flow in kg/s.  Storage
levels are fractions of the device capacity.  Models are immutable after
construction; validation is collected through :func:`validate_system`
rather than raised piecemeal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ChpUnit",
    "HeatPump",
    "BatteryUnit",
    "ThermalTank",
    "PvUnit",
    "GridConnection",
    "Branch",
    "ElectricNetwork",
    "HeatPipe",
    "HeatNetwork",
    "ForecastSeries",
    "SystemModel",
    "Diagnostic",
    "validate_system",
]


def _arr(values: Sequence[float] | np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ChpUnit:
    """Back-pressure unit: heat output is power_to_heat * electric output."""

    name: str
    bus: int
    heat_node: int
    power_to_heat: float
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    ramp_p: float
    ramp_q: float
    cost: float


@dataclass(frozen=True)
class HeatPump:
    name: str
    bus: int
    heat_node: int
    power_to_heat: float
    power_factor: float
    p_min: float
    p_max: float
    ramp_p: float
    cost: float

    @property
    def reactive_ratio(self) -> float:
        """Reactive draw per unit of active draw at the fixed power factor."""
        return float(np.sqrt(1.0 - self.power_factor**2) / self.power_factor)


@dataclass(frozen=True)
class BatteryUnit:
    """Electric storage; power > 0 charges, sign convention of the balance."""

    name: str
    bus: int
    retention: float          # per-step fraction of energy kept
    eta_charge: float
    eta_discharge: float
    capacity: float           # pu*h
    e_min: float              # fraction of capacity
    e_max: float
    e_initial: float
    p_min: float              # discharge limit (<= 0)
    p_max: float              # charge limit (>= 0)
    ramp_p: float
    cost: float

    @property
    def linear_efficiency(self) -> float:
        """Single efficiency used by the linear model (geometric mean)."""
        return float(np.sqrt(self.eta_charge * self.eta_discharge))


@dataclass(frozen=True)
class ThermalTank:
    name: str
    heat_node: int
    retention: float
    eta_charge: float
    eta_discharge: float
    capacity: float           # MWh
    e_min: float
    e_max: float
    e_initial: float
    h_min: float              # MW, discharge limit (<= 0)
    h_max: float              # MW, charge limit (>= 0)
    ramp_h: float
    cost: float

    @property
    def linear_efficiency(self) -> float:
        return float(np.sqrt(self.eta_charge * self.eta_discharge))


@dataclass(frozen=True)
class PvUnit:
    name: str
    bus: int


@dataclass(frozen=True)
class GridConnection:
    """Exchange with the main grid at the slack bus."""

    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    price: np.ndarray         # $/pu per step, length = horizon

    def __post_init__(self) -> None:
        object.__setattr__(self, "price", _arr(self.price))


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    resistance: float         # pu
    reactance: float          # pu
    flow_max: float           # pu active power

    @property
    def impedance(self) -> complex:
        return complex(self.resistance, self.reactance)


@dataclass(frozen=True)
class ElectricNetwork:
    """Radial distribution network with a fixed-voltage slack bus."""

    n_bus: int
    slack_bus: int
    slack_voltage: float
    v_min: np.ndarray
    v_max: np.ndarray
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "v_min", _arr(self.v_min))
        object.__setattr__(self, "v_max", _arr(self.v_max))
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    def is_connected(self) -> bool:
        if self.n_bus == 1:
            return True
        adj: dict[int, list[int]] = {i: [] for i in range(self.n_bus)}
        for br in self.branches:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
        seen = {self.slack_bus}
        stack = [self.slack_bus]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.n_bus


@dataclass(frozen=True)
class HeatPipe:
    """Supply-network pipe; the return pipe mirrors it in reverse."""

    from_node: int
    to_node: int
    length: float             # m
    diameter: float           # m
    conductivity: float       # W/(m*K)
    mass_flow: float          # kg/s, constant over the horizon
    cross_section: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass_flow", float(self.mass_flow))
        if self.cross_section == 0.0:
            object.__setattr__(
                self, "cross_section", float(np.pi * self.diameter**2 / 4.0)
            )


@dataclass(frozen=True)
class HeatNetwork:
    """Tree-shaped district heating network under the constant-flow regime."""

    n_node: int
    pipes: tuple[HeatPipe, ...]
    ts_min: np.ndarray
    ts_max: np.ndarray
    tr_min: np.ndarray
    tr_max: np.ndarray
    inflow: np.ndarray        # kg/s injected at each node (sources)
    outflow: np.ndarray       # kg/s drawn at each node (loads)
    ground_temperature: np.ndarray   # degC per step (length 1 = constant)
    initial_supply_temperature: float
    initial_return_temperature: float
    water_density: float = 1000.0    # kg/m^3
    water_heat_capacity: float = 4182.0  # J/(kg*K)

    def __post_init__(self) -> None:
        for name in ("ts_min", "ts_max", "tr_min", "tr_max", "inflow", "outflow"):
            object.__setattr__(self, name, _arr(getattr(self, name)))
        object.__setattr__(
            self, "ground_temperature", _arr(np.atleast_1d(self.ground_temperature))
        )
        object.__setattr__(self, "pipes", tuple(self.pipes))

    @property
    def n_pipe(self) -> int:
        return len(self.pipes)

    def pipe_mass(self, pipe: HeatPipe) -> float:
        return float(np.pi * pipe.length * pipe.diameter**2 * self.water_density / 4.0)

    def ground_at(self, t: int) -> float:
        g = self.ground_temperature
        return float(g[min(t, len(g) - 1)])

    def children(self) -> dict[int, list[int]]:
        """Node -> outgoing pipe indices in the supply orientation."""
        out: dict[int, list[int]] = {i: [] for i in range(self.n_node)}
        for j, p in enumerate(self.pipes):
            out[p.from_node].append(j)
        return out

    def parent_pipe(self) -> dict[int, int | None]:
        """Node -> incoming supply pipe index (None for roots)."""
        par: dict[int, int | None] = {i: None for i in range(self.n_node)}
        for j, p in enumerate(self.pipes):
            if par[p.to_node] is not None:
                raise ValueError(f"heat node {p.to_node} has two supply parents")
            par[p.to_node] = j
        return par

    def is_tree(self) -> bool:
        if self.n_node == 0:
            return True
        if self.n_pipe != self.n_node - 1:
            return False
        try:
            par = self.parent_pipe()
        except ValueError:
            return False
        roots = [i for i, p in par.items() if p is None]
        if len(roots) != 1:
            return False
        seen = {roots[0]}
        stack = [roots[0]]
        ch = self.children()
        while stack:
            for j in ch[stack.pop()]:
                node = self.pipes[j].to_node
                if node in seen:
                    return False
                seen.add(node)
                stack.append(node)
        return len(seen) == self.n_node


@dataclass(frozen=True)
class ForecastSeries:
    """Prediction intervals (lower, center, upper) for every uncertain input.

    Shapes: pv_* is (n_pv, T); p_load_* / q_load_* are (n_bus, T);
    heat_load_* is (n_heat_node, T).
    """

    pv_min: np.ndarray
    pv_center: np.ndarray
    pv_max: np.ndarray
    p_load_min: np.ndarray
    p_load_center: np.ndarray
    p_load_max: np.ndarray
    q_load_min: np.ndarray
    q_load_center: np.ndarray
    q_load_max: np.ndarray
    heat_load_min: np.ndarray
    heat_load_center: np.ndarray
    heat_load_max: np.ndarray

    def __post_init__(self) -> None:
        for f in self.__dataclass_fields__:
            object.__setattr__(self, f, _arr(np.atleast_2d(getattr(self, f))))

    def blocks(self) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
        return [
            ("pv", self.pv_min, self.pv_center, self.pv_max),
            ("electric_load_p", self.p_load_min, self.p_load_center, self.p_load_max),
            ("electric_load_q", self.q_load_min, self.q_load_center, self.q_load_max),
            ("heat_load", self.heat_load_min, self.heat_load_center, self.heat_load_max),
        ]


@dataclass(frozen=True)
class SystemModel:
    """Complete physical description of the system over one dispatch horizon."""

    base_mva: float
    horizon: int              # number of steps T
    step_seconds: float
    chp_units: tuple[ChpUnit, ...]
    heat_pumps: tuple[HeatPump, ...]
    batteries: tuple[BatteryUnit, ...]
    tanks: tuple[ThermalTank, ...]
    pv_units: tuple[PvUnit, ...]
    grid: GridConnection
    electric: ElectricNetwork
    heat: HeatNetwork
    forecasts: ForecastSeries

    def __post_init__(self) -> None:
        for name in ("chp_units", "heat_pumps", "batteries", "tanks", "pv_units"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def step_hours(self) -> float:
        return self.step_seconds / 3600.0

    def equals(self, other: "SystemModel") -> bool:
        """Field-by-field equality, tolerant of numpy array fields."""
        return _equal_tree(self, other)


def _equal_tree(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal_tree(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return all(
            _equal_tree(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    return a == b


@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant: where it happened and what is wrong."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _check_interval(diags: list[Diagnostic], path: str, lo: float, hi: float) -> None:
    if not lo <= hi:
        diags.append(Diagnostic(path, f"lower bound {lo} exceeds upper bound {hi}"))


def _check_number(
    diags: list[Diagnostic], path: str, name: str, value, sign: str = ""
) -> None:
    """Refuse a setting by name unless it (every entry of a series) is
    finite and, for a ``sign`` of "> 0" or ">= 0", has that sign."""
    values = np.atleast_1d(np.asarray(value, dtype=float))
    # "not x > 0" refuses NaN too, which fails every comparison
    wrong = {"": np.zeros(values.shape, bool), "> 0": ~(values > 0), ">= 0": ~(values >= 0)}[sign]
    if wrong.any():
        diags.append(Diagnostic(path, f"{name} must be {sign}, got {values[wrong][0]}"))
    elif not np.all(np.isfinite(values)):
        got = values[~np.isfinite(values)][0]
        diags.append(Diagnostic(path, f"{name} must be finite, got {got}"))


def validate_system(model: SystemModel) -> list[Diagnostic]:
    """Collect every violated invariant; an empty list means a valid model."""
    d: list[Diagnostic] = []
    T = model.horizon

    if T < 1:
        d.append(Diagnostic("horizon", f"must be >= 1, got {T}"))
    # the checks read "not x > 0": NaN fails every comparison, so it is refused
    if not model.step_seconds > 0:
        d.append(Diagnostic("step_seconds", f"must be > 0, got {model.step_seconds}"))
    elif not np.isfinite(model.step_seconds):
        d.append(Diagnostic("step_seconds", f"must be finite, got {model.step_seconds}"))
    if not model.base_mva > 0:
        d.append(Diagnostic("base_mva", f"must be > 0, got {model.base_mva}"))
    elif not np.isfinite(model.base_mva):
        d.append(Diagnostic("base_mva", f"must be finite, got {model.base_mva}"))

    for kind in ("chp_units", "heat_pumps", "batteries", "tanks", "pv_units"):
        for name, uses in Counter(unit.name for unit in getattr(model, kind)).items():
            if uses > 1:
                d.append(Diagnostic(f"{kind}[{name}]", f"name used by {uses} entries"))

    net = model.electric
    heat = model.heat

    def check_bus(path: str, bus: int) -> None:
        if not 0 <= bus < net.n_bus:
            d.append(Diagnostic(path, f"references bus {bus} of a {net.n_bus}-bus network"))

    def check_node(path: str, node: int) -> None:
        if not 0 <= node < heat.n_node:
            d.append(
                Diagnostic(path, f"references heat node {node} of a {heat.n_node}-node network")
            )

    for c in model.chp_units:
        p = f"chp_units[{c.name}]"
        check_bus(p, c.bus)
        check_node(p, c.heat_node)
        _check_interval(d, p + ".p", c.p_min, c.p_max)
        _check_interval(d, p + ".q", c.q_min, c.q_max)
        if not c.power_to_heat > 0:
            d.append(Diagnostic(p, f"power_to_heat must be > 0, got {c.power_to_heat}"))
        for ramp in ("ramp_p", "ramp_q"):
            if not getattr(c, ramp) >= 0:
                d.append(Diagnostic(p, f"{ramp} must be >= 0, got {getattr(c, ramp)}"))
        _check_number(d, p, "cost", c.cost)

    for h in model.heat_pumps:
        p = f"heat_pumps[{h.name}]"
        check_bus(p, h.bus)
        check_node(p, h.heat_node)
        _check_interval(d, p + ".p", h.p_min, h.p_max)
        if not 0 < h.power_factor <= 1:
            d.append(Diagnostic(p, f"power factor must be in (0, 1], got {h.power_factor}"))
        if not h.power_to_heat > 0:
            d.append(Diagnostic(p, f"power_to_heat must be > 0, got {h.power_to_heat}"))
        if not h.ramp_p >= 0:
            d.append(Diagnostic(p, f"ramp_p must be >= 0, got {h.ramp_p}"))
        _check_number(d, p, "cost", h.cost)

    for kind, units in (("batteries", model.batteries), ("tanks", model.tanks)):
        for s in units:
            p = f"{kind}[{s.name}]"
            if kind == "batteries":
                check_bus(p, s.bus)
            else:
                check_node(p, s.heat_node)
            if not 0 < s.retention <= 1:
                d.append(Diagnostic(p, f"retention must be in (0, 1], got {s.retention}"))
            for eta_name in ("eta_charge", "eta_discharge"):
                eta = getattr(s, eta_name)
                if not 0 < eta <= 1:
                    d.append(Diagnostic(p, f"{eta_name} must be in (0, 1], got {eta}"))
            if not s.capacity > 0:
                d.append(Diagnostic(p, f"capacity must be > 0, got {s.capacity}"))
            _check_interval(d, p + ".e", s.e_min, s.e_max)
            if not s.e_min <= s.e_initial <= s.e_max:
                d.append(
                    Diagnostic(
                        p,
                        f"initial level {s.e_initial} outside energy bounds "
                        f"[{s.e_min}, {s.e_max}]",
                    )
                )
            lo = s.p_min if kind == "batteries" else s.h_min
            hi = s.p_max if kind == "batteries" else s.h_max
            if not lo <= 0 <= hi:
                d.append(Diagnostic(p, f"power bounds [{lo}, {hi}] must bracket zero"))
            ramp = "ramp_p" if kind == "batteries" else "ramp_h"
            if not getattr(s, ramp) >= 0:
                d.append(Diagnostic(p, f"{ramp} must be >= 0, got {getattr(s, ramp)}"))
            _check_number(d, p, "cost", s.cost)

    for pv in model.pv_units:
        check_bus(f"pv_units[{pv.name}]", pv.bus)

    g = model.grid
    check_bus("grid", g.bus)
    if g.bus != net.slack_bus:
        d.append(Diagnostic("grid", f"must sit at the slack bus {net.slack_bus}, got {g.bus}"))
    _check_interval(d, "grid.p", g.p_min, g.p_max)
    _check_interval(d, "grid.q", g.q_min, g.q_max)
    if len(g.price) != T:
        d.append(Diagnostic("grid.price", f"series length {len(g.price)} != horizon {T}"))
    _check_number(d, "grid", "price", g.price)

    # electric network structure
    if not 0 <= net.slack_bus < net.n_bus:
        d.append(Diagnostic("electric.slack_bus", f"bus {net.slack_bus} out of range"))
    _check_number(d, "electric", "slack_voltage", net.slack_voltage, "> 0")
    if net.v_min.shape != (net.n_bus,) or net.v_max.shape != (net.n_bus,):
        d.append(Diagnostic("electric.v_bounds", "per-bus bound arrays must match n_bus"))
    else:
        for i in range(net.n_bus):
            if not net.v_min[i] < net.v_max[i]:
                d.append(
                    Diagnostic(f"electric.bus[{i}]", "requires v_min < v_max")
                )
    for j, br in enumerate(net.branches):
        p = f"electric.branch[{j}]"
        for b in (br.from_bus, br.to_bus):
            if not 0 <= b < net.n_bus:
                d.append(Diagnostic(p, f"references bus {b} of a {net.n_bus}-bus network"))
        if br.from_bus == br.to_bus:
            d.append(Diagnostic(p, "self-loop branch"))
        if not br.flow_max > 0:
            d.append(Diagnostic(p, f"flow_max must be > 0, got {br.flow_max}"))
        _check_number(d, p, "r", br.resistance)
        _check_number(d, p, "x", br.reactance)
    if not net.is_connected():
        d.append(Diagnostic("electric", "network is not connected"))

    # heat network structure
    if heat.n_node > 0:
        if not heat.is_tree():
            d.append(Diagnostic("heat", "supply network must be a tree"))
        _check_number(d, "heat.water", "density", heat.water_density, "> 0")
        _check_number(d, "heat.water", "heat_capacity", heat.water_heat_capacity, "> 0")
        for name in ("ground_temperature", "initial_supply_temperature",
                     "initial_return_temperature"):
            _check_number(d, "heat", name, getattr(heat, name))
        for name in ("ts_min", "ts_max", "tr_min", "tr_max", "inflow", "outflow"):
            if getattr(heat, name).shape != (heat.n_node,):
                d.append(Diagnostic(f"heat.{name}", "length must match n_node"))
        for i in range(heat.n_node):
            _check_interval(d, f"heat.node[{i}].ts", heat.ts_min[i], heat.ts_max[i])
            _check_interval(d, f"heat.node[{i}].tr", heat.tr_min[i], heat.tr_max[i])
        if not (np.all(heat.inflow >= 0) and np.all(heat.outflow >= 0)):
            d.append(Diagnostic("heat", "inflow/outflow mass rates must be >= 0"))
        for j, pipe in enumerate(heat.pipes):
            p = f"heat.pipe[{j}]"
            for n in (pipe.from_node, pipe.to_node):
                if not 0 <= n < heat.n_node:
                    d.append(Diagnostic(p, f"references node {n} of a {heat.n_node}-node network"))
            expected = np.pi * pipe.diameter**2 / 4.0
            if not abs(pipe.cross_section - expected) <= 1e-9 * max(expected, 1e-30):
                d.append(
                    Diagnostic(p, f"cross_section {pipe.cross_section} != pi*D^2/4 = {expected}")
                )
            if not pipe.mass_flow > 0:
                d.append(Diagnostic(
                    p, f"mass_flow must stay > 0 (constant-flow regime), got {pipe.mass_flow}"
                ))
            _check_number(d, p, "length", pipe.length, ">= 0")
            _check_number(d, p, "conductivity", pipe.conductivity, ">= 0")
        if heat.is_tree():
            d.extend(_check_heat_mass_balance(heat))

    # forecasts
    fc = model.forecasts
    expected_rows = {
        "pv": len(model.pv_units),
        "electric_load_p": net.n_bus,
        "electric_load_q": net.n_bus,
        "heat_load": heat.n_node,
    }
    for name, lo, mid, hi in fc.blocks():
        rows = expected_rows[name]
        for label, a in (("min", lo), ("center", mid), ("max", hi)):
            if a.shape != (rows, T) and not (rows == 0 and a.size == 0):
                d.append(
                    Diagnostic(
                        f"forecasts.{name}.{label}",
                        f"shape {a.shape} != ({rows}, {T})",
                    )
                )
        if lo.shape == mid.shape == hi.shape and lo.size:
            bad = np.argwhere(~((lo <= mid + 1e-12) & (mid <= hi + 1e-12)))
            for row, t in bad[:8]:
                d.append(
                    Diagnostic(
                        f"forecasts.{name}[{row}]",
                        f"interval ordering min <= center <= max violated at t={t}",
                    )
                )
    return d


def _check_heat_mass_balance(heat: HeatNetwork) -> list[Diagnostic]:
    """Supply-side mass balance per node: parent + inflow = children + outflow."""
    out: list[Diagnostic] = []
    par = heat.parent_pipe()
    ch = heat.children()
    for i in range(heat.n_node):
        inflow = heat.inflow[i]
        if par[i] is not None:
            inflow += heat.pipes[par[i]].mass_flow
        outflow = heat.outflow[i]
        for j in ch[i]:
            outflow += heat.pipes[j].mass_flow
        if abs(inflow - outflow) > 1e-6:
            out.append(Diagnostic(f"heat.node[{i}]", f"mass imbalance {inflow - outflow:+.3e} kg/s"))
    return out
