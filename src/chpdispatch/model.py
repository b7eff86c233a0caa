"""Domain model for a combined heat-and-power system.

All electrical quantities are per-unit on the system MVA base, thermal
quantities are in MW, temperatures in degC, mass flow in kg/s.  Storage
levels are fractions of the device capacity.  Models are immutable after
construction; validation is collected through :func:`validate_system`
rather than raised piecemeal.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Mapping, Sequence

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


def _field(domain: str = "finite", key: str | None = None, absent=None, **kwargs):
    """A checked field: the domain of its values (see ``_DOMAINS``, or a
    "bus" or "heat node" reference), its document key where that is not
    the field name (see ``layout``), and its value where the document
    omits it (None: the key is required; a dataclass ``default`` is that
    value too)."""
    absent = kwargs.get("default", absent)
    return field(metadata={"domain": domain, "key": key, "absent": absent}, **kwargs)


@cache
def layout(cls: type) -> tuple[tuple[str, str, str, str, bool, Mapping], ...]:
    """(field, annotation, head, key, column, metadata) of each field of
    ``cls``: where its ``key`` metadata, else its name, puts it in its
    record's document entry.  A key ``water.density`` is ``density`` in the
    child mapping ``water``, and ``buses[].v_min`` the column ``v_min`` of
    the list ``buses`` of rows indexed by their ``id`` (a key ``buses[]``
    names its row count)."""
    out = []
    for f in fields(cls):
        full = f.metadata.get("key") or f.name
        head, column, key = full.partition("[]")
        if not column:
            head, _, key = full.rpartition(".")
        out.append((f.name, f.type, head, key.lstrip("."), bool(column), f.metadata))
    return tuple(out)


def _arr(values: Sequence[float] | np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ChpUnit:
    """Back-pressure unit: heat output is power_to_heat * electric output."""

    name: str
    bus: int = _field("bus")
    heat_node: int = _field("heat node")
    power_to_heat: float = _field("> 0")
    p_min: float = _field("limit")
    p_max: float = _field("limit")
    q_min: float = _field("limit")
    q_max: float = _field("limit")
    ramp_p: float = _field(">= 0, inf allowed")
    ramp_q: float = _field(">= 0, inf allowed")
    cost: float = _field()


@dataclass(frozen=True)
class HeatPump:
    name: str
    bus: int = _field("bus")
    heat_node: int = _field("heat node")
    power_to_heat: float = _field("> 0")
    power_factor: float = _field("(0, 1]")
    p_min: float = _field("limit")
    p_max: float = _field("limit")
    ramp_p: float = _field(">= 0, inf allowed")
    cost: float = _field()

    @property
    def reactive_ratio(self) -> float:
        """Reactive draw per unit of active draw at the fixed power factor."""
        return float(np.sqrt(1.0 - self.power_factor**2) / self.power_factor)


@dataclass(frozen=True)
class BatteryUnit:
    """Electric storage; power > 0 charges, sign convention of the balance."""

    name: str
    bus: int = _field("bus")
    retention: float = _field("(0, 1]")         # per-step fraction of energy kept
    eta_charge: float = _field("(0, 1]")
    eta_discharge: float = _field("(0, 1]")
    capacity: float = _field("> 0")             # pu*h
    e_min: float = _field("limit")              # fraction of capacity
    e_max: float = _field("limit")
    e_initial: float = _field()
    p_min: float = _field("limit")              # discharge limit (<= 0)
    p_max: float = _field("limit")              # charge limit (>= 0)
    ramp_p: float = _field(">= 0, inf allowed")
    cost: float = _field()

    @property
    def linear_efficiency(self) -> float:
        """Single efficiency used by the linear model (geometric mean)."""
        return float(np.sqrt(self.eta_charge * self.eta_discharge))


@dataclass(frozen=True)
class ThermalTank:
    name: str
    heat_node: int = _field("heat node")
    retention: float = _field("(0, 1]")
    eta_charge: float = _field("(0, 1]")
    eta_discharge: float = _field("(0, 1]")
    capacity: float = _field("> 0")             # MWh
    e_min: float = _field("limit")
    e_max: float = _field("limit")
    e_initial: float = _field()
    h_min: float = _field("limit")              # MW, discharge limit (<= 0)
    h_max: float = _field("limit")              # MW, charge limit (>= 0)
    ramp_h: float = _field(">= 0, inf allowed")
    cost: float = _field()

    @property
    def linear_efficiency(self) -> float:
        return float(np.sqrt(self.eta_charge * self.eta_discharge))


@dataclass(frozen=True)
class PvUnit:
    name: str
    bus: int = _field("bus")


@dataclass(frozen=True)
class GridConnection:
    """Exchange with the main grid at the slack bus."""

    bus: int = _field("bus")
    p_min: float = _field("limit")
    p_max: float = _field("limit")
    q_min: float = _field("limit")
    q_max: float = _field("limit")
    price: np.ndarray = _field()    # $/pu per step, length = horizon

    def __post_init__(self) -> None:
        object.__setattr__(self, "price", _arr(self.price))


@dataclass(frozen=True)
class Branch:
    from_bus: int = _field("bus", "from")
    to_bus: int = _field("bus", "to")
    resistance: float = _field(key="r")         # pu
    reactance: float = _field(key="x")          # pu
    flow_max: float = _field("> 0, inf allowed")   # pu active power

    @property
    def impedance(self) -> complex:
        return complex(self.resistance, self.reactance)


@dataclass(frozen=True)
class ElectricNetwork:
    """Radial distribution network with a fixed-voltage slack bus."""

    n_bus: int = field(metadata={"key": "buses[]"})
    slack_bus: int = _field("bus", absent=0)
    slack_voltage: float = _field("> 0", absent=1.0)
    v_min: np.ndarray = _field("limit", "buses[].v_min", absent=0.9)
    v_max: np.ndarray = _field("limit", "buses[].v_max", absent=1.1)
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
        # a bus id out of range (a diagnostic of its own) is a node too
        adj: defaultdict[int, list[int]] = defaultdict(list)
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
        return seen >= set(range(self.n_bus))


@dataclass(frozen=True)
class HeatPipe:
    """Supply-network pipe; the return pipe mirrors it in reverse."""

    from_node: int = _field("heat node", "from")
    to_node: int = _field("heat node", "to")
    length: float = _field(">= 0")              # m
    diameter: float = _field("> 0")             # m
    conductivity: float = _field(">= 0")        # W/(m*K)
    mass_flow: float = _field("> 0 (constant-flow regime)")   # kg/s, constant over the horizon
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

    n_node: int = field(metadata={"key": "nodes[]"})
    pipes: tuple[HeatPipe, ...]
    ts_min: np.ndarray = _field("limit", "nodes[].ts_min")
    ts_max: np.ndarray = _field("limit", "nodes[].ts_max")
    tr_min: np.ndarray = _field("limit", "nodes[].tr_min")
    tr_max: np.ndarray = _field("limit", "nodes[].tr_max")
    # kg/s injected at each node (sources) and drawn at each node (loads)
    inflow: np.ndarray = _field(">= 0", "nodes[].inflow_kg_s", absent=0.0)
    outflow: np.ndarray = _field(">= 0", "nodes[].outflow_kg_s", absent=0.0)
    ground_temperature: np.ndarray = _field(absent=10.0)   # degC per step (length 1 = constant)
    initial_supply_temperature: float = _field(absent=80.0)
    initial_return_temperature: float = _field(absent=50.0)
    water_density: float = _field("> 0", "water.density", default=1000.0)   # kg/m^3
    water_heat_capacity: float = _field("> 0", "water.heat_capacity", default=4182.0)  # J/(kg*K)

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
        ends = {n for p in self.pipes for n in (p.from_node, p.to_node)}
        if self.n_pipe != self.n_node - 1 or not ends <= set(range(self.n_node)):
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

    pv_min: np.ndarray = _field(key="pv.min")
    pv_center: np.ndarray = _field(key="pv.center")
    pv_max: np.ndarray = _field(key="pv.max")
    p_load_min: np.ndarray = _field(key="electric_load_p.min")
    p_load_center: np.ndarray = _field(key="electric_load_p.center")
    p_load_max: np.ndarray = _field(key="electric_load_p.max")
    q_load_min: np.ndarray = _field(key="electric_load_q.min")
    q_load_center: np.ndarray = _field(key="electric_load_q.center")
    q_load_max: np.ndarray = _field(key="electric_load_q.max")
    heat_load_min: np.ndarray = _field(key="heat_load.min")
    heat_load_center: np.ndarray = _field(key="heat_load.center")
    heat_load_max: np.ndarray = _field(key="heat_load.max")

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

    base_mva: float = _field("> 0", absent=1.0)
    horizon: int = _field(">= 1")       # number of steps T
    step_seconds: float = _field("> 0")
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


# domain -> (the test a value passes, what one that fails "must" do).  A
# value that passes must also be finite unless its domain allows infinity.
# A "limit" may be infinite and is left to its pair's check, which
# refuses NaN, as every comparison does.
_DOMAINS = {
    "finite": (lambda v: True, ""),
    "> 0": (lambda v: v > 0, "be > 0"),
    ">= 0": (lambda v: v >= 0, "be >= 0"),
    ">= 1": (lambda v: v >= 1, "be >= 1"),
    "(0, 1]": (lambda v: 0 < v <= 1, "be in (0, 1]"),
    "> 0, inf allowed": (lambda v: v > 0, "be > 0"),
    ">= 0, inf allowed": (lambda v: v >= 0, "be >= 0"),
    "> 0 (constant-flow regime)": (lambda v: v > 0, "stay > 0 (constant-flow regime)"),
}


@cache
def _declared(cls: type):
    """(field, head, key, column, domain) of each field of ``cls`` to check
    against its domain (see ``layout``), and the _min and the _max field
    of each of its limit pairs <stem>_min <= <stem>_max."""
    checked = [(name, head, key, column, meta["domain"])
               for name, _, head, key, column, meta in layout(cls) if "domain" in meta]
    limits = {c[2]: c for c in checked if c[4] == "limit"}
    pairs = [(lo, limits[hi]) for key, lo in limits.items()
             if key.endswith("_min") and (hi := key[:-4] + "_max") in limits]
    return tuple(c for c in checked if c[4] != "limit"), tuple(pairs)


def _entries(value, column: bool):
    """(row, value) of each entry of a field: a column's one per row of
    its list, any other field whole (row None)."""
    return enumerate(value.tolist()) if column else ((None, value),)


def _fault(domain: str, value, refs: dict[str, int]) -> str | None:
    """Why ``value`` (an entry of an array) is outside ``domain``, or None."""
    if isinstance(value, np.ndarray):
        # the extremes fail wherever an entry does; a NaN is the minimum
        if not value.size:
            return None
        return _fault(domain, float(value.min()), refs) or _fault(domain, float(value.max()), refs)
    if domain in refs:
        n = refs[domain]
        if 0 <= value < n:
            return None
        return f"references {domain} {value} of a {n}-{domain.split()[-1]} network"
    test, must = _DOMAINS[domain]
    if not test(value):
        return f"must {must}, got {value}"
    if not (math.isfinite(value) or domain.endswith("inf allowed")):
        return f"must be finite, got {value}"
    return None


def _check_fields(d: list[Diagnostic], refs: dict[str, int], path: str, record) -> None:
    """Check each declared field of ``record`` against its domain, and each
    pair of its limits.  At the root a fault is reported at its key;
    elsewhere at ``path``, extended by a dotted key's head or by a
    column's row, as "<key> must ..."."""
    checked, pairs = _declared(type(record))

    def where(head: str, row: int | None) -> str:
        place = f"{path}.{head}" if head else path
        return place if row is None else f"{place}[{row}]"

    for name, head, key, column, domain in checked:
        for row, value in _entries(getattr(record, name), column):
            fault = _fault(domain, value, refs)
            if fault is not None:
                place = where(head, row)
                d.append(Diagnostic(place, f"{key} {fault}") if place else Diagnostic(key, fault))
    for (lo, head, lo_key, column, _), (hi, _, hi_key, _, _) in pairs:
        highs = _entries(getattr(record, hi), column)
        for (row, a), (_, b) in zip(_entries(getattr(record, lo), column), highs):
            if not a <= b:
                d.append(Diagnostic(where(head, row), f"{lo_key} {a} exceeds {hi_key} {b}"))


def validate_system(model: SystemModel) -> list[Diagnostic]:
    """Collect every violated invariant; an empty list means a valid model.

    Every record's declared fields are checked against their domains, and
    its limit pairs for order; the checks written out here relate other
    fields to each other."""
    d: list[Diagnostic] = []
    T = model.horizon
    net = model.electric
    heat = model.heat
    refs = {"bus": net.n_bus, "heat node": heat.n_node}
    _check_fields(d, refs, "", model)

    for kind in ("chp_units", "heat_pumps", "batteries", "tanks", "pv_units"):
        units = getattr(model, kind)
        for name, uses in Counter(unit.name for unit in units).items():
            if uses > 1:
                d.append(Diagnostic(f"{kind}[{name}]", f"name used by {uses} entries"))
        for unit in units:
            _check_fields(d, refs, f"{kind}[{unit.name}]", unit)
    for kind, lo, hi in (("batteries", "p_min", "p_max"), ("tanks", "h_min", "h_max")):
        for s in getattr(model, kind):
            p = f"{kind}[{s.name}]"
            if not s.e_min <= s.e_initial <= s.e_max:
                d.append(Diagnostic(
                    p, f"initial level {s.e_initial} outside energy bounds [{s.e_min}, {s.e_max}]"
                ))
            if not getattr(s, lo) <= 0 <= getattr(s, hi):
                d.append(Diagnostic(
                    p, f"{lo} and {hi} must bracket zero, got [{getattr(s, lo)}, {getattr(s, hi)}]"
                ))

    g = model.grid
    _check_fields(d, refs, "grid", g)
    if g.bus != net.slack_bus:
        d.append(Diagnostic("grid", f"must sit at the slack bus {net.slack_bus}, got {g.bus}"))
    if len(g.price) != T:
        d.append(Diagnostic("grid.price", f"series length {len(g.price)} != horizon {T}"))

    # electric network structure
    _check_fields(d, refs, "electric", net)
    if net.v_min.shape != (net.n_bus,) or net.v_max.shape != (net.n_bus,):
        d.append(Diagnostic("electric.v_bounds", "per-bus bound arrays must match n_bus"))
    for j, br in enumerate(net.branches):
        _check_fields(d, refs, f"electric.branch[{j}]", br)
        if br.from_bus == br.to_bus:
            d.append(Diagnostic(f"electric.branch[{j}]", "self-loop branch"))
    if not net.is_connected():
        d.append(Diagnostic("electric", "network is not connected"))

    # heat network structure
    if heat.n_node > 0:
        _check_fields(d, refs, "heat", heat)
        tree = heat.is_tree()
        if not tree:
            d.append(Diagnostic("heat", "supply network must be a tree"))
        for name in ("ts_min", "ts_max", "tr_min", "tr_max", "inflow", "outflow"):
            if getattr(heat, name).shape != (heat.n_node,):
                d.append(Diagnostic(f"heat.{name}", "length must match n_node"))
        for j, pipe in enumerate(heat.pipes):
            p = f"heat.pipe[{j}]"
            _check_fields(d, refs, p, pipe)
            expected = np.pi * pipe.diameter**2 / 4.0
            if not abs(pipe.cross_section - expected) <= 1e-9 * max(expected, 1e-30):
                d.append(Diagnostic(p, f"cross_section {pipe.cross_section} != pi*D^2/4 = {expected}"))
        if tree:
            d.extend(_check_heat_mass_balance(heat))

    # forecasts
    fc = model.forecasts
    _check_fields(d, refs, "forecasts", fc)
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
                d.append(Diagnostic(f"forecasts.{name}.{label}", f"shape {a.shape} != ({rows}, {T})"))
        if lo.shape == mid.shape == hi.shape and lo.size:
            bad = np.argwhere(~((lo <= mid + 1e-12) & (mid <= hi + 1e-12)))
            for row, t in bad[:8]:
                d.append(Diagnostic(f"forecasts.{name}[{row}]",
                                    f"interval ordering min <= center <= max violated at t={t}"))
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
            out.append(Diagnostic(f"heat.nodes[{i}]", f"mass imbalance {inflow - outflow:+.3e} kg/s"))
    return out
