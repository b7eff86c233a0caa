"""Config-document ingestion and serialization.

A system is described by one human-readable YAML/JSON document (see
``docs/config-schema.md`` in the repository root for the field reference).
``load_system`` accepts a file path or an already-parsed mapping and returns
a fully validated :class:`~chpdispatch.model.SystemModel`; ``dump_system``
is its exact inverse (round-trips are field-identical).  Documents are
written as JSON, which is also YAML.

The CHP, heat-pump, battery, tank, PV, grid, branch and pipe records are
written from their model dataclass's fields, the one list of their keys (a
field's ``key`` metadata where the key is not its name), and all but the
pipes are read so too: a pipe's ``mass_flow`` may be a constant series and
its ``cross_section`` defaults to pi D^2 / 4.  The buses, nodes, water and
forecasts have document forms of their own.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Mapping

import numpy as np
import yaml

from .model import (
    BatteryUnit,
    Branch,
    ChpUnit,
    Diagnostic,
    ElectricNetwork,
    ForecastSeries,
    GridConnection,
    HeatNetwork,
    HeatPipe,
    HeatPump,
    PvUnit,
    SystemModel,
    ThermalTank,
    document_key,
    validate_system,
)

SCHEMA_VERSION = 1

# libyaml's C parser when PyYAML was built with it; the pure-Python class
# reads the same documents, only slower
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

__all__ = [
    "ConfigError",
    "ModelValidationError",
    "load_system",
    "dump_system",
    "document_text",
    "SCHEMA_VERSION",
]


class ConfigError(ValueError):
    """Malformed config document; ``path`` names the offending entry."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ModelValidationError(ValueError):
    """A structurally well-formed document that violates model invariants."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        lines = "\n".join(f"  - {d}" for d in diagnostics)
        super().__init__(f"system model failed validation:\n{lines}")


class _Reader:
    """Cursor into the document tree that reports full paths on errors."""

    def __init__(self, data: Mapping[str, Any], path: str = ""):
        if not isinstance(data, Mapping):
            raise ConfigError(path or "<root>", f"expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path

    def _join(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str) -> "_Reader":
        return _Reader(self.require(key), self._join(key))

    def optional_child(self, key: str) -> "_Reader | None":
        if key not in self.data or self.data[key] is None:
            return None
        return self.child(key)

    def require(self, key: str) -> Any:
        if key not in self.data:
            raise ConfigError(self._join(key), "required field is missing")
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def number(self, key: str, default: float | None = None) -> float:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(self._join(key), "required numeric field is missing")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(self._join(key), f"expected a number, got {val!r}")
        return float(val)

    def integer(self, key: str, default: int | None = None) -> int:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(self._join(key), "required integer field is missing")
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(self._join(key), f"expected an integer, got {val!r}")
        return val

    def string(self, key: str, default: str | None = None) -> str:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(self._join(key), "required string field is missing")
        if not isinstance(val, str):
            raise ConfigError(self._join(key), f"expected a string, got {val!r}")
        return val

    def series(self, key: str, length: int, default: float | None = None) -> np.ndarray:
        """A scalar (broadcast) or list of exactly ``length`` numbers."""
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(self._join(key), "required series is missing")
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            return np.full(length, float(val))
        if isinstance(val, (list, tuple)):
            if len(val) != length:
                raise ConfigError(
                    self._join(key), f"series length {len(val)} inconsistent with horizon {length}"
                )
            try:
                return np.asarray(val, dtype=float)
            except (TypeError, ValueError):
                raise ConfigError(self._join(key), "series entries must be numbers") from None
        raise ConfigError(self._join(key), f"expected number or list, got {type(val).__name__}")

    def constant(self, key: str, length: int) -> float:
        """A number, or a list of ``length`` equal numbers."""
        if not isinstance(self.get(key), list):
            return self.number(key)
        vals = self.series(key, length)
        if not vals.size or np.any(vals != vals[0]):
            raise ConfigError(
                self._join(key), "must be constant over the horizon (one value, or equal entries)"
            )
        return float(vals[0])

    def items(self, key: str) -> list["_Reader"]:
        val = self.data.get(key, [])
        if val is None:
            val = []
        if not isinstance(val, (list, tuple)):
            raise ConfigError(self._join(key), "expected a list")
        return [_Reader(v, f"{self._join(key)}[{i}]") for i, v in enumerate(val)]


def load_system(source: str | os.PathLike | Mapping[str, Any]) -> SystemModel:
    """Build a validated SystemModel from a file path or in-memory document."""
    if isinstance(source, Mapping):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            # JSON is YAML, and json reads it without PyYAML's per-scalar
            # Python constructor; every other document, and every syntax
            # error, is left to the YAML parser
            doc = json.loads(text, parse_constant=_not_yaml_number)
        except ValueError:
            try:
                doc = yaml.load(text, Loader=SAFE_LOADER)
            except yaml.YAMLError as exc:
                raise _syntax_error(source, exc) from None
        if not isinstance(doc, Mapping):
            raise ConfigError("<root>", "document must be a mapping")
    model = _parse(doc)
    diags = validate_system(model)
    if diags:
        raise ModelValidationError(diags)
    return model


def _not_yaml_number(token: str) -> float:
    """Refuse JSON's NaN and Infinity: YAML reads them as strings."""
    raise ValueError(f"{token} is a string in YAML")


def _syntax_error(source: str | os.PathLike, exc: yaml.YAMLError) -> ConfigError:
    """A parser error as a ConfigError at file:line:column (1-based)."""
    mark = getattr(exc, "problem_mark", None)
    where = os.fspath(source)
    if mark is not None:
        where = f"{where}:{mark.line + 1}:{mark.column + 1}"
    problem = getattr(exc, "problem", None) or str(exc)
    return ConfigError(where, f"YAML syntax error: {problem}")


def _parse(doc: Mapping[str, Any]) -> SystemModel:
    root = _Reader(doc)
    version = root.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version} (expected {SCHEMA_VERSION})")

    hz = root.child("horizon")
    T = hz.integer("steps")
    dt = hz.number("step_seconds")
    base_mva = root.number("base_mva", 1.0)

    net = _parse_electric(root.child("electric_network"))
    heat_reader = root.optional_child("heat_network")
    heat = _parse_heat(heat_reader, T) if heat_reader else _empty_heat()

    chp = [_record(ChpUnit, r, T) for r in root.items("chp_units")]
    hps = [_record(HeatPump, r, T) for r in root.items("heat_pumps")]
    bats = [_record(BatteryUnit, r, T) for r in root.items("batteries")]
    tanks = [_record(ThermalTank, r, T) for r in root.items("thermal_tanks")]
    pvs = [_record(PvUnit, r, T) for r in root.items("pv_units")]
    grid = _record(GridConnection, root.child("grid"), T)

    forecasts = _parse_forecasts(
        root.optional_child("forecasts"),
        T,
        pv_names=[p.name for p in pvs],
        n_bus=net.n_bus,
        n_heat=heat.n_node,
    )

    return SystemModel(
        base_mva=base_mva,
        horizon=T,
        step_seconds=dt,
        chp_units=tuple(chp),
        heat_pumps=tuple(hps),
        batteries=tuple(bats),
        tanks=tuple(tanks),
        pv_units=tuple(pvs),
        grid=grid,
        electric=net,
        heat=heat,
        forecasts=forecasts,
    )


def _record(cls: type, r: _Reader, length: int) -> Any:
    """A flat record: each dataclass field read under its document key by
    the reader its annotation selects (an array is a series of ``length``)."""
    read = {
        "str": r.string,
        "int": r.integer,
        "float": r.number,
        "np.ndarray": lambda key: r.series(key, length),
    }
    return cls(**{f.name: read[f.type](document_key(f)) for f in dataclasses.fields(cls)})


def _parse_electric(r: _Reader) -> ElectricNetwork:
    buses = r.items("buses")
    if not buses:
        raise ConfigError("electric_network.buses", "at least one bus is required")
    n = len(buses)
    ids = [b.integer("id") for b in buses]
    if sorted(ids) != list(range(n)):
        raise ConfigError("electric_network.buses", f"bus ids must be 0..{n - 1}, got {sorted(ids)}")
    v_min = np.zeros(n)
    v_max = np.zeros(n)
    for b, i in zip(buses, ids):
        v_min[i] = b.number("v_min", 0.9)
        v_max[i] = b.number("v_max", 1.1)
    return ElectricNetwork(
        n_bus=n,
        slack_bus=r.integer("slack_bus", 0),
        slack_voltage=r.number("slack_voltage", 1.0),
        v_min=v_min,
        v_max=v_max,
        branches=tuple(_record(Branch, br, 0) for br in r.items("branches")),
    )


def _empty_heat() -> HeatNetwork:
    z = np.zeros(0)
    return HeatNetwork(
        n_node=0,
        pipes=(),
        ts_min=z,
        ts_max=z,
        tr_min=z,
        tr_max=z,
        inflow=z,
        outflow=z,
        ground_temperature=np.zeros(1),
        initial_supply_temperature=0.0,
        initial_return_temperature=0.0,
    )


def _parse_heat(r: _Reader, T: int) -> HeatNetwork:
    nodes = r.items("nodes")
    n = len(nodes)
    ids = [nd.integer("id") for nd in nodes]
    if sorted(ids) != list(range(n)):
        raise ConfigError("heat_network.nodes", f"node ids must be 0..{n - 1}, got {sorted(ids)}")
    arrays = {k: np.zeros(n) for k in ("ts_min", "ts_max", "tr_min", "tr_max", "inflow", "outflow")}
    for nd, i in zip(nodes, ids):
        arrays["ts_min"][i] = nd.number("ts_min")
        arrays["ts_max"][i] = nd.number("ts_max")
        arrays["tr_min"][i] = nd.number("tr_min")
        arrays["tr_max"][i] = nd.number("tr_max")
        arrays["inflow"][i] = nd.number("inflow_kg_s", 0.0)
        arrays["outflow"][i] = nd.number("outflow_kg_s", 0.0)
    pipes = []
    for p in r.items("pipes"):
        pipes.append(
            HeatPipe(
                from_node=p.integer("from"),
                to_node=p.integer("to"),
                length=p.number("length"),
                diameter=p.number("diameter"),
                conductivity=p.number("conductivity"),
                mass_flow=p.constant("mass_flow", T),
                cross_section=p.number("cross_section", 0.0),
            )
        )
    water = r.optional_child("water")
    density = water.number("density", 1000.0) if water else 1000.0
    heat_capacity = water.number("heat_capacity", 4182.0) if water else 4182.0
    ground = r.series("ground_temperature", T) if isinstance(r.get("ground_temperature"), list) else np.array([r.number("ground_temperature", 10.0)])
    return HeatNetwork(
        n_node=n,
        pipes=tuple(pipes),
        ts_min=arrays["ts_min"],
        ts_max=arrays["ts_max"],
        tr_min=arrays["tr_min"],
        tr_max=arrays["tr_max"],
        inflow=arrays["inflow"],
        outflow=arrays["outflow"],
        ground_temperature=ground,
        initial_supply_temperature=r.number("initial_supply_temperature", 80.0),
        initial_return_temperature=r.number("initial_return_temperature", 50.0),
        water_density=density,
        water_heat_capacity=heat_capacity,
    )


def _parse_forecasts(
    r: _Reader | None, T: int, pv_names: list[str], n_bus: int, n_heat: int
) -> ForecastSeries:
    def block(reader: _Reader | None, key: str, rows: list[str]) -> tuple[np.ndarray, ...]:
        lo = np.zeros((len(rows), T))
        mid = np.zeros((len(rows), T))
        hi = np.zeros((len(rows), T))
        if reader is None:
            return lo, mid, hi
        sub = reader.optional_child(key)
        if sub is None:
            return lo, mid, hi
        for raw_key in sub.data:
            if str(raw_key) not in rows:
                raise ConfigError(
                    f"forecasts.{key}.{raw_key}", f"unknown channel (expected one of {rows})"
                )
        for i, name in enumerate(rows):
            entry = None
            if name in sub.data:
                entry = sub.child(name)
            elif name.isdigit() and int(name) in sub.data:
                entry = _Reader(sub.data[int(name)], f"forecasts.{key}.{name}")
            if entry is None:
                continue
            mid[i] = entry.series("center", T)
            lo[i] = entry.series("min", T) if "min" in entry.data else mid[i]
            hi[i] = entry.series("max", T) if "max" in entry.data else mid[i]
        return lo, mid, hi

    pv = block(r, "pv", pv_names)
    pl = block(r, "electric_load_p", [str(i) for i in range(n_bus)])
    ql = block(r, "electric_load_q", [str(i) for i in range(n_bus)])
    hl = block(r, "heat_load", [str(i) for i in range(n_heat)])
    return ForecastSeries(
        pv_min=pv[0], pv_center=pv[1], pv_max=pv[2],
        p_load_min=pl[0], p_load_center=pl[1], p_load_max=pl[2],
        q_load_min=ql[0], q_load_center=ql[1], q_load_max=ql[2],
        heat_load_min=hl[0], heat_load_center=hl[1], heat_load_max=hl[2],
    )


def dump_system(model: SystemModel, path: str | os.PathLike | None = None) -> dict:
    """Serialize a SystemModel back to the document form (and optionally a file)."""
    doc = _to_document(model)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(document_text(doc))
    return doc


def document_text(doc: Mapping[str, Any]) -> str:
    """JSON text of a config document, keys in document order.

    JSON has no infinity, so a document with a non-finite number (a ``.inf``
    ramp limit, say) is written as block YAML, whose ``.inf`` and ``.nan``
    ``load_system`` reads back as the same floats.
    """
    try:
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    except ValueError:
        return yaml.safe_dump(doc, sort_keys=False)


def _series_out(a: np.ndarray) -> list[float] | float:
    vals = [float(v) for v in np.asarray(a).ravel()]
    if len(set(vals)) == 1 and len(vals) > 1:
        return vals[0]
    if len(vals) == 1:
        return vals[0]
    return vals


def _record_out(obj: Any) -> dict[str, Any]:
    """The document entry of a flat record, keys in field order."""
    out = {}
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        out[document_key(f)] = _series_out(val) if isinstance(val, np.ndarray) else val
    return out


def _to_document(m: SystemModel) -> dict:
    net = m.electric
    heat = m.heat
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "base_mva": m.base_mva,
        "horizon": {"steps": m.horizon, "step_seconds": m.step_seconds},
        "electric_network": {
            "slack_bus": net.slack_bus,
            "slack_voltage": net.slack_voltage,
            "buses": [
                {"id": i, "v_min": float(net.v_min[i]), "v_max": float(net.v_max[i])}
                for i in range(net.n_bus)
            ],
            "branches": [_record_out(br) for br in net.branches],
        },
        "chp_units": [_record_out(c) for c in m.chp_units],
        "heat_pumps": [_record_out(h) for h in m.heat_pumps],
        "batteries": [_record_out(b) for b in m.batteries],
        "thermal_tanks": [_record_out(s) for s in m.tanks],
        "pv_units": [_record_out(p) for p in m.pv_units],
        "grid": _record_out(m.grid),
    }
    if heat.n_node > 0:
        doc["heat_network"] = {
            "water": {"density": heat.water_density, "heat_capacity": heat.water_heat_capacity},
            "ground_temperature": _series_out(heat.ground_temperature),
            "initial_supply_temperature": heat.initial_supply_temperature,
            "initial_return_temperature": heat.initial_return_temperature,
            "nodes": [
                {
                    "id": i,
                    "ts_min": float(heat.ts_min[i]), "ts_max": float(heat.ts_max[i]),
                    "tr_min": float(heat.tr_min[i]), "tr_max": float(heat.tr_max[i]),
                    "inflow_kg_s": float(heat.inflow[i]), "outflow_kg_s": float(heat.outflow[i]),
                }
                for i in range(heat.n_node)
            ],
            "pipes": [_record_out(p) for p in heat.pipes],
        }
    fc = m.forecasts
    forecasts: dict[str, Any] = {}
    channel_names = {
        "pv": [p.name for p in m.pv_units],
        "electric_load_p": [str(i) for i in range(net.n_bus)],
        "electric_load_q": [str(i) for i in range(net.n_bus)],
        "heat_load": [str(i) for i in range(heat.n_node)],
    }
    for name, lo, mid, hi in fc.blocks():
        entries = {}
        for i, ch in enumerate(channel_names[name]):
            if lo.size and (np.any(lo[i]) or np.any(mid[i]) or np.any(hi[i])):
                entries[ch] = {
                    "min": [float(v) for v in lo[i]],
                    "center": [float(v) for v in mid[i]],
                    "max": [float(v) for v in hi[i]],
                }
        if entries:
            forecasts[name] = entries
    if forecasts:
        doc["forecasts"] = forecasts
    return doc
