"""Config-document ingestion and serialization.

A system is described by one human-readable YAML/JSON document (see
``docs/config-schema.md`` in the repository root for the field reference).
``load_system`` accepts a file path or an already-parsed mapping and returns
a fully validated :class:`~chpdispatch.model.SystemModel`; ``dump_system``
is its exact inverse (round-trips are field-identical).  Documents are
written as JSON, which is also YAML.

The electric and heat networks and the CHP, heat-pump, battery, tank, PV,
grid, branch and pipe records are written from their model dataclass's
fields, the one list of their keys and defaults (see ``model._field``), and
all but the pipes are read so too: a pipe's ``mass_flow`` may be a constant
series and its ``cross_section`` defaults to pi D^2 / 4.  The pipes' reader
and the forecasts' channel-keyed form are written out.
"""

from __future__ import annotations

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
    layout,
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
    base_mva = root.number("base_mva", SystemModel.__dataclass_fields__["base_mva"].metadata["absent"])

    net = _record(ElectricNetwork, root.child("electric_network"), T)
    if not net.n_bus:
        raise ConfigError("electric_network.buses", "at least one bus is required")
    heat = _record(HeatNetwork, root.optional_child("heat_network") or _Reader({}, "heat_network"), T)

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
    """A record: each dataclass field read where its key puts it (see
    ``model.layout``), as its declared ``absent`` value where the key is
    omitted, by the reader its annotation selects (an array is a series of
    ``length``, a tuple the list of its records)."""
    tables: dict[str, tuple[list[_Reader], list[int]]] = {}

    def table(head: str) -> tuple[list[_Reader], list[int]]:
        """The rows of the id-indexed list ``head`` and their ids, read once."""
        if head not in tables:
            rows = r.items(head)
            ids = [row.integer("id") for row in rows]
            if sorted(ids) != list(range(len(rows))):
                raise ConfigError(r._join(head), f"ids must be 0..{len(rows) - 1}, got {sorted(ids)}")
            tables[head] = rows, ids
        return tables[head]

    values: dict[str, Any] = {}
    for name, kind, head, key, column, meta in layout(cls):
        absent = meta.get("absent")
        if column and not key:
            values[name] = len(table(head)[0])
        elif column:
            rows, ids = table(head)
            values[name] = np.zeros(len(rows))
            for row, i in zip(rows, ids):
                values[name][i] = row.number(key, absent)
        elif kind in _ITEMS:
            values[name] = tuple(_ITEMS[kind](item, length) for item in r.items(key))
        else:
            sub = (r.optional_child(head) or _Reader({}, r._join(head))) if head else r
            if kind == "np.ndarray":
                values[name] = sub.series(key, length, absent)
            else:
                values[name] = _SCALARS[kind](sub, key, absent)
    return cls(**values)


def _pipe(p: _Reader, length: int) -> HeatPipe:
    """A pipe: its ``mass_flow`` may be a constant series, and its
    ``cross_section`` defaults to pi D^2 / 4."""
    return HeatPipe(
        from_node=p.integer("from"),
        to_node=p.integer("to"),
        length=p.number("length"),
        diameter=p.number("diameter"),
        conductivity=p.number("conductivity"),
        mass_flow=p.constant("mass_flow", length),
        cross_section=p.number("cross_section", 0.0),
    )


# the reader of a field by its annotation: of a value, or of each entry of
# a list of records
_SCALARS = {"str": _Reader.string, "int": _Reader.integer, "float": _Reader.number}
_ITEMS = {
    "tuple[Branch, ...]": lambda r, length: _record(Branch, r, length),
    "tuple[HeatPipe, ...]": _pipe,
}


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
    """The document entry of a record, keys in field order: the inverse of
    ``_record`` (a list's row count is the length of its rows)."""
    out: dict[str, Any] = {}
    for name, _, head, key, column, _ in layout(type(obj)):
        val = getattr(obj, name)
        if column:
            if key:
                rows = out.setdefault(head, [{"id": i} for i in range(len(val))])
                for row, v in zip(rows, val.tolist()):
                    row[key] = v
            continue
        if isinstance(val, np.ndarray):
            val = _series_out(val)
        elif isinstance(val, tuple):
            val = [_record_out(item) for item in val]
        (out.setdefault(head, {}) if head else out)[key] = val
    return out


def _to_document(m: SystemModel) -> dict:
    net = m.electric
    heat = m.heat
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "base_mva": m.base_mva,
        "horizon": {"steps": m.horizon, "step_seconds": m.step_seconds},
        "electric_network": _record_out(net),
        "chp_units": [_record_out(c) for c in m.chp_units],
        "heat_pumps": [_record_out(h) for h in m.heat_pumps],
        "batteries": [_record_out(b) for b in m.batteries],
        "thermal_tanks": [_record_out(s) for s in m.tanks],
        "pv_units": [_record_out(p) for p in m.pv_units],
        "grid": _record_out(m.grid),
        "heat_network": _record_out(heat),
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
