"""Domain-model invariants and diagnostics."""

import dataclasses
import functools
import json
import pathlib
import re

import numpy as np
import pytest
import yaml

from chpdispatch import cli
from chpdispatch.config_io import (
    SAFE_LOADER,
    ConfigError,
    ModelValidationError,
    document_text,
    dump_system,
    load_system,
)
from chpdispatch.model import (
    BatteryUnit,
    Branch,
    ChpUnit,
    ElectricNetwork,
    ForecastSeries,
    GridConnection,
    HeatNetwork,
    HeatPipe,
    HeatPump,
    PvUnit,
    SystemModel,
    ThermalTank,
    validate_system,
)
from chpdispatch.reference import build_reference_system, reference_document


def minimal_document(battery_bus: int = 0) -> dict:
    return {
        "schema_version": 1,
        "base_mva": 1.0,
        "horizon": {"steps": 1, "step_seconds": 3600.0},
        "electric_network": {
            "slack_bus": 0,
            "slack_voltage": 1.0,
            "buses": [{"id": 0, "v_min": 0.9, "v_max": 1.1}],
            "branches": [],
        },
        "batteries": [
            {
                "name": "b1", "bus": battery_bus, "retention": 1.0,
                "eta_charge": 1.0, "eta_discharge": 1.0, "capacity": 2.0,
                "e_min": 0.0, "e_max": 1.0, "e_initial": 0.5,
                "p_min": -1.0, "p_max": 1.0, "ramp_p": 1.0, "cost": 0.0,
            }
        ],
        "grid": {"bus": 0, "p_min": -5.0, "p_max": 5.0, "q_min": -5.0, "q_max": 5.0, "price": 10.0},
    }


def test_minimal_system_loads():
    model = load_system(minimal_document())
    assert model.horizon == 1
    assert len(model.batteries) == 1
    assert model.heat.n_node == 0
    assert validate_system(model) == []


def test_dangling_bus_reference_rejected():
    with pytest.raises(ModelValidationError) as err:
        load_system(minimal_document(battery_bus=99))
    assert "bus 99" in str(err.value)


def test_dangling_bus_on_reference_network():
    doc = reference_document(4, 3600.0)
    doc["batteries"][0]["bus"] = 99
    with pytest.raises(ModelValidationError) as err:
        load_system(doc)
    assert "references bus 99 of a 33-bus network" in str(err.value)


@pytest.mark.parametrize(
    "section, key, diagnostic",
    [
        (("electric_network", "branches"), "from",
         "electric.branch[0]: from references bus 99 of a 33-bus network"),
        (("electric_network", "branches"), "to",
         "electric.branch[0]: to references bus 99 of a 33-bus network"),
        (("heat_network", "pipes"), "from", "heat.pipe[0]: from references heat node 99 of a 8-node network"),
        (("heat_network", "pipes"), "to", "heat.pipe[0]: to references heat node 99 of a 8-node network"),
    ],
)
def test_dangling_network_reference_is_refused_by_name(section, key, diagnostic):
    # the connectivity and tree walks meet the id too, and must not raise
    doc = reference_document(4, 3600.0)
    doc[section[0]][section[1]][0][key] = 99
    with pytest.raises(ModelValidationError) as err:
        load_system(doc)
    assert diagnostic in [str(d) for d in err.value.diagnostics]


def test_repeated_device_name_rejected():
    # a second bat_10 would compile to an empty state row: lookups by name
    # find the first entry only
    doc = reference_document(4, 3600.0)
    twin = dict(next(b for b in doc["batteries"] if b["name"] == "bat_10"), bus=5)
    doc["batteries"].append(twin)
    with pytest.raises(ModelValidationError) as err:
        load_system(doc)
    assert "batteries[bat_10]" in str(err.value)


def test_battery_initial_level_out_of_bounds():
    doc = minimal_document()
    doc["batteries"][0]["e_initial"] = 1.5
    with pytest.raises(ModelValidationError) as err:
        load_system(doc)
    assert "initial level" in str(err.value)


def test_forecast_interval_ordering_flagged_with_step():
    doc = reference_document(6, 3600.0)
    series = doc["forecasts"]["heat_load"]["2"]
    series["min"][3] = series["max"][3] + 1.0
    with pytest.raises(ModelValidationError) as err:
        load_system(doc)
    assert "t=3" in str(err.value)


def test_validate_collects_rather_than_raises(ref24):
    assert validate_system(ref24.model) == []


def test_roundtrip_field_identical(ref24):
    doc = dump_system(ref24.model)
    again = load_system(doc)
    assert ref24.model.equals(again)


def test_roundtrip_through_file(tmp_path, ref24):
    path = tmp_path / "system.yaml"
    for model in (ref24.model, build_reference_system(288, 300.0)):
        dump_system(model, path)
        again = load_system(path)
        assert model.equals(again)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_yaml_agree():
    text = document_text(reference_document(24, 3600.0))
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("horizon, dt", [(24, 3600.0), (48, 1800.0), (96, 900.0), (288, 300.0)])
def test_written_config_reads_the_same_as_yaml(horizon, dt):
    # a YAML 1.1 parser reads a dotless exponent such as 1e-05 as a string;
    # the reference documents have none, so YAML tools read them unchanged
    doc = reference_document(horizon, dt)
    text = document_text(doc)
    assert json.loads(text) == yaml.load(text, Loader=SAFE_LOADER) == doc


def test_json_nan_is_refused_as_yaml_string(tmp_path):
    doc = minimal_document()
    doc["grid"]["price"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")   # "price": NaN
    with pytest.raises(ConfigError) as err:
        load_system(path)
    # YAML reads the bare NaN as the string "NaN"
    with pytest.raises(ConfigError) as as_yaml:
        load_system(yaml.load(path.read_text(encoding="utf-8"), Loader=SAFE_LOADER))
    assert str(err.value) == str(as_yaml.value)
    assert err.value.path == "grid.price"


@pytest.mark.parametrize("which", ["minimal", "reference"])
def test_infinite_limit_roundtrips_through_file(tmp_path, which):
    if which == "minimal":
        doc = minimal_document()
        doc["batteries"][0]["ramp_p"] = float("inf")
    else:
        doc = reference_document(24, 3600.0)
        doc["chp_units"][0]["ramp_p"] = float("inf")
        doc["grid"]["p_min"] = float("-inf")
    model = load_system(doc)
    path = tmp_path / "system.yaml"
    dump_system(model, path)
    again = load_system(path)
    assert model.equals(again)
    # a finite document is still written as JSON
    assert json.loads(document_text(minimal_document())) == minimal_document()


# (document keys, value, diagnostic) of settings that NaN, which fails every
# comparison, or infinity used to pass, or that had no check at all
NON_FINITE = [
    (("base_mva",), "nan", "base_mva: must be > 0, got nan"),
    (("horizon", "step_seconds"), "nan", "step_seconds: must be > 0, got nan"),
    (("horizon", "step_seconds"), "inf", "step_seconds: must be finite, got inf"),
    (("batteries", 0, "capacity"), "nan", "batteries[bat_10]: capacity must be > 0, got nan"),
    (("batteries", 0, "ramp_p"), "nan", "batteries[bat_10]: ramp_p must be >= 0, got nan"),
    (("chp_units", 0, "power_to_heat"), "nan", "chp_units[chp_main]: power_to_heat must be > 0, got nan"),
    (("electric_network", "branches", 0, "flow_max"), "nan",
     "electric.branch[0]: flow_max must be > 0, got nan"),
    (("heat_network", "pipes", 0, "mass_flow"), "nan",
     "heat.pipe[0]: mass_flow must stay > 0 (constant-flow regime), got nan"),
    (("base_mva",), "inf", "base_mva: must be finite, got inf"),
    (("grid", "price"), "nan", "grid: price must be finite, got nan"),
    (("chp_units", 0, "cost"), "nan", "chp_units[chp_main]: cost must be finite, got nan"),
    (("heat_pumps", 0, "cost"), "nan", "heat_pumps[hp_plant]: cost must be finite, got nan"),
    (("batteries", 0, "cost"), "nan", "batteries[bat_10]: cost must be finite, got nan"),
    (("thermal_tanks", 0, "cost"), "nan", "tanks[tank_hub]: cost must be finite, got nan"),
    (("electric_network", "branches", 0, "r"), "nan", "electric.branch[0]: r must be finite, got nan"),
    (("electric_network", "branches", 0, "x"), "nan", "electric.branch[0]: x must be finite, got nan"),
    (("electric_network", "slack_voltage"), "nan", "electric: slack_voltage must be > 0, got nan"),
    (("heat_network", "water", "density"), "nan", "heat.water: density must be > 0, got nan"),
    (("heat_network", "water", "heat_capacity"), "nan",
     "heat.water: heat_capacity must be > 0, got nan"),
    (("heat_network", "ground_temperature"), "nan", "heat: ground_temperature must be finite, got nan"),
    (("heat_network", "initial_supply_temperature"), "nan",
     "heat: initial_supply_temperature must be finite, got nan"),
    (("heat_network", "initial_return_temperature"), "nan",
     "heat: initial_return_temperature must be finite, got nan"),
    (("heat_network", "pipes", 0, "length"), "nan", "heat.pipe[0]: length must be >= 0, got nan"),
    (("heat_network", "pipes", 0, "conductivity"), "nan",
     "heat.pipe[0]: conductivity must be >= 0, got nan"),
]


@pytest.mark.parametrize(
    "keys, value, diagnostic", NON_FINITE,
    ids=[".".join(map(str, keys)) + f"={value}" for keys, value, _ in NON_FINITE],
)
def test_non_finite_setting_is_refused_by_name(tmp_path, keys, value, diagnostic):
    doc = reference_document(4, 3600.0)
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = float(value)
    path = tmp_path / "system.yaml"
    path.write_text(document_text(doc), encoding="utf-8")   # block YAML: .nan, .inf
    with pytest.raises(ModelValidationError) as err:
        load_system(path)
    assert diagnostic in [str(d) for d in err.value.diagnostics]


def number_keys(node, keys=()):
    """The key path of every number in a document, down the first entry of
    each list: every scalar of one record per list and one entry of every
    series (each forecast channel's min, center and max included)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from number_keys(value, keys + (key,))
    elif isinstance(node, list):
        if node:
            yield from number_keys(node[0], keys + (0,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


def names_key(text: str, key: str) -> bool:
    """Whether a diagnostic names ``key``."""
    return bool(re.search(rf"(^|[ .]){re.escape(key)}\b", text))


@pytest.mark.parametrize(
    "keys", list(number_keys(reference_document(4, 3600.0))), ids=lambda keys: ".".join(map(str, keys))
)
def test_non_finite_number_is_refused_by_name_or_dispatches(tmp_path, keys):
    # a value either fails at load naming its key, or it is an infinite
    # limit or ramp, which drops its row and dispatches
    key = next(k for k in reversed(keys) if isinstance(k, str))
    values = ["nan", "inf", "-inf"]
    if key in ("diameter", "capacity", "power_to_heat"):
        values.append("0")
    for value in values:
        doc = reference_document(4, 3600.0)
        entry = doc
        for k in keys[:-1]:
            entry = entry[k]
        entry[keys[-1]] = float(value)
        try:
            load_system(doc)
        except ConfigError as err:
            assert err.path.endswith(key), (value, str(err))
            continue
        except ModelValidationError as err:
            assert any(names_key(str(d), key) for d in err.diagnostics), (value, str(err))
            continue
        assert value != "nan" and key in INFINITE_KEYS, value
        path = tmp_path / f"{value}.yaml"
        path.write_text(document_text(doc), encoding="utf-8")
        code = cli.run(["dispatch", "--config", str(path), "--out", str(tmp_path / value)])
        assert code == 0, value


def test_truncated_json_names_file_line_and_column(tmp_path):
    text = document_text(minimal_document())
    head = text[: len(text) // 2]
    path = tmp_path / "truncated.yaml"
    path.write_text(head, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_system(path)
    assert "YAML syntax error" in str(err.value)
    # the parser stops at the end of the last line
    last_line = head.count("\n") + 1
    assert err.value.path == f"{path}:{last_line}:{len(head.splitlines()[-1]) + 1}"


def test_json_list_root_is_refused(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([minimal_document()]), encoding="utf-8")
    with pytest.raises(ConfigError, match="document must be a mapping"):
        load_system(path)


def test_block_yaml_with_comments_loads(tmp_path):
    path = tmp_path / "system.yaml"
    # block style and comments: not JSON, read by the YAML parser
    text = "# a one-battery system\n" + yaml.safe_dump(minimal_document(), sort_keys=False)
    path.write_text(text.replace("base_mva: 1.0", "base_mva: 1.0  # MVA"), encoding="utf-8")
    model = load_system(path)
    assert model.equals(load_system(minimal_document()))


def test_forecast_ordering_holds_after_load(ref24):
    fc = ref24.model.forecasts
    for _, lo, mid, hi in fc.blocks():
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= hi + 1e-12)


def test_schema_violation_names_path():
    doc = minimal_document()
    del doc["horizon"]["steps"]
    from chpdispatch.config_io import ConfigError

    with pytest.raises(ConfigError) as err:
        load_system(doc)
    assert "horizon.steps" in str(err.value)


# the messages a missing field and a boolean give, by the type of the value
# the reference document holds there
MISSING = {
    str: "required string field is missing",
    int: "required integer field is missing",
    float: "required numeric field is missing",
    list: "required series is missing",
}
BOOLEAN = {
    str: "expected a string, got True",
    int: "expected an integer, got True",
    float: "expected a number, got True",
    list: "expected number or list, got bool",
}


def record_entry(doc: dict, key: str) -> tuple[str, dict]:
    """The path and entry of a flat device record; a list's last entry."""
    if key == "grid":
        return key, doc[key]
    return f"{key}[{len(doc[key]) - 1}]", doc[key][-1]


RECORD_KEYS = ("chp_units", "heat_pumps", "batteries", "thermal_tanks", "pv_units", "grid")
REFERENCE_4 = reference_document(4, 3600.0)


@pytest.mark.parametrize(
    "key, field",
    [(key, field) for key in RECORD_KEYS for field in record_entry(REFERENCE_4, key)[1]],
    ids=lambda v: v,
)
@pytest.mark.parametrize("case", ["missing", "boolean"])
def test_record_field_violation_names_path(key, field, case):
    doc = reference_document(4, 3600.0)
    path, entry = record_entry(doc, key)
    kind = type(entry[field])
    if case == "missing":
        del entry[field]
        message = MISSING[kind]
    else:
        entry[field] = True
        message = BOOLEAN[kind]
    with pytest.raises(ConfigError) as err:
        load_system(doc)
    assert err.value.path == f"{path}.{field}"
    assert str(err.value) == f"{path}.{field}: {message}"


SCHEMA_DOC = pathlib.Path(__file__).parents[1] / "docs" / "config-schema.md"


def document_keys(cls: type) -> list[str]:
    return [f.metadata.get("key") or f.name for f in dataclasses.fields(cls)]


def test_schema_doc_lists_the_record_fields():
    # a flat record's keys are its dataclass's fields (their document keys),
    # in order; the example in the schema reference shows them so
    text = SCHEMA_DOC.read_text(encoding="utf-8")
    example = yaml.safe_load(re.search(r"```yaml\n(.*?)```", text, re.S).group(1))
    classes = (ChpUnit, HeatPump, BatteryUnit, ThermalTank, PvUnit, GridConnection)
    for key, cls in zip(RECORD_KEYS, classes):
        entry = record_entry(example, key)[1]
        assert list(entry) == document_keys(cls), key
    assert list(example["electric_network"]["branches"][0]) == document_keys(Branch)


# where each record's keys sit in the document ("[]": in every entry of a
# list), and the fields whose keys sit elsewhere
SCHEMA_RECORDS = {
    SystemModel: "",
    ElectricNetwork: "electric_network",
    Branch: "electric_network.branches[]",
    HeatNetwork: "heat_network",
    HeatPipe: "heat_network.pipes[]",
    ChpUnit: "chp_units[]",
    HeatPump: "heat_pumps[]",
    BatteryUnit: "batteries[]",
    ThermalTank: "thermal_tanks[]",
    PvUnit: "pv_units[]",
    GridConnection: "grid",
    ForecastSeries: "forecasts",
}
FIELD_PATHS = {"horizon": "horizon.steps", "step_seconds": "horizon.step_seconds"}


def named_key(f: dataclasses.Field) -> str:
    """The key a field's diagnostics name: a column's (``buses[].v_min``)
    within its row."""
    return (f.metadata["key"] or f.name).rpartition("[].")[2]


def schema_table() -> str:
    """The per-field table of the schema reference, from the field metadata."""
    lines = ["| document path | key | domain | default |", "| --- | --- | --- | --- |"]
    for cls, where in SCHEMA_RECORDS.items():
        for f in dataclasses.fields(cls):
            if "domain" not in f.metadata:
                continue
            key = f.metadata["key"] or f.name
            path = FIELD_PATHS.get(f.name) or ".".join(filter(None, (where, key)))
            if cls is ForecastSeries:
                head, _, tail = path.rpartition(".")
                path = f"{head}.<channel>.{tail}"
            absent = f.metadata["absent"]
            default = "" if absent is None else f" `{absent}`"
            lines.append(f"| `{path}` | `{named_key(f)}` | {f.metadata['domain']} |{default} |")
    return "\n".join(lines) + "\n"


# the keys whose declared domain allows an infinite value
INFINITE_KEYS = {
    named_key(f)
    for cls in SCHEMA_RECORDS
    for f in dataclasses.fields(cls)
    if f.metadata.get("domain", "").endswith(("limit", "inf allowed"))
}


def test_schema_doc_has_the_field_table():
    assert schema_table() in SCHEMA_DOC.read_text(encoding="utf-8")


# each record of the reference with limit pairs: the keys of its document
# entry, the path its diagnostics name, and its dataclass
PAIR_RECORDS = [
    (("chp_units", 0), "chp_units[chp_main]", ChpUnit),
    (("heat_pumps", 0), "heat_pumps[hp_plant]", HeatPump),
    (("batteries", 0), "batteries[bat_10]", BatteryUnit),
    (("thermal_tanks", 0), "tanks[tank_hub]", ThermalTank),
    (("grid",), "grid", GridConnection),
    (("electric_network", "buses", 3), "electric.buses[3]", ElectricNetwork),
    (("heat_network", "nodes", 3), "heat.nodes[3]", HeatNetwork),
]
LIMIT_PAIRS = [
    (keys, path, lo, lo[:-4] + "_max")
    for keys, path, cls in PAIR_RECORDS
    for lo in (named_key(f) for f in dataclasses.fields(cls) if f.metadata.get("domain") == "limit")
    if lo.endswith("_min")
]


@pytest.mark.parametrize(
    "keys, path, lo, hi", LIMIT_PAIRS, ids=[f"{path}.{lo}" for _, path, lo, _ in LIMIT_PAIRS]
)
def test_reversed_limit_pair_names_both_keys(keys, path, lo, hi):
    doc = reference_document(4, 3600.0)
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[lo], entry[hi] = entry[hi], entry[lo]
    assert entry[lo] > entry[hi]
    with pytest.raises(ModelValidationError) as err:
        load_system(doc)
    diagnostic = f"{path}: {lo} {float(entry[lo])} exceeds {hi} {float(entry[hi])}"
    assert diagnostic in [str(d) for d in err.value.diagnostics]


@pytest.mark.parametrize("heat", ["one node", "none"])
def test_omitted_optional_keys_load_with_declared_defaults(heat):
    doc = minimal_document()
    net = doc["electric_network"]
    del net["slack_bus"], net["slack_voltage"]
    net["buses"] = [{"id": 0}]
    if heat == "one node":
        # a node with no pipe balances with no inflow or outflow
        node = {"id": 0, "ts_min": 60.0, "ts_max": 90.0, "tr_min": 30.0, "tr_max": 60.0}
        doc["heat_network"] = {"nodes": [node]}
    model = load_system(doc)
    assert model.heat.n_node == (heat == "one node")
    dumped = dump_system(model)
    defaults = set()
    for section, record in (("electric_network", model.electric), ("heat_network", model.heat)):
        for f in dataclasses.fields(record):
            absent = f.metadata.get("absent")
            if absent is None:
                continue
            key = f.metadata["key"] or f.name
            defaults.add(key)
            assert np.all(getattr(record, f.name) == absent), f.name
            # written out under its key
            head, rows, col = key.partition("[].")
            if rows:
                written = [row[col] for row in dumped[section][head]]
            else:
                written = [functools.reduce(dict.get, key.split("."), dumped[section])]
            assert written == [absent] * len(written), f.name
    assert model.equals(load_system(dumped))
    # every key the document omits has its default
    assert defaults == {
        "slack_bus", "slack_voltage", "buses[].v_min", "buses[].v_max",
        "nodes[].inflow_kg_s", "nodes[].outflow_kg_s", "ground_temperature",
        "initial_supply_temperature", "initial_return_temperature",
        "water.density", "water.heat_capacity",
    }


def test_series_length_mismatch_names_path():
    doc = minimal_document()
    doc["grid"]["price"] = [1.0, 2.0]
    from chpdispatch.config_io import ConfigError

    with pytest.raises(ConfigError) as err:
        load_system(doc)
    assert "grid.price" in str(err.value)


def test_varying_pipe_flow_names_path():
    doc = reference_document(4, 3600.0)
    flow = doc["heat_network"]["pipes"][2]["mass_flow"]
    doc["heat_network"]["pipes"][2]["mass_flow"] = [flow, flow, 1.01 * flow, flow]
    from chpdispatch.config_io import ConfigError

    with pytest.raises(ConfigError) as err:
        load_system(doc)
    assert err.value.path == "heat_network.pipes[2].mass_flow"


def test_constant_pipe_flow_list_loads_as_scalar():
    doc = reference_document(4, 3600.0)
    model = load_system(doc)
    for pipe in doc["heat_network"]["pipes"]:
        pipe["mass_flow"] = [pipe["mass_flow"]] * 4
    listed = load_system(doc)
    assert listed.equals(model)
    assert all(isinstance(p.mass_flow, float) for p in listed.heat.pipes)


def test_reference_horizon_defaults():
    model = build_reference_system()
    assert model.horizon == 288
    assert model.step_seconds == 300.0


def test_reference_horizon_override():
    model = build_reference_system(24, 3600.0)
    assert model.horizon == 24
    assert model.step_seconds == 3600.0


def test_reference_shape(ref24):
    assert ref24.model.electric.n_bus == 33
    assert ref24.model.heat.n_node == 8
    assert len(ref24.model.chp_units) == 1
    assert len(ref24.model.heat_pumps) == 1
    assert len(ref24.model.batteries) == 1
    assert len(ref24.model.tanks) == 1
    assert len(ref24.model.pv_units) == 2
    assert validate_system(ref24.model) == []


def test_reference_profiles_shape():
    model = build_reference_system(24, 3600.0)
    fc = model.forecasts
    heat_total = fc.heat_load_center.sum(axis=0)
    pv_total = fc.pv_center.sum(axis=0)
    # heat peaks at night (first/last hours), PV peaks at noon
    assert heat_total[0] > heat_total[12]
    assert pv_total[12] > 0.0
    assert pv_total[0] == 0.0
    assert np.argmax(pv_total) in (11, 12, 13)
