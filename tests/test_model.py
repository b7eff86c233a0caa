"""Domain-model invariants and diagnostics."""

import numpy as np
import pytest
import yaml

from chpdispatch.config_io import ModelValidationError, dump_system, load_system
from chpdispatch.model import validate_system
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
    dump_system(ref24.model, path)
    again = load_system(path)
    assert ref24.model.equals(again)


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_yaml_agree():
    doc = reference_document(24, 3600.0)
    text = yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=False)
    assert text.encode() == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False).encode()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


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
