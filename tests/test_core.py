import dataclasses
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravwitness.core import (CONSTANTS, ConfigConsistencyWarning, ConfigError,
                              ExperimentConfig, M_HELIUM4, PhysicalConstants,
                              _consistency_notes, config_from_dict,
                              config_to_dict, config_to_json, load_config,
                              paper_defaults, validate)
from gravwitness.gravphase import superposition_size


def test_constants_are_positive_and_codata():
    for f in dataclasses.fields(PhysicalConstants):
        assert getattr(CONSTANTS, f.name) > 0
    assert CONSTANTS.G == 6.67430e-11
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.c == 299792458.0
    assert CONSTANTS.kB == 1.380649e-23
    assert CONSTANTS.muB == 9.2740100783e-24
    assert abs(CONSTANTS.gE - 2.0) < 0.01


def test_constants_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.G = 1.0


def test_helium4_mass():
    assert M_HELIUM4 == pytest.approx(6.6464769890512932e-27, rel=1e-12)


def test_paper_defaults_values(paper_config):
    cfg = paper_config
    assert cfg.d - cfg.dx == pytest.approx(200e-6, rel=1e-12)
    assert cfg.epsRel == 5.7
    assert cfg.m1 == cfg.m2 == 1e-14
    assert cfg.tau == 2.5
    assert cfg.mGas == M_HELIUM4


def test_paper_defaults_serialization_stable():
    assert config_to_json(paper_defaults()) == config_to_json(paper_defaults())


def test_validate_accepts_paper_defaults(paper_config):
    assert paper_config.dx == 250e-6


def test_validate_idempotent(paper_config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        assert validate(paper_config) == paper_config


def test_validate_rejects_dx_equal_d():
    cfg = dataclasses.replace(paper_defaults(), dx=450e-6)
    with pytest.raises(ConfigError, match="dx < d"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigConsistencyWarning)
            validate(cfg)


def test_validate_rejects_zero_mass():
    cfg = dataclasses.replace(paper_defaults(), m1=0.0)
    with pytest.raises(ConfigError, match="m1"):
        validate(cfg)


def test_validate_rejects_non_finite():
    cfg = dataclasses.replace(paper_defaults(), tau=math.nan)
    with pytest.raises(ConfigError, match="tau"):
        validate(cfg)


def test_validate_lists_every_violation():
    cfg = dataclasses.replace(paper_defaults(), m1=-1.0, pressure=0.0, epsRel=0.5)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    for name in ("m1", "pressure", "epsRel"):
        assert name in str(err.value)


@pytest.mark.parametrize("fields, message", [
    (dict(tau="2.5", m1=math.nan, epsRel=0.5, tInt=-1.0, chiM=math.inf,
          pressure=0.0),
     "m1 must be a finite number, got nan; tau must be a finite number, "
     "got '2.5'; pressure must be > 0, got 0.0; chiM must be a finite "
     "number, got inf; epsRel must be > 1, got 0.5; tInt must be >= 0, "
     "got -1.0"),
    (dict(epsRel=0.5, tInt=-1.0, d=-1.0),
     "d must be > 0, got -1.0; epsRel must be > 1, got 0.5; tInt must be "
     ">= 0, got -1.0"),
])
def test_validate_message_order(fields, message):
    # field order, then the epsRel and tInt bounds after every other problem
    with pytest.raises(ConfigError) as err:
        validate(dataclasses.replace(paper_defaults(), **fields))
    assert str(err.value) == message


def test_validate_rejects_touching_spheres():
    cfg = dataclasses.replace(paper_defaults(), radius=120e-6)
    with pytest.raises(ConfigError, match="radius"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigConsistencyWarning)
            validate(cfg)


def test_missing_dx_is_derived():
    cfg = dataclasses.replace(paper_defaults(), dx=None)
    out = validate(cfg)
    expected = superposition_size(cfg.dBdx, cfg.tauAcc, cfg.m1)
    assert out.dx == expected
    assert out.dx == pytest.approx(2.3211911760791283e-4, rel=1e-12)


def test_inconsistent_explicit_dx_warns_and_wins():
    with pytest.warns(ConfigConsistencyWarning):
        out = config_from_dict({})
    assert out.dx == 250e-6


def test_consistent_explicit_dx_does_not_warn():
    kin = superposition_size(1e6, 0.5, 1e-14)
    cfg = dataclasses.replace(paper_defaults(), dx=kin)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConfigConsistencyWarning)
        validate(cfg)


def test_unequal_masses_with_derived_dx_warns():
    with pytest.warns(ConfigConsistencyWarning, match="m1"):
        config_from_dict({"dx": None, "m2": 2e-14})


@given(fields=st.fixed_dictionaries({}, optional={
    "dx": st.one_of(st.none(), st.floats(1e-4, 4e-4)),
    "m1": st.floats(5e-15, 2e-14), "m2": st.floats(5e-15, 2e-14),
    "tauAcc": st.floats(0.1, 1.0), "d": st.floats(2e-4, 1e-3),
    "dBdx": st.floats(1e5, 1e7)}))
@settings(max_examples=100, deadline=None)
def test_only_config_from_dict_warns_its_notes(fields):
    config = dataclasses.replace(paper_defaults(), **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            valid = validate(config)
        except ConfigError as err:
            valid = err
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            built = config_from_dict(fields)
        except ConfigError as err:
            assert repr(err) == repr(valid) and caught == []
            return
    assert built == valid
    assert [(w.category, str(w.message)) for w in caught] == \
        [(ConfigConsistencyWarning, note) for note in _consistency_notes(config)]


def test_config_dict_round_trip(paper_config):
    data = config_to_dict(paper_config)
    assert set(data) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        assert config_from_dict(data) == paper_config


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: mass"):
        config_from_dict({"mass": 1e-14})


def test_config_from_dict_rejects_non_numbers():
    with pytest.raises(ConfigError, match="tau"):
        config_from_dict({"tau": "2.5"})
    with pytest.raises(ConfigError, match="tau"):
        config_from_dict({"tau": True})


@pytest.mark.parametrize("value", ["2.5", True, None, [2.5]])
def test_load_config_rejects_non_numbers(tmp_path, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tau": value}))
    with pytest.raises(ConfigError, match="^tau must be a finite number"):
        load_config(path)


def test_kinematic_dx_overflow_is_a_config_error():
    cfg = dataclasses.replace(paper_defaults(), tauAcc=1e155)
    with pytest.raises(ConfigError, match="dBdx=.*tauAcc=1e\\+155.*m1="):
        validate(cfg)


def test_config_from_dict_partial_overrides(paper_config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        cfg = config_from_dict({"tau": 5.0})
    assert cfg.tau == 5.0
    assert cfg.d == paper_config.d


def test_config_from_dict_null_dx_derives():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        cfg = config_from_dict({"dx": None})
    assert cfg.dx == pytest.approx(2.3211911760791283e-4, rel=1e-12)


def test_load_config_json_file(tmp_path, paper_config):
    path = tmp_path / "config.json"
    path.write_text(config_to_json(paper_config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        assert load_config(path) == paper_config


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError, match="flat object"):
        load_config(path)


@pytest.mark.parametrize("name", ["tau", "m1", "tInt", "chiM", "epsRel", "dx"])
@pytest.mark.parametrize("flag", [True, False])
def test_validate_rejects_bools(name, flag):
    with pytest.raises(ConfigError, match=name):
        validate(dataclasses.replace(paper_defaults(), **{name: flag}))
