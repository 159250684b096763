import pytest

from latticekit.config import (
    SCHEMA,
    cavity_from_config,
    load_config,
    mode_from_config,
    parse_config_text,
    resolve_key,
    state_from_config,
    trap_from_config,
)
from latticekit.constants import CONST
from latticekit.errors import ConfigError


def rel(a, b):
    return abs(a - b) / abs(b)


def test_defaults_load():
    cfg = load_config()
    assert cfg["cavity.round_trip_length_mm"] == 97.0
    assert cfg["sim.n_points"] == 201
    assert cfg["ramp.rethermalization"] == "collision-gated"


def test_parse_comments_and_values():
    values = parse_config_text(
        """
        # reference run
        trap.depth_uK = 100.0   # shallow wells
        sim.n_points = 11
        ramp.rethermalization = off
        """
    )
    assert values == {
        "trap.depth_uK": 100.0,
        "sim.n_points": 11,
        "ramp.rethermalization": "off",
    }


def test_parse_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*unknown config key.*bogus_key"):
        parse_config_text("\nbogus_key = 1\n")


def test_parse_empty_value_names_key():
    with pytest.raises(ConfigError, match="cavity.mirror_2.transmission_ppm"):
        parse_config_text("cavity.mirror_2.transmission_ppm = \n")


def test_parse_bad_number_names_key_and_line():
    with pytest.raises(ConfigError, match="trap.depth_uK.*line 1"):
        parse_config_text("trap.depth_uK = cold\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_config_file_rejects_non_finite_value(tmp_path, raw):
    path = tmp_path / "run.cfg"
    path.write_text(f"sim.n_points = 11\ntrap.depth_uK = {raw}\n")
    with pytest.raises(ConfigError, match="non-finite.*trap.depth_uK.*line 2"):
        load_config(str(path))


def test_parse_int_rejects_float_literal():
    with pytest.raises(ConfigError):
        parse_config_text("sim.n_points = 10.5\n")


def test_parse_int_accepts_long_literal():
    # too long for a float; the finite check applies to float keys only
    digits = "1" + "0" * 400
    assert parse_config_text(f"sim.n_points = {digits}\n") == {"sim.n_points": int(digits)}


UNIT_SUFFIXES = (
    "_mm", "_um", "_nm", "_uK", "_uW", "_s", "_ms", "_us", "_ppm",
    "_per_s", "_per_cm3", "_cm3_per_s", "_hz",
)

# dimensionless floats exempt from the unit-suffix rule
DIMENSIONLESS = {
    "cavity.mode_matching",
    "sample.atom_number",
    "evap.epsilon",
    "tof.noise_frac",
}


def test_unit_suffix_discipline():
    for key, (typ, _default) in SCHEMA.items():
        if typ is float and key not in DIMENSIONLESS:
            assert key.endswith(UNIT_SUFFIXES), key


def test_resolve_key_variants():
    assert resolve_key("trap.depth_uK") == "trap.depth_uK"
    assert resolve_key("round_trip_length_mm") == "cavity.round_trip_length_mm"
    with pytest.raises(ConfigError, match="ambiguous"):
        resolve_key("transmission_ppm")
    with pytest.raises(ConfigError, match="unknown"):
        resolve_key("finesse_target")


def test_overrides_applied():
    cfg = load_config(overrides=[("round_trip_length_mm", "194")])
    assert cfg["cavity.round_trip_length_mm"] == 194.0


def test_config_file_and_env(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("trap.depth_uK = 100\n")
    cfg = load_config(str(path))
    assert cfg["trap.depth_uK"] == 100.0
    monkeypatch.setenv("LATTICEKIT_CONFIG", str(path))
    assert load_config()["trap.depth_uK"] == 100.0
    monkeypatch.delenv("LATTICEKIT_CONFIG")
    assert load_config()["trap.depth_uK"] == 350.0


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/latticekit.cfg")


def test_builders_reference_values():
    cfg = load_config()
    cavity = cavity_from_config(cfg)
    assert rel(cavity.round_trip_loss, 33.6e-6) < 1e-12
    assert cavity.incoupler.transmission == 23e-6
    mode = mode_from_config(cfg)
    assert mode.waist_sagittal == 134e-6  # half the configured diameter
    trap = trap_from_config(cfg)
    assert rel(trap.u0, 350e-6 * CONST.kB) < 1e-12
    state = state_from_config(cfg)
    assert rel(state.eta, 350 / 123) < 1e-12


def test_builders_wrap_validation_errors():
    # builders pass the model's ValueError through; cli.main maps it to exit 2
    cfg = load_config(overrides=[("cavity.mirror_1.transmission_ppm", "-5")])
    with pytest.raises(ValueError, match="mirror losses"):
        cavity_from_config(cfg)
