"""Flat `key = value` configuration with unit-suffixed key names.

The schema is the single source of truth: unknown keys are rejected at parse
time, so load_config returns a plain dict holding every schema key and
nothing else. Every physical key carries its unit in the name, and the
defaults describe the reference apparatus (triangular ring cavity, 97 mm
round trip, 350 uK lattice) so each command runs out of the box.
"""

import math
import os

from .cavity import CavitySpec, MirrorSpec, ModeGeometry
from .constants import CONST, RB85
from .errors import ConfigError
from .trap import TrapParameters, TrapState, thermal_cloud_shape, trap_parameters

ENV_CONFIG = "LATTICEKIT_CONFIG"

# cloud.envelope_sigma_{x,y} default to the thermal radial width of the
# reference 350 uK / 123 uK state; envelope_sigma_z is calibrated so the
# density model reproduces that state's measured peak density 9e11 cm^-3.
_SCHEMA_ROWS = [
    ("cavity.round_trip_length_mm", float, 97.0),
    ("cavity.mirror_1.transmission_ppm", float, 23.0),
    ("cavity.mirror_1.scatter_ppm", float, 3.0),
    ("cavity.mirror_2.transmission_ppm", float, 0.8),
    ("cavity.mirror_2.scatter_ppm", float, 3.0),
    ("cavity.mirror_3.transmission_ppm", float, 0.8),
    ("cavity.mirror_3.scatter_ppm", float, 3.0),
    ("cavity.input_power_uW", float, 60.0),
    ("cavity.mode_matching", float, 1.0),
    ("cavity.ring_down_us", float, 9.2),
    ("mode.diameter_sagittal_um", float, 268.0),
    ("mode.diameter_transversal_um", float, 258.0),
    ("trap.depth_uK", float, 350.0),
    ("trap.laser_wavelength_nm", float, 787.6),
    ("trap.input_power_uW", float, 60.0),
    ("cloud.envelope_sigma_x_um", float, 38.970483335834715),
    ("cloud.envelope_sigma_y_um", float, 38.970483335834715),
    ("cloud.envelope_sigma_z_um", float, 555.56195528493),
    ("sample.atom_number", float, 4.0e6),
    ("sample.temperature_uK", float, 123.0),
    ("sample.rho_peak_per_cm3", float, 9.0e11),
    ("loss.gamma_per_s", float, 0.6),
    ("loss.beta_cm3_per_s", float, 7.5e-12),
    ("evap.epsilon", float, 0.057),
    ("heating.gamma_tot_per_s", float, 0.041),
    ("sim.t_max_s", float, 4.0),
    ("sim.n_points", int, 201),
    ("ramp.depth_final_uK", float, 147.0),
    ("ramp.duration_ms", float, 70.0),
    ("ramp.steps", int, 1024),
    ("ramp.rethermalization", str, "collision-gated"),
    ("bound.t_max_s", float, 4.0),
    ("tof.sigma0_um", float, 40.0),
    ("tof.noise_frac", float, 0.01),
    ("tof.seed", int, 20240901),
    ("tof.n_times", int, 8),
    ("tof.t_min_ms", float, 0.5),
    ("tof.t_max_ms", float, 6.0),
    ("fit.max_iterations", int, 200),
    ("fit.guess_gamma_per_s", float, 0.4),
    ("fit.guess_beta_cm3_per_s", float, 5.0e-12),
]

SCHEMA = {key: (typ, default) for key, typ, default in _SCHEMA_ROWS}

def _convert(key, raw, lineno=None):
    typ, _default = SCHEMA[key]
    where = f" (line {lineno})" if lineno is not None else ""
    raw = raw.strip()
    if raw == "":
        raise ConfigError(f"empty value for key {key}{where}")
    if typ is str:
        return raw
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"cannot parse value {raw!r} for key {key} as {typ.__name__}{where}"
        ) from None
    # ints are always finite, and math.isfinite overflows on very long ones
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"non-finite value {raw!r} for key {key}{where}")
    return value


def parse_config_text(text, source="<config>"):
    """Parse `key = value` lines; '#' starts a comment. Unknown keys fail."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}: line {lineno}: unknown config key: {key}")
        values[key] = _convert(key, raw, lineno)
    return values


def resolve_key(name):
    """Map a CLI flag name to a schema key: exact, or unique tail match."""
    if name in SCHEMA:
        return name
    matches = [k for k in SCHEMA if k.endswith("." + name)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ConfigError(f"unknown config key: {name}")
    raise ConfigError(
        f"ambiguous config key {name}: matches {', '.join(sorted(matches))}"
    )


def load_config(path=None, overrides=()):
    """Defaults, then an optional file (or $LATTICEKIT_CONFIG), then overrides."""
    values = {key: default for key, (_typ, default) in SCHEMA.items()}
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(parse_config_text(text, source=path))
    for name, raw in overrides:
        key = resolve_key(name)
        values[key] = _convert(key, raw)
    return values


# ---------------------------------------------------------------------------
# builders binding the configuration to domain objects

def cavity_from_config(cfg: dict) -> CavitySpec:
    mirrors = tuple(
        MirrorSpec(
            transmission=cfg[f"cavity.mirror_{i}.transmission_ppm"] * 1e-6,
            scatter_loss=cfg[f"cavity.mirror_{i}.scatter_ppm"] * 1e-6,
        )
        for i in (1, 2, 3)
    )
    return CavitySpec(
        mirrors=mirrors,
        round_trip_length=cfg["cavity.round_trip_length_mm"] * 1e-3,
        input_power_per_mode=cfg["cavity.input_power_uW"] * 1e-6,
        mode_matching_efficiency=cfg["cavity.mode_matching"],
    )


def mode_from_config(cfg: dict) -> ModeGeometry:
    # the config stores 1/e^2 diameters; the model works with radii
    return ModeGeometry(
        waist_sagittal=cfg["mode.diameter_sagittal_um"] * 1e-6 / 2.0,
        waist_transversal=cfg["mode.diameter_transversal_um"] * 1e-6 / 2.0,
    )


def trap_from_config(cfg: dict) -> TrapParameters:
    return trap_parameters(
        u0=cfg["trap.depth_uK"] * 1e-6 * CONST.kB,
        wavelength=cfg["trap.laser_wavelength_nm"] * 1e-9,
        mode=mode_from_config(cfg),
        species=RB85,
    )


def state_from_config(cfg: dict) -> TrapState:
    trap = trap_from_config(cfg)
    shape = thermal_cloud_shape(
        RB85,
        trap,
        cfg["sample.temperature_uK"] * 1e-6,
        (
            cfg["cloud.envelope_sigma_x_um"] * 1e-6,
            cfg["cloud.envelope_sigma_y_um"] * 1e-6,
            cfg["cloud.envelope_sigma_z_um"] * 1e-6,
        ),
    )
    return TrapState(
        n_atoms=cfg["sample.atom_number"],
        temperature=cfg["sample.temperature_uK"] * 1e-6,
        trap=trap,
        shape=shape,
    )
