"""Flat `key = value` configuration with unit-suffixed key names.

The schema is the single source of truth: unknown keys are rejected at parse
time, so load_config returns a plain dict holding every schema key and
nothing else. Every physical key carries its unit in the name, and the
defaults describe the reference apparatus (triangular ring cavity, 97 mm
round trip, 350 uK lattice) so each command runs out of the box. Each key
also has a domain, named in constants.DOMAINS like the record fields' ones,
and every value from a file or an override is checked against it whichever
command runs; the defaults are never converted. Checks that join several
keys or belong to one command stay with the models and the commands.

trap_from_config and state_from_config convert each configured input to SI
once and hand it to the record; the records derive the secular frequencies
and the per-well widths themselves.
"""

import math
import os

from .cavity import CavitySpec, MirrorSpec, ModeGeometry
from .constants import CONST, DOMAINS
from .errors import ConfigError
from .evaporation import RETHERMALIZATION_MODES
from .trap import TrapParameters, TrapState

ENV_CONFIG = "LATTICEKIT_CONFIG"

# the values a key accepts, named as its error message names them
_ONE_OF_MODES = "one of " + ", ".join(RETHERMALIZATION_MODES)
_DOMAINS = {**DOMAINS, _ONE_OF_MODES: RETHERMALIZATION_MODES.__contains__}

# cloud.envelope_sigma_{x,y} default to the thermal radial width of the
# reference 350 uK / 123 uK state; envelope_sigma_z is calibrated so the
# density model reproduces that state's measured peak density 9e11 cm^-3.
_SCHEMA_ROWS = [
    ("cavity.round_trip_length_mm", float, 97.0, "> 0"),
    ("cavity.mirror_1.transmission_ppm", float, 23.0, ">= 0"),
    ("cavity.mirror_1.scatter_ppm", float, 3.0, ">= 0"),
    ("cavity.mirror_2.transmission_ppm", float, 0.8, ">= 0"),
    ("cavity.mirror_2.scatter_ppm", float, 3.0, ">= 0"),
    ("cavity.mirror_3.transmission_ppm", float, 0.8, ">= 0"),
    ("cavity.mirror_3.scatter_ppm", float, 3.0, ">= 0"),
    ("cavity.input_power_uW", float, 60.0, ">= 0"),
    ("cavity.mode_matching", float, 1.0, "in [0, 1]"),
    ("cavity.ring_down_us", float, 9.2, "> 0"),
    ("mode.diameter_sagittal_um", float, 268.0, "> 0"),
    ("mode.diameter_transversal_um", float, 258.0, "> 0"),
    ("trap.depth_uK", float, 350.0, "> 0"),
    ("trap.laser_wavelength_nm", float, 787.6, "> 0"),
    ("trap.input_power_uW", float, 60.0, ">= 0"),
    ("cloud.envelope_sigma_x_um", float, 38.970483335834715, "> 0"),
    ("cloud.envelope_sigma_y_um", float, 38.970483335834715, "> 0"),
    ("cloud.envelope_sigma_z_um", float, 555.56195528493, "> 0"),
    ("sample.atom_number", float, 4.0e6, ">= 0"),
    ("sample.temperature_uK", float, 123.0, "> 0"),
    ("sample.rho_peak_per_cm3", float, 9.0e11, ">= 0"),
    ("loss.gamma_per_s", float, 0.6, "> 0"),
    ("loss.beta_cm3_per_s", float, 7.5e-12, ">= 0"),
    ("evap.epsilon", float, 0.057, None),
    ("heating.gamma_tot_per_s", float, 0.041, ">= 0"),
    ("sim.t_max_s", float, 4.0, "> 0"),
    ("sim.n_points", int, 201, ">= 2"),
    ("ramp.depth_final_uK", float, 147.0, "> 0"),
    ("ramp.duration_ms", float, 70.0, ">= 0"),
    ("ramp.steps", int, 1024, ">= 1"),
    ("ramp.rethermalization", str, "collision-gated", _ONE_OF_MODES),
    ("bound.t_max_s", float, 4.0, ">= 0"),
    ("tof.sigma0_um", float, 40.0, ">= 0"),
    ("tof.noise_frac", float, 0.01, ">= 0"),
    ("tof.seed", int, 20240901, ">= 0"),
    ("tof.n_times", int, 8, ">= 3"),
    ("tof.t_min_ms", float, 0.5, ">= 0"),
    ("tof.t_max_ms", float, 6.0, ">= 0"),
    ("fit.max_iterations", int, 200, ">= 1"),
    ("fit.guess_gamma_per_s", float, 0.4, "> 0"),
    ("fit.guess_beta_cm3_per_s", float, 5.0e-12, "> 0"),
]

SCHEMA = {key: (typ, default, domain) for key, typ, default, domain in _SCHEMA_ROWS}

def _convert(key, raw, where=""):
    """raw as key's type, inside key's domain; where prefixes each error
    with the value's source, `<path>: line N: ` for a config file."""
    typ, _default, domain = SCHEMA[key]
    raw = raw.strip()
    if raw == "":
        raise ConfigError(f"{where}empty value for key {key}")
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"{where}cannot parse value {raw!r} for key {key} as {typ.__name__}"
        ) from None
    # ints are always finite, and math.isfinite overflows on very long ones
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{where}non-finite value {raw!r} for key {key}")
    if domain is not None and not _DOMAINS[domain](value):
        raise ConfigError(f"{where}{key} must be {domain}, got {raw}")
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
        values[key] = _convert(key, raw, f"{source}: line {lineno}: ")
    return values


def resolve_key(name):
    """Map a CLI flag name to a schema key: exact, or unique tail match."""
    if name in SCHEMA:
        return name
    if not name:
        # the bare token `--` reads as an override with an empty name
        raise ConfigError("`--` names no config key; an override is --<key> <value>")
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
    values = {key: default for key, (_typ, default, _domain) in SCHEMA.items()}
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
    sagittal, transversal = cfg["mode.diameter_sagittal_um"], cfg["mode.diameter_transversal_um"]
    try:
        return ModeGeometry(sagittal * 1e-6 / 2.0, transversal * 1e-6 / 2.0)
    except ValueError as exc:
        # each key is in its domain, so the record refuses what they give together
        raise ConfigError(
            f"{exc}: mode.diameter_sagittal_um = {sagittal!r} and "
            f"mode.diameter_transversal_um = {transversal!r}"
        ) from None


def trap_from_config(cfg: dict) -> TrapParameters:
    return TrapParameters(
        u0=cfg["trap.depth_uK"] * 1e-6 * CONST.kB,
        wavelength=cfg["trap.laser_wavelength_nm"] * 1e-9,
        mode=mode_from_config(cfg),
    )


def state_from_config(cfg: dict) -> TrapState:
    return TrapState(
        n_atoms=cfg["sample.atom_number"],
        temperature=cfg["sample.temperature_uK"] * 1e-6,
        trap=trap_from_config(cfg),
        envelope_sigma=(
            cfg["cloud.envelope_sigma_x_um"] * 1e-6,
            cfg["cloud.envelope_sigma_y_um"] * 1e-6,
            cfg["cloud.envelope_sigma_z_um"] * 1e-6,
        ),
    )
