"""The package namespace: every exported name resolves lazily to its module."""

import importlib

import pytest

import latticekit

# Every name `latticekit` exports, by defining module.
EXPORTS = {
    "constants": (
        "CONST", "RB85", "PhysicalConstants", "Species", "reduced_mass",
        "thermal_de_broglie", "thermal_velocity",
    ),
    "cavity": (
        "CavitySpec", "MirrorSpec", "ModeGeometry", "circulating_power",
        "finesse_from_linewidth", "finesse_from_losses", "free_spectral_range",
        "linewidth_from_ring_down", "mode_volume", "power_buildup",
        "ring_down_from_linewidth",
    ),
    "trap": (
        "CloudShape", "RegimeFlags", "TrapParameters", "TrapState",
        "classify_regimes", "collective_coupling", "density_squared_integral",
        "dipole_depth_and_scatter", "mean_density", "peak_density",
        "phase_space_density", "polarizability", "secular_frequencies",
        "thermal_cloud_shape", "trap_parameters",
    ),
    "losses": (
        "LossParams", "loss_partition", "population", "xi_from_beta",
    ),
    "evaporation": (
        "EvapParams", "beta_esc", "epsilon", "eta", "evaporation_rate",
        "pac_scaling_comparator", "removed_energy_mean", "temperature",
        "unitarity_cross_section",
    ),
    "heating": (
        "HeatingRates", "NoiseSpectrum", "bound_gamma_tot", "combined_temperature",
        "parametric_rate", "total_rate",
    ),
    "ramp": (
        "RampProfile", "RampResult", "adiabatic_final_temperature", "ramp_simulate",
    ),
    "protocols": (
        "ExpansionSeries", "expansion_sigma", "fit_expansion", "synthesize_expansion",
    ),
    "fitting": ("Dataset", "FitResult", "fit_decay", "fit_epsilon"),
    "errors": ("ConfigError", "DomainError"),
}

CASES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize(("module", "name"), CASES, ids=[n for _m, n in CASES])
def test_exported_name_is_its_module_object(module, name):
    namespace = {}
    exec(f"from latticekit import {name}", namespace)
    defining = importlib.import_module(f"latticekit.{module}")
    assert namespace[name] is getattr(defining, name)
    assert getattr(latticekit, name) is getattr(defining, name)
    assert name in dir(latticekit)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from latticekit import *", namespace)
    assert {name for _m, name in CASES} <= set(namespace)
    assert sorted(latticekit.__all__) == sorted(name for _m, name in CASES)


def test_unknown_name_raises_attribute_error():
    # integrate_eq1 names an RK4 oracle, which lives in tests/oracles.py
    for name in ("no_such_name", "integrate_eq1"):
        with pytest.raises(AttributeError, match=name):
            getattr(latticekit, name)
        with pytest.raises(ImportError):
            exec(f"from latticekit import {name}", {})
