"""latticekit: ring-cavity optical lattice modeling and fitting toolkit.

Names are resolved lazily (PEP 562): `from latticekit import X` imports only
the module that defines X, so the scalar command-line paths never load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constants": (
        "CONST",
        "RB85",
        "PhysicalConstants",
        "Species",
        "reduced_mass",
        "thermal_de_broglie",
        "thermal_velocity",
    ),
    "cavity": (
        "CavitySpec",
        "MirrorSpec",
        "ModeGeometry",
        "circulating_power",
        "finesse_from_linewidth",
        "finesse_from_losses",
        "free_spectral_range",
        "linewidth_from_ring_down",
        "mode_volume",
        "power_buildup",
        "ring_down_from_linewidth",
    ),
    "trap": (
        "CloudShape",
        "RegimeFlags",
        "TrapParameters",
        "TrapState",
        "classify_regimes",
        "collective_coupling",
        "density_squared_integral",
        "dipole_depth_and_scatter",
        "mean_density",
        "peak_density",
        "phase_space_density",
        "polarizability",
        "secular_frequencies",
        "thermal_cloud_shape",
        "trap_parameters",
    ),
    "losses": (
        "LossParams",
        "loss_partition",
        "population",
        "xi_from_beta",
    ),
    "evaporation": (
        "EvapParams",
        "beta_esc",
        "epsilon",
        "eta",
        "evaporation_rate",
        "pac_scaling_comparator",
        "removed_energy_mean",
        "temperature",
        "unitarity_cross_section",
    ),
    "heating": (
        "HeatingRates",
        "NoiseSpectrum",
        "bound_gamma_tot",
        "combined_temperature",
        "parametric_rate",
        "total_rate",
    ),
    "ramp": (
        "RampProfile",
        "RampResult",
        "adiabatic_final_temperature",
        "ramp_simulate",
    ),
    "protocols": (
        "ExpansionSeries",
        "expansion_sigma",
        "fit_expansion",
        "synthesize_expansion",
    ),
    "fitting": (
        "Dataset",
        "FitResult",
        "fit_decay",
        "fit_epsilon",
    ),
    "errors": ("ConfigError", "DomainError"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
