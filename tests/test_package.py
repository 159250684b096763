"""The package namespace: `import latticekit` binds only `__version__`, and
every public name has one import path, the module that defines it."""

import importlib
import os
import subprocess
import sys

import pytest

import latticekit

# Every public name, by defining module (the README's library table).
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
    defining = importlib.import_module(f"latticekit.{module}")
    value = getattr(defining, name)
    # defined in that module (an instance reports its class's module),
    # not re-exported from another one, and not bound on the package
    assert value.__module__ == defining.__name__
    assert not hasattr(latticekit, name)


def test_unknown_name_raises_attribute_error():
    # integrate_eq1 names an RK4 oracle, which lives in tests/oracles.py
    for name in ("no_such_name", "integrate_eq1"):
        with pytest.raises(AttributeError, match=name):
            getattr(latticekit, name)
        with pytest.raises(ImportError):
            exec(f"from latticekit import {name}", {})


# Runs in a fresh interpreter, where no test has imported a submodule yet.
_IMPORT_SCRIPT = """
import sys

import latticekit

loaded = sorted(m for m in sys.modules
                if m.startswith("latticekit.") or m.split(".")[0] == "numpy")
assert not loaded, f"import latticekit loaded {loaded}"
public = sorted(n for n in vars(latticekit) if not n.startswith("__"))
assert not public, f"latticekit binds {public}"
assert isinstance(latticekit.__version__, str)

namespace = {}
exec("from latticekit import *", namespace)
assert not set(namespace) - {"__builtins__"}, sorted(namespace)
try:
    from latticekit import population
except ImportError:
    pass
else:
    sys.exit("from latticekit import population succeeded")
"""


def test_import_binds_only_version():
    src = os.path.dirname(os.path.dirname(os.path.abspath(latticekit.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
