"""The package namespace: `import latticekit` binds only `__version__`,
every public name has one import path, the module that defines it, and the
records are read-only."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest
from conftest import state_a

import latticekit
from latticekit.cavity import CavitySpec, MirrorSpec
from latticekit.constants import CONST, RB85
from latticekit.fitting import Dataset
from latticekit.heating import NoiseSpectrum
from latticekit.losses import LossParams
from latticekit.ramp import RampProfile

# Every public name, by defining module (the README's library table).
EXPORTS = {
    "constants": (
        "CONST", "RB85", "PhysicalConstants", "Species", "reduced_mass",
        "thermal_de_broglie", "thermal_velocity",
    ),
    "cavity": (
        "CavitySpec", "MirrorSpec", "ModeGeometry", "circulating_power",
        "finesse_from_linewidth", "finesse_from_losses", "free_spectral_range",
        "implied_mode_matching", "linewidth_from_ring_down", "mode_volume",
        "power_buildup",
    ),
    "trap": (
        "CloudShape", "RegimeFlags", "TrapParameters", "TrapState",
        "classify_regimes", "collective_coupling", "dipole_depth_and_scatter",
        "intensity_for_depth", "lattice_peak_intensity", "peak_density",
        "phase_space_density", "polarizability", "recoil_frequency",
        "secular_frequencies", "state_phase_space_density",
        "thermal_cloud_shape", "trap_parameters",
    ),
    "losses": ("LossParams", "population", "xi_from_beta"),
    "evaporation": (
        "PacComparison", "beta_esc", "epsilon", "eta", "pac_scaling_comparator",
        "temperature", "time_argument", "truncated_r4_integral",
        "unitarity_cross_section",
    ),
    "heating": (
        "HeatingRates", "NoiseSpectrum", "bound_gamma_tot", "combined_temperature",
        "parametric_rate", "rates_from_spectrum", "total_rate",
    ),
    "ramp": (
        "RampProfile", "RampResult", "adiabatic_final_temperature", "ramp_simulate",
    ),
    "protocols": (
        "ExpansionFit", "ExpansionSeries", "expansion_sigma", "fit_expansion",
        "synthesize_expansion",
    ),
    "fitting": ("Dataset", "FitResult", "decay_jacobian", "fit_decay", "fit_epsilon"),
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


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_public_definition_is_listed(module):
    # the converse of the test above: no public function or class is left
    # off the table (instances such as CONST are listed but not found here)
    defining = importlib.import_module(f"latticekit.{module}")
    public = {
        name for name, value in vars(defining).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == defining.__name__
    }
    assert not public - set(EXPORTS[module]), sorted(public - set(EXPORTS[module]))


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


# One record per module, with the field that is assigned.
RECORDS = [
    pytest.param(CONST, "c", id="CONST"),
    pytest.param(RB85, "mass", id="RB85"),
    pytest.param(CavitySpec((MirrorSpec(23e-6, 3e-6),) * 3, 0.097),
                 "input_power_per_mode", id="CavitySpec"),
    pytest.param(state_a(), "temperature", id="TrapState"),
    pytest.param(LossParams(0.6, 7.5e-12, 0.1), "xi", id="LossParams"),
    pytest.param(NoiseSpectrum((100.0, 1e6), (1e-13, 1e-13)), "s_rel_per_hz",
                 id="NoiseSpectrum"),
    pytest.param(RampProfile(4.8e-27, 2.0e-27, 0.07), "duration", id="RampProfile"),
    pytest.param(Dataset([0.0, 1.0], [2.0, 1.0]), "sigma", id="Dataset"),
]


@pytest.mark.parametrize(("record", "field"), RECORDS)
def test_record_fields_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra_field = 1.0
    assert getattr(record, field) is before
