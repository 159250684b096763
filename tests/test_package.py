"""The package namespace: `import latticekit` binds only `__version__`,
every public name has one import path, the module that defines it, and the
records are read-only and checked on every construction path."""

import copy
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import state_a
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticekit
from latticekit.cavity import CavitySpec, MirrorSpec, ModeGeometry
from latticekit.constants import CONST, RB85, CheckedRecord
from latticekit.fitting import Dataset
from latticekit.heating import HeatingRates, NoiseSpectrum
from latticekit.protocols import ExpansionSeries
from latticekit.ramp import RampProfile

# Every public name, by defining module (the README's library table).
EXPORTS = {
    "constants": (
        "CONST", "RB85", "CheckedRecord", "PhysicalConstants", "Species",
        "thermal_de_broglie", "thermal_velocity",
    ),
    "cavity": (
        "CavitySpec", "MirrorSpec", "ModeGeometry", "circulating_power",
        "finesse_from_linewidth", "finesse_from_losses", "free_spectral_range",
        "implied_mode_matching", "linewidth_from_ring_down", "mode_volume",
        "power_buildup",
    ),
    "trap": (
        "RegimeFlags", "TrapParameters", "TrapState",
        "classify_regimes", "collective_coupling", "dipole_depth_and_scatter",
        "intensity_for_depth", "lattice_peak_intensity", "peak_density",
        "phase_space_density", "polarizability", "recoil_frequency",
        "secular_frequencies",
    ),
    "losses": ("population", "xi_from_beta"),
    "evaporation": (
        "PacComparison", "beta_esc", "epsilon", "eta", "pac_scaling_comparator",
        "over_times", "temperature", "truncated_r4_integral",
        "unitarity_cross_section",
    ),
    "heating": (
        "HeatingRates", "NoiseSpectrum", "bound_gamma_tot", "parametric_rate",
        "rates_from_spectrum",
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


# One record per module that defines records, with the field that is assigned.
RECORDS = [
    pytest.param(CONST, "c", id="CONST"),
    pytest.param(RB85, "mass", id="RB85"),
    pytest.param(CavitySpec((MirrorSpec(23e-6, 3e-6),) * 3, 0.097),
                 "input_power_per_mode", id="CavitySpec"),
    pytest.param(state_a(), "temperature", id="TrapState"),
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


# Every checked record, a field and a value its constructor refuses, with
# the constructor's error text.
CHECKED = [
    (MirrorSpec(23e-6, 3e-6), "transmission", -1e-6,
     "mirror losses must be non-negative"),
    (CavitySpec((MirrorSpec(23e-6, 3e-6),) * 3, 0.097), "round_trip_length", 0.0,
     "round trip length must be positive"),
    (ModeGeometry(1.1e-4, 0.9e-4), "waist_sagittal", 0.0, "waists must be positive"),
    (state_a().trap, "u0", 0.0, "well depth must be positive"),
    (state_a(), "temperature", 0.0, "temperature must be > 0"),
    (NoiseSpectrum((100.0, 1e6), (1e-13, 1e-13)), "freq_hz", [2.0, 1.0],
     "frequencies must be positive and increasing"),
    (HeatingRates(0.1, 0.2), "gamma_axial", -1.0, "rates must be >= 0"),
    (RampProfile(4.8e-27, 2.0e-27, 0.07), "duration", -1.0, "duration must be >= 0"),
    (ExpansionSeries(np.array([0.0, 1e-3]), np.array([1e-4, 2e-4]), np.ones(2)),
     "sigma", [1e-4, -2e-4], "expansion widths must be positive"),
    (Dataset([0.0, 1.0], [2.0, 1.0]), "value", [2.0, -1.0], "values must be positive"),
    # built from a list of mirrors, which the record keeps as a tuple
    (CavitySpec([MirrorSpec(23e-6, 3e-6)] * 3, 0.097), "mirrors",
     [MirrorSpec(0.9, 0.09)] * 3, "total round-trip loss must stay below 1"),
]


def _same(a, b):
    """Same record type and equal fields, arrays compared by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b, strict=True)
    )


# A value just outside each domain that a _domains row names: the float
# next to the bound, at both ends of an interval.
OUTSIDE = {"> 0": (0.0,), ">= 0": (-5e-324,), "in [0, 1]": (-5e-324, math.nextafter(1.0, 2.0))}

# One record of each checked kind, in its domain, and its float columns.
KINDS = {type(c[0]): c[0] for c in CHECKED}
COLUMNS = {kind: [field for field, value in record._asdict().items()
                  if type(value) is tuple and all(type(v) is float for v in value)]
           for kind, record in KINDS.items()}


def _domain_rows():
    """A CHECKED row for each _domains row of every record at each value of
    OUTSIDE, given as the field or as the first cell of a column."""
    rows = []
    for kind, record in KINDS.items():
        for field, domain, text in record._domains:
            column = field in COLUMNS[kind]
            slot = f"{kind.__name__}.{field}[0]" if column else f"{kind.__name__}.{field}"
            for bad in OUTSIDE[domain]:
                value = [bad, *getattr(record, field)[1:]] if column else bad
                rows.append(pytest.param(record, field, value, text, id=f"{slot}={bad!r}"))
    return rows


@pytest.mark.parametrize(("record", "field", "bad", "text"), [
    *(pytest.param(*c, id=type(c[0]).__name__) for c in CHECKED[:-1]),
    pytest.param(*CHECKED[-1], id="CavitySpec-list"),
    *_domain_rows(),
])
def test_every_construction_path_checks(record, field, bad, text):
    # a list field would stay mutable behind the checks
    assert not any(isinstance(value, list) for value in record)
    assert _same(type(record)._make(tuple(record)), record)
    assert _same(record._replace(), record)
    assert _same(pickle.loads(pickle.dumps(record)), record)
    assert _same(copy.deepcopy(record), record)
    fields = record._asdict()
    fields[field] = bad
    with pytest.raises(ValueError, match=re.escape(text)):
        type(record)(**fields)
    with pytest.raises(ValueError, match=re.escape(text)):
        record._replace(**{field: bad})
    with pytest.raises(ValueError, match=re.escape(text)):
        type(record)._make(fields.values())


# Each column of every column record given a scalar, a 2-d array (one row
# per cell) or, beside other columns, one cell too few.
SHAPES = [
    pytest.param(record, field, bad, id=f"{type(record).__name__}.{field}-{shape}")
    for kind, record in KINDS.items()
    for field in COLUMNS[kind]
    for shape, bad in (("scalar", 1.0), ("2-d", np.array(getattr(record, field))[:, None]),
                       ("short", getattr(record, field)[:-1]))
    if shape != "short" or len(COLUMNS[kind]) > 1
]


@pytest.mark.parametrize(("record", "field", "bad"), SHAPES)
def test_column_shape_errors_are_value_errors(record, field, bad):
    fields = record._asdict()
    fields[field] = bad
    text = "must be 1-d of equal length"
    with pytest.raises(ValueError, match=text):
        type(record)(**fields)
    with pytest.raises(ValueError, match=text):
        type(record)._make(fields.values())
    with pytest.raises(ValueError, match=text):
        record._replace(**{field: bad})


# Finite cells whose float sum overflows, in each column of every column
# record: the sum is inf, so only the cell walk can accept the column.
@pytest.mark.parametrize(("record", "field"), [
    pytest.param(record, field, id=f"{kind.__name__}.{field}")
    for kind, record in KINDS.items() for field in COLUMNS[kind]
])
def test_columns_whose_sum_overflows_are_finite(record, field):
    cells = [1e308 * (1 + i / 10) for i in range(len(getattr(record, field)))]
    assert math.isinf(sum(cells))
    assert getattr(record._replace(**{field: cells}), field) == tuple(cells)


# A column record built from arrays of each dtype stores the floats that a
# cell-by-cell float() gives, bit for bit; the arrays convert in one call.
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
@pytest.mark.parametrize("kind", [Dataset, ExpansionSeries])
def test_array_columns_convert_as_float_does_cell_by_cell(kind, dtype):
    cells = ([0.0, 0.1], [1 / 3, 2.5e-7], [0.7, 1e-5])
    if dtype in (np.int64, np.bool_):
        cells = ([0, 1], [1, 3], [2, 1])
    arrays = [np.array(c).astype(dtype) for c in cells]
    record = kind(*arrays)
    for stored, array in zip(record, arrays, strict=True):
        expected = tuple(map(float, array))
        assert type(stored) is tuple and all(type(v) is float for v in stored)
        assert [v.hex() for v in stored] == [v.hex() for v in expected]


# Every checked record at in-domain values. Each float field, and each float
# cell of a sequence field, is a slot "Record.field" or "Record.field[i]":
# the sequences are short and their cells far apart, so scaling one cell by
# 1/2 to 2 keeps it in the domain, the times increasing and the mirror losses
# below 1.
FINITE = [
    MirrorSpec(23e-6, 3e-6),
    CavitySpec((MirrorSpec(23e-6, 3e-6),) * 3, 0.097, 60e-6, 0.5),
    ModeGeometry(134e-6, 129e-6),
    state_a().trap,
    state_a(),
    NoiseSpectrum((100.0, 1e4, 1e6), (1e-13, 2e-13, 1e-14)),
    HeatingRates(0.1, 0.2),
    RampProfile(4.8e-27, 2.0e-27, 0.07),
    ExpansionSeries(np.array([0.0, 1e-3, 4e-3]), np.array([1e-4, 2e-4, 5e-4]),
                    np.array([3.0, 2.0, 1.0])),
    Dataset([0.0, 1.0, 4.0, 16.0], [4.0, 3.0, 2.0, 1.0], [0.1, 0.2, 0.1, 0.2]),
]


def _slots():
    slots = {}
    for record in FINITE:
        name = type(record).__name__
        for field, value in record._asdict().items():
            if isinstance(value, float):
                slots[f"{name}.{field}"] = (record, field, None)
            elif type(value) in (tuple, np.ndarray) and all(isinstance(v, float) for v in value):
                for i in range(len(value)):
                    slots[f"{name}.{field}[{i}]"] = (record, field, i)
    return slots


SLOTS = _slots()


def _cell(record, field, index):
    return getattr(record, field) if index is None else getattr(record, field)[index]


def _set(record, field, index, value):
    """The record's fields with one field, or one cell of it, set to value."""
    fields = record._asdict()
    if index is None:
        fields[field] = value
    else:
        fields[field] = [*fields[field][:index], value, *fields[field][index + 1:]]
    return fields


@settings(max_examples=300)
@given(st.sampled_from(sorted(SLOTS)), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.floats(0.5, 2.0))
@example("MirrorSpec.transmission", math.nan, 1.0)
@example("MirrorSpec.transmission", math.inf, 1.0)  # no "must sum below 1"
@example("CavitySpec.round_trip_length", math.inf, 1.0)
@example("ModeGeometry.waist_sagittal", math.nan, 1.0)
@example("TrapParameters.u0", math.inf, 1.0)  # no "axial must exceed radial"
@example("TrapParameters.wavelength", math.nan, 1.0)
@example("TrapState.n_atoms", math.nan, 1.0)
@example("TrapState.envelope_sigma[2]", math.inf, 1.0)
@example("HeatingRates.gamma_axial", math.inf, 1.0)
@example("RampProfile.u_initial", math.nan, 1.0)
@example("NoiseSpectrum.s_rel_per_hz[0]", math.nan, 1.0)
@example("ExpansionSeries.sigma[1]", math.nan, 1.0)
@example("ExpansionSeries.times[2]", math.inf, 1.0)
@example("Dataset.value[0]", -math.inf, 1.0)
@example("TrapState.n_atoms", 10**400, 1.0)  # an int beyond the float range
@example("MirrorSpec.transmission", 10**400, 1.0)
def test_records_refuse_non_finite_values(slot, bad, scale):
    assert {type(r) for r in FINITE} == {type(c[0]) for c in CHECKED}
    record, field, index = SLOTS[slot]
    kind = type(record)
    fields = _set(record, field, index, bad)
    with pytest.raises(ValueError, match="must be finite"):
        kind(**fields)
    with pytest.raises(ValueError, match="must be finite"):
        kind._make(fields.values())
    with pytest.raises(ValueError, match="must be finite"):
        record._replace(**{field: fields[field]})
    # a finite in-domain value builds the same record on every path
    value = float(_cell(record, field, index)) * scale
    fields = _set(record, field, index, value)
    built = kind(**fields)
    assert _same(kind._make(fields.values()), built)
    assert _same(record._replace(**{field: fields[field]}), built)
    assert _cell(built, field, index) == value


# Finite fields whose derived value overflows: the product of the waists
# under effective_waist's square root, the sum under gamma_total.
@pytest.mark.parametrize(("kind", "fields", "derived"), [
    (ModeGeometry, (1e200, 1e200), "effective_waist"),
    (HeatingRates, (1e308, 1e308), "gamma_total"),
])
def test_records_refuse_an_overflowing_derived_value(kind, fields, derived):
    text = f"{derived} must be finite"
    with pytest.raises(ValueError, match=text):
        kind(*fields)
    with pytest.raises(ValueError, match=text):
        kind._make(fields)
    built = kind(fields[0], 1.0)
    with pytest.raises(ValueError, match=text):
        built._replace(**{kind._fields[1]: fields[1]})


# A record stores only its inputs, so replacing one re-derives every property
# that follows from it: each row names an input, its new value and the
# derived values a fresh construction gives.
STATE = state_a()
REPLACED = [
    pytest.param(STATE, "temperature", 4 * STATE.temperature, {
        # the per-well widths scale as sqrt(T), the lattice period not at all
        "per_well_sigma": tuple(2 * w for w in STATE.per_well_sigma),
        "well_spacing": STATE.well_spacing,
        "wells_resolved": False,
    }, id="TrapState"),
    pytest.param(STATE.trap, "u0", 4 * STATE.trap.u0, {
        "nu_axial": 2 * STATE.trap.nu_axial,
        "nu_radial": 2 * STATE.trap.nu_radial,
    }, id="TrapParameters"),
    pytest.param(HeatingRates(0.1, 0.2), "gamma_axial", 1.0, {
        "gamma_total": (1.0 + 2.0 * 0.2) / 3.0,
        "e_folding_time": 1.0 / ((1.0 + 2.0 * 0.2) / 3.0),
    }, id="HeatingRates"),
]


@pytest.mark.parametrize(("record", "field", "value", "derived"), REPLACED)
def test_replace_rederives_the_derived_properties(record, field, value, derived):
    replaced = record._replace(**{field: value})
    assert replaced == type(record)(**{**record._asdict(), field: value})
    for name, expected in derived.items():
        assert getattr(replaced, name) == expected, name


def test_every_checked_record_builds_through_the_base():
    # a record subclassing a namedtuple defines neither __new__ nor _make, so
    # its _replace and _make cannot bypass CheckedRecord's _checked
    records = {}
    for info in pkgutil.iter_modules(latticekit.__path__):
        module = importlib.import_module(f"latticekit.{info.name}")
        for name, value in vars(module).items():
            if (inspect.isclass(value) and issubclass(value, tuple)
                    and hasattr(value, "_fields") and value.__bases__ != (tuple,)):
                records[name] = value
    for name, record in records.items():
        assert "__new__" not in vars(record) and "_make" not in vars(record), name
        assert hasattr(record, "_checked") == issubclass(record, CheckedRecord), name
    checked = {name for name, record in records.items() if hasattr(record, "_checked")}
    assert checked == {type(c[0]).__name__ for c in CHECKED}
