"""Physical constants, rubidium-85 atomic data and the checked-record base.

Values are compile-time literals (CODATA 2018 and standard alkali tables) so
that every run reproduces the same numbers bit for bit; tests/test_constants.py
pins each of them. The toolkit models 85Rb only, so every function reads RB85
directly.

CONST is a PhysicalConstants namedtuple of SI values: the speed of light c
(m/s), the Planck constant h and reduced Planck constant hbar (J s), the
Boltzmann constant kB (J/K), the vacuum permittivity eps0 (F/m) and the
standard gravitational acceleration g (m/s^2).

RB85 is a Species namedtuple holding the data of the two-line (D2 + D1) trap
model: the mass (kg), the D2 and D1 transition wavelengths (m), the D2
natural linewidth (rad/s) and the (D2, D1) relative dipole weights.

DOMAINS defines each value domain of the config schema and the records once,
_all_finite the one finiteness test of a float column, which the records and
the CSV reader and writer share. CheckedRecord is the records' one
construction path: the constructor, _make, _replace, pickle and copy all
check and convert through it, the float columns included, so what a valid
column is lives here only. _fsum is the one checked sum of the pure fits.
"""

import math
from collections import namedtuple

PhysicalConstants = namedtuple("PhysicalConstants", "c h hbar kB eps0 g")

Species = namedtuple(
    "Species", "name mass lambda_d2 lambda_d1 gamma_natural line_strengths"
)


# each domain by the name its error messages give it
DOMAINS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, "in [0, 1]": lambda v: 0 <= v <= 1,
           ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2, ">= 3": lambda v: v >= 3}


def _all_finite(cells):
    """Whether every cell of a float sequence is finite: a finite sum has only
    finite terms, so only a sum that is not finite walks the cells."""
    return math.isfinite(sum(cells)) or all(map(math.isfinite, cells))


class CheckedRecord:
    """Base listed before a record's namedtuple. Each field of _columns becomes
    a tuple of finite floats (a given tuple of floats is kept as it is) or,
    if its default is None, may be None. Each (field, domain, message) row
    of _domains then refuses a value outside DOMAINS[domain] with
    ValueError, a column by its least cell (every column domain is a lower
    bound), a scalar also when not finite. _checked then checks the rules
    that join cells or fields and returns the fields to store."""

    __slots__ = ()
    _columns = ()
    _domains = ()

    def __new__(cls, *args, **kwargs):
        # the namedtuple binds the arguments by name and fills its defaults
        self = super().__new__(cls, *args, **kwargs)
        if cls._columns:
            self = tuple.__new__(cls, self._float_columns())
        for field, domain, message in cls._domains:
            value = getattr(self, field)
            if field in cls._columns:
                if not value:  # None, or no cells
                    continue
                value = min(value)
            else:
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int beyond the float range
                    finite = False
                if not finite:
                    raise ValueError(f"{field} must be finite")
            if not DOMAINS[domain](value):
                raise ValueError(message)
        return tuple.__new__(cls, self._checked())

    def _float_columns(self):
        """The field values, each column a tuple of finite floats."""
        fields = self._asdict()
        given = [n for n in self._columns
                 if fields[n] is not None or self._field_defaults.get(n, 0) is not None]
        listed = " and ".join(", ".join(self._columns).rsplit(", ", 1))  # "t, value and sigma"
        columns = ()
        try:
            if all(getattr(fields[name], "ndim", 1) == 1 for name in given):  # an array states its ndim
                columns = [c if type(c) is tuple and set(map(type, c)) <= {float}
                           else tuple(map(float, c)) for c in map(fields.get, given)]
        except TypeError:  # a scalar, or a nested row
            pass
        if len(set(map(len, columns))) != 1:
            raise ValueError(f"{listed} must be 1-d of equal length")
        if not all(map(_all_finite, columns)):
            raise ValueError(f"{listed} must be finite")
        fields.update(zip(given, columns))
        return fields.values()

    def _checked(self):
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _fsum(terms):
    """The correctly rounded math.fsum of float terms, under the error policy
    of the fits: FloatingPointError where numpy's raise policy raised, that
    is when a term or the sum overflows (inf) or is undefined (nan)."""
    try:
        total = math.fsum(terms)
    except OverflowError:  # finite terms whose sum overflows
        total = math.inf
    except ValueError:  # inf - inf
        total = math.nan
    if not math.isfinite(total):
        kind = "invalid value" if math.isnan(total) else "overflow"
        raise FloatingPointError(f"{kind} encountered in fsum")
    return total


_H = 6.62607015e-34

CONST = PhysicalConstants(
    c=299792458.0,
    h=_H,
    hbar=_H / (2.0 * math.pi),  # derived so h = 2*pi*hbar holds exactly
    kB=1.380649e-23,
    eps0=8.8541878128e-12,
    g=9.80665,
)

ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg

M3_TO_CM3 = 1e6  # cm^3 per m^3

RB85 = Species(
    name="85Rb",
    mass=84.911789738 * ATOMIC_MASS_UNIT,
    lambda_d2=780.24e-9,
    lambda_d1=794.98e-9,
    gamma_natural=2.0 * math.pi * 6.07e6,
    line_strengths=(2.0 / 3.0, 1.0 / 3.0),
)


# 3 kB and m of thermal_velocity, read once: a record field read costs more
# than a module global
_THREE_KB = 3.0 * CONST.kB
_MASS = RB85.mass


def _thermal_velocity(temperature):
    # the unchecked body, which the ramp calls once per step
    return math.sqrt(_THREE_KB * temperature / _MASS)


def thermal_velocity(temperature: float) -> float:
    """Root mean square speed sqrt(3 kB T / m), m/s."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    return _thermal_velocity(temperature)


def thermal_de_broglie(temperature: float) -> float:
    """Thermal de Broglie wavelength h / sqrt(2 pi m kB T), m."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return CONST.h / math.sqrt(
        2.0 * math.pi * RB85.mass * CONST.kB * temperature
    )
