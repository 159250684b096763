"""Physical constants and rubidium-85 atomic data.

Values are compile-time literals (CODATA 2018 and standard alkali tables) so
that every run reproduces the same numbers bit for bit. CONST and RB85 are
instances of the namedtuple records PhysicalConstants and Species, whose
constructors check the values.
"""

import math
from collections import namedtuple


class PhysicalConstants(namedtuple("PhysicalConstants", "c h hbar kB eps0 g")):
    """Fundamental constants, SI units: the speed of light c (m/s), the
    Planck constant h and reduced Planck constant hbar (J s), the Boltzmann
    constant kB (J/K), the vacuum permittivity eps0 (F/m) and the standard
    gravitational acceleration g (m/s^2)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("c", "h", "hbar", "kB", "eps0", "g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")
        return self


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


class Species(namedtuple(
    "Species", "name mass lambda_d2 lambda_d1 gamma_natural line_strengths"
)):
    """Atomic species data for the two-line (D2 + D1) trap model: the mass
    (kg), the D2 and D1 transition wavelengths (m), the D2 natural linewidth
    (rad/s) and the (D2, D1) relative dipole weights."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.lambda_d1 <= self.lambda_d2:
            raise ValueError("D1 wavelength must exceed D2 wavelength")
        if abs(sum(self.line_strengths) - 1.0) > 1e-12:
            raise ValueError("line strengths must sum to 1")
        return self


RB85 = Species(
    name="85Rb",
    mass=84.911789738 * ATOMIC_MASS_UNIT,
    lambda_d2=780.24e-9,
    lambda_d1=794.98e-9,
    gamma_natural=2.0 * math.pi * 6.07e6,
    line_strengths=(2.0 / 3.0, 1.0 / 3.0),
)


def reduced_mass(species: Species) -> float:
    """Reduced mass m/2 (kg) for a colliding pair of identical atoms."""
    return species.mass / 2.0


def thermal_velocity(species: Species, temperature: float) -> float:
    """Root mean square speed sqrt(3 kB T / m), m/s."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    return math.sqrt(3.0 * CONST.kB * temperature / species.mass)


def thermal_de_broglie(species: Species, temperature: float) -> float:
    """Thermal de Broglie wavelength h / sqrt(2 pi m kB T), m."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return CONST.h / math.sqrt(
        2.0 * math.pi * species.mass * CONST.kB * temperature
    )
