"""Dipole-trap and lattice-cloud model.

Trap depth and photon scattering follow the standard two-line potential over
the D2/D1 doublet. Secular frequencies use the standing-wave curvature along
the lattice axis and the Gaussian-beam curvature across it.

Density model: atoms occupy lattice wells spaced by lambda/2 with a Gaussian
envelope of well populations, and each well holds a thermal Gaussian in the
harmonic approximation. The central-well peak density is

    rho_peak = N / ((2 pi)^(3/2) sx sy sz) * (lambda/2) / (sqrt(2 pi) sw_z)

with (sx, sy, sz) the envelope widths and sw_z the per-well axial thermal
width, i.e. the smooth envelope density boosted by the axial bunching factor
(lattice period over well width). The envelope widths are calibration inputs,
not predictions. Gravity is neglected: the axial confinement is orders of
magnitude stiffer than the gravitational sag scale even though the lattice
is vertical.

Every function models 85Rb and reads its data from constants.RB85. The
well (TrapParameters) and the sample (TrapState) are constants.CheckedRecord
records, checked however they are built. Each stores only its inputs: the
secular frequencies, the per-well thermal widths and the well spacing are
properties derived from them, so a record built by _replace never holds a
stale derived value. RegimeFlags is a plain namedtuple of four flags.
"""

import math
from collections import namedtuple

from .constants import CONST, RB85, CheckedRecord, thermal_de_broglie
from .cavity import ModeGeometry


# ---------------------------------------------------------------------------
# dipole potential and scattering

def _line_terms(intensity, wavelength):
    """Per-line (potential, rate) contributions for the D2/D1 doublet.

    Rates carry the sign of the line detuning, so the Raman-coherent
    cancellation between opposite sides of the doublet survives the sum;
    callers take the magnitude of the total.
    """
    omega_laser = 2.0 * math.pi * CONST.c / wavelength
    gamma = RB85.gamma_natural
    terms = []
    for strength, lam in zip(
        RB85.line_strengths, (RB85.lambda_d2, RB85.lambda_d1)
    ):
        omega_line = 2.0 * math.pi * CONST.c / lam
        detuning = omega_laser - omega_line
        if detuning == 0:
            raise ValueError("laser resonant with an atomic line")
        u_line = (
            strength
            * (3.0 * math.pi * CONST.c**2 * gamma / (2.0 * omega_line**3))
            * intensity
            / detuning
        )
        rate_line = gamma / (CONST.hbar * detuning) * abs(u_line)
        terms.append((u_line, rate_line))
    return terms


def dipole_depth_and_scatter(intensity, wavelength):
    """Dipole potential (J, signed) and photon scattering rate (1/s) at a
    given peak intensity (W/m^2)."""
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    terms = _line_terms(intensity, wavelength)
    u_total = sum(u for u, _ in terms)
    rate_total = abs(sum(r for _, r in terms))
    return u_total, rate_total


def polarizability(wavelength: float) -> float:
    """Ground-state polarizability (SI, C m^2/V) from the two-line model."""
    u_unit, _ = dipole_depth_and_scatter(1.0, wavelength)
    return -2.0 * CONST.eps0 * CONST.c * u_unit


def intensity_for_depth(depth, wavelength):
    """Peak intensity (W/m^2) producing a given trap depth |U| (J)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    u_unit, _ = dipole_depth_and_scatter(1.0, wavelength)
    return depth / abs(u_unit)


def lattice_peak_intensity(power_per_mode: float, mode: ModeGeometry) -> float:
    """Antinode intensity of the standing wave built from two
    counter-propagating modes of equal power (W/m^2)."""
    if power_per_mode < 0:
        raise ValueError("power must be >= 0")
    return 8.0 * power_per_mode / (
        math.pi * mode.waist_sagittal * mode.waist_transversal
    )


# ---------------------------------------------------------------------------
# harmonic well parameters

def secular_frequencies(u0, wavelength, w0):
    """(axial, radial) small-oscillation frequencies in Hz.

    Axial: standing-wave curvature, nu_a = (1/lambda) sqrt(2 U0 / m).
    Radial: Gaussian-beam curvature, nu_r = (1/2pi) sqrt(4 U0 / (m w0^2)).
    """
    if u0 <= 0 or wavelength <= 0 or w0 <= 0:
        raise ValueError("depth, wavelength and waist must be positive")
    nu_axial = math.sqrt(2.0 * u0 / RB85.mass) / wavelength
    nu_radial = math.sqrt(4.0 * u0 / (RB85.mass * w0**2)) / (2.0 * math.pi)
    return nu_axial, nu_radial


def recoil_frequency(wavelength: float) -> float:
    """Photon recoil frequency hbar k^2 / (4 pi m), Hz."""
    k = 2.0 * math.pi / wavelength
    return CONST.hbar * k**2 / (4.0 * math.pi * RB85.mass)


class TrapParameters(CheckedRecord, namedtuple("TrapParameters", "u0 wavelength mode")):
    """Harmonic well of the lattice: the well depth u0 (J), the lattice laser
    wavelength (m) and the mode (ModeGeometry) whose effective waist sets
    the radial curvature. The secular frequencies (Hz) follow from them."""

    __slots__ = ()
    _domains = (("u0", "> 0", "well depth must be positive"),
                ("wavelength", "> 0", "depth, wavelength and waist must be positive"))

    def _checked(self):
        if self.nu_axial <= self.nu_radial:
            raise ValueError("axial frequency must exceed radial for this geometry")
        return self

    @property
    def nu_axial(self) -> float:
        """Axial secular frequency, Hz."""
        return secular_frequencies(self.u0, self.wavelength, self.mode.effective_waist)[0]

    @property
    def nu_radial(self) -> float:
        """Radial secular frequency, Hz."""
        return secular_frequencies(self.u0, self.wavelength, self.mode.effective_waist)[1]


RegimeFlags = namedtuple("RegimeFlags", "lamb_dicke_axial lamb_dicke_radial "
                         "strong_confinement_axial strong_confinement_radial")


def classify_regimes(trap: TrapParameters) -> RegimeFlags:
    """Lamb-Dicke (nu above recoil) and strong-confinement (nu above natural
    linewidth) flags per degree of freedom, strict inequalities."""
    nu_rec = recoil_frequency(trap.wavelength)
    nu_gamma = RB85.gamma_natural / (2.0 * math.pi)
    return RegimeFlags(
        lamb_dicke_axial=trap.nu_axial > nu_rec,
        lamb_dicke_radial=trap.nu_radial > nu_rec,
        strong_confinement_axial=trap.nu_axial > nu_gamma,
        strong_confinement_radial=trap.nu_radial > nu_gamma,
    )


# ---------------------------------------------------------------------------
# cloud shape and densities

class TrapState(CheckedRecord, namedtuple(
    "TrapState", "n_atoms temperature trap envelope_sigma"
)):
    """Sample of N atoms at temperature T (K) in a given trap, with the
    (x, y, z) widths (m) of the Gaussian envelope of well populations stored
    as a tuple of floats. The per-well widths are thermal at T."""

    __slots__ = ()
    _domains = (("n_atoms", ">= 0", "atom number must be >= 0"),
                ("temperature", "> 0", "temperature must be > 0"))

    def _checked(self):
        envelope = tuple(map(float, self.envelope_sigma))
        if len(envelope) != 3:
            raise ValueError("the envelope needs 3 widths (x, y, z)")
        if not all(map(math.isfinite, envelope)):
            raise ValueError("envelope_sigma must be finite")
        if any(s <= 0 for s in envelope + self.per_well_sigma):
            raise ValueError("all widths must be positive")
        return self.n_atoms, self.temperature, self.trap, envelope

    @property
    def per_well_sigma(self) -> tuple:
        """Thermal (x, y, z) widths of the atoms in one harmonic well, m."""
        v = math.sqrt(CONST.kB * self.temperature / RB85.mass)
        sigma_radial = v / (2.0 * math.pi * self.trap.nu_radial)
        sigma_axial = v / (2.0 * math.pi * self.trap.nu_axial)
        return (sigma_radial, sigma_radial, sigma_axial)

    @property
    def well_spacing(self) -> float:
        """Lattice period lambda / 2, m."""
        return self.trap.wavelength / 2.0

    @property
    def wells_resolved(self) -> bool:
        """Validity flag: per-well axial width well below the spacing."""
        return self.per_well_sigma[2] < 0.25 * self.well_spacing


def peak_density(state: TrapState) -> float:
    """Central-well peak density (m^-3); formula in the module docstring."""
    sx, sy, sz = state.envelope_sigma
    sw_z = state.per_well_sigma[2]
    envelope_peak = state.n_atoms / ((2.0 * math.pi) ** 1.5 * sx * sy * sz)
    bunching = state.well_spacing / (math.sqrt(2.0 * math.pi) * sw_z)
    return envelope_peak * bunching


def phase_space_density(rho_peak, temperature):
    """Peak density (m^-3) times the cubed thermal de Broglie wavelength."""
    if rho_peak < 0:
        raise ValueError("density must be >= 0")
    return rho_peak * thermal_de_broglie(temperature) ** 3


def collective_coupling(alpha, wavelength, w0, n_atoms, finesse):
    """Collective back-action figure r N F with the per-atom field
    reflectivity r = alpha / (eps0 lambda w0^2)."""
    if wavelength <= 0 or w0 <= 0:
        raise ValueError("wavelength and waist must be positive")
    r = alpha / (CONST.eps0 * wavelength * w0**2)
    return r * n_atoms * finesse
