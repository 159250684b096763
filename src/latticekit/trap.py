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

The well (TrapParameters), the cloud shape (CloudShape) and the sample
(TrapState) are namedtuple records whose constructors check the values;
RegimeFlags is a plain namedtuple of four flags.
"""

import math
from collections import namedtuple

from .constants import CONST, Species
from .cavity import ModeGeometry


# ---------------------------------------------------------------------------
# dipole potential and scattering

def _line_terms(intensity, wavelength, species):
    """Per-line (potential, rate) contributions for the D2/D1 doublet.

    Rates carry the sign of the line detuning, so the Raman-coherent
    cancellation between opposite sides of the doublet survives the sum;
    callers take the magnitude of the total.
    """
    omega_laser = 2.0 * math.pi * CONST.c / wavelength
    gamma = species.gamma_natural
    terms = []
    for strength, lam in zip(
        species.line_strengths, (species.lambda_d2, species.lambda_d1)
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


def dipole_depth_and_scatter(intensity, wavelength, species):
    """Dipole potential (J, signed) and photon scattering rate (1/s) at a
    given peak intensity (W/m^2)."""
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    terms = _line_terms(intensity, wavelength, species)
    u_total = sum(u for u, _ in terms)
    rate_total = abs(sum(r for _, r in terms))
    return u_total, rate_total


def polarizability(species: Species, wavelength: float) -> float:
    """Ground-state polarizability (SI, C m^2/V) from the two-line model."""
    u_unit, _ = dipole_depth_and_scatter(1.0, wavelength, species)
    return -2.0 * CONST.eps0 * CONST.c * u_unit


def intensity_for_depth(depth, wavelength, species):
    """Peak intensity (W/m^2) producing a given trap depth |U| (J)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    u_unit, _ = dipole_depth_and_scatter(1.0, wavelength, species)
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

def secular_frequencies(u0, wavelength, w0, species):
    """(axial, radial) small-oscillation frequencies in Hz.

    Axial: standing-wave curvature, nu_a = (1/lambda) sqrt(2 U0 / m).
    Radial: Gaussian-beam curvature, nu_r = (1/2pi) sqrt(4 U0 / (m w0^2)).
    """
    if u0 <= 0 or wavelength <= 0 or w0 <= 0:
        raise ValueError("depth, wavelength and waist must be positive")
    nu_axial = math.sqrt(2.0 * u0 / species.mass) / wavelength
    nu_radial = math.sqrt(4.0 * u0 / (species.mass * w0**2)) / (2.0 * math.pi)
    return nu_axial, nu_radial


def recoil_frequency(species: Species, wavelength: float) -> float:
    """Photon recoil frequency hbar k^2 / (4 pi m), Hz."""
    k = 2.0 * math.pi / wavelength
    return CONST.hbar * k**2 / (4.0 * math.pi * species.mass)


class TrapParameters(namedtuple("TrapParameters", "u0 wavelength nu_axial nu_radial")):
    """Harmonic well parameters of the lattice: the well depth u0 (J), the
    lattice laser wavelength (m) and the axial and radial secular
    frequencies (Hz)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.u0 <= 0:
            raise ValueError("well depth must be positive")
        if self.nu_axial <= self.nu_radial:
            raise ValueError("axial frequency must exceed radial for this geometry")
        return self


def trap_parameters(u0, wavelength, mode: ModeGeometry, species) -> TrapParameters:
    """Build TrapParameters with frequencies derived from (U0, lambda, w0)."""
    nu_a, nu_r = secular_frequencies(u0, wavelength, mode.effective_waist, species)
    return TrapParameters(u0, wavelength, nu_a, nu_r)


RegimeFlags = namedtuple("RegimeFlags", "lamb_dicke_axial lamb_dicke_radial "
                         "strong_confinement_axial strong_confinement_radial")


def classify_regimes(trap: TrapParameters, species: Species) -> RegimeFlags:
    """Lamb-Dicke (nu above recoil) and strong-confinement (nu above natural
    linewidth) flags per degree of freedom, strict inequalities."""
    nu_rec = recoil_frequency(species, trap.wavelength)
    nu_gamma = species.gamma_natural / (2.0 * math.pi)
    return RegimeFlags(
        lamb_dicke_axial=trap.nu_axial > nu_rec,
        lamb_dicke_radial=trap.nu_radial > nu_rec,
        strong_confinement_axial=trap.nu_axial > nu_gamma,
        strong_confinement_radial=trap.nu_radial > nu_gamma,
    )


# ---------------------------------------------------------------------------
# cloud shape and densities

class CloudShape(namedtuple("CloudShape", "envelope_sigma per_well_sigma well_spacing")):
    """Gaussian envelope of well populations plus per-well thermal widths,
    each an (x, y, z) triple, and the well spacing (m)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(s <= 0 for s in self.envelope_sigma + self.per_well_sigma):
            raise ValueError("all widths must be positive")
        if self.well_spacing <= 0:
            raise ValueError("well spacing must be positive")
        return self

    @property
    def wells_resolved(self) -> bool:
        """Validity flag: per-well axial width well below the spacing."""
        return self.per_well_sigma[2] < 0.25 * self.well_spacing


def thermal_cloud_shape(species, trap: TrapParameters, temperature,
                        envelope_sigma) -> CloudShape:
    """CloudShape with per-well widths set thermally at the given temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    v = math.sqrt(CONST.kB * temperature / species.mass)
    sigma_radial = v / (2.0 * math.pi * trap.nu_radial)
    sigma_axial = v / (2.0 * math.pi * trap.nu_axial)
    return CloudShape(
        envelope_sigma=tuple(envelope_sigma),
        per_well_sigma=(sigma_radial, sigma_radial, sigma_axial),
        well_spacing=trap.wavelength / 2.0,
    )


class TrapState(namedtuple("TrapState", "n_atoms temperature trap shape")):
    """Sample of N atoms at temperature T (K) in a given trap and cloud shape."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_atoms < 0:
            raise ValueError("atom number must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        return self

    @property
    def eta(self) -> float:
        """Truncation parameter U0 / (kB T)."""
        return self.trap.u0 / (CONST.kB * self.temperature)


def peak_density(state: TrapState) -> float:
    """Central-well peak density (m^-3); formula in the module docstring."""
    sx, sy, sz = state.shape.envelope_sigma
    sw_z = state.shape.per_well_sigma[2]
    envelope_peak = state.n_atoms / ((2.0 * math.pi) ** 1.5 * sx * sy * sz)
    bunching = state.shape.well_spacing / (math.sqrt(2.0 * math.pi) * sw_z)
    return envelope_peak * bunching


def phase_space_density(species, rho_peak, temperature):
    """Peak density (m^-3) times the cubed thermal de Broglie wavelength."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if rho_peak < 0:
        raise ValueError("density must be >= 0")
    from .constants import thermal_de_broglie

    return rho_peak * thermal_de_broglie(species, temperature) ** 3


def state_phase_space_density(state: TrapState, species: Species) -> float:
    return phase_space_density(species, peak_density(state), state.temperature)


def collective_coupling(alpha, wavelength, w0, n_atoms, finesse):
    """Collective back-action figure r N F with the per-atom field
    reflectivity r = alpha / (eps0 lambda w0^2)."""
    if wavelength <= 0 or w0 <= 0:
        raise ValueError("wavelength and waist must be positive")
    r = alpha / (CONST.eps0 * wavelength * w0**2)
    return r * n_atoms * finesse
