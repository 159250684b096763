import math

import pytest
from conftest import LATTICE_WAVELENGTH, REFERENCE_MODE, make_lattice_state, state_a, state_b
from scipy import constants as scipy_constants

from latticekit.cavity import CavitySpec, MirrorSpec
from latticekit.constants import CONST, RB85, Species
from latticekit.trap import (
    CloudShape,
    TrapParameters,
    classify_regimes,
    collective_coupling,
    dipole_depth_and_scatter,
    intensity_for_depth,
    lattice_peak_intensity,
    peak_density,
    phase_space_density,
    polarizability,
    recoil_frequency,
    secular_frequencies,
    state_phase_space_density,
    thermal_cloud_shape,
    trap_parameters,
)

U0_REF = 350e-6 * CONST.kB
W0_REF = REFERENCE_MODE.effective_waist


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# dipole potential and scattering

D2_ONLY = Species("toyD2", RB85.mass, 780.0e-9, 795.0e-9,
                  RB85.gamma_natural, (1.0, 0.0))


def _wavelength_at_detuning(species, delta):
    omega = 2 * math.pi * CONST.c / species.lambda_d2 + delta
    return 2 * math.pi * CONST.c / omega


def test_d2_only_detuning_scaling():
    delta = -2 * math.pi * 3e12
    lam1 = _wavelength_at_detuning(D2_ONLY, delta)
    lam2 = _wavelength_at_detuning(D2_ONLY, 2 * delta)
    intensity = 1e7
    u1, g1 = dipole_depth_and_scatter(intensity, lam1, D2_ONLY)
    u2, g2 = dipole_depth_and_scatter(intensity, lam2, D2_ONLY)
    assert u1 < 0 and g1 > 0  # red detuning traps
    # 1/Delta vs 1/Delta^2: depth halves, scattering quarters, up to the
    # slowly varying omega_line^3 prefactor (identical line -> exact)
    assert rel(abs(u2), abs(u1) / 2) < 1e-12
    assert rel(g2, g1 / 4) < 1e-12


def test_dipole_zero_intensity():
    assert dipole_depth_and_scatter(0.0, 787.6e-9, RB85) == (0.0, 0.0)


def test_dipole_resonant_rejected():
    with pytest.raises(ValueError):
        dipole_depth_and_scatter(1.0, RB85.lambda_d2, RB85)


def test_depth_scatter_ratio_near_reference_point():
    # drive chain: 60 uW in, ideal build-up, standing-wave antinode
    cavity = CavitySpec(
        mirrors=(MirrorSpec(23e-6, 3e-6), MirrorSpec(0.8e-6, 3e-6),
                 MirrorSpec(0.8e-6, 3e-6)),
        round_trip_length=0.097,
        input_power_per_mode=60e-6,
    )
    from latticekit.cavity import circulating_power

    intensity = lattice_peak_intensity(circulating_power(cavity), REFERENCE_MODE)
    u, rate = dipole_depth_and_scatter(intensity, LATTICE_WAVELENGTH, RB85)
    assert u < 0
    ratio_model = abs(u) / rate
    ratio_reference = (350e-6 * CONST.kB) / 40.0
    factor = ratio_reference / ratio_model
    # the quoted operating point and the two-line model agree to a factor 2
    assert 0.5 < factor < 2.0
    assert abs(factor - 1.90) < 0.05  # regression pin


def test_scattering_rate_positive_between_lines():
    _u, rate = dipole_depth_and_scatter(1e6, 787.6e-9, RB85)
    assert rate > 0


def test_polarizability_matches_direct_formula():
    lam = 787.6e-9
    alpha = polarizability(RB85, lam)
    omega_l = 2 * math.pi * CONST.c / lam
    expected = 0.0
    for s, line in zip(RB85.line_strengths, (RB85.lambda_d2, RB85.lambda_d1)):
        omega = 2 * math.pi * CONST.c / line
        expected += -3 * math.pi * CONST.eps0 * CONST.c**3 * RB85.gamma_natural * s / (
            omega**3 * (omega_l - omega)
        )
    assert rel(alpha, expected) < 1e-12
    assert alpha > 0


def test_intensity_for_depth_round_trip():
    intensity = intensity_for_depth(U0_REF, LATTICE_WAVELENGTH, RB85)
    u, _ = dipole_depth_and_scatter(intensity, LATTICE_WAVELENGTH, RB85)
    assert rel(abs(u), U0_REF) < 1e-12


# ---------------------------------------------------------------------------
# secular frequencies

def test_secular_frequencies_reference():
    nu_a, nu_r = secular_frequencies(U0_REF, LATTICE_WAVELENGTH, W0_REF, RB85)
    assert rel(nu_a, 340e3) < 0.05
    assert rel(nu_r, 460.0) < 0.05


def test_secular_frequencies_sqrt_depth_scaling():
    nu_a, nu_r = secular_frequencies(U0_REF, LATTICE_WAVELENGTH, W0_REF, RB85)
    nu_a4, nu_r4 = secular_frequencies(4 * U0_REF, LATTICE_WAVELENGTH, W0_REF, RB85)
    assert rel(nu_a4, 2 * nu_a) < 1e-12
    assert rel(nu_r4, 2 * nu_r) < 1e-12


def test_secular_frequency_100uk():
    nu_a_350, _ = secular_frequencies(U0_REF, LATTICE_WAVELENGTH, W0_REF, RB85)
    nu_a_100, _ = secular_frequencies(
        100e-6 * CONST.kB, LATTICE_WAVELENGTH, W0_REF, RB85
    )
    assert rel(nu_a_100, nu_a_350 * math.sqrt(100 / 350)) < 1e-12
    assert abs(nu_a_100 - 177e3) < 2e3


def test_depth_round_trip_from_axial_frequency():
    # nu_a = sqrt(2 U0 / m) / lambda inverts to U0 = m (nu_a lambda)^2 / 2
    nu_a, _ = secular_frequencies(U0_REF, LATTICE_WAVELENGTH, W0_REF, RB85)
    depth = RB85.mass * (nu_a * LATTICE_WAVELENGTH) ** 2 / 2.0
    assert rel(depth, U0_REF) < 1e-10


def test_trap_parameters_validation():
    with pytest.raises(ValueError):
        TrapParameters(u0=-1.0, wavelength=787.6e-9, nu_axial=1e5, nu_radial=1e2)
    with pytest.raises(ValueError):
        TrapParameters(u0=1e-27, wavelength=787.6e-9, nu_axial=1e2, nu_radial=1e5)


# ---------------------------------------------------------------------------
# regimes

def test_recoil_frequency_value():
    # oracle from an independent constants table
    k = 2 * math.pi / LATTICE_WAVELENGTH
    mass = 84.911789738 * scipy_constants.atomic_mass
    expected = scipy_constants.hbar * k**2 / (4 * math.pi * mass)
    assert rel(recoil_frequency(RB85, LATTICE_WAVELENGTH), expected) < 1e-6
    assert abs(recoil_frequency(RB85, LATTICE_WAVELENGTH) - 3.8e3) < 0.1e3


def test_classify_reference_power():
    trap = trap_parameters(U0_REF, LATTICE_WAVELENGTH, REFERENCE_MODE, RB85)
    flags = classify_regimes(trap, RB85)
    assert flags.lamb_dicke_axial            # 340 kHz above 3.8 kHz recoil
    assert not flags.lamb_dicke_radial       # 460 Hz below recoil
    assert not flags.strong_confinement_axial


def test_classify_high_power():
    # 25 mW drive instead of 60 uW scales the depth by the power ratio
    u0 = U0_REF * (25e-3 / 60e-6)
    trap = trap_parameters(u0, LATTICE_WAVELENGTH, REFERENCE_MODE, RB85)
    flags = classify_regimes(trap, RB85)
    assert flags.lamb_dicke_radial
    assert flags.strong_confinement_axial


def test_strong_confinement_boundary_is_strict():
    nu_gamma = RB85.gamma_natural / (2 * math.pi)
    trap = TrapParameters(
        u0=1e-25, wavelength=787.6e-9, nu_axial=nu_gamma, nu_radial=1.0
    )
    assert not classify_regimes(trap, RB85).strong_confinement_axial


def test_classify_monotone_in_depth():
    previous = None
    for scale in (0.5, 1, 4, 20, 100, 500):
        trap = trap_parameters(scale * U0_REF, LATTICE_WAVELENGTH, REFERENCE_MODE, RB85)
        flags = classify_regimes(trap, RB85)
        current = (
            flags.lamb_dicke_axial, flags.lamb_dicke_radial,
            flags.strong_confinement_axial, flags.strong_confinement_radial,
        )
        if previous is not None:
            for before, after in zip(previous, current):
                assert not (before and not after)
        previous = current


# ---------------------------------------------------------------------------
# densities

def test_peak_density_reference_state_a():
    assert rel(peak_density(state_a()), 9e17) < 1e-9


def test_peak_density_reference_default_envelope():
    # the committed default envelope was calibrated to state (a)
    assert rel(peak_density(make_lattice_state(4e6, 123e-6, 350.0)), 9e17) < 1e-9


def test_peak_density_linear_in_n():
    base = make_lattice_state(4e6, 123e-6, 350.0)
    doubled = make_lattice_state(8e6, 123e-6, 350.0)
    assert rel(peak_density(doubled), 2 * peak_density(base)) < 1e-12


def test_peak_density_reference_state_b():
    assert rel(peak_density(state_b()), 6.8e17) < 1e-9


def test_wells_resolved_flag():
    assert state_a().shape.wells_resolved
    hot = CloudShape(
        envelope_sigma=(1e-4, 1e-4, 1e-3),
        per_well_sigma=(1e-5, 1e-5, 3e-7),
        well_spacing=787.6e-9 / 2,
    )
    assert not hot.wells_resolved


def test_peak_density_eta_scaling():
    # at fixed depth and N, cooling T -> T/4 quadruples eta and halves the
    # thermal widths on all three axes: the density grows by 8 = 4^(3/2), the
    # harmonic scaling rho ~ N eta^(3/2) the ramp applies to rho_peak / 4
    trap = trap_parameters(U0_REF, LATTICE_WAVELENGTH, REFERENCE_MODE, RB85)
    sigma_env_z = 5.6e-4

    from latticekit.trap import TrapState

    def rho_peak(temp):
        v = math.sqrt(CONST.kB * temp / RB85.mass)
        sigma_r = v / (2 * math.pi * trap.nu_radial)
        shape = thermal_cloud_shape(RB85, trap, temp, (sigma_r, sigma_r, sigma_env_z))
        return peak_density(TrapState(4e6, temp, trap, shape))

    assert rel(rho_peak(123e-6 / 4), 8 * rho_peak(123e-6)) < 1e-12


def test_phase_space_density_reference_values():
    assert rel(phase_space_density(RB85, 9e17, 123e-6), 4.5e-6) < 0.10
    assert rel(phase_space_density(RB85, 6.8e17, 38e-6), 2.0e-5) < 0.10
    assert phase_space_density(RB85, 0.0, 123e-6) == 0.0


def test_phase_space_density_n_t_scaling():
    # envelope transverse widths thermal, envelope z fixed: psd ~ N T^-3
    psd1 = state_phase_space_density(make_lattice_state(4e6, 123e-6, 350.0), RB85)
    psd2 = state_phase_space_density(make_lattice_state(4e6, 4 * 123e-6, 350.0), RB85)
    psd3 = state_phase_space_density(make_lattice_state(8e6, 123e-6, 350.0), RB85)
    assert rel(psd2, psd1 / 64.0) < 1e-9
    assert rel(psd3, 2 * psd1) < 1e-12


def test_peak_density_transverse_axis_relabel():
    state = state_a()
    sx, sy, sz = state.shape.envelope_sigma
    swapped_shape = CloudShape(
        envelope_sigma=(sy, sx, sz),
        per_well_sigma=state.shape.per_well_sigma,
        well_spacing=state.shape.well_spacing,
    )
    from latticekit.trap import TrapState

    swapped = TrapState(state.n_atoms, state.temperature, state.trap, swapped_shape)
    assert peak_density(swapped) == peak_density(state)


# ---------------------------------------------------------------------------
# collective coupling

def test_collective_coupling_inversion():
    w0 = W0_REF
    lam = LATTICE_WAVELENGTH
    n, finesse = 1e6, 1.8e5
    alpha = CONST.eps0 * lam * w0**2 / (n * finesse)
    assert rel(collective_coupling(alpha, lam, w0, n, finesse), 1.0) < 1e-12


def test_collective_coupling_linear_in_n():
    alpha = polarizability(RB85, LATTICE_WAVELENGTH)
    one = collective_coupling(alpha, LATTICE_WAVELENGTH, W0_REF, 1e6, 1.8e5)
    two = collective_coupling(alpha, LATTICE_WAVELENGTH, W0_REF, 2e6, 1.8e5)
    assert rel(two, 2 * one) < 1e-15


def test_collective_coupling_reference_magnitude():
    alpha = polarizability(RB85, LATTICE_WAVELENGTH)
    rnf = collective_coupling(alpha, LATTICE_WAVELENGTH, W0_REF, 1e6, 1.8e5)
    assert 0.1 <= rnf <= 10.0
