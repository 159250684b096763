"""Shared test plumbing: the Hypothesis profile and acceptance-criterion
reporting."""

from hypothesis import settings

# Every property test draws the same examples on every run, has no time limit
# per example and writes no example database; each test sets max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

ACCEPTANCE_LINES = []


def record(line):
    ACCEPTANCE_LINES.append(line)


def check(name, ok, detail):
    """Record one acceptance line and assert it."""
    record(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared reference states

import math

from latticekit.cavity import ModeGeometry
from latticekit.constants import CONST, RB85
from latticekit.trap import TrapParameters, TrapState, peak_density

LATTICE_WAVELENGTH = 787.6e-9
REFERENCE_MODE = ModeGeometry(268e-6 / 2, 258e-6 / 2)
REFERENCE_SIGMA_Z = 555.56195528493e-6  # the cloud.envelope_sigma_z_um default


def make_lattice_state(n_atoms, temperature, depth_uk, rho_peak_per_cm3=None):
    """TrapState at the reference geometry.

    Transverse envelope widths are thermal, and the axial one is the
    reference default. When a target peak density is given, the axial width
    is rescaled to reproduce it: peak_density is inversely proportional to
    that width.
    """
    trap = TrapParameters(
        depth_uk * 1e-6 * CONST.kB, LATTICE_WAVELENGTH, REFERENCE_MODE
    )
    v = math.sqrt(CONST.kB * temperature / RB85.mass)
    sigma_r = v / (2 * math.pi * trap.nu_radial)

    def state(sigma_z):
        return TrapState(n_atoms, temperature, trap, (sigma_r, sigma_r, sigma_z))

    reference = state(REFERENCE_SIGMA_Z)
    if rho_peak_per_cm3 is None:
        return reference
    return state(
        REFERENCE_SIGMA_Z * peak_density(reference) / (rho_peak_per_cm3 * 1e6)
    )


def state_a(rho=9e11):
    return make_lattice_state(4e6, 123e-6, 350.0, rho)


def state_b(rho=6.8e11):
    return make_lattice_state(1.5e6, 38e-6, 100.0, rho)
