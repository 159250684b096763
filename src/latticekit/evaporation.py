"""Plain evaporative cooling model for a deep optical lattice.

Escape of atoms above the well depth at a detailed-balance rate
Gamma_ev = rho_bar sigma_esc v_rms eta exp(-eta), the unitarity-limited
elastic cross section, the equivalent two-body coefficient

    beta_esc = 8 pi hbar^2 eta^(3/2) exp(-eta) / sqrt(3 U0 m^3),

and the temperature evolution T(t) = T(0) (1 - eps xi (1 - exp(-gamma t)))
driven by the kinetic-energy bookkeeping of the loss channels, with

    eps = (2/3) eta - 1 - 8/(3 sqrt(pi)) * int_0^sqrt(eta) r^4 exp(-r^2) dr.

beta_esc is the closed form. The composition route through the cross
section and the thermal velocity is the independent oracle
tests/oracles.evaporation_rate; the two must agree to machine precision
(acceptance criterion 3d).
"""

import math
from collections import namedtuple

from .constants import CONST, M3_TO_CM3, Species, reduced_mass, thermal_velocity
from .errors import DomainError
from .trap import TrapState


def eta(u0: float, temperature: float) -> float:
    """Truncation parameter U0 / (kB T)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return u0 / (CONST.kB * temperature)


def unitarity_cross_section(species: Species, temperature: float) -> float:
    """Unitarity-limited elastic cross section 4 pi hbar^2 / (mu^2 dv^2), m^2.

    dv^2 is the mean square relative velocity, twice the single-particle
    v_rms^2.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    mu = reduced_mass(species)
    dv2 = 2.0 * thermal_velocity(species, temperature) ** 2
    return 4.0 * math.pi * CONST.hbar**2 / (mu**2 * dv2)


def beta_esc(u0: float, eta_value: float, species: Species) -> float:
    """Equivalent two-body escape coefficient, cm^3/s (closed form)."""
    if u0 <= 0 or eta_value <= 0:
        raise ValueError("U0 and eta must be positive")
    si = (
        8.0 * math.pi * CONST.hbar**2 * eta_value**1.5 * math.exp(-eta_value)
        / math.sqrt(3.0 * u0 * species.mass**3)
    )
    return si * M3_TO_CM3


# ---------------------------------------------------------------------------
# energy bookkeeping

def truncated_r4_integral(eta_value: float) -> float:
    """int_0^sqrt(eta) r^4 exp(-r^2) dr from its antiderivative,
    (3 sqrt(pi)/8) erf(x) - (x/4)(2 x^2 + 3) exp(-x^2), with math.erf."""
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    x = math.sqrt(eta_value)
    return (
        3.0 * math.sqrt(math.pi) / 8.0 * math.erf(x)
        - x / 4.0 * (2.0 * eta_value + 3.0) * math.exp(-eta_value)
    )


def epsilon(eta_value: float) -> float:
    """Energy-removal coefficient of the temperature evolution.

    epsilon(0) = -1 and epsilon -> (2/3) eta - 2 for large eta. Negative
    values (eta below about 2.30) mean escape removes less kinetic energy
    than the sample average.
    """
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    integral = truncated_r4_integral(eta_value)
    return (
        2.0 / 3.0 * eta_value
        - 1.0
        - 8.0 / (3.0 * math.sqrt(math.pi)) * integral
    )


def time_argument(t):
    """(times, exp, is_scalar) for a closed form evaluated at t >= 0.

    A Python int or float stays a float and is paired with math.exp, so
    scalar callers never load numpy; anything else becomes a float array
    paired with np.exp.
    """
    if isinstance(t, (int, float)):
        if t < 0:
            raise ValueError("time must be >= 0")
        return float(t), math.exp, True
    import numpy as np

    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    return t_arr, np.exp, bool(np.isscalar(t))


def temperature(t, t0, epsilon_value, xi, gamma_per_s):
    """Closed-form T(t) = T0 (1 - eps xi (1 - exp(-gamma t))); scalar or array t."""
    if epsilon_value * xi >= 1.0:
        raise DomainError(
            "eps*xi >= 1: model predicts non-positive temperature"
        )
    t, exp, scalar = time_argument(t)
    result = t0 * (1.0 - epsilon_value * xi * (1.0 - exp(-gamma_per_s * t)))
    return float(result) if scalar else result


# ---------------------------------------------------------------------------
# photo-associative-loss scaling comparator

PacComparison = namedtuple("PacComparison", "ratio direction regime eta_consistent")


def pac_scaling_comparator(state_a: TrapState, state_b: TrapState,
                           regime: str = "unitarity",
                           eta_tolerance: float = 0.1) -> PacComparison:
    """Ratio Gamma_PAC(b) / Gamma_PAC(a) under the scaling
    Gamma_PAC ~ eta^(5/2) N T sigma_cc with equal eta in both states.

    unitarity regime: T sigma_cc constant, ratio = N_b / N_a.
    zero_T regime: T sigma_cc grows with T, ratio bounded by
    N_b T_b / (N_a T_a).

    The direction is "decrease", "increase" or "unchanged", and
    eta_consistent is False when the equal-eta assumption is violated.
    """
    eta_a, eta_b = state_a.eta, state_b.eta
    consistent = abs(eta_b - eta_a) <= eta_tolerance * eta_a
    if regime == "unitarity":
        ratio = state_b.n_atoms / state_a.n_atoms
    elif regime == "zero_T":
        ratio = (state_b.n_atoms * state_b.temperature) / (
            state_a.n_atoms * state_a.temperature
        )
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if ratio < 1.0:
        direction = "decrease"
    elif ratio > 1.0:
        direction = "increase"
    else:
        direction = "unchanged"
    return PacComparison(ratio, direction, regime, consistent)
