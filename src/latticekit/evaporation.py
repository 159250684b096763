"""Plain evaporative cooling model for a deep optical lattice.

Escape of atoms above the well depth at a detailed-balance rate
Gamma_ev = rho_bar sigma_esc v_rms eta exp(-eta), the unitarity-limited
elastic cross section, the equivalent two-body coefficient

    beta_esc = 8 pi hbar^2 eta^(3/2) exp(-eta) / sqrt(3 U0 m^3),

and the temperature evolution T(t) = T(0) (1 - eps xi (1 - exp(-gamma t)))
driven by the kinetic-energy bookkeeping of the loss channels, with

    eps = (2/3) eta - 1 - 8/(3 sqrt(pi)) * int_0^sqrt(eta) r^4 exp(-r^2) dr.

beta_esc and the composition route through the cross section are implemented
independently; they must agree to machine precision (tested).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from .constants import CONST, M3_TO_CM3, Species, reduced_mass, thermal_velocity
from .errors import DomainError
from .trap import TrapState


@dataclass(frozen=True)
class EvapParams:
    """Evaporation working point."""

    eta: float
    u0: float                 # J
    epsilon: float
    beta_esc_cm3_per_s: float

    def __post_init__(self):
        if self.eta <= 0 or self.u0 <= 0:
            raise ValueError("eta and U0 must be positive")
        if self.epsilon < -1:
            raise ValueError("epsilon cannot drop below -1")
        if self.beta_esc_cm3_per_s <= 0:
            raise ValueError("beta_esc must be positive")

    @classmethod
    def from_depth_and_temperature(cls, u0, temperature, species):
        """Evaluate the working point for a given well depth and temperature."""
        eta_value = eta(u0, temperature)
        return cls(
            eta=eta_value,
            u0=u0,
            epsilon=epsilon(eta_value),
            beta_esc_cm3_per_s=beta_esc(u0, eta_value, species),
        )


@dataclass(frozen=True)
class TemperatureTrajectory:
    """Sampled T(t) with the generating parameters."""

    t: np.ndarray
    temperature: np.ndarray
    params: dict

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.temperature <= 0):
            raise ValueError("temperatures must stay positive")


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


def evaporation_rate(rho_bar_per_cm3, species, temperature, eta_value):
    """Per-atom escape rate rho_bar sigma_esc v_rms eta exp(-eta), 1/s.

    Composition route through the cross section and thermal velocity; kept
    independent of beta_esc on purpose.
    """
    if rho_bar_per_cm3 < 0:
        raise ValueError("density must be >= 0")
    if eta_value <= 0:
        raise ValueError("eta must be positive")
    sigma_v = unitarity_cross_section(species, temperature) * thermal_velocity(
        species, temperature
    )
    return (
        rho_bar_per_cm3
        * sigma_v * M3_TO_CM3
        * eta_value * math.exp(-eta_value)
    )


# ---------------------------------------------------------------------------
# energy bookkeeping

def truncated_r4_integral(eta_value: float, method: str = "closed") -> float:
    """int_0^sqrt(eta) r^4 exp(-r^2) dr by antiderivative or quadrature.

    Antiderivative: (3 sqrt(pi)/8) erf(x) - (x/4)(2 x^2 + 3) exp(-x^2).
    Both routes agree below 1e-10 absolute (tested); the closed form is the
    default.
    """
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    x = math.sqrt(eta_value)
    if method == "closed":
        return (
            3.0 * math.sqrt(math.pi) / 8.0 * erf(x)
            - x / 4.0 * (2.0 * eta_value + 3.0) * math.exp(-eta_value)
        )
    if method == "quadrature":
        value, _ = quad(
            lambda r: r**4 * math.exp(-r * r), 0.0, x,
            epsabs=1e-13, epsrel=1e-12,
        )
        return value
    raise ValueError(f"unknown method {method!r}")


def epsilon(eta_value: float, method: str = "closed") -> float:
    """Energy-removal coefficient of the temperature evolution.

    epsilon(0) = -1 and epsilon -> (2/3) eta - 2 for large eta. Negative
    values (eta below about 2.30) mean escape removes less kinetic energy
    than the sample average.
    """
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    integral = truncated_r4_integral(eta_value, method=method)
    return (
        2.0 / 3.0 * eta_value
        - 1.0
        - 8.0 / (3.0 * math.sqrt(math.pi)) * integral
    )


def removed_energy_mean(t0: float, eta_value: float) -> float:
    """Mean kinetic energy removed per evaporated atom,
    (3/2) kB T0 (1 + epsilon), J."""
    if t0 <= 0:
        raise ValueError("temperature must be > 0")
    return 1.5 * CONST.kB * t0 * (1.0 + epsilon(eta_value))


def mean_potential_energy(t0: float, eta_value: float) -> float:
    """Mean potential energy inside the trapping volume at temperature T0,
    (4/sqrt(pi)) kB T0 int_0^sqrt(eta) r^4 exp(-r^2) dr, J.

    Independent route; U0 - removed_energy_mean must match it (tested).
    """
    if t0 <= 0:
        raise ValueError("temperature must be > 0")
    return (
        4.0 / math.sqrt(math.pi) * CONST.kB * t0
        * truncated_r4_integral(eta_value, method="quadrature")
    )


def temperature(t, t0, epsilon_value, xi, gamma_per_s):
    """Closed-form T(t) = T0 (1 - eps xi (1 - exp(-gamma t)))."""
    if epsilon_value * xi >= 1.0:
        raise DomainError(
            "eps*xi >= 1: model predicts non-positive temperature"
        )
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    result = t0 * (1.0 - epsilon_value * xi * (1.0 - np.exp(-gamma_per_s * t_arr)))
    return float(result) if np.isscalar(t) else result


# ---------------------------------------------------------------------------
# photo-associative-loss scaling comparator

@dataclass(frozen=True)
class PacComparison:
    """Predicted change of the photo-associative loss rate between states."""

    ratio: float
    direction: str       # "decrease", "increase" or "unchanged"
    regime: str
    eta_consistent: bool  # False when the equal-eta assumption is violated


def pac_scaling_comparator(state_a: TrapState, state_b: TrapState,
                           regime: str = "unitarity",
                           eta_tolerance: float = 0.1) -> PacComparison:
    """Ratio Gamma_PAC(b) / Gamma_PAC(a) under the scaling
    Gamma_PAC ~ eta^(5/2) N T sigma_cc with equal eta in both states.

    unitarity regime: T sigma_cc constant, ratio = N_b / N_a.
    zero_T regime: T sigma_cc grows with T, ratio bounded by
    N_b T_b / (N_a T_a).
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
