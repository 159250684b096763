"""Evaporative cooling model for a deep optical lattice.

Escape of atoms above the well depth at a detailed-balance rate
Gamma_ev = rho_bar sigma_esc v_rms eta exp(-eta), the unitarity-limited
elastic cross section, the equivalent two-body coefficient

    beta_esc = 8 pi hbar^2 eta^(3/2) exp(-eta) / sqrt(3 U0 m^3),

and the temperature evolution T(t) = T(0) (1 - eps xi (1 - exp(-gamma t)))
driven by the kinetic-energy bookkeeping of the loss channels, with

    eps = (2/3) eta - 1 - 8/(3 sqrt(pi)) * int_0^sqrt(eta) r^4 exp(-r^2) dr.

temperature is that cooling law, with an optional parametric heating rate
gamma_tot (see heating) on top.

beta_esc is the closed form. The composition route through the cross
section and the thermal velocity is the independent oracle
tests/oracles.evaporation_rate; the two must agree to machine precision
(acceptance criterion 3d).
"""

import math
from collections import namedtuple

from .constants import CONST, M3_TO_CM3, RB85, _thermal_velocity
from .errors import DomainError
from .trap import TrapState

# The constant left-most factors of the formulas below, multiplied out once:
# a record field read costs more than a module global. Each is the product
# the formula would form first, so every result is bit for bit the inline one.
_KB = CONST.kB
_MU2 = (RB85.mass / 2.0) ** 2
_FOUR_PI_HBAR2 = 4.0 * math.pi * CONST.hbar**2
_EIGHT_PI_HBAR2 = 8.0 * math.pi * CONST.hbar**2
_MASS3 = RB85.mass**3
_ERF_WEIGHT = 3.0 * math.sqrt(math.pi) / 8.0
_INTEGRAL_WEIGHT = 8.0 / (3.0 * math.sqrt(math.pi))

# Each formula is written once, as a private body with no argument checks:
# the public functions below check their arguments and call it, and the ramp
# (see ramp) calls the bodies once per step with the intermediates they
# share, one exp(-eta) and one sqrt(eta) per step and one v_rms.


def _eta(u0, temperature):
    return u0 / (_KB * temperature)


def _unitarity_cross_section(v_rms):
    return _FOUR_PI_HBAR2 / (_MU2 * (2.0 * v_rms**2))


def _beta_esc(u0, eta_value, exp_minus_eta):
    return (
        _EIGHT_PI_HBAR2 * eta_value**1.5 * exp_minus_eta
        / math.sqrt(3.0 * u0 * _MASS3) * M3_TO_CM3
    )


def _truncated_r4_integral(eta_value, sqrt_eta, exp_minus_eta):
    return (
        _ERF_WEIGHT * math.erf(sqrt_eta)
        - sqrt_eta / 4.0 * (2.0 * eta_value + 3.0) * exp_minus_eta
    )


def _epsilon(eta_value, sqrt_eta, exp_minus_eta):
    return (
        2.0 / 3.0 * eta_value
        - 1.0
        - _INTEGRAL_WEIGHT * _truncated_r4_integral(eta_value, sqrt_eta, exp_minus_eta)
    )


def eta(u0: float, temperature: float) -> float:
    """Truncation parameter U0 / (kB T)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return _eta(u0, temperature)


def unitarity_cross_section(temperature: float) -> float:
    """Unitarity-limited elastic cross section 4 pi hbar^2 / (mu^2 dv^2), m^2.

    dv^2 is the mean square relative velocity, twice the single-particle
    v_rms^2, and mu = m/2 is the reduced mass of two identical atoms.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return _unitarity_cross_section(_thermal_velocity(temperature))


def beta_esc(u0: float, eta_value: float) -> float:
    """Equivalent two-body escape coefficient, cm^3/s (closed form)."""
    if u0 <= 0 or eta_value <= 0:
        raise ValueError("U0 and eta must be positive")
    return _beta_esc(u0, eta_value, math.exp(-eta_value))


# ---------------------------------------------------------------------------
# energy bookkeeping

def truncated_r4_integral(eta_value: float) -> float:
    """int_0^sqrt(eta) r^4 exp(-r^2) dr from its antiderivative,
    (3 sqrt(pi)/8) erf(x) - (x/4)(2 x^2 + 3) exp(-x^2), with math.erf."""
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    return _truncated_r4_integral(eta_value, math.sqrt(eta_value), math.exp(-eta_value))


def epsilon(eta_value: float) -> float:
    """Energy-removal coefficient of the temperature evolution.

    epsilon(0) = -1 and epsilon -> (2/3) eta - 2 for large eta. Negative
    values (eta below about 2.30) mean escape removes less kinetic energy
    than the sample average.
    """
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    return _epsilon(eta_value, math.sqrt(eta_value), math.exp(-eta_value))


def over_times(t, curve):
    """curve(t, exp), a closed form's formula, evaluated at the times t >= 0.

    A Python int or float gives a float and a list or tuple a list, both
    from math.exp, one curve call per time, so these callers never load
    numpy; anything else becomes a float array, evaluated in one curve call
    with np.exp.
    """
    if isinstance(t, (int, float)):
        if t < 0:
            raise ValueError("time must be >= 0")
        return float(curve(float(t), math.exp))
    if isinstance(t, (list, tuple)):
        # min(t) >= 0 rules out a negative time unless t starts with a nan,
        # where min returns nan; any() settles that case
        if t and not min(t) >= 0 and any(time < 0 for time in t):
            raise ValueError("time must be >= 0")
        return [curve(time, math.exp) for time in t]
    import numpy as np

    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    result = curve(t_arr, np.exp)
    return float(result) if np.isscalar(t) else result


def temperature(t, t0, epsilon_value, xi, gamma_per_s, gamma_tot=0.0):
    """Closed-form T(t) of dT/dt = -eps xi gamma exp(-gamma t) T0 + gamma_tot T.

    T(t) = T0 exp(k t) (1 - eps xi g/(k+g) (1 - exp(-(k+g) t))) with
    k = gamma_tot and g = gamma; at the default k = 0 it is the cooling law
    T0 (1 - eps xi (1 - exp(-g t))) bit for bit at every finite t. The
    times t >= 0 are a float, a list or tuple of floats, or an array (see
    over_times).
    """
    eps_xi = epsilon_value * xi
    if eps_xi >= 1.0:
        raise DomainError("eps*xi >= 1: model predicts non-positive temperature")
    if t0 <= 0:
        raise ValueError("temperature must be > 0")
    if gamma_tot < 0:
        raise ValueError("gamma_tot must be >= 0")
    if gamma_per_s <= 0:
        raise ValueError("gamma must be positive")
    rate = gamma_tot + gamma_per_s
    minus_rate = -rate
    cooled_share = eps_xi * (gamma_per_s / rate)

    def curve(t, exp):
        try:
            growth = exp(gamma_tot * t)
        except OverflowError:  # math.exp raises where np.exp overflows to inf
            growth = math.inf
        return t0 * growth * (1.0 - cooled_share * (1.0 - exp(minus_rate * t)))

    return over_times(t, curve)


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
    eta_a = eta(state_a.trap.u0, state_a.temperature)
    eta_b = eta(state_b.trap.u0, state_b.temperature)
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
