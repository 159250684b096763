"""Trap-population decay: background plus density-dependent two-body losses.

The rate equation dN/dt = -gamma N - beta * integral(rho^2) with the
constant-temperature closure rho_peak(t) proportional to N(t) has the closed
form  N(t) = N0 exp(-gamma t) / (1 + xi (1 - exp(-gamma t)))  with
xi = beta rho_peak / (4 gamma). The 4 is the lattice convention
integral(rho^2) = N rho_peak / 4; a bare Gaussian cloud would give
N rho_peak / 2^(3/2).

The decay parameters are plain floats, in the domain gamma > 0 and xi >= 0.
Volume-carrying quantities (beta, densities) use cm^3 at this interface,
matching how such coefficients are conventionally quoted.
"""

import math

from .evaporation import over_times


def xi_from_beta(beta_cm3_per_s, rho_peak_per_cm3, gamma_per_s):
    """Dimensionless two-body loss strength beta rho_peak / (4 gamma)."""
    if gamma_per_s <= 0:
        raise ValueError("gamma must be positive")
    xi = beta_cm3_per_s * rho_peak_per_cm3 / (4.0 * gamma_per_s)
    if not math.isfinite(xi):
        raise ValueError("two-body loss strength xi overflows")
    return xi


def population(t, n0, gamma_per_s, xi):
    """Closed-form N(t) at the times t >= 0 (a float, a list or tuple of
    floats, or an array; see evaporation.over_times)."""
    minus_gamma = -gamma_per_s

    def curve(t, exp):
        decay = exp(minus_gamma * t)
        return n0 * decay / (1.0 + xi * (1.0 - decay))

    return over_times(t, curve)
