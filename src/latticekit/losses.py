"""Trap-population decay: background plus density-dependent two-body losses.

The rate equation dN/dt = -gamma N - beta * integral(rho^2) with the
constant-temperature closure rho_peak(t) proportional to N(t) has the closed
form  N(t) = N0 exp(-gamma t) / (1 + xi (1 - exp(-gamma t)))  with
xi = beta rho_peak / (4 gamma).

Volume-carrying quantities (beta, densities) use cm^3 at this interface,
matching how such coefficients are conventionally quoted.
"""

import math
from dataclasses import dataclass

from .evaporation import time_argument


@dataclass(frozen=True)
class LossParams:
    """Decay parameters: background rate, two-body coefficient and their
    dimensionless combination xi."""

    gamma_per_s: float
    beta_cm3_per_s: float
    xi: float

    def __post_init__(self):
        if self.gamma_per_s <= 0:
            raise ValueError("gamma must be positive")
        if self.beta_cm3_per_s < 0 or self.xi < 0:
            raise ValueError("beta and xi must be >= 0")

    @classmethod
    def from_beta(cls, gamma_per_s, beta_cm3_per_s, rho_peak_per_cm3):
        return cls(
            gamma_per_s,
            beta_cm3_per_s,
            xi_from_beta(beta_cm3_per_s, rho_peak_per_cm3, gamma_per_s),
        )


def xi_from_beta(beta_cm3_per_s, rho_peak_per_cm3, gamma_per_s):
    """Dimensionless two-body loss strength beta rho_peak / (4 gamma)."""
    if gamma_per_s <= 0:
        raise ValueError("gamma must be positive")
    xi = beta_cm3_per_s * rho_peak_per_cm3 / (4.0 * gamma_per_s)
    if not math.isfinite(xi):
        raise ValueError("two-body loss strength xi overflows")
    return xi


def population(t, n0, gamma_per_s, xi):
    """Closed-form N(t); accepts scalar or array t >= 0."""
    t, exp, scalar = time_argument(t)
    decay = exp(-gamma_per_s * t)
    result = n0 * decay / (1.0 + xi * (1.0 - decay))
    return float(result) if scalar else result


def loss_partition(t, n0, gamma_per_s, xi):
    """(N1, N2): atoms lost to the background channel and to two-body
    collisions. Bookkeeping identity N + N1 + N2 = N0 holds exactly."""
    if t < 0:
        raise ValueError("time must be >= 0")
    n1 = n0 * (1.0 - math.exp(-gamma_per_s * t))
    n2 = n0 - n1 - population(t, n0, gamma_per_s, xi)
    return n1, n2
