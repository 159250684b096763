"""Trap-population decay: background plus density-dependent two-body losses.

The rate equation dN/dt = -gamma N - beta * integral(rho^2) with the
constant-temperature closure rho_peak(t) proportional to N(t) has the closed
form  N(t) = N0 exp(-gamma t) / (1 + xi (1 - exp(-gamma t)))  with
xi = beta rho_peak / (4 gamma). A fixed-step RK4 integrator of the raw rate
equation (integrate_eq1) is kept only as the test oracle for that closed form.

Volume-carrying quantities (beta, densities) use cm^3 at this interface,
matching how such coefficients are conventionally quoted.
"""

import math
from dataclasses import dataclass

from .integrate import rk4_path


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


@dataclass(frozen=True)
class PopulationTrajectory:
    """Sampled N(t) with the parameters that generated it."""

    t: "np.ndarray"
    n: "np.ndarray"
    params: LossParams
    n0: float

    def __post_init__(self):
        import numpy as np

        if np.any(np.diff(self.t) <= 0):
            raise ValueError("times must be strictly increasing")
        # losses only: allow float-level wiggle but no genuine gain
        if np.any(np.diff(self.n) > 1e-9 * max(self.n0, 1.0)):
            raise ValueError("population must be non-increasing")


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
    import numpy as np

    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    decay = np.exp(-gamma_per_s * t_arr)
    result = n0 * decay / (1.0 + xi * (1.0 - decay))
    return float(result) if np.isscalar(t) else result


def loss_partition(t, n0, gamma_per_s, xi):
    """(N1, N2): atoms lost to the background channel and to two-body
    collisions. Bookkeeping identity N + N1 + N2 = N0 holds exactly."""
    if t < 0:
        raise ValueError("time must be >= 0")
    n1 = n0 * (1.0 - math.exp(-gamma_per_s * t))
    n2 = n0 - n1 - population(t, n0, gamma_per_s, xi)
    return n1, n2


def constant_temperature_closure(n0, rho_peak_per_cm3):
    """Density closure integral(rho^2)(N) = (N/N0)^2 N0 rho_peak/4 for a
    cloud whose peak density tracks N at fixed temperature (cm^-3 units)."""
    q0 = n0 * rho_peak_per_cm3 / 4.0

    def closure(n):
        return q0 * (n / n0) ** 2

    return closure


def integrate_eq1(n0, params: LossParams, density_model, t_grid,
                  rho_peak_per_cm3=None):
    """Test oracle: RK4 integration of the loss rate equation.

    density_model maps N to integral(rho^2) in cm^-3 units (see
    constant_temperature_closure); pass None to build that default closure,
    which requires rho_peak_per_cm3.
    """
    import numpy as np

    t = np.asarray(t_grid, dtype=float)
    if t[0] != 0:
        raise ValueError("t_grid must start at 0")
    if density_model is None:
        if rho_peak_per_cm3 is None:
            raise ValueError("need rho_peak_per_cm3 for the default closure")
        density_model = constant_temperature_closure(n0, rho_peak_per_cm3)

    gamma = params.gamma_per_s
    beta = params.beta_cm3_per_s

    def rhs(_t, n):
        return -gamma * n - beta * density_model(n)

    n = rk4_path(rhs, n0, t)
    return PopulationTrajectory(t=t, n=n, params=params, n0=n0)
