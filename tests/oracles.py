"""Independent numerical routes the closed forms are tested against.

A fixed-step fourth-order Runge-Kutta integrator of the raw rate equations
for N(t) and T(t), adaptive quadrature of the truncated r^4 integral, the
escape rate composed from the cross section and the thermal velocity, and
the mean energy an escaping atom removes. None of this is on the product
path. The RK4 step size is tied to the total span (span / 4096 by default),
so repeated runs give bit-identical arrays.
"""

import math

import numpy as np

from latticekit.constants import CONST, M3_TO_CM3, thermal_velocity
from latticekit.errors import DomainError
from latticekit.evaporation import epsilon, unitarity_cross_section

DEFAULT_SUBSTEPS = 4096


def rk4_path(f, y0, t_grid, n_substeps=DEFAULT_SUBSTEPS):
    """Integrate dy/dt = f(t, y) over a sorted grid starting at its first point.

    Uniform substeps of size span / n_substeps are taken inside each output
    interval (rounded up so the grid points are hit exactly). Returns y at
    every grid point as an ndarray.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    out = np.empty(t.size, dtype=float)
    out[0] = y = float(y0)
    span = t[-1] - t[0]
    if t.size == 1:
        return out

    h_target = span / n_substeps
    if h_target <= 0 or not math.isfinite(h_target):
        raise DomainError("step size underflow in RK4 integration")

    for i in range(t.size - 1):
        t0, t1 = t[i], t[i + 1]
        steps = max(1, int(math.ceil((t1 - t0) / h_target - 1e-12)))
        h = (t1 - t0) / steps
        if t0 + h == t0:
            raise DomainError("step size underflow in RK4 integration")
        ti = t0
        for _ in range(steps):
            k1 = f(ti, y)
            k2 = f(ti + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(ti + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(ti + h, y + h * k3)
            y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ti += h
        out[i + 1] = y
    return out


def population_rk4(n0, params, rho_peak_per_cm3, t_grid):
    """N on a grid from 0: dN/dt = -gamma N - beta integral(rho^2), with the
    constant-temperature closure integral(rho^2) = (N/N0)^2 N0 rho_peak / 4
    (cm^-3 units) that losses.population solves in closed form."""
    q0 = n0 * rho_peak_per_cm3 / 4.0
    gamma = params.gamma_per_s
    beta = params.beta_cm3_per_s

    def rhs(_t, n):
        return -gamma * n - beta * (q0 * (n / n0) ** 2)

    return rk4_path(rhs, n0, t_grid)


def combined_temperature_rk4(t0, epsilon_value, xi, gamma_per_s, gamma_tot,
                             t_grid):
    """T on a grid from 0: dT/dt = -eps xi gamma exp(-gamma t) T0 + gamma_tot T,
    the equation heating.combined_temperature solves in closed form."""

    def rhs(time, temp):
        return (
            -epsilon_value * xi * gamma_per_s * math.exp(-gamma_per_s * time) * t0
            + gamma_tot * temp
        )

    return rk4_path(rhs, t0, t_grid)


def truncated_r4_quadrature(eta_value):
    """int_0^sqrt(eta) r^4 exp(-r^2) dr by adaptive quadrature (scipy)."""
    from scipy.integrate import quad

    value, _ = quad(
        lambda r: r**4 * math.exp(-r * r), 0.0, math.sqrt(eta_value),
        epsabs=1e-13, epsrel=1e-12,
    )
    return value


def mean_potential_energy(t0, eta_value):
    """Mean potential energy inside the trapping volume at temperature T0,
    (4/sqrt(pi)) kB T0 int_0^sqrt(eta) r^4 exp(-r^2) dr, J, by quadrature;
    U0 - removed_energy_mean must match it."""
    return (
        4.0 / math.sqrt(math.pi) * CONST.kB * t0
        * truncated_r4_quadrature(eta_value)
    )


def removed_energy_mean(t0, eta_value):
    """Mean kinetic energy removed per evaporated atom,
    (3/2) kB T0 (1 + epsilon), J."""
    return 1.5 * CONST.kB * t0 * (1.0 + epsilon(eta_value))


def evaporation_rate(rho_bar_per_cm3, species, temperature, eta_value):
    """Per-atom escape rate rho_bar sigma_esc v_rms eta exp(-eta), 1/s.

    The composition route through the cross section and the thermal
    velocity; evaporation.beta_esc is the closed form it must match.
    """
    sigma_v = unitarity_cross_section(species, temperature) * thermal_velocity(
        species, temperature
    )
    return (
        rho_bar_per_cm3
        * sigma_v * M3_TO_CM3
        * eta_value * math.exp(-eta_value)
    )
