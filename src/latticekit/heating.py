"""Parametric heating from intensity noise and cooling plus heating.

A relative well-depth fluctuation spectrum S_rel drives parametric heating at
twice each secular frequency with rate gamma = pi^2 nu^2 S_rel(2 nu); the
thermal-equilibrium weighting gamma_tot = (gamma_a + 2 gamma_r) / 3 combines
the axial and radial rates. The one-sided PSD convention with units 1/Hz for
relative fluctuations is used throughout, including the CSV file format.
Cooling plus heating has the closed form combined_temperature; its RK4
integration combined_temperature_ode is kept only as the test oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evaporation import TemperatureTrajectory, temperature
from .integrate import rk4_path


@dataclass(frozen=True)
class NoiseSpectrum:
    """One-sided PSD of relative well-depth fluctuations (1/Hz)."""

    freq_hz: np.ndarray
    s_rel_per_hz: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freq_hz, dtype=float)
        s = np.asarray(self.s_rel_per_hz, dtype=float)
        if f.ndim != 1 or f.size < 2 or f.size != s.size:
            raise ValueError("spectrum needs matching 1-d arrays, >= 2 points")
        if f[0] <= 0 or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be positive and increasing")
        if np.any(s < 0):
            raise ValueError("spectral density must be >= 0")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "s_rel_per_hz", s)

    def value_at(self, freq: float) -> float:
        """Interpolate linearly in log-frequency; no extrapolation."""
        if freq < self.freq_hz[0] or freq > self.freq_hz[-1]:
            raise DomainError(
                f"frequency {freq:g} Hz outside the spectrum domain "
                f"[{self.freq_hz[0]:g}, {self.freq_hz[-1]:g}] Hz"
            )
        return float(
            np.interp(math.log(freq), np.log(self.freq_hz), self.s_rel_per_hz)
        )


def flat_spectrum(s0: float, f_min: float, f_max: float) -> NoiseSpectrum:
    """White relative-intensity spectrum over [f_min, f_max]."""
    return NoiseSpectrum(np.array([f_min, f_max]), np.array([s0, s0]))


def flat_level_for_total_rate(gamma_tot, nu_axial, nu_radial):
    """S0 of a white spectrum that produces a given total heating rate."""
    return 3.0 * gamma_tot / (math.pi**2 * (nu_axial**2 + 2.0 * nu_radial**2))


@dataclass(frozen=True)
class HeatingRates:
    """Axial/radial parametric heating rates and their thermal combination."""

    gamma_axial: float
    gamma_radial: float
    gamma_total: float
    e_folding_time: float | None  # s, None when there is no heating

    def __post_init__(self):
        if self.gamma_axial < 0 or self.gamma_radial < 0:
            raise ValueError("rates must be >= 0")


def parametric_rate(spectrum: NoiseSpectrum, trap_frequency: float) -> float:
    """Parametric heating rate pi^2 nu^2 S_rel(2 nu), 1/s.

    The constant in front is the standard result for trap-depth (intensity)
    noise; it is isolated here so a different convention is a one-line change.
    """
    if trap_frequency <= 0:
        raise ValueError("trap frequency must be positive")
    return math.pi**2 * trap_frequency**2 * spectrum.value_at(2.0 * trap_frequency)


def total_rate(gamma_axial: float, gamma_radial: float) -> HeatingRates:
    """Thermal-equilibrium combination (gamma_a + 2 gamma_r) / 3."""
    if gamma_axial < 0 or gamma_radial < 0:
        raise ValueError("rates must be >= 0")
    gamma_tot = (gamma_axial + 2.0 * gamma_radial) / 3.0
    e_fold = 1.0 / gamma_tot if gamma_tot > 0 else None
    return HeatingRates(gamma_axial, gamma_radial, gamma_tot, e_fold)


def rates_from_spectrum(spectrum, nu_axial, nu_radial) -> HeatingRates:
    """Heating rates for both degrees of freedom from one spectrum."""
    return total_rate(
        parametric_rate(spectrum, nu_axial),
        parametric_rate(spectrum, nu_radial),
    )


def combined_temperature(t, t0, epsilon_value, xi, gamma_per_s, gamma_tot):
    """Closed-form T(t) of dT/dt = -eps xi gamma exp(-gamma t) T0 + gamma_tot T.

    T(t) = T0 exp(k t) (1 - eps xi g/(k+g) (1 - exp(-(k+g) t))) with
    k = gamma_tot and g = gamma; at k = 0 it reduces bit for bit to the
    cooling law evaporation.temperature. Accepts scalar or array t >= 0.
    """
    if epsilon_value * xi >= 1.0:
        raise DomainError("eps*xi >= 1: model predicts non-positive temperature")
    if t0 <= 0:
        raise ValueError("temperature must be > 0")
    if gamma_tot < 0:
        raise ValueError("gamma_tot must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    rate = gamma_tot + gamma_per_s
    result = t0 * np.exp(gamma_tot * t_arr) * (
        1.0 - epsilon_value * xi * (gamma_per_s / rate) * (1.0 - np.exp(-rate * t_arr))
    )
    return float(result) if np.isscalar(t) else result


def combined_temperature_ode(t0, epsilon_value, xi, gamma_per_s, gamma_tot,
                             t_grid) -> TemperatureTrajectory:
    """Test oracle: RK4 integration of the equation combined_temperature solves.

    Fixed-step RK4 with the same step contract as the population integrator;
    gamma_tot = 0 reduces to the closed-form cooling law.
    """
    if epsilon_value * xi >= 1.0:
        raise DomainError("eps*xi >= 1: model predicts non-positive temperature")
    t = np.asarray(t_grid, dtype=float)
    if t[0] != 0:
        raise ValueError("t_grid must start at 0")

    def rhs(time, temp):
        return (
            -epsilon_value * xi * gamma_per_s * math.exp(-gamma_per_s * time) * t0
            + gamma_tot * temp
        )

    temps = rk4_path(rhs, t0, t)
    return TemperatureTrajectory(
        t=t,
        temperature=temps,
        params={
            "t0": t0, "epsilon": epsilon_value, "xi": xi,
            "gamma_per_s": gamma_per_s, "gamma_tot_per_s": gamma_tot,
        },
    )


def bound_gamma_tot(t0, epsilon_value, xi, gamma_per_s, t_max) -> float:
    """Upper bound on the heating rate from a monotone temperature decrease.

    A negative temperature slope over [0, t_max] requires
    gamma_tot < r(t) = eps xi gamma u / (1 - eps xi (1 - u)), u = exp(-gamma t),
    at every t; the bound is the minimum of r. dr/du has the sign of
    eps xi (1 - eps xi), so r is monotone and its minimum sits at t_max for
    0 <= eps xi < 1 and at t = 0 for eps xi < 0. Independent of T0.
    """
    del t0  # cancels in the ratio; kept in the signature for symmetry
    ends = np.array([0.0, t_max])
    # the cooling law at unit T0 raises for t_max < 0 and for eps xi >= 1
    ratios = (
        epsilon_value * xi * gamma_per_s * np.exp(-gamma_per_s * ends)
        / temperature(ends, 1.0, epsilon_value, xi, gamma_per_s)
    )
    return float(ratios.min())
