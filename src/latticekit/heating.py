"""Parametric heating from intensity noise and cooling plus heating.

A relative well-depth fluctuation spectrum S_rel drives parametric heating at
twice each secular frequency with rate gamma = pi^2 nu^2 S_rel(2 nu); the
thermal-equilibrium weighting gamma_tot = (gamma_a + 2 gamma_r) / 3 combines
the axial and radial rates. The one-sided PSD convention with units 1/Hz for
relative fluctuations is used throughout, including the CSV file format.
Cooling plus heating has the closed form combined_temperature.
"""

import bisect
import math
from collections import namedtuple

from .errors import DomainError
from .evaporation import temperature, time_argument


class NoiseSpectrum(namedtuple("NoiseSpectrum", "freq_hz s_rel_per_hz")):
    """One-sided PSD of relative well-depth fluctuations (1/Hz); both
    columns are stored as tuples of floats."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # binds the arguments by name; the record is built from the floats
        freq_hz, s_rel_per_hz = super().__new__(cls, *args, **kwargs)
        f = tuple(map(float, freq_hz))
        s = tuple(map(float, s_rel_per_hz))
        if len(f) < 2 or len(f) != len(s):
            raise ValueError("spectrum needs matching 1-d arrays, >= 2 points")
        if f[0] <= 0 or any(b <= a for a, b in zip(f, f[1:])):
            raise ValueError("frequencies must be positive and increasing")
        if any(v < 0 for v in s):
            raise ValueError("spectral density must be >= 0")
        return super().__new__(cls, f, s)

    def value_at(self, freq: float) -> float:
        """Interpolate linearly in log-frequency; no extrapolation.

        The arithmetic is np.interp's: a point on a knot or on the last
        frequency takes that knot's value, any other
        slope * (log f - log f_j) + S_j.
        """
        f, s = self.freq_hz, self.s_rel_per_hz
        if freq < f[0] or freq > f[-1]:
            raise DomainError(
                f"frequency {freq:g} Hz outside the spectrum domain "
                f"[{f[0]:g}, {f[-1]:g}] Hz"
            )
        j = bisect.bisect_right(f, freq) - 1
        if j == len(f) - 1 or f[j] == freq:
            return s[j]
        x0, x1 = math.log(f[j]), math.log(f[j + 1])
        slope = (s[j + 1] - s[j]) / (x1 - x0)
        return slope * (math.log(freq) - x0) + s[j]


class HeatingRates(namedtuple(
    "HeatingRates", "gamma_axial gamma_radial gamma_total e_folding_time"
)):
    """Axial/radial parametric heating rates and their thermal combination
    (1/s), with the e-folding time (s, inf when there is no heating)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.gamma_axial < 0 or self.gamma_radial < 0:
            raise ValueError("rates must be >= 0")
        return self


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
    gamma_tot = (gamma_axial + 2.0 * gamma_radial) / 3.0
    e_fold = 1.0 / gamma_tot if gamma_tot > 0 else math.inf
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
    t, exp, scalar = time_argument(t)
    try:
        growth = exp(gamma_tot * t)
    except OverflowError:  # math.exp raises where np.exp overflows to inf
        growth = math.inf
    rate = gamma_tot + gamma_per_s
    result = t0 * growth * (
        1.0 - epsilon_value * xi * (gamma_per_s / rate) * (1.0 - exp(-rate * t))
    )
    return float(result) if scalar else result


def bound_gamma_tot(epsilon_value, xi, gamma_per_s, t_max) -> float:
    """Upper bound on the heating rate from a monotone temperature decrease.

    A negative temperature slope over [0, t_max] requires
    gamma_tot < r(t) = eps xi gamma u / (1 - eps xi (1 - u)), u = exp(-gamma t),
    at every t; the bound is the minimum of r. dr/du has the sign of
    eps xi (1 - eps xi), so r is monotone and its minimum sits at t_max for
    0 <= eps xi < 1 and at t = 0 for eps xi < 0. T0 cancels in the ratio.
    """
    ends = (0.0, t_max)
    # the cooling law at unit T0 raises for t_max < 0 and for eps xi >= 1,
    # so it runs before the numerator can overflow
    cooled = [temperature(t, 1.0, epsilon_value, xi, gamma_per_s) for t in ends]
    ratios = [
        epsilon_value * xi * gamma_per_s * math.exp(-gamma_per_s * t) / c
        for t, c in zip(ends, cooled)
    ]
    # like an array minimum, a nan end point makes the bound nan
    return math.nan if any(map(math.isnan, ratios)) else float(min(ratios))
