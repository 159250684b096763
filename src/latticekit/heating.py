"""Parametric heating from intensity noise and its bound from cooling.

A relative well-depth fluctuation spectrum S_rel drives parametric heating at
twice each secular frequency with rate gamma = pi^2 nu^2 S_rel(2 nu). The
HeatingRates record stores the axial and radial rates; its gamma_total
property is their thermal-equilibrium weighting
gamma_tot = (gamma_a + 2 gamma_r) / 3. The one-sided PSD convention with
units 1/Hz for relative fluctuations is used throughout, including the CSV
file format. constants.CheckedRecord checks NoiseSpectrum's two float columns;
the record adds only at least 2 points and increasing frequencies.
Cooling plus heating is evaporation.temperature with gamma_tot > 0.
"""

import bisect
import math
from collections import namedtuple
from operator import lt

from .constants import CheckedRecord
from .errors import DomainError
from .evaporation import temperature


class NoiseSpectrum(CheckedRecord, namedtuple("NoiseSpectrum", "freq_hz s_rel_per_hz")):
    """One-sided PSD of relative well-depth fluctuations (1/Hz) over
    frequency (Hz), two float columns."""

    __slots__ = ()
    _columns = ("freq_hz", "s_rel_per_hz")
    _domains = (("freq_hz", "> 0", "frequencies must be positive and increasing"),
                ("s_rel_per_hz", ">= 0", "spectral density must be >= 0"))

    def _checked(self):
        if len(self.freq_hz) < 2:
            raise ValueError("spectrum needs matching 1-d arrays, >= 2 points")
        if not all(map(lt, self.freq_hz, self.freq_hz[1:])):
            raise ValueError("frequencies must be positive and increasing")
        return self

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


class HeatingRates(CheckedRecord, namedtuple("HeatingRates", "gamma_axial gamma_radial")):
    """Axial and radial parametric heating rates (1/s); their thermal
    combination and e-folding time are properties."""

    __slots__ = ()
    _domains = (("gamma_axial", ">= 0", "rates must be >= 0"),
                ("gamma_radial", ">= 0", "rates must be >= 0"))

    def _checked(self):
        if not math.isfinite(self.gamma_total):
            raise ValueError("gamma_total must be finite")
        return self

    @property
    def gamma_total(self) -> float:
        """Thermal-equilibrium combination (gamma_a + 2 gamma_r) / 3, 1/s."""
        return (self.gamma_axial + 2.0 * self.gamma_radial) / 3.0

    @property
    def e_folding_time(self) -> float:
        """1 / gamma_total, s; inf when there is no heating."""
        gamma_tot = self.gamma_total
        return 1.0 / gamma_tot if gamma_tot > 0 else math.inf


def parametric_rate(spectrum: NoiseSpectrum, trap_frequency: float) -> float:
    """Parametric heating rate pi^2 nu^2 S_rel(2 nu), 1/s.

    The constant in front is the standard result for trap-depth (intensity)
    noise; it is isolated here so a different convention is a one-line change.
    """
    if trap_frequency <= 0:
        raise ValueError("trap frequency must be positive")
    return math.pi**2 * trap_frequency**2 * spectrum.value_at(2.0 * trap_frequency)


def rates_from_spectrum(spectrum, nu_axial, nu_radial) -> HeatingRates:
    """Heating rates for both degrees of freedom from one spectrum."""
    return HeatingRates(
        parametric_rate(spectrum, nu_axial),
        parametric_rate(spectrum, nu_radial),
    )


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
    cooled = temperature(ends, 1.0, epsilon_value, xi, gamma_per_s)
    ratios = [
        epsilon_value * xi * gamma_per_s * math.exp(-gamma_per_s * t) / c
        for t, c in zip(ends, cooled)
    ]
    # like an array minimum, a nan end point makes the bound nan
    return math.nan if any(map(math.isnan, ratios)) else float(min(ratios))
