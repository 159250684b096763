"""Ballistic-expansion thermometry: synthetic series and their fit.

A cloud released from the lattice expands as
sigma^2(t) = sigma0^2 + (kB T / m) t^2; the series generator adds seeded
fractional width noise and the fit solves the linear least squares in t^2.
The atom is 85Rb: m is constants.RB85.mass. The three functions run under
numpy's raise policy: an overflow, a division by zero (a zero width at
t = 0) or an invalid value raises FloatingPointError.
"""

import math
from collections import namedtuple

import numpy as np

from .constants import CONST, RB85, CheckedRecord


@np.errstate(over="raise", divide="raise", invalid="raise")
def expansion_sigma(sigma0, temperature, t):
    """Cloud width after free expansion, sqrt(sigma0^2 + (kB T / m) t^2), m."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("expansion time must be >= 0")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    # numpy's scalar power is the same pow() as Python's float sigma0**2, but
    # overflows as FloatingPointError like the array terms
    result = np.sqrt(
        np.float64(sigma0) ** 2 + CONST.kB * temperature / RB85.mass * t_arr**2
    )
    return float(result) if np.isscalar(t) else result


class ExpansionSeries(CheckedRecord, namedtuple("ExpansionSeries", "times sigma amplitude")):
    """Expansion widths sigma (m) versus flight time (s) with amplitudes in
    counts (peak areal density scale), stored as float arrays. Times must be
    >= 0, widths positive and amplitudes >= 0."""

    __slots__ = ()

    def _checked(self):
        times, sigma, amplitude = (np.asarray(c, dtype=float) for c in self)
        if not (len(times) == len(sigma) == len(amplitude)):
            raise ValueError("series columns must have equal length")
        if not all(np.all(np.isfinite(c)) for c in (times, sigma, amplitude)):
            raise ValueError("times, sigma and amplitude must be finite")
        if np.any(times < 0):
            raise ValueError("expansion times must be >= 0")
        if np.any(sigma <= 0):
            raise ValueError("expansion widths must be positive")
        if np.any(amplitude < 0):
            raise ValueError("expansion amplitudes must be >= 0")
        return times, sigma, amplitude


@np.errstate(over="raise", divide="raise", invalid="raise")
def synthesize_expansion(n_atoms, temperature, sigma0, times, noise_sigma,
                         seed) -> ExpansionSeries:
    """Deterministic synthetic expansion series.

    noise_sigma is the fractional Gaussian noise applied to the widths;
    amplitudes are the noiseless Gaussian peak areal densities N/(2 pi s^2).
    """
    t = np.asarray(times, dtype=float)
    if np.any(t < 0):
        raise ValueError("expansion times must be >= 0")
    rng = np.random.default_rng(seed)
    sigma_true = expansion_sigma(sigma0, temperature, t)
    sigma_meas = sigma_true * (1.0 + noise_sigma * rng.standard_normal(t.size))
    area = 2.0 * math.pi * sigma_true**2
    return ExpansionSeries(times=t, sigma=sigma_meas, amplitude=n_atoms / area)


ExpansionFit = namedtuple("ExpansionFit", "temperature temperature_err sigma0 "
                          "sigma0_err n_atoms n_atoms_err degenerate")


@np.errstate(over="raise", divide="raise", invalid="raise")
def fit_expansion(series: ExpansionSeries) -> ExpansionFit:
    """Least squares on sigma^2(t) = sigma0^2 + (kB T / m) t^2.

    Linear in t^2, solved by closed-form normal equations; uncertainties
    from the residual covariance. Order of the records is irrelevant.
    Returns the temperature (K), initial width (m) and atom number with
    their errors; degenerate is True when the fitted sigma0^2 came out
    non-positive, and the width is then nan.
    """
    if len(series.times) < 3:
        raise ValueError("need at least 3 distinct expansion times")
    x = series.times**2
    y = series.sigma**2
    n = x.size
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0:
        raise ValueError("expansion times must not be all equal")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / sxx
    intercept = y_mean - slope * x_mean

    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid**2)) / (n - 2)
    var_slope = s2 / sxx
    var_intercept = s2 * (1.0 / n + x_mean**2 / sxx)

    temp = slope * RB85.mass / CONST.kB
    temp_err = math.sqrt(var_slope) * RB85.mass / CONST.kB
    degenerate = bool(intercept <= 0)
    if degenerate:
        sigma0 = math.nan
        sigma0_err = math.nan
    else:
        sigma0 = math.sqrt(intercept)
        sigma0_err = math.sqrt(var_intercept) / (2.0 * sigma0)

    counts = 2.0 * math.pi * y * series.amplitude
    n_atoms = float(counts.mean())
    n_err = float(counts.std(ddof=1) / math.sqrt(n))
    return ExpansionFit(
        temperature=temp,
        temperature_err=temp_err,
        sigma0=sigma0,
        sigma0_err=sigma0_err,
        n_atoms=n_atoms,
        n_atoms_err=n_err,
        degenerate=degenerate,
    )
