"""Ballistic-expansion thermometry: synthetic series and their fit.

A cloud released from the lattice expands as
sigma^2(t) = sigma0^2 + (kB T / m) t^2; the series generator adds seeded
fractional width noise and the fit solves the linear least squares in t^2.
The atom is 85Rb: m is constants.RB85.mass. An ExpansionSeries holds three
float columns, converted and checked by constants.CheckedRecord against its
_domains rows alone. expansion_sigma and synthesize_expansion evaluate on arrays and
import numpy when they run, under numpy's raise policy: an overflow, a
division by zero (a zero width at t = 0) or an invalid value raises
FloatingPointError. fit_expansion is plain float code whose every sum is a
math.fsum; it never loads numpy and keeps the same policy, raising
FloatingPointError where a square, a product or a sum overflows.
"""

import math
from collections import namedtuple
from operator import mul

from .constants import CONST, RB85, CheckedRecord, _fsum


def expansion_sigma(sigma0, temperature, t):
    """Cloud width after free expansion, sqrt(sigma0^2 + (kB T / m) t^2), m."""
    import numpy as np

    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("expansion time must be >= 0")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        # numpy's scalar power is the same pow() as Python's float sigma0**2,
        # but overflows as FloatingPointError like the array terms
        result = np.sqrt(
            np.float64(sigma0) ** 2 + CONST.kB * temperature / RB85.mass * t_arr**2
        )
    return float(result) if np.isscalar(t) else result


class ExpansionSeries(CheckedRecord, namedtuple("ExpansionSeries", "times sigma amplitude")):
    """Expansion widths sigma (m) versus flight time (s) with amplitudes in
    counts (peak areal density scale), three float columns."""

    __slots__ = ()
    _columns = ("times", "sigma", "amplitude")
    _domains = (("times", ">= 0", "expansion times must be >= 0"),
                ("sigma", "> 0", "expansion widths must be positive"),
                ("amplitude", ">= 0", "expansion amplitudes must be >= 0"))


def synthesize_expansion(n_atoms, temperature, sigma0, times, noise_sigma,
                         seed) -> ExpansionSeries:
    """Deterministic synthetic expansion series.

    noise_sigma is the fractional Gaussian noise applied to the widths;
    amplitudes are the noiseless Gaussian peak areal densities N/(2 pi s^2).
    """
    import numpy as np

    t = np.asarray(times, dtype=float)
    if np.any(t < 0):
        raise ValueError("expansion times must be >= 0")
    rng = np.random.default_rng(seed)
    sigma_true = expansion_sigma(sigma0, temperature, t)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        sigma_meas = sigma_true * (1.0 + noise_sigma * rng.standard_normal(t.size))
        area = 2.0 * math.pi * sigma_true**2
        amplitude = n_atoms / area
    return ExpansionSeries(t.tolist(), sigma_meas.tolist(), amplitude.tolist())


ExpansionFit = namedtuple("ExpansionFit", "temperature temperature_err sigma0 "
                          "sigma0_err n_atoms n_atoms_err degenerate")


def fit_expansion(series: ExpansionSeries) -> ExpansionFit:
    """Least squares on sigma^2(t) = sigma0^2 + (kB T / m) t^2.

    Linear in t^2, solved by closed-form normal equations; uncertainties
    from the residual covariance. Order of the records is irrelevant.
    Returns the temperature (K), initial width (m) and atom number with
    their errors; degenerate is True when the fitted sigma0^2 came out
    non-positive, and the width is then nan.
    """
    n = len(series.times)
    if n < 3:
        raise ValueError("need at least 3 distinct expansion times")
    # an inf square, product or sum makes its fsum raise FloatingPointError
    x = [t * t for t in series.times]
    y = [s * s for s in series.sigma]
    x_mean = _fsum(x) / n
    y_mean = _fsum(y) / n
    dx = [xi - x_mean for xi in x]
    sxx = _fsum(map(mul, dx, dx))
    if sxx == 0:
        raise ValueError("expansion times must not be all equal")
    slope = _fsum([d * (yi - y_mean) for d, yi in zip(dx, y)]) / sxx
    intercept = y_mean - slope * x_mean
    resid = [yi - (intercept + slope * xi) for xi, yi in zip(x, y)]
    s2 = _fsum(map(mul, resid, resid)) / (n - 2)
    var_slope = s2 / sxx
    var_intercept = s2 * (1.0 / n + x_mean * x_mean / sxx)
    if not (math.isfinite(intercept) and math.isfinite(var_intercept)):
        raise FloatingPointError("overflow encountered in the sigma0^2 intercept")

    temp = slope * RB85.mass / CONST.kB
    temp_err = math.sqrt(var_slope) * RB85.mass / CONST.kB
    degenerate = intercept <= 0
    if degenerate:
        sigma0 = math.nan
        sigma0_err = math.nan
    else:
        sigma0 = math.sqrt(intercept)
        sigma0_err = math.sqrt(var_intercept) / (2.0 * sigma0)

    two_pi = 2.0 * math.pi
    counts = [two_pi * yi * ai for yi, ai in zip(y, series.amplitude)]
    n_atoms = _fsum(counts) / n
    spread = [c - n_atoms for c in counts]
    n_err = math.sqrt(_fsum(map(mul, spread, spread)) / (n - 1)) / math.sqrt(n)
    return ExpansionFit(
        temperature=temp,
        temperature_err=temp_err,
        sigma0=sigma0,
        sigma0_err=sigma0_err,
        n_atoms=n_atoms,
        n_atoms_err=n_err,
        degenerate=degenerate,
    )
