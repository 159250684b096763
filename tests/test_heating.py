import math

import numpy as np
import pytest
from oracles import combined_temperature_rk4

from latticekit.errors import DomainError
from latticekit.evaporation import temperature
from latticekit.heating import (
    HeatingRates,
    NoiseSpectrum,
    bound_gamma_tot,
    combined_temperature,
    parametric_rate,
    rates_from_spectrum,
    total_rate,
)

NU_A, NU_R = 340e3, 460.0
TRACE_A = dict(t0=123e-6, eps=0.057, xi=2.80, gamma=0.6)


def rel(a, b):
    return abs(a - b) / abs(b)


def flat_level_for_total_rate(gamma_tot, nu_axial, nu_radial):
    """S0 of a white spectrum that produces a given total heating rate."""
    return 3.0 * gamma_tot / (math.pi**2 * (nu_axial**2 + 2.0 * nu_radial**2))


# ---------------------------------------------------------------------------
# spectra

def test_spectrum_validation():
    with pytest.raises(ValueError):
        NoiseSpectrum(np.array([2.0, 1.0]), np.array([1e-13, 1e-13]))
    with pytest.raises(ValueError):
        NoiseSpectrum(np.array([1.0, 2.0]), np.array([-1e-13, 1e-13]))
    with pytest.raises(ValueError):
        NoiseSpectrum(np.array([0.0, 2.0]), np.array([1e-13, 1e-13]))


def test_spectrum_log_frequency_interpolation():
    spectrum = NoiseSpectrum(np.array([100.0, 10000.0]), np.array([2e-13, 6e-13]))
    # geometric midpoint sits halfway in log-frequency
    assert rel(spectrum.value_at(1000.0), 4e-13) < 1e-12


def test_spectrum_interpolation_is_np_interp_bit_for_bit():
    # with the same knot logarithms, value_at is np.interp to the last bit,
    # on the knots and the last frequency included
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 40, 400):
        freq = np.sort(np.exp(rng.uniform(math.log(10.0), math.log(1e7), n)))
        density = 10.0 ** rng.uniform(-14.0, -11.0, freq.size)
        spectrum = NoiseSpectrum(freq, density)
        assert spectrum.freq_hz == tuple(freq.tolist())
        log_knots = [math.log(f) for f in spectrum.freq_hz]
        inner = np.exp(rng.uniform(math.log(freq[0]), math.log(freq[-1]), 50))
        for x in [*freq.tolist(), *inner.tolist()]:
            expected = float(np.interp(math.log(x), log_knots, density))
            assert spectrum.value_at(x) == expected, (n, x)


def test_spectrum_no_extrapolation():
    spectrum = NoiseSpectrum((10.0, 1e5), (1e-13, 1e-13))
    with pytest.raises(DomainError):
        spectrum.value_at(1.0)
    with pytest.raises(DomainError):
        spectrum.value_at(1e6)


# ---------------------------------------------------------------------------
# parametric rates

def test_zero_spectrum_no_heating():
    spectrum = NoiseSpectrum((1.0, 1e7), (0.0, 0.0))
    assert parametric_rate(spectrum, NU_A) == 0.0


def test_rate_linear_in_spectrum():
    s1 = NoiseSpectrum((1.0, 1e7), (1e-13, 1e-13))
    s2 = NoiseSpectrum((1.0, 1e7), (2e-13, 2e-13))
    assert rel(parametric_rate(s2, NU_A), 2 * parametric_rate(s1, NU_A)) < 1e-15


def test_rate_requires_coverage_at_twice_nu():
    spectrum = NoiseSpectrum((1.0, 500e3), (1e-13, 1e-13))  # 2*340 kHz = 680 kHz missing
    with pytest.raises(DomainError):
        parametric_rate(spectrum, NU_A)


def test_flat_spectrum_inversion_round_trip():
    # solve for the white level producing gamma_tot = 0.041 1/s, then verify
    s0 = flat_level_for_total_rate(0.041, NU_A, NU_R)
    spectrum = NoiseSpectrum((100.0, 1e6), (s0, s0))
    rates = rates_from_spectrum(spectrum, NU_A, NU_R)
    assert abs(rates.gamma_total - 0.041) < 1e-6


def test_rates_scale_with_spectrum_level():
    s0 = flat_level_for_total_rate(0.041, NU_A, NU_R)
    r1 = rates_from_spectrum(NoiseSpectrum((100.0, 1e6), (s0, s0)), NU_A, NU_R)
    r3 = rates_from_spectrum(NoiseSpectrum((100.0, 1e6), (3 * s0, 3 * s0)), NU_A, NU_R)
    assert rel(r3.gamma_axial, 3 * r1.gamma_axial) < 1e-15
    assert rel(r3.gamma_radial, 3 * r1.gamma_radial) < 1e-15
    assert rel(r3.gamma_total, 3 * r1.gamma_total) < 1e-15


# ---------------------------------------------------------------------------
# total rate

def test_total_rate_e_folding():
    rates = total_rate(0.041 * 3 - 2 * 0.0, 0.0)
    assert rel(rates.gamma_total, 0.041) < 1e-15
    assert rel(rates.e_folding_time, 1 / 0.041) < 1e-15
    assert abs(rates.e_folding_time - 24.4) < 0.05


def test_total_rate_equal_inputs():
    rates = total_rate(0.07, 0.07)
    assert rel(rates.gamma_total, 0.07) < 1e-15


def test_total_rate_axial_only_weighting():
    assert rel(total_rate(0.1, 0.0).gamma_total, 0.1 / 3) < 1e-15


def test_total_rate_zero_is_not_an_error():
    rates = total_rate(0.0, 0.0)
    assert rates.gamma_total == 0.0
    assert rates.e_folding_time == math.inf


# ---------------------------------------------------------------------------
# combined temperature equation

def test_combined_reduces_to_closed_form():
    t = np.linspace(0, 4, 81)
    ode = combined_temperature_rk4(
        TRACE_A["t0"], TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"], 0.0, t
    )
    closed = temperature(t, TRACE_A["t0"], TRACE_A["eps"], TRACE_A["xi"],
                         TRACE_A["gamma"])
    assert np.max(np.abs(ode - closed) / closed) < 1e-9


def test_combined_closed_form_matches_ode_with_heating():
    t = np.linspace(0, 4, 81)
    args = (TRACE_A["t0"], TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"])
    for gamma_tot in (0.041, 0.5):
        ode = combined_temperature_rk4(*args, gamma_tot, t)
        closed = combined_temperature(t, *args, gamma_tot)
        assert np.max(np.abs(ode - closed) / closed) <= 1e-12


def test_combined_closed_form_without_heating_is_the_cooling_law():
    t = np.linspace(0, 4, 81)
    args = (TRACE_A["t0"], TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"])
    assert np.array_equal(combined_temperature(t, *args, 0.0), temperature(t, *args))
    assert combined_temperature(2.0, *args, 0.0) == temperature(2.0, *args)


def test_combined_pure_heating():
    t = np.linspace(0, 4, 41)
    ode = combined_temperature_rk4(123e-6, 0.0, 2.80, 0.6, 0.041, t)
    expected = 123e-6 * np.exp(0.041 * t)
    assert np.max(np.abs(ode - expected) / expected) < 1e-9


def test_combined_slope_sign_change_with_psd_rate():
    # with the PSD-level heating rate the slope would turn positive inside
    # the observation window, contradicting a monotone decrease
    t = np.linspace(0, 4, 401)
    gamma_tot = 0.041
    ode = combined_temperature_rk4(
        TRACE_A["t0"], TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"],
        gamma_tot, t,
    )
    rhs = (
        -TRACE_A["eps"] * TRACE_A["xi"] * TRACE_A["gamma"]
        * np.exp(-TRACE_A["gamma"] * t) * TRACE_A["t0"]
        + gamma_tot * ode
    )
    assert rhs[0] < 0
    assert rhs[-1] > 0
    sign_flips = np.nonzero(np.diff(np.sign(rhs)))[0]
    assert sign_flips.size == 1


def test_combined_domain_guard():
    with pytest.raises(DomainError):
        combined_temperature(np.linspace(0, 1, 3), 123e-6, 0.5, 2.80, 0.6, 0.0)
    with pytest.raises(ValueError):
        combined_temperature(np.linspace(0, 1, 3), 123e-6, 0.057, 2.80, 0.6, -0.1)


# ---------------------------------------------------------------------------
# heating bound

def test_bound_reference_value():
    bound = bound_gamma_tot(TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"], 4.0)
    assert 0.0095 <= bound <= 0.0107
    e_folding = 1.0 / bound
    assert rel(e_folding, 100.0) < 0.05
    assert rel(0.041 / bound, 4.0) < 0.125  # "a factor 4 above"


def test_bound_zero_window():
    expected = TRACE_A["eps"] * TRACE_A["xi"] * TRACE_A["gamma"]
    assert bound_gamma_tot(TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"],
                           0.0) == expected
    tiny = bound_gamma_tot(TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"], 1e-9)
    assert rel(tiny, expected) < 1e-6


def test_bound_minimum_sits_at_window_end():
    t = np.linspace(0, 4.0, 2048)
    ratio = (
        TRACE_A["eps"] * TRACE_A["xi"] * TRACE_A["gamma"]
        * np.exp(-TRACE_A["gamma"] * t) * TRACE_A["t0"]
        / temperature(t, TRACE_A["t0"], TRACE_A["eps"], TRACE_A["xi"],
                      TRACE_A["gamma"])
    )
    assert np.argmin(ratio) == t.size - 1
    bound = bound_gamma_tot(TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"], 4.0)
    assert rel(bound, ratio[-1]) < 1e-12


def test_bound_minimum_sits_at_window_start_for_negative_epsilon():
    # for eps < 0 the ratio grows with t, so the grid minimum is at t = 0
    eps = -0.3
    t = np.linspace(0, 4.0, 2048)
    decay = np.exp(-TRACE_A["gamma"] * t)
    ratio = (
        eps * TRACE_A["xi"] * TRACE_A["gamma"] * decay
        / (1.0 - eps * TRACE_A["xi"] * (1.0 - decay))
    )
    assert np.argmin(ratio) == 0
    bound = bound_gamma_tot(eps, TRACE_A["xi"], TRACE_A["gamma"], 4.0)
    assert bound == ratio.min()


def test_bound_decreasing_in_window_length():
    bounds = [
        bound_gamma_tot(TRACE_A["eps"], TRACE_A["xi"], TRACE_A["gamma"], t_max)
        for t_max in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b > a for a, b in zip(bounds[1:], bounds[:-1]))


def test_bound_domain_guard():
    with pytest.raises(DomainError):
        bound_gamma_tot(0.4, 2.80, 0.6, 4.0)


def test_heating_rates_validation():
    with pytest.raises(ValueError):
        HeatingRates(-0.1, 0.0, 0.0, math.inf)
