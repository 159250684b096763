import math

import numpy as np
import pytest
from conftest import state_a, state_b
from oracles import (
    evaporation_rate,
    mean_potential_energy,
    removed_energy_mean,
    truncated_r4_quadrature,
)

from latticekit.constants import CONST, RB85, thermal_velocity
from latticekit.errors import DomainError
from latticekit.evaporation import (
    beta_esc,
    epsilon,
    eta,
    pac_scaling_comparator,
    temperature,
    truncated_r4_integral,
    unitarity_cross_section,
)
from latticekit.trap import TrapState

U0_A = 350e-6 * CONST.kB
U0_B = 100e-6 * CONST.kB


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# eta

def test_eta_reference_values():
    assert abs(eta(U0_A, 123e-6) - 2.85) < 0.005
    assert abs(eta(U0_B, 38e-6) - 2.63) < 0.005


def test_eta_unit_case():
    x = 1.7e-27
    assert rel(eta(x, x / CONST.kB), 1.0) < 1e-15


def test_eta_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        eta(U0_A, 0.0)


# ---------------------------------------------------------------------------
# cross section and escape coefficient

def test_cross_section_temperature_scaling():
    sigma = unitarity_cross_section(RB85, 123e-6)
    assert rel(unitarity_cross_section(RB85, 4 * 123e-6), sigma / 4) < 1e-15


def test_cross_section_reference_pin():
    # documented value at the 123 uK working point (the published comparison
    # against coupled-channel calculations is a statement, not an assertion)
    assert rel(unitarity_cross_section(RB85, 123e-6), 3.8910377178e-16) < 1e-9


def test_beta_esc_two_route_identity():
    # composition sigma(T) v(T) eta exp(-eta) against the closed form, with
    # kB T = U0 / eta; both routes are independently coded
    for eta_value in np.linspace(0.5, 8.0, 31):
        for u0_uk in (10.0, 47.0, 350.0, 1000.0):
            u0 = u0_uk * 1e-6 * CONST.kB
            temp = u0 / (CONST.kB * eta_value)
            composed = (
                unitarity_cross_section(RB85, temp)
                * thermal_velocity(RB85, temp)
                * eta_value * math.exp(-eta_value) * 1e6
            )
            assert rel(composed, beta_esc(u0, eta_value, RB85)) < 1e-12


def test_beta_esc_reference_values():
    assert rel(beta_esc(U0_A, 2.85, RB85), 1.2e-11) < 0.10
    # regression pin for the shallow-trap point (see also the acceptance
    # suite, where the quoted 2.3e-11 misses the closed form by 11%)
    assert rel(beta_esc(U0_B, 2.60, RB85), 2.554222e-11) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="quoted 2.3e-11 cm^3/s is 11% from the closed form at eta=2.60, "
    "outside the stated 10%",
)
def test_beta_esc_shallow_trap_quoted_value():
    assert rel(beta_esc(U0_B, 2.60, RB85), 2.3e-11) < 0.10


def test_beta_esc_depth_scaling():
    b = beta_esc(U0_A, 2.85, RB85)
    assert rel(beta_esc(4 * U0_A, 2.85, RB85), b / 2) < 1e-12


def test_beta_esc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        beta_esc(0.0, 2.85, RB85)
    with pytest.raises(ValueError):
        beta_esc(U0_A, 0.0, RB85)


# ---------------------------------------------------------------------------
# evaporation rate

def test_evaporation_rate_zero_density():
    assert evaporation_rate(0.0, RB85, 123e-6, 2.85) == 0.0


@pytest.mark.parametrize("eta_value", [2.0, 2.85, 4.0])
def test_evaporation_rate_identity(eta_value):
    temp = 123e-6
    u0 = eta_value * CONST.kB * temp
    rate = evaporation_rate(1.0, RB85, temp, eta_value)
    assert rel(rate, beta_esc(u0, eta_value, RB85)) < 1e-12


def test_evaporation_rate_reference_magnitude():
    # state (a): rho_bar = rho_peak/4 = 2.25e11 cm^-3
    rate = evaporation_rate(2.25e11, RB85, 123e-6, 2.85)
    assert 2.4 < rate < 3.1
    # against the fitted initial two-body slope gamma*xi = 0.6 * 2.80
    assert 0.5 < rate / (0.6 * 2.80) < 2.0


# ---------------------------------------------------------------------------
# energy-removal coefficient

def test_epsilon_reference_values():
    assert abs(epsilon(2.85) - 0.23) <= 0.01
    assert abs(epsilon(2.63) - 0.14) <= 0.01


def test_epsilon_at_zero():
    assert epsilon(0.0) == -1.0


def test_epsilon_asymptote():
    assert abs(epsilon(30.0) - (2.0 / 3.0 * 30.0 - 2.0)) < 1e-10


def test_r4_integral_dual_route():
    for eta_value in np.linspace(0.0, 10.0, 101):
        closed = truncated_r4_integral(eta_value)
        quadrature = truncated_r4_quadrature(eta_value)
        assert abs(closed - quadrature) < 1e-10


def test_r4_integral_matches_scipy_erf_antiderivative():
    # scipy's erf is the oracle for the math.erf the closed form uses
    from scipy.special import erf

    for eta_value in np.linspace(0.0, 36.0, 361):
        x = math.sqrt(eta_value)
        expected = (
            3.0 * math.sqrt(math.pi) / 8.0 * erf(x)
            - x / 4.0 * (2.0 * eta_value + 3.0) * math.exp(-eta_value)
        )
        assert abs(truncated_r4_integral(eta_value) - expected) <= 1e-15


def test_epsilon_quadrature_route_agrees():
    for eta_value in (0.5, 2.3, 2.85, 6.0):
        quadrature = (
            2.0 / 3.0 * eta_value
            - 1.0
            - 8.0 / (3.0 * math.sqrt(math.pi)) * truncated_r4_quadrature(eta_value)
        )
        assert abs(epsilon(eta_value) - quadrature) < 1e-10


def test_epsilon_increasing_for_eta_above_one():
    grid = np.linspace(1.0, 9.0, 161)
    values = [epsilon(x) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# temperature evolution

def test_temperature_initial_value():
    assert temperature(0.0, 123e-6, 0.057, 2.80, 0.6) == 123e-6


def test_temperature_long_time_limit():
    t_inf = temperature(1e3, 123e-6, 0.057, 2.80, 0.6)
    assert rel(t_inf, 123e-6 * (1 - 0.057 * 2.80)) < 1e-12
    assert abs(t_inf * 1e6 - 103.4) < 0.05


def test_temperature_constant_when_epsilon_zero():
    t = np.linspace(0, 10, 11)
    assert np.all(temperature(t, 123e-6, 0.0, 2.80, 0.6) == 123e-6)


def test_temperature_domain_guard():
    with pytest.raises(DomainError):
        temperature(1.0, 123e-6, 0.5, 2.80, 0.6)  # eps*xi = 1.4


def test_temperature_initial_slope_analytic():
    t0, eps, xi, gamma = 123e-6, 0.057, 2.80, 0.6
    h = 1e-3

    def f(t):
        return temperature(t, t0, eps, xi, gamma)

    # fourth-order one-sided stencil (the model is defined for t >= 0 only)
    slope = (
        -25 * f(0.0) + 48 * f(h) - 36 * f(2 * h) + 16 * f(3 * h) - 3 * f(4 * h)
    ) / (12 * h)
    assert rel(slope, -eps * xi * gamma * t0) < 1e-10


# ---------------------------------------------------------------------------
# energy bookkeeping

def test_mean_potential_energy_equipartition_limit():
    t0 = 123e-6
    assert rel(mean_potential_energy(t0, 50.0), 1.5 * CONST.kB * t0) < 1e-10


def test_energy_bookkeeping_at_eta_zero():
    t0 = 123e-6
    assert mean_potential_energy(t0, 0.0) == 0.0
    assert abs(removed_energy_mean(t0, 0.0)) < 1e-40  # equals U0 = 0


def test_removed_energy_equivalence():
    # U0 - W_bar must equal the quadrature route for the potential energy
    t0 = 123e-6
    for eta_value in np.linspace(0.5, 8.0, 16):
        u0 = eta_value * CONST.kB * t0
        direct = u0 - removed_energy_mean(t0, eta_value)
        assert rel(direct, mean_potential_energy(t0, eta_value)) < 1e-9 or (
            abs(direct) < 1e-40 and abs(mean_potential_energy(t0, eta_value)) < 1e-40
        )


def test_energy_bookkeeping_linearization():
    # independent finite difference of N(t) W(t) = N0 W0 - N1 W0 - N2 W_bar
    # against the analytic initial slope -eps*xi*gamma*T0
    gamma, xi, eta_value, t0 = 0.6, 2.80, 2.85, 123e-6
    u0 = eta_value * CONST.kB * t0
    w0 = 1.5 * CONST.kB * t0
    w_bar = u0 - mean_potential_energy(t0, eta_value)
    n0 = 4e6

    def temp_book(t):
        decay = math.exp(-gamma * t)
        n = n0 * decay / (1 + xi * (1 - decay))
        n1 = n0 * (1 - decay)
        n2 = n0 - n1 - n
        w = (n0 * w0 - n1 * w0 - n2 * w_bar) / n
        return w / (1.5 * CONST.kB)

    h = 1e-4
    slope = (
        -temp_book(2 * h) + 8 * temp_book(h) - 8 * temp_book(-h) + temp_book(-2 * h)
    ) / (12 * h)
    expected = -epsilon(eta_value) * xi * gamma * t0
    assert rel(slope, expected) < 1e-9


# ---------------------------------------------------------------------------
# loss-scaling comparator

def test_pac_reference_states():
    result = pac_scaling_comparator(state_a(), state_b(), "unitarity")
    assert rel(result.ratio, 0.375) < 1e-12
    assert result.direction == "decrease"
    assert result.eta_consistent  # 2.85 vs 2.63 is within the 10% gate


def test_pac_identical_states():
    result = pac_scaling_comparator(state_a(), state_a(), "unitarity")
    assert result.ratio == 1.0
    assert result.direction == "unchanged"


def test_pac_zero_t_regime():
    a = state_a()
    colder = TrapState(a.n_atoms, a.temperature / 2, a.trap, a.shape)
    result = pac_scaling_comparator(a, colder, "zero_T")
    assert result.ratio < 1.0
    assert result.direction == "decrease"
    assert not result.eta_consistent  # halving T doubles eta


def test_pac_eta_flag_threshold():
    result = pac_scaling_comparator(state_a(), state_b(), "unitarity",
                                    eta_tolerance=0.01)
    assert not result.eta_consistent


def test_pac_unknown_regime():
    with pytest.raises(ValueError):
        pac_scaling_comparator(state_a(), state_b(), "warm")


def test_epsilon_zero_crossing_location():
    # escape stops removing net kinetic energy below eta ~ 2.30
    assert epsilon(2.30) < 0 < epsilon(2.3002)
    assert abs(epsilon(2.3001248582)) < 1e-7

