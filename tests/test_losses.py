import numpy as np
import pytest
from oracles import population_rk4

from latticekit.losses import LossParams, population, xi_from_beta

GAMMA_A, BETA_A, RHO_A, N0_A = 0.6, 7.5e-12, 9e11, 4e6


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# xi

def test_xi_reference_values():
    assert rel(xi_from_beta(7.5e-12, 9e11, 0.6), 2.80) < 0.02
    assert rel(xi_from_beta(1.7e-11, 6.8e11, 0.76), 3.72) < 0.03


def test_xi_zero_beta():
    assert xi_from_beta(0.0, 9e11, 0.6) == 0.0


def test_xi_rejects_zero_gamma():
    with pytest.raises(ValueError):
        xi_from_beta(1e-12, 9e11, 0.0)


def test_loss_params_from_beta_consistent():
    params = LossParams.from_beta(GAMMA_A, BETA_A, RHO_A)
    assert params.xi == xi_from_beta(BETA_A, RHO_A, GAMMA_A)
    with pytest.raises(ValueError):
        LossParams(0.0, BETA_A, 1.0)


# ---------------------------------------------------------------------------
# closed form

def test_population_initial_value():
    assert population(0.0, N0_A, GAMMA_A, 2.8125) == N0_A


def test_population_pure_exponential_when_xi_zero():
    t = np.linspace(0, 5, 11)
    expected = N0_A * np.exp(-GAMMA_A * t)
    assert np.max(np.abs(population(t, N0_A, GAMMA_A, 0.0) - expected)) < 1e-6


def test_population_rejects_negative_time():
    with pytest.raises(ValueError):
        population(-0.1, N0_A, GAMMA_A, 1.0)


def test_population_strictly_decreasing():
    t = np.linspace(0, 5, 101)
    n = population(t, N0_A, GAMMA_A, 2.8125)
    assert np.all(np.diff(n) < 0)


def test_scalar_population_matches_array_path():
    # a Python float runs on math.exp, an array on np.exp
    t = np.linspace(0, 5, 41)
    values = population(t, N0_A, GAMMA_A, 2.8125)
    for time, value in zip(t.tolist(), values):
        scalar = population(time, N0_A, GAMMA_A, 2.8125)
        assert type(scalar) is float
        assert rel(scalar, value) <= 1e-15


# ---------------------------------------------------------------------------
# RK4 oracle

def test_closed_form_matches_rk4_reference_params():
    params = LossParams.from_beta(GAMMA_A, BETA_A, RHO_A)
    t = np.linspace(0, 5, 41)
    n = population_rk4(N0_A, params, RHO_A, t)
    closed = population(t, N0_A, GAMMA_A, params.xi)
    assert np.max(np.abs(n - closed) / closed) < 1e-6


@pytest.mark.parametrize("gamma,xi", [(0.3, 0.5), (0.6, 2.8125), (0.76, 3.8026), (1.2, 6.0)])
def test_closed_form_matches_rk4_parameter_range(gamma, xi):
    rho = 9e11
    beta = 4 * gamma * xi / rho
    params = LossParams(gamma, beta, xi)
    t = np.linspace(0, 5, 21)
    n = population_rk4(N0_A, params, rho, t)
    closed = population(t, N0_A, gamma, xi)
    assert np.max(np.abs(n - closed) / closed) < 1e-6


def test_rk4_at_one_gamma_time():
    params = LossParams.from_beta(GAMMA_A, BETA_A, RHO_A)
    t = np.array([0.0, 1.0 / GAMMA_A])
    n = population_rk4(N0_A, params, RHO_A, t)
    closed = population(1.0 / GAMMA_A, N0_A, GAMMA_A, params.xi)
    assert rel(n[-1], closed) < 1e-6


def test_beta_zero_is_exact_exponential():
    params = LossParams(GAMMA_A, 0.0, 0.0)
    t = np.linspace(0, 4, 9)
    n = population_rk4(N0_A, params, RHO_A, t)
    expected = N0_A * np.exp(-GAMMA_A * t)
    assert np.max(np.abs(n - expected) / expected) < 1e-12


def test_gamma_to_zero_limit_hyperbolic():
    # gamma -> 0 with beta fixed: N0 / (1 + (beta rho/4) t)
    gamma = 1e-9
    xi = xi_from_beta(BETA_A, RHO_A, gamma)
    t = np.linspace(0, 4, 9)[1:]
    two_body = BETA_A * RHO_A / 4.0
    expected = N0_A / (1.0 + two_body * t)
    values = population(t, N0_A, gamma, xi)
    assert np.max(np.abs(values - expected) / expected) < 1e-6


def test_population_monotone_in_parameters():
    # finite-difference signs: more xi or more gamma means fewer atoms
    for t in (0.1, 0.5, 1.0, 3.0):
        base = population(t, N0_A, GAMMA_A, 2.8)
        assert population(t, N0_A, GAMMA_A, 2.8 + 1e-6) < base
        assert population(t, N0_A, GAMMA_A + 1e-9, 2.8) < base


def test_rk4_step_underflow_reported():
    from latticekit.errors import DomainError

    params = LossParams(GAMMA_A, 0.0, 0.0)
    with pytest.raises(DomainError):
        population_rk4(N0_A, params, RHO_A, np.array([0.0, 5e-324]))
