import math

import pytest
from scipy import constants as scipy_constants

from latticekit.constants import (
    ATOMIC_MASS_UNIT,
    CONST,
    RB85,
    thermal_de_broglie,
    thermal_velocity,
)

def rel(a, b):
    return abs(a - b) / abs(b)


def test_constants_match_codata_tables():
    # independent source: scipy's CODATA table, agreement to >= 6 digits
    assert rel(CONST.c, scipy_constants.c) < 1e-6
    assert rel(CONST.h, scipy_constants.h) < 1e-6
    assert rel(CONST.hbar, scipy_constants.hbar) < 1e-6
    assert rel(CONST.kB, scipy_constants.k) < 1e-6
    assert rel(CONST.eps0, scipy_constants.epsilon_0) < 1e-6
    assert rel(CONST.g, scipy_constants.g) < 1e-6
    assert rel(ATOMIC_MASS_UNIT, scipy_constants.atomic_mass) < 1e-6


def test_h_is_two_pi_hbar_exactly():
    assert CONST.h == 2.0 * math.pi * CONST.hbar


def test_thermal_velocity_zero_and_value():
    assert thermal_velocity(0.0) == 0.0
    # direct evaluation oracle
    expected = math.sqrt(3 * CONST.kB * 123e-6 / RB85.mass)
    v = thermal_velocity(123e-6)
    assert v == expected
    assert abs(v - 0.190) < 0.001


def test_thermal_velocity_sqrt_scaling():
    v1 = thermal_velocity(123e-6)
    v4 = thermal_velocity(4 * 123e-6)
    assert rel(v4, 2 * v1) < 1e-15


def test_thermal_velocity_rejects_negative():
    with pytest.raises(ValueError):
        thermal_velocity(-1e-6)


def test_thermal_de_broglie_values():
    expected = CONST.h / math.sqrt(2 * math.pi * RB85.mass * CONST.kB * 123e-6)
    lam = thermal_de_broglie(123e-6)
    assert lam == expected
    assert abs(lam - 1.71e-8) < 0.005e-8
    assert abs(thermal_de_broglie(38e-6) - 3.07e-8) < 0.01e-8


def test_thermal_de_broglie_halves_when_t_quadruples():
    lam1 = thermal_de_broglie(50e-6)
    lam4 = thermal_de_broglie(200e-6)
    assert rel(lam4, lam1 / 2) < 1e-15


def test_thermal_de_broglie_rejects_nonpositive():
    with pytest.raises(ValueError):
        thermal_de_broglie(0.0)


@pytest.mark.parametrize("temp", [1e-6, 38e-6, 123e-6, 300.0])
def test_dimensional_consistency(temp):
    v = thermal_velocity(temp)
    assert rel(v**2 * RB85.mass / (3 * CONST.kB), temp) < 1e-12


def test_rb85_line_data():
    assert RB85.lambda_d2 == 780.24e-9
    assert RB85.lambda_d1 == 794.98e-9
    assert rel(RB85.gamma_natural, 2 * math.pi * 6.07e6) < 1e-15
    assert RB85.line_strengths == (2 / 3, 1 / 3)
    # scipy may carry a newer CODATA release; 6 significant digits suffice
    assert rel(RB85.mass, 84.911789738 * scipy_constants.atomic_mass) < 1e-6


def test_constants_are_the_expected_literals():
    assert CONST.c == 299792458.0
    assert CONST.h == 6.62607015e-34
    assert CONST.kB == 1.380649e-23
    assert CONST.eps0 == 8.8541878128e-12
    assert CONST.g == 9.80665
    assert ATOMIC_MASS_UNIT == 1.66053906660e-27
