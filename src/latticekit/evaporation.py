"""Evaporative cooling model for a deep optical lattice, and its depth ramps.

Escape of atoms above the well depth at a detailed-balance rate
Gamma_ev = rho_bar sigma_esc v_rms eta exp(-eta), the unitarity-limited
elastic cross section, the equivalent two-body coefficient

    beta_esc = 8 pi hbar^2 eta^(3/2) exp(-eta) / sqrt(3 U0 m^3),

and the temperature evolution T(t) = T(0) (1 - eps xi (1 - exp(-gamma t)))
driven by the kinetic-energy bookkeeping of the loss channels, with

    eps = (2/3) eta - 1 - 8/(3 sqrt(pi)) * int_0^sqrt(eta) r^4 exp(-r^2) dr.

temperature is that cooling law, with an optional parametric heating rate
gamma_tot (see heating) on top.

beta_esc is the closed form. The composition route through the cross
section and the thermal velocity is the independent oracle
tests/oracles.evaporation_rate; the two must agree to machine precision
(acceptance criterion 3d).

ramp_simulate lowers the well depth in uniform steps, applying the exact
per-step adiabatic scaling T -> T sqrt(U'/U) and then an evaporative
loss/cooling update at the instantaneous truncation parameter. Evaporative
terms are throttled by a saturating rethermalization gate
min(1, Gamma_el * dt) built from the elastic collision rate; the gate is a
documented heuristic, so results are defined at the default step count and
only ordering and percent-level statements should be read off them.

Each ramp step writes RampProfile.depth_at, thermal_velocity and the
formulas above out, operation for operation and with the same module
constants, sharing one v_rms, one exp(-eta) and one sqrt(eta), because a
call per formula cost about a quarter of a step. It makes the checks of eta
and beta_esc where those would; the other checks cannot fail once these
pass. tests/oracles.ramp_reference is the same loop over the public checked
functions and must give the same bits and errors, so a formula changed in
one text and not the other fails that test. The ramp is scalar arithmetic
on math and never loads numpy.
"""

import math
from collections import namedtuple

from .constants import _MASS, _THREE_KB, CONST, M3_TO_CM3, RB85, CheckedRecord, thermal_velocity
from .errors import DomainError
from .trap import TrapState

# The constant left-most factors of the formulas below, multiplied out once:
# a record field read costs more than a module global. Each is the product
# the formula would form first, so every result is bit for bit the inline one.
_KB = CONST.kB
_MU2 = (RB85.mass / 2.0) ** 2
_FOUR_PI_HBAR2 = 4.0 * math.pi * CONST.hbar**2
_EIGHT_PI_HBAR2 = 8.0 * math.pi * CONST.hbar**2
_MASS3 = RB85.mass**3
_ERF_WEIGHT = 3.0 * math.sqrt(math.pi) / 8.0
_INTEGRAL_WEIGHT = 8.0 / (3.0 * math.sqrt(math.pi))


def eta(u0: float, temperature: float) -> float:
    """Truncation parameter U0 / (kB T)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return u0 / (_KB * temperature)


def unitarity_cross_section(temperature: float) -> float:
    """Unitarity-limited elastic cross section 4 pi hbar^2 / (mu^2 dv^2), m^2.

    dv^2 is the mean square relative velocity, twice the single-particle
    v_rms^2, and mu = m/2 is the reduced mass of two identical atoms.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    v_rms = thermal_velocity(temperature)
    return _FOUR_PI_HBAR2 / (_MU2 * (2.0 * v_rms**2))


def beta_esc(u0: float, eta_value: float) -> float:
    """Equivalent two-body escape coefficient, cm^3/s (closed form)."""
    if u0 <= 0 or eta_value <= 0:
        raise ValueError("U0 and eta must be positive")
    return (
        _EIGHT_PI_HBAR2 * eta_value**1.5 * math.exp(-eta_value)
        / math.sqrt(3.0 * u0 * _MASS3) * M3_TO_CM3
    )


# ---------------------------------------------------------------------------
# energy bookkeeping

def truncated_r4_integral(eta_value: float) -> float:
    """int_0^sqrt(eta) r^4 exp(-r^2) dr from its antiderivative,
    (3 sqrt(pi)/8) erf(x) - (x/4)(2 x^2 + 3) exp(-x^2), with math.erf."""
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    sqrt_eta = math.sqrt(eta_value)
    return (
        _ERF_WEIGHT * math.erf(sqrt_eta)
        - sqrt_eta / 4.0 * (2.0 * eta_value + 3.0) * math.exp(-eta_value)
    )


def epsilon(eta_value: float) -> float:
    """Energy-removal coefficient of the temperature evolution.

    epsilon(0) = -1 and epsilon -> (2/3) eta - 2 for large eta. Negative
    values (eta below about 2.30) mean escape removes less kinetic energy
    than the sample average.
    """
    if eta_value < 0:
        raise ValueError("eta must be >= 0")
    return 2.0 / 3.0 * eta_value - 1.0 - _INTEGRAL_WEIGHT * truncated_r4_integral(eta_value)


def over_times(t, curve):
    """curve(t, exp), a closed form's formula, evaluated at the times t >= 0.

    A Python int or float gives a float and a list or tuple a list, both
    from math.exp, one curve call per time, so these callers never load
    numpy; anything else becomes a float array, evaluated in one curve call
    with np.exp.
    """
    if isinstance(t, (int, float)):
        if t < 0:
            raise ValueError("time must be >= 0")
        return float(curve(float(t), math.exp))
    if isinstance(t, (list, tuple)):
        # min(t) >= 0 rules out a negative time unless t starts with a nan,
        # where min returns nan; any() settles that case
        if t and not min(t) >= 0 and any(time < 0 for time in t):
            raise ValueError("time must be >= 0")
        return [curve(time, math.exp) for time in t]
    import numpy as np

    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    result = curve(t_arr, np.exp)
    return float(result) if np.isscalar(t) else result


def temperature(t, t0, epsilon_value, xi, gamma_per_s, gamma_tot=0.0):
    """Closed-form T(t) of dT/dt = -eps xi gamma exp(-gamma t) T0 + gamma_tot T.

    T(t) = T0 exp(k t) (1 - eps xi g/(k+g) (1 - exp(-(k+g) t))) with
    k = gamma_tot and g = gamma; at the default k = 0 it is the cooling law
    T0 (1 - eps xi (1 - exp(-g t))) bit for bit at every finite t. The
    times t >= 0 are a float, a list or tuple of floats, or an array (see
    over_times).
    """
    eps_xi = epsilon_value * xi
    if eps_xi >= 1.0:
        raise DomainError("eps*xi >= 1: model predicts non-positive temperature")
    if t0 <= 0:
        raise ValueError("temperature must be > 0")
    if gamma_tot < 0:
        raise ValueError("gamma_tot must be >= 0")
    if gamma_per_s <= 0:
        raise ValueError("gamma must be positive")
    rate = gamma_tot + gamma_per_s
    minus_rate = -rate
    cooled_share = eps_xi * (gamma_per_s / rate)

    def curve(t, exp):
        try:
            growth = exp(gamma_tot * t)
        except OverflowError:  # math.exp raises where np.exp overflows to inf
            growth = math.inf
        return t0 * growth * (1.0 - cooled_share * (1.0 - exp(minus_rate * t)))

    return over_times(t, curve)


# ---------------------------------------------------------------------------
# photo-associative-loss scaling comparator

PacComparison = namedtuple("PacComparison", "ratio direction regime eta_consistent")


def pac_scaling_comparator(state_a: TrapState, state_b: TrapState,
                           regime: str = "unitarity",
                           eta_tolerance: float = 0.1) -> PacComparison:
    """Ratio Gamma_PAC(b) / Gamma_PAC(a) under the scaling
    Gamma_PAC ~ eta^(5/2) N T sigma_cc with equal eta in both states.

    unitarity regime: T sigma_cc constant, ratio = N_b / N_a.
    zero_T regime: T sigma_cc grows with T, ratio bounded by
    N_b T_b / (N_a T_a).

    The direction is "decrease", "increase" or "unchanged", and
    eta_consistent is False when the equal-eta assumption is violated.
    """
    eta_a = eta(state_a.trap.u0, state_a.temperature)
    eta_b = eta(state_b.trap.u0, state_b.temperature)
    consistent = abs(eta_b - eta_a) <= eta_tolerance * eta_a
    if regime == "unitarity":
        ratio = state_b.n_atoms / state_a.n_atoms
    elif regime == "zero_T":
        ratio = (state_b.n_atoms * state_b.temperature) / (
            state_a.n_atoms * state_a.temperature
        )
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if ratio < 1.0:
        direction = "decrease"
    elif ratio > 1.0:
        direction = "increase"
    else:
        direction = "unchanged"
    return PacComparison(ratio, direction, regime, consistent)


# ---------------------------------------------------------------------------
# depth ramps

RETHERMALIZATION_MODES = ("collision-gated", "instant", "off")


class RampProfile(CheckedRecord, namedtuple("RampProfile", "u_initial u_final duration")):
    """Linear well-depth ramp from u_initial to u_final (J) over a duration
    (s); duration 0 means a sudden jump."""

    __slots__ = ()
    _domains = (("u_initial", "> 0", "depths must be positive"),
                ("u_final", "> 0", "depths must be positive"),
                ("duration", ">= 0", "duration must be >= 0"))

    def depth_at(self, fraction: float) -> float:
        # u_final itself at the end, which the linear form loses far below u_initial
        if fraction == 1.0:
            return self.u_final
        return self.u_initial + (self.u_final - self.u_initial) * fraction


RampResult = namedtuple(
    "RampResult", "t_final n_final adiabatic_reference eta_final quasi_static"
)


def adiabatic_final_temperature(t_initial, u_initial, u_final):
    """T_f = T_i sqrt(U_f / U_i) for an adiabatic depth change."""
    if t_initial <= 0 or u_initial <= 0 or u_final <= 0:
        raise ValueError("temperature and depths must be positive")
    return t_initial * math.sqrt(u_final / u_initial)


def ramp_simulate(state: TrapState, profile: RampProfile,
                  rho_bar_per_cm3: float,
                  rethermalization: str = "collision-gated",
                  steps: int = 1024) -> RampResult:
    """Quasi-static ramp of the well depth with gated evaporation.

    The state supplies N and T, rho_bar_per_cm3 the initial mean density;
    the profile defines the depth path. The mean density follows the
    harmonic scaling rho_bar ~ N eta^(3/2) along the ramp. The end point
    holds the final temperature t_final (K), atom number and eta, the
    pure-adiabatic end temperature adiabatic_reference (K) and the
    quasi-static flag.
    """
    if rethermalization not in RETHERMALIZATION_MODES:
        raise ValueError(
            f"rethermalization must be one of {RETHERMALIZATION_MODES}"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if state.n_atoms <= 0:
        raise ValueError("atom number must be positive")

    t_adiabatic = adiabatic_final_temperature(
        state.temperature, profile.u_initial, profile.u_final
    )
    if profile.duration == 0.0:
        return RampResult(
            t_final=t_adiabatic,
            n_final=state.n_atoms,
            adiabatic_reference=t_adiabatic,
            eta_final=eta(profile.u_final, t_adiabatic),
            quasi_static=False,
        )

    temp = state.temperature
    n = state.n_atoms
    u = u_initial = profile.u_initial
    u_final = profile.u_final
    du = u_final - u_initial
    eta0 = eta(u_initial, state.temperature)
    rho0 = rho_bar_per_cm3
    n0 = state.n_atoms
    dt = profile.duration / steps
    quasi_static = True
    nu_r0, u_ref = state.trap.nu_radial, state.trap.u0
    evaporates = rethermalization != "off"
    gated = rethermalization == "collision-gated"
    sqrt, exp, erf = math.sqrt, math.exp, math.erf

    for i in range(1, steps + 1):
        fraction = i / steps
        u_new = u_final if fraction == 1.0 else u_initial + du * fraction  # depth_at
        # fractional depth change per step must stay slow on the radial
        # oscillation timescale for the quasi-static picture to hold
        nu_r = nu_r0 * sqrt(u / u_ref)
        if abs(u_new - u) / u / dt > nu_r:
            quasi_static = False
        temp *= sqrt(u_new / u)
        u = u_new
        if not evaporates:
            continue
        if temp <= 0:  # the check of eta
            raise ValueError("temperature must be > 0")
        eta_now = u / (_KB * temp)
        rho_now = rho0 * (n / n0) * (eta_now / eta0) ** 1.5
        if gated:
            v_rms = sqrt(_THREE_KB * temp / _MASS)
            sigma = _FOUR_PI_HBAR2 / (_MU2 * (2.0 * v_rms**2))
            gate = rho_now * M3_TO_CM3 * sigma * v_rms * dt
            if not gate < 1.0:  # min(1.0, gate), a nan gate included
                gate = 1.0
        else:
            gate = 1.0
        if u <= 0 or eta_now <= 0:  # the check of beta_esc
            raise ValueError("U0 and eta must be positive")
        sqrt_eta, exp_minus_eta = sqrt(eta_now), exp(-eta_now)
        beta = (
            _EIGHT_PI_HBAR2 * eta_now**1.5 * exp_minus_eta
            / sqrt(3.0 * u * _MASS3) * M3_TO_CM3
        )
        r4_integral = (
            _ERF_WEIGHT * erf(sqrt_eta)
            - sqrt_eta / 4.0 * (2.0 * eta_now + 3.0) * exp_minus_eta
        )
        eps = 2.0 / 3.0 * eta_now - 1.0 - _INTEGRAL_WEIGHT * r4_integral
        gamma_ev = gate * rho_now * beta
        temp *= exp(-eps * gamma_ev * dt)
        n *= exp(-gamma_ev * dt)

    return RampResult(
        t_final=temp,
        n_final=n,
        adiabatic_reference=t_adiabatic,
        eta_final=eta(profile.u_final, temp),
        quasi_static=quasi_static,
    )
