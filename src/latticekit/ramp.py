"""Depth ramps of the lattice well with evaporation along the way.

The ramp integrator lowers the well depth in uniform steps, applying the
exact per-step adiabatic scaling T -> T sqrt(U'/U) and then an evaporative
loss/cooling update at the instantaneous truncation parameter. Evaporative
terms are throttled by a saturating rethermalization gate
min(1, Gamma_el * dt) built from the elastic collision rate; the gate is a
documented heuristic, so results are defined at the default step count and
only ordering and percent-level statements should be read off them.

Each step calls the unchecked formula bodies of evaporation (eta, the
thermal velocity, the unitarity cross section, beta_esc and epsilon), which
share one v_rms, one exp(-eta) and one sqrt(eta) per step. It makes the
checks of the public eta and beta_esc where those would make them; the
other public checks cannot fail once these two pass.
tests/oracles.ramp_reference is the same loop over the public checked
functions, one call per formula; the two agree bit for bit and raise the
same errors.

Everything here is scalar arithmetic on math, so the ramp never loads numpy.
"""

import math
from collections import namedtuple

from .constants import M3_TO_CM3, CheckedRecord, _thermal_velocity
from .evaporation import _beta_esc, _epsilon, _eta, _unitarity_cross_section, eta
from .trap import TrapState

RETHERMALIZATION_MODES = ("collision-gated", "instant", "off")


class RampProfile(CheckedRecord, namedtuple("RampProfile", "u_initial u_final duration")):
    """Linear well-depth ramp from u_initial to u_final (J) over a duration
    (s); duration 0 means a sudden jump."""

    __slots__ = ()
    _domains = (("u_initial", "> 0", "depths must be positive"),
                ("u_final", "> 0", "depths must be positive"),
                ("duration", ">= 0", "duration must be >= 0"))

    def depth_at(self, fraction: float) -> float:
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
    u = profile.u_initial
    eta0 = eta(profile.u_initial, state.temperature)
    rho0 = rho_bar_per_cm3
    n0 = state.n_atoms
    dt = profile.duration / steps
    quasi_static = True
    nu_r0, u_ref = state.trap.nu_radial, state.trap.u0
    depth_at = profile.depth_at
    evaporates = rethermalization != "off"
    gated = rethermalization == "collision-gated"
    sqrt, exp = math.sqrt, math.exp

    for i in range(steps):
        u_new = depth_at((i + 1) / steps)
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
        eta_now = _eta(u, temp)
        rho_now = rho0 * (n / n0) * (eta_now / eta0) ** 1.5
        if gated:
            v_rms = _thermal_velocity(temp)
            gamma_el = rho_now * M3_TO_CM3 * _unitarity_cross_section(v_rms) * v_rms
            gate = gamma_el * dt
            if not gate < 1.0:  # min(1.0, gate), a nan gate included
                gate = 1.0
        else:
            gate = 1.0
        if u <= 0 or eta_now <= 0:  # the check of beta_esc
            raise ValueError("U0 and eta must be positive")
        sqrt_eta, exp_minus_eta = sqrt(eta_now), exp(-eta_now)
        gamma_ev = gate * rho_now * _beta_esc(u, eta_now, exp_minus_eta)
        temp *= exp(-_epsilon(eta_now, sqrt_eta, exp_minus_eta) * gamma_ev * dt)
        n *= exp(-gamma_ev * dt)

    return RampResult(
        t_final=temp,
        n_final=n,
        adiabatic_reference=t_adiabatic,
        eta_final=eta(profile.u_final, temp),
        quasi_static=quasi_static,
    )
