"""Depth ramps of the lattice well with evaporation along the way.

The ramp integrator lowers the well depth in uniform steps, applying the
exact per-step adiabatic scaling T -> T sqrt(U'/U) and then an evaporative
loss/cooling update at the instantaneous truncation parameter. Evaporative
terms are throttled by a saturating rethermalization gate
min(1, Gamma_el * dt) built from the elastic collision rate; the gate is a
documented heuristic, so results are defined at the default step count and
only ordering and percent-level statements should be read off them.

Everything here is scalar arithmetic on math, so the ramp never loads numpy.
"""

import math
from collections import namedtuple

from .constants import M3_TO_CM3, CheckedRecord, thermal_velocity
from .evaporation import beta_esc, epsilon, eta, unitarity_cross_section
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

    for i in range(steps):
        u_new = profile.depth_at((i + 1) / steps)
        # fractional depth change per step must stay slow on the radial
        # oscillation timescale for the quasi-static picture to hold
        nu_r = nu_r0 * math.sqrt(u / u_ref)
        if abs(u_new - u) / u / dt > nu_r:
            quasi_static = False
        temp *= math.sqrt(u_new / u)
        u = u_new
        if rethermalization == "off":
            continue
        eta_now = eta(u, temp)
        rho_now = rho0 * (n / n0) * (eta_now / eta0) ** 1.5
        if rethermalization == "instant":
            gate = 1.0
        else:
            gamma_el = (
                rho_now * M3_TO_CM3
                * unitarity_cross_section(temp)
                * thermal_velocity(temp)
            )
            gate = min(1.0, gamma_el * dt)
        gamma_ev = gate * rho_now * beta_esc(u, eta_now)
        temp *= math.exp(-epsilon(eta_now) * gamma_ev * dt)
        n *= math.exp(-gamma_ev * dt)

    return RampResult(
        t_final=temp,
        n_final=n,
        adiabatic_reference=t_adiabatic,
        eta_final=eta(profile.u_final, temp),
        quasi_static=quasi_static,
    )
