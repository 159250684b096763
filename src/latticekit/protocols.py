"""Depth-ramp protocols and ballistic-expansion thermometry.

The ramp integrator lowers the well depth in uniform steps, applying the
exact per-step adiabatic scaling T -> T sqrt(U'/U) and then an evaporative
loss/cooling update at the instantaneous truncation parameter. Evaporative
terms are throttled by a saturating rethermalization gate
min(1, Gamma_el * dt) built from the elastic collision rate; the gate is a
documented heuristic, so results are defined at the default step count and
only ordering and percent-level statements should be read off them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST, M3_TO_CM3, Species, thermal_velocity
from .evaporation import beta_esc, epsilon, eta, unitarity_cross_section
from .trap import TrapState

RETHERMALIZATION_MODES = ("collision-gated", "instant", "off")


@dataclass(frozen=True)
class RampProfile:
    """Linear well-depth ramp; duration 0 means a sudden jump."""

    u_initial: float  # J
    u_final: float    # J
    duration: float   # s
    shape: str = "linear"

    def __post_init__(self):
        if self.u_initial <= 0 or self.u_final <= 0:
            raise ValueError("depths must be positive")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.shape != "linear":
            raise ValueError(f"unsupported ramp shape {self.shape!r}")

    def depth_at(self, fraction: float) -> float:
        return self.u_initial + (self.u_final - self.u_initial) * fraction


@dataclass(frozen=True)
class RampResult:
    """End point of a ramp simulation."""

    t_final: float              # K
    n_final: float
    adiabatic_reference: float  # K, pure-adiabatic end temperature
    eta_final: float
    quasi_static: bool


def adiabatic_final_temperature(t_initial, u_initial, u_final):
    """T_f = T_i sqrt(U_f / U_i) for an adiabatic depth change."""
    if t_initial <= 0 or u_initial <= 0 or u_final <= 0:
        raise ValueError("temperature and depths must be positive")
    return t_initial * math.sqrt(u_final / u_initial)


def ramp_simulate(state: TrapState, profile: RampProfile, species: Species,
                  rethermalization: str = "collision-gated",
                  steps: int = 1024,
                  rho_bar_per_cm3: float | None = None) -> RampResult:
    """Quasi-static ramp of the well depth with gated evaporation.

    The state supplies N, T and the density scale; the profile defines the
    depth path. The mean density follows the harmonic scaling
    rho_bar ~ N eta^(3/2) along the ramp.
    """
    if rethermalization not in RETHERMALIZATION_MODES:
        raise ValueError(
            f"rethermalization must be one of {RETHERMALIZATION_MODES}"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rho_bar_per_cm3 is None:
        from .trap import state_mean_density

        rho_bar_per_cm3 = state_mean_density(state) / M3_TO_CM3

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

    for i in range(steps):
        u_new = profile.depth_at((i + 1) / steps)
        # fractional depth change per step must stay slow on the radial
        # oscillation timescale for the quasi-static picture to hold
        nu_r = state.trap.nu_radial * math.sqrt(u / state.trap.u0)
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
                * unitarity_cross_section(species, temp)
                * thermal_velocity(species, temp)
            )
            gate = min(1.0, gamma_el * dt)
        gamma_ev = gate * rho_now * beta_esc(u, eta_now, species)
        temp *= math.exp(-epsilon(eta_now) * gamma_ev * dt)
        n *= math.exp(-gamma_ev * dt)

    return RampResult(
        t_final=temp,
        n_final=n,
        adiabatic_reference=t_adiabatic,
        eta_final=eta(profile.u_final, temp),
        quasi_static=quasi_static,
    )


# ---------------------------------------------------------------------------
# time-of-flight thermometry

def expansion_sigma(sigma0, temperature, t, species):
    """Cloud width after free expansion, sqrt(sigma0^2 + (kB T / m) t^2), m."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("expansion time must be >= 0")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    result = np.sqrt(
        sigma0**2 + CONST.kB * temperature / species.mass * t_arr**2
    )
    return float(result) if np.isscalar(t) else result


@dataclass(frozen=True)
class ExpansionSeries:
    """Measured or synthetic expansion widths versus flight time."""

    times: np.ndarray      # s
    sigma: np.ndarray      # m
    amplitude: np.ndarray  # counts (peak areal density scale)
    fall: np.ndarray       # m, free-fall center displacement g t^2 / 2
    n_atoms: float | None = None      # generating values when synthetic
    temperature: float | None = None
    sigma0: float | None = None

    def __post_init__(self):
        if not (len(self.times) == len(self.sigma) == len(self.amplitude)):
            raise ValueError("series columns must have equal length")


def synthesize_expansion(n_atoms, temperature, sigma0, times, noise_sigma,
                         seed, species) -> ExpansionSeries:
    """Deterministic synthetic expansion series.

    noise_sigma is the fractional Gaussian noise applied to the widths;
    amplitudes are the noiseless Gaussian peak areal densities N/(2 pi s^2).
    The lattice is vertical, so the free-fall displacement of the cloud
    center is recorded alongside each point.
    """
    t = np.asarray(times, dtype=float)
    if np.any(t < 0):
        raise ValueError("expansion times must be >= 0")
    rng = np.random.default_rng(seed)
    sigma_true = expansion_sigma(sigma0, temperature, t, species)
    sigma_meas = sigma_true * (1.0 + noise_sigma * rng.standard_normal(t.size))
    amplitude = n_atoms / (2.0 * math.pi * sigma_true**2)
    return ExpansionSeries(
        times=t,
        sigma=sigma_meas,
        amplitude=amplitude,
        fall=0.5 * CONST.g * t**2,
        n_atoms=n_atoms,
        temperature=temperature,
        sigma0=sigma0,
    )


@dataclass(frozen=True)
class ExpansionFit:
    """Temperature, initial width and atom number recovered from a series."""

    temperature: float
    temperature_err: float
    sigma0: float
    sigma0_err: float
    n_atoms: float
    n_atoms_err: float
    degenerate: bool  # True when the fitted sigma0^2 came out non-positive


def fit_expansion(series: ExpansionSeries, species: Species) -> ExpansionFit:
    """Least squares on sigma^2(t) = sigma0^2 + (kB T / m) t^2.

    Linear in t^2, solved by closed-form normal equations; uncertainties
    from the residual covariance. Order of the records is irrelevant.
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
    dof = n - 2
    s2 = float(np.sum(resid**2)) / dof if dof > 0 else 0.0
    var_slope = s2 / sxx
    var_intercept = s2 * (1.0 / n + x_mean**2 / sxx)

    temp = slope * species.mass / CONST.kB
    temp_err = math.sqrt(var_slope) * species.mass / CONST.kB
    degenerate = bool(intercept <= 0)
    if degenerate:
        sigma0 = math.nan
        sigma0_err = math.nan
    else:
        sigma0 = math.sqrt(intercept)
        sigma0_err = math.sqrt(var_intercept) / (2.0 * sigma0)

    counts = 2.0 * math.pi * series.sigma**2 * series.amplitude
    n_atoms = float(counts.mean())
    n_err = float(counts.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ExpansionFit(
        temperature=temp,
        temperature_err=temp_err,
        sigma0=sigma0,
        sigma0_err=sigma0_err,
        n_atoms=n_atoms,
        n_atoms_err=n_err,
        degenerate=degenerate,
    )
