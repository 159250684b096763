"""Independent numerical routes the closed forms are tested against.

A fixed-step fourth-order Runge-Kutta integrator of the raw rate equations
for N(t) and T(t), adaptive quadrature of the truncated r^4 integral, the
escape rate composed from the cross section and the thermal velocity, and
the mean energy an escaping atom removes. None of this is on the product
path. The RK4 step size is tied to the total span (span / 4096 by default),
so repeated runs give bit-identical arrays. Then the argparse command line
that latticekit.cli parsed before its command table, which
tests/test_command_line.py compares the hand-written parser against. The
depth ramp as a loop over the public checked functions, one call per
formula, which evaporation.ramp_simulate, writing each formula out in its
step, must match bit for bit. Then the per-cell CSV writer and per-line CSV
reader that tests/test_tabular.py holds the one-pass codec of
latticekit.tabular to. Last, the cooling-law and
expansion fits on numpy arrays, as latticekit computed them before its
math.fsum code, with BLAS and numpy's pairwise sums under numpy's raise
policy: the pure fits must agree with them to 1e-12 and raise
FloatingPointError where they do.
"""

import argparse
import math
from itertools import chain

import numpy as np

from latticekit.constants import CONST, M3_TO_CM3, RB85, thermal_velocity
from latticekit.errors import ConfigError, DomainError
from latticekit.evaporation import (
    RETHERMALIZATION_MODES,
    RampResult,
    adiabatic_final_temperature,
    beta_esc,
    epsilon,
    eta,
    temperature,
    unitarity_cross_section,
)
from latticekit.fitting import FitResult
from latticekit.protocols import ExpansionFit
from latticekit.tabular import TRAJECTORY_DIGITS, format_value

DEFAULT_SUBSTEPS = 4096


def rk4_path(f, y0, t_grid, n_substeps=DEFAULT_SUBSTEPS):
    """Integrate dy/dt = f(t, y) over a sorted grid starting at its first point.

    Uniform substeps of size span / n_substeps are taken inside each output
    interval (rounded up so the grid points are hit exactly). Returns y at
    every grid point as an ndarray.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    out = np.empty(t.size, dtype=float)
    out[0] = y = float(y0)
    span = t[-1] - t[0]
    if t.size == 1:
        return out

    h_target = span / n_substeps
    if h_target <= 0 or not math.isfinite(h_target):
        raise DomainError("step size underflow in RK4 integration")

    for i in range(t.size - 1):
        t0, t1 = t[i], t[i + 1]
        steps = max(1, int(math.ceil((t1 - t0) / h_target - 1e-12)))
        h = (t1 - t0) / steps
        if t0 + h == t0:
            raise DomainError("step size underflow in RK4 integration")
        ti = t0
        for _ in range(steps):
            k1 = f(ti, y)
            k2 = f(ti + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(ti + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(ti + h, y + h * k3)
            y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ti += h
        out[i + 1] = y
    return out


def population_rk4(n0, gamma_per_s, beta_cm3_per_s, rho_peak_per_cm3, t_grid):
    """N on a grid from 0: dN/dt = -gamma N - beta integral(rho^2), with the
    constant-temperature closure integral(rho^2) = (N/N0)^2 N0 rho_peak / 4
    (cm^-3 units) that losses.population solves in closed form."""
    q0 = n0 * rho_peak_per_cm3 / 4.0

    def rhs(_t, n):
        return -gamma_per_s * n - beta_cm3_per_s * (q0 * (n / n0) ** 2)

    return rk4_path(rhs, n0, t_grid)


def combined_temperature_rk4(t0, epsilon_value, xi, gamma_per_s, gamma_tot,
                             t_grid):
    """T on a grid from 0: dT/dt = -eps xi gamma exp(-gamma t) T0 + gamma_tot T,
    the equation evaporation.temperature solves in closed form."""

    def rhs(time, temp):
        return (
            -epsilon_value * xi * gamma_per_s * math.exp(-gamma_per_s * time) * t0
            + gamma_tot * temp
        )

    return rk4_path(rhs, t0, t_grid)


def truncated_r4_quadrature(eta_value):
    """int_0^sqrt(eta) r^4 exp(-r^2) dr by adaptive quadrature (scipy)."""
    from scipy.integrate import quad

    value, _ = quad(
        lambda r: r**4 * math.exp(-r * r), 0.0, math.sqrt(eta_value),
        epsabs=1e-13, epsrel=1e-12,
    )
    return value


def mean_potential_energy(t0, eta_value):
    """Mean potential energy inside the trapping volume at temperature T0,
    (4/sqrt(pi)) kB T0 int_0^sqrt(eta) r^4 exp(-r^2) dr, J, by quadrature;
    U0 - removed_energy_mean must match it."""
    return (
        4.0 / math.sqrt(math.pi) * CONST.kB * t0
        * truncated_r4_quadrature(eta_value)
    )


def removed_energy_mean(t0, eta_value):
    """Mean kinetic energy removed per evaporated atom,
    (3/2) kB T0 (1 + epsilon), J."""
    return 1.5 * CONST.kB * t0 * (1.0 + epsilon(eta_value))


def evaporation_rate(rho_bar_per_cm3, temperature, eta_value):
    """Per-atom escape rate rho_bar sigma_esc v_rms eta exp(-eta), 1/s.

    The composition route through the cross section and the thermal
    velocity; evaporation.beta_esc is the closed form it must match.
    """
    sigma_v = unitarity_cross_section(temperature) * thermal_velocity(temperature)
    return (
        rho_bar_per_cm3
        * sigma_v * M3_TO_CM3
        * eta_value * math.exp(-eta_value)
    )


# ---------------------------------------------------------------------------
# the depth ramp as a loop over the public checked functions


def ramp_reference(state, profile, rho_bar_per_cm3,
                   rethermalization="collision-gated", steps=1024):
    """evaporation.ramp_simulate as a loop over the public checked functions, one
    call per formula and step; ramp_simulate must return the same bits and
    raise the same errors."""
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


# ---------------------------------------------------------------------------
# the argparse command line latticekit.cli parsed before its command table


def _parse_overrides(rest):
    pairs = []
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        if i + 1 >= len(rest):
            raise ConfigError(f"override {token} is missing a value")
        pairs.append((token[2:], rest[i + 1]))
        i += 2
    return pairs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latticekit",
        description="Ring-cavity optical lattice modeling and fitting toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, out_required=False, **extra):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", required=out_required, help="output path")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)

    add("cavity", "resonator figures of merit")
    add("trap", "trap, density and coupling parameters")
    add(
        "simulate",
        "write a model trajectory CSV",
        out_required=True,
        **{"--model": {"required": True,
                       "choices": ["decay", "temperature", "combined"]}},
    )
    add(
        "fit",
        "fit a measured series",
        **{
            "--kind": {"required": True,
                       "choices": ["decay", "temperature", "tof"]},
            "--data": {"required": True, "help": "input CSV path"},
        },
    )
    add("bound", "heating-rate upper bound", **{"--psd": {"default": None}})
    add("tof", "synthesize an expansion series", out_required=True)
    add("ramp", "simulate the configured depth ramp")
    return parser


def argparse_command_line(argv):
    """(command, {flag: value}, [(override name, raw value)]) as argparse and
    the override pairing read argv. Help raises SystemExit(0); a line either
    refuses raises SystemExit(2), as cli.main then exited 2."""
    ns, rest = _build_parser().parse_known_args(argv)
    try:
        overrides = _parse_overrides(rest)
    except ConfigError:
        raise SystemExit(2) from None
    flags = vars(ns)
    return flags.pop("command"), flags, overrides


# ---------------------------------------------------------------------------
# the CSV writer and reader latticekit.tabular used before its one-pass codec


def columns_csv(header, columns):
    """CSV text of equal-length columns under header, each cell through
    format_value to TRAJECTORY_DIGITS significant digits."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format_value(v, TRAJECTORY_DIGITS) for v in row))
    return "\n".join(lines) + "\n"


def residuals_csv(residuals):
    """index,residual CSV text, each residual as its round-trip repr."""
    lines = ["index,residual"]
    for i, r in enumerate(residuals):
        lines.append(f"{i},{format_value(float(r))}")
    return "\n".join(lines) + "\n"


def read_rows(path, headers, source_kind):
    """Header and rows (lists of finite floats) of a CSV whose header is one
    of headers, parsed line by line and cell by cell."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {source_kind} file {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise ConfigError(
            f"{path}: line 1: expected header {expected}, got {lines[0]!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise ConfigError(
                f"{path}: line {lineno}: cannot parse row {line!r}"
            ) from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
        lineno = next(
            n for n, row in zip(linenos, rows) if not all(map(math.isfinite, row))
        )
        raise ConfigError(
            f"{path}: line {lineno}: non-finite value in {lines[lineno - 1]!r}"
        )
    return header, rows


# ---------------------------------------------------------------------------
# the cooling-law and expansion fits as numpy array code


@np.errstate(over="raise", divide="raise", invalid="raise")
def fit_epsilon_numpy(dataset, xi, gamma_per_s, t0):
    """latticekit.fitting.fit_epsilon on float arrays: BLAS dot products,
    np.exp and the cooling law evaluated on an array."""
    if len(dataset.t) < 3:
        raise ValueError("need at least 3 points to fit")
    if xi <= 0:
        raise ValueError("xi must be positive")
    t, y, s = (np.asarray(c, dtype=float) for c in dataset)
    u = np.exp(-gamma_per_s * t)
    a = -t0 * xi * (1.0 - u) / s  # d(model)/d(eps), weighted
    z = (y - t0) / s
    denom = float(a @ a)
    numer = float(a @ z)
    eps_free = numer / denom if denom > 0 else 0.0
    eps_max = 1.0 / xi
    while eps_max * xi >= 1.0:
        eps_max = math.nextafter(eps_max, 0.0)
    eps = min(max(eps_free, 0.0), eps_max)
    r = (temperature(t, t0, eps, xi, gamma_per_s) - y) / s
    rss = float(r @ r)

    converged = 0.0 < eps_free < eps_max
    dof = t.size - 1
    var_eps = (rss / dof) / denom if denom > 0 else math.inf
    return FitResult(
        params={"epsilon": eps},
        uncertainties={"epsilon": math.sqrt(var_eps)},
        residuals=r,
        rss=rss,
        dof=dof,
        converged=converged,
        iterations=1,
        message="converged" if converged else "minimum at domain boundary",
        model="temperature",
    )


@np.errstate(over="raise", divide="raise", invalid="raise")
def fit_expansion_numpy(series):
    """latticekit.protocols.fit_expansion on float arrays: numpy's pairwise
    sums, mean and std."""
    if len(series.times) < 3:
        raise ValueError("need at least 3 distinct expansion times")
    times, sigma, amplitude = (np.asarray(c, dtype=float) for c in series)
    x = times**2
    y = sigma**2
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

    counts = 2.0 * math.pi * y * amplitude
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
