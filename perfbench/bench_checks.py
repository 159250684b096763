"""Output checks for every benchmark op, and output digests.

Trajectories are compared with the closed forms (`losses.population`,
`evaporation.temperature` and the combined cooling/heating solution), fits
must converge and recover the generating parameters within 5 reported
standard deviations, and ramps must lose atoms and, while they stay in the
regime where evaporation cools, end no hotter than the adiabatic reference.
Ramp numbers themselves are not pinned.
"""

import glob
import hashlib
import math
import re

import numpy as np
from latticekit.constants import CONST, RB85
from latticekit.evaporation import epsilon as removal_coefficient
from latticekit.evaporation import temperature as cooling_law
from latticekit.losses import population

TRAJECTORY_REL = 1e-7   # closed form vs written trajectory (9 digits written)
REPORT_REL = 1e-9       # closed form vs a full-precision report value
SIGMAS = 5.0            # fit recovery bound, in reported standard deviations
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(value, reference, rel, what):
    _require(
        np.all(np.abs(np.asarray(value) - reference) <= rel * np.abs(reference)),
        f"{what} differs from its closed form by more than {rel:g} relative",
    )


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _columns(path, header):
    lines = _read(path).rstrip("\n").split("\n")
    _require(lines[0] == header, f"{path}: header {lines[0]!r}, expected {header!r}")
    width = header.count(",") + 1
    return np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, width).T


def _value(text):
    if text in ("true", "false"):
        return float(text == "true")
    try:
        return float(text)
    except ValueError:
        return text


def _report(path):
    """{key: value} from a `section,key,value,provenance` report twin."""
    lines = _read(path).rstrip("\n").split("\n")
    _require(lines[0] == "section,key,value,provenance", f"{path}: not a report CSV")
    rows = (line.split(",") for line in lines[1:])
    return {key: _value(value) for _section, key, value, _provenance in rows}


def _params(path):
    """{param: (value, uncertainty)} from a fit's `param,value,uncertainty` CSV."""
    lines = _read(path).rstrip("\n").split("\n")
    _require(lines[0] == "param,value,uncertainty", f"{path}: not a parameter CSV")
    rows = (line.split(",") for line in lines[1:])
    return {name: (float(value), float(err)) for name, value, err in rows}


def _recovered(name, value, err, truth):
    _require(
        math.isfinite(err) and abs(value - truth) <= SIGMAS * err,
        f"{name} = {value!r} +- {err!r} misses the generating {truth!r} by over {SIGMAS:g} sigma",
    )


def _time_grid(t, expect):
    _require(t.size == expect["n_points"], f"{t.size} rows, expected {expect['n_points']}")
    _close(t[1:], np.linspace(0.0, expect["t_max"], t.size)[1:], TRAJECTORY_REL, "time grid")


def _simulate_decay(out, e):
    t, n = _columns(out, "t_s,N")
    _time_grid(t, e)
    _close(n, population(t, e["n0"], e["gamma"], e["xi"]), TRAJECTORY_REL, "N(t)")


def _simulate_temperature(out, e):
    t, temp = _columns(out, "t_s,T_uK")
    _time_grid(t, e)
    reference = cooling_law(t, e["t0"], e["epsilon"], e["xi"], e["gamma"])
    _close(temp, reference, TRAJECTORY_REL, "T(t)")


def combined_temperature(t, t0, epsilon, xi, gamma, gamma_tot):
    """T(t) = e^{kt} [T0 - A/(k+g) (1 - e^{-(k+g)t})], A = eps xi g T0."""
    rate = gamma_tot + gamma
    drive = epsilon * xi * gamma * t0
    return np.exp(gamma_tot * t) * (t0 - drive / rate * (1.0 - np.exp(-rate * t)))


def _simulate_combined(out, e):
    t, temp = _columns(out, "t_s,T_uK")
    _time_grid(t, e)
    reference = combined_temperature(t, e["t0"], e["epsilon"], e["xi"], e["gamma"], e["gamma_tot"])
    _close(temp, reference, TRAJECTORY_REL, "combined T(t)")


def _ramp(out, _e):
    r = _report(out + ".csv")
    _require(r["N_final"] <= 4.0e6, f"N_final {r['N_final']!r} exceeds N0")
    # Evaporation cools only while the energy-removal coefficient is >= 0,
    # i.e. eta above about 2.30 (see evaporation.epsilon). Below that the
    # model heats, and eta can only keep falling, so eta_final tells whether
    # the whole ramp stayed in the cooling regime.
    if removal_coefficient(r["eta_final"]) < 0.0:
        return
    # 1e-9 covers the round-off of the per-step adiabatic product
    _require(
        r["T_final_uK"] <= r["adiabatic_reference_uK"] * (1.0 + REPORT_REL),
        f"T_final {r['T_final_uK']!r} uK above the adiabatic {r['adiabatic_reference_uK']!r} uK",
    )


def _fit_converged(out):
    _require("\nconverged = true\n" in _read(out), "fit did not converge")


def _fit_decay(out, e):
    _fit_converged(out)
    params = _params(out + ".csv")
    for name in ("gamma_per_s", "beta_cm3_per_s", "n0"):
        _recovered(name, *params[name], e[name])
    _residual_rows(out, e)


def _fit_temperature(out, e):
    _fit_converged(out)
    _recovered("epsilon", *_params(out + ".csv")["epsilon"], e["epsilon"])
    _residual_rows(out, e)


def _residual_rows(out, e):
    index, _residual = _columns(out + ".residuals.csv", "index,residual")
    _require(index.size == e["rows"], f"{index.size} residuals for {e['rows']} rows")


def _fit_tof(out, e):
    r = _report(out + ".csv")
    _require(r["degenerate"] == 0.0, "degenerate expansion fit")
    _recovered("temperature_uK", r["temperature_uK"], r["temperature_err_uK"], e["temperature_uK"])
    _recovered("sigma0_um", r["sigma0_um"], r["sigma0_err_um"], e["sigma0_um"])
    _recovered("n_atoms", r["n_atoms"], r["n_atoms_err"], e["n_atoms"])


def _bound_closed_form(r):
    p = r["epsilon"] * r["xi"]
    decay = math.exp(-r["gamma_per_s"] * r["t_max_s"])
    reference = p * r["gamma_per_s"] * decay / (1.0 - p * (1.0 - decay))
    _close(r["gamma_tot_bound_per_s"], reference, REPORT_REL, "heating-rate bound")


def _bound(out, _e):
    _bound_closed_form(_report(out + ".csv"))


class PsdCheck:
    """bound --psd: the parametric rates recomputed from the spectrum file."""

    def __init__(self, nu_axial, nu_radial):
        self.nu = (nu_axial, nu_radial)

    def __call__(self, out, e, data):
        r = _report(out + ".csv")
        _bound_closed_form(r)
        freq, density = _columns(data, "freq_hz,S_rel_per_hz")
        axial, radial = (
            math.pi**2 * nu**2 * float(np.interp(math.log(2 * nu), np.log(freq), density))
            for nu in self.nu
        )
        _close(r["psd_gamma_axial_per_s"], axial, REPORT_REL, "axial heating rate")
        _close(r["psd_gamma_radial_per_s"], radial, REPORT_REL, "radial heating rate")
        _close(r["psd_gamma_tot_per_s"], (axial + 2.0 * radial) / 3.0, REPORT_REL, "total heating rate")


def _cavity(out, e):
    r = _report(out + ".csv")
    _close(r["free_spectral_range_hz"], CONST.c / (e["length_mm"] * 1e-3), REPORT_REL, "FSR")
    _close(r["linewidth_hz"], 1.0 / (2.0 * math.pi * e["ring_down_us"] * 1e-6), REPORT_REL, "linewidth")


def _trap(out, e):
    _close(_report(out + ".csv")["eta"], e["depth_uK"] / e["temperature_uK"], REPORT_REL, "eta")


def _tof(out, e):
    # configured defaults: 4e6 atoms, 40 um initial width, 1% width noise
    t_ms, sigma_um, amplitude = _columns(out, "t_ms,sigma_um,amplitude")
    _require(t_ms.size == e["n_times"], f"{t_ms.size} rows, expected {e['n_times']}")
    t = t_ms * 1e-3
    width = np.sqrt((40e-6) ** 2 + CONST.kB * e["temperature_uK"] * 1e-6 / RB85.mass * t**2)
    _close(amplitude, 4.0e6 / (2.0 * math.pi * width**2), TRAJECTORY_REL, "expansion amplitude")
    _require(np.all(np.abs(sigma_um * 1e-6 / width - 1.0) <= 0.06), "widths over 6 sigma off the law")


CHECKS = {
    "simulate-decay": _simulate_decay,
    "simulate-temperature": _simulate_temperature,
    "simulate-combined": _simulate_combined,
    "ramp": _ramp,
    "fit-decay": _fit_decay,
    "fit-temperature": _fit_temperature,
    "fit-tof": _fit_tof,
    "bound": _bound,
    "cavity": _cavity,
    "trap": _trap,
    "tof": _tof,
}


def outputs(out):
    """Every file an op wrote: the --out path and its suffixed twins."""
    return sorted(glob.glob(glob.escape(out) + "*"))


def check(op, out, code, stdout, psd_check):
    """Raise CheckFailed unless the op's exit code and outputs are right."""
    _require(code == 0, f"exit code {code}")
    texts = [stdout] + [_read(path) for path in outputs(out)]
    _require(not any(NAN.search(text) for text in texts), "nan in a report")
    if op["kind"] == "bound-psd":
        psd_check(out, op["expect"], op["argv"][op["argv"].index("--psd") + 1])
    else:
        CHECKS[op["kind"]](out, op["expect"])


def digest(out, stdout):
    """sha256 over stdout and every output file, names excluded."""
    h = hashlib.sha256(stdout.encode())
    for path in outputs(out):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]
