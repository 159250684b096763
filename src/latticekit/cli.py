"""Command-line interface tying the toolkit together.

Subcommands: cavity, trap, simulate, fit, bound, tof, ramp. Every command
reads the schema defaults, an optional config file (--config or the
LATTICEKIT_CONFIG environment variable) and trailing `--key value` overrides
whose names mirror the config keys (unambiguous tails are accepted).

Exit codes: 0 success, 2 input or configuration error, 3 model-domain error,
4 fit non-convergence.
"""

import argparse
import math
import sys

import numpy as np

from .cavity import (
    circulating_power,
    finesse_from_linewidth,
    finesse_from_losses,
    free_spectral_range,
    implied_mode_matching,
    linewidth_from_ring_down,
    mode_volume,
    power_buildup,
)
from .config import (
    cavity_from_config,
    load_config,
    mode_from_config,
    state_from_config,
    trap_from_config,
)
from .constants import CONST, RB85
from .errors import ConfigError, DomainError
from .fitting import fit_decay, fit_epsilon, residual_report
from .heating import bound_gamma_tot, combined_temperature, rates_from_spectrum
from .losses import LossParams, population, xi_from_beta
from .protocols import RampProfile, fit_expansion, ramp_simulate, synthesize_expansion
from .tabular import (
    TRAJECTORY_DIGITS,
    atomic_write_text,
    format_value,
    read_dataset,
    read_expansion,
    read_noise_spectrum,
    write_columns,
    write_expansion,
)
from .trap import (
    classify_regimes,
    collective_coupling,
    dipole_depth_and_scatter,
    intensity_for_depth,
    peak_density,
    phase_space_density,
    polarizability,
    state_phase_space_density,
)

COMPUTED = "computed"
CONFIGURED = "configured"


# ---------------------------------------------------------------------------
# reports

REPORT_DIGITS = 10


def render_report(sections):
    """(text, csv) renderings of [(section, [(key, value, provenance)])]."""
    text_lines = []
    csv_lines = ["section,key,value,provenance"]
    for name, entries in sections:
        text_lines.append(f"[{name}]")
        for key, value, provenance in entries:
            text_lines.append(
                f"{key} = {format_value(value, REPORT_DIGITS)}  # {provenance}"
            )
            csv_lines.append(f"{name},{key},{format_value(value)},{provenance}")
        text_lines.append("")
    return "\n".join(text_lines).rstrip() + "\n", "\n".join(csv_lines) + "\n"


def _emit_report(sections, out):
    text, csv_text = render_report(sections)
    sys.stdout.write(text)
    if out:
        atomic_write_text(out, text)
        atomic_write_text(out + ".csv", csv_text)


# ---------------------------------------------------------------------------
# commands

def cmd_cavity(cfg, args):
    cavity = cavity_from_config(cfg)
    mode = mode_from_config(cfg)
    fsr = free_spectral_range(cavity)
    linewidth = linewidth_from_ring_down(cfg["cavity.ring_down_us"] * 1e-6)
    f_spectral = finesse_from_linewidth(fsr, linewidth)
    f_budget = finesse_from_losses(cavity)
    entries = [
        ("round_trip_length_mm", cfg["cavity.round_trip_length_mm"], CONFIGURED),
        ("free_spectral_range_hz", fsr, COMPUTED),
        ("ring_down_us", cfg["cavity.ring_down_us"], CONFIGURED),
        ("linewidth_hz", linewidth, COMPUTED),
        ("finesse_from_linewidth", f_spectral, COMPUTED),
        ("finesse_from_loss_budget", f_budget, COMPUTED),
        ("finesse_route_ratio", f_budget / f_spectral, COMPUTED),
        ("round_trip_loss_ppm", cavity.round_trip_loss * 1e6, COMPUTED),
        ("mode_volume_mm3", mode_volume(mode, cavity) * 1e9, COMPUTED),
        ("power_buildup", power_buildup(cavity), COMPUTED),
        ("input_power_uW", cfg["cavity.input_power_uW"], CONFIGURED),
        ("circulating_power_w", circulating_power(cavity), COMPUTED),
    ]
    _emit_report([("cavity", entries)], args.out)
    return 0


def cmd_trap(cfg, args):
    import dataclasses

    species = RB85
    trap = trap_from_config(cfg, species)
    state = state_from_config(cfg, species)
    # the trap chain is driven at its own input power setting
    cavity = dataclasses.replace(
        cavity_from_config(cfg),
        input_power_per_mode=cfg["trap.input_power_uW"] * 1e-6,
    )
    mode = mode_from_config(cfg)
    regimes = classify_regimes(trap, species)

    rho_model = peak_density(state)                      # m^-3
    rho_configured = cfg["sample.rho_peak_per_cm3"] * 1e6
    alpha = polarizability(species, trap.wavelength)
    rnf = collective_coupling(
        alpha, trap.wavelength, mode.effective_waist,
        state.n_atoms, finesse_from_losses(cavity),
    )
    u_unit, rate_unit = dipole_depth_and_scatter(1.0, trap.wavelength, species)
    depth_scatter_ratio = abs(u_unit) / rate_unit        # J s
    scattering_rate = trap.u0 / depth_scatter_ratio

    intensity = intensity_for_depth(trap.u0, trap.wavelength, species)
    p_implied = intensity * math.pi * mode.waist_sagittal * mode.waist_transversal / 8.0
    entries = [
        ("depth_uK", cfg["trap.depth_uK"], CONFIGURED),
        ("input_power_uW", cfg["trap.input_power_uW"], CONFIGURED),
        ("laser_wavelength_nm", cfg["trap.laser_wavelength_nm"], CONFIGURED),
        ("nu_axial_hz", trap.nu_axial, COMPUTED),
        ("nu_radial_hz", trap.nu_radial, COMPUTED),
        ("lamb_dicke_axial", regimes.lamb_dicke_axial, COMPUTED),
        ("lamb_dicke_radial", regimes.lamb_dicke_radial, COMPUTED),
        ("strong_confinement_axial", regimes.strong_confinement_axial, COMPUTED),
        ("strong_confinement_radial", regimes.strong_confinement_radial, COMPUTED),
        ("atom_number", cfg["sample.atom_number"], CONFIGURED),
        ("temperature_uK", cfg["sample.temperature_uK"], CONFIGURED),
        ("eta", state.eta, COMPUTED),
        ("peak_density_model_per_cm3", rho_model * 1e-6, COMPUTED),
        ("rho_peak_per_cm3", cfg["sample.rho_peak_per_cm3"], CONFIGURED),
        ("phase_space_density_model", state_phase_space_density(state, species), COMPUTED),
        (
            "phase_space_density",
            phase_space_density(species, rho_configured, state.temperature),
            COMPUTED,
        ),
        ("scattering_rate_model_per_s", scattering_rate, COMPUTED),
        ("depth_scatter_ratio_uK_s", depth_scatter_ratio / CONST.kB * 1e6, COMPUTED),
        ("polarizability_si", alpha, COMPUTED),
        ("collective_coupling_rnf", rnf, COMPUTED),
        ("implied_circulating_power_w", p_implied, COMPUTED),
        ("implied_mode_matching", implied_mode_matching(cavity, p_implied), COMPUTED),
    ]
    _emit_report([("trap", entries)], args.out)
    return 0


def _time_grid(cfg):
    n = cfg["sim.n_points"]
    if n < 2:
        raise ConfigError("sim.n_points must be at least 2")
    t_max = cfg["sim.t_max_s"]
    if not 0.0 < t_max < math.inf:
        raise ConfigError("sim.t_max_s must be positive and finite")
    return np.linspace(0.0, t_max, n)


def _run_ramp(cfg):
    state = state_from_config(cfg)
    profile = RampProfile(
        u_initial=cfg["trap.depth_uK"] * 1e-6 * CONST.kB,
        u_final=cfg["ramp.depth_final_uK"] * 1e-6 * CONST.kB,
        duration=cfg["ramp.duration_ms"] * 1e-3,
    )
    try:
        result = ramp_simulate(
            state,
            profile,
            RB85,
            rethermalization=cfg["ramp.rethermalization"],
            steps=cfg["ramp.steps"],
            rho_bar_per_cm3=cfg["sample.rho_peak_per_cm3"] / 4.0,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid ramp configuration: {exc}") from None
    entries = [
        ("depth_initial_uK", cfg["trap.depth_uK"], CONFIGURED),
        ("depth_final_uK", cfg["ramp.depth_final_uK"], CONFIGURED),
        ("duration_ms", cfg["ramp.duration_ms"], CONFIGURED),
        ("rethermalization", cfg["ramp.rethermalization"], CONFIGURED),
        ("T_final_uK", result.t_final * 1e6, COMPUTED),
        ("N_final", result.n_final, COMPUTED),
        ("adiabatic_reference_uK", result.adiabatic_reference * 1e6, COMPUTED),
        ("eta_final", result.eta_final, COMPUTED),
        ("quasi_static", result.quasi_static, COMPUTED),
    ]
    return entries


def cmd_simulate(cfg, args):
    model = args.model
    if model == "ramp":
        _emit_report([("ramp", _run_ramp(cfg))], args.out)
        return 0
    if model not in ("decay", "temperature", "combined"):
        raise ConfigError(f"unknown simulate model {model!r}")
    if not args.out:
        raise ConfigError(f"simulate --model {model} requires --out for the CSV")
    grid = _time_grid(cfg)
    try:
        params = LossParams.from_beta(
            cfg["loss.gamma_per_s"],
            cfg["loss.beta_cm3_per_s"],
            cfg["sample.rho_peak_per_cm3"],
        )
        if model == "decay":
            header = ("t_s", "N")
            n0 = cfg["sample.atom_number"]
            if n0 < 0:
                raise ValueError("atom number must be >= 0")
            values = population(grid, n0, params.gamma_per_s, params.xi)
        else:
            # the pure cooling law is the combined solution with zero heating,
            # so both models share one code path
            header = ("t_s", "T_uK")
            gamma_tot = cfg["heating.gamma_tot_per_s"] if model == "combined" else 0.0
            values = combined_temperature(
                grid,
                cfg["sample.temperature_uK"],
                cfg["evap.epsilon"],
                params.xi,
                params.gamma_per_s,
                gamma_tot,
            )
    except DomainError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {model} configuration: {exc}") from None
    write_columns(args.out, header, (grid, values), TRAJECTORY_DIGITS)
    return 0


def _emit_fit(result, report, out):
    lines = [f"model = {result.model}"]
    for name, value in result.params.items():
        err = result.uncertainties.get(name, float("nan"))
        lines.append(
            f"{name} = {format_value(value, REPORT_DIGITS)}"
            f" +- {format_value(err, REPORT_DIGITS)}"
        )
    lines += [
        f"rss = {format_value(result.rss, REPORT_DIGITS)}",
        f"chi2_reduced = {format_value(report.chi2_reduced, REPORT_DIGITS)}",
        f"converged = {format_value(result.converged)}",
        f"iterations = {result.iterations}",
        f"message = {result.message}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)

    csv_lines = ["param,value,uncertainty"]
    for name, value in result.params.items():
        err = result.uncertainties.get(name, float("nan"))
        csv_lines.append(f"{name},{format_value(float(value))},{format_value(float(err))}")
    if out:
        atomic_write_text(out, text)
        atomic_write_text(out + ".csv", "\n".join(csv_lines) + "\n")
        atomic_write_text(out + ".residuals.csv", _residuals_csv(report))
    else:
        sys.stdout.write("\n" + "\n".join(csv_lines) + "\n")


def _residuals_csv(report):
    lines = ["index,residual"]
    for i, r in enumerate(report.residuals):
        lines.append(f"{i},{format_value(float(r))}")
    return "\n".join(lines) + "\n"


def cmd_fit(cfg, args):
    kind = args.kind
    if kind == "decay":
        dataset = read_dataset(args.data, "population")
        result = fit_decay(
            dataset,
            cfg["sample.rho_peak_per_cm3"],
            (cfg["fit.guess_gamma_per_s"], cfg["fit.guess_beta_cm3_per_s"]),
            max_iterations=cfg["fit.max_iterations"],
        )
    elif kind == "temperature":
        dataset = read_dataset(args.data, "temperature")
        xi = xi_from_beta(
            cfg["loss.beta_cm3_per_s"],
            cfg["sample.rho_peak_per_cm3"],
            cfg["loss.gamma_per_s"],
        )
        result = fit_epsilon(
            dataset, xi, cfg["loss.gamma_per_s"], cfg["sample.temperature_uK"]
        )
    elif kind == "tof":
        series = read_expansion(args.data)
        try:
            fit = fit_expansion(series, RB85)
        except ValueError as exc:
            raise ConfigError(f"{args.data}: {exc}") from None
        entries = [
            ("temperature_uK", fit.temperature * 1e6, COMPUTED),
            ("temperature_err_uK", fit.temperature_err * 1e6, COMPUTED),
            ("sigma0_um", fit.sigma0 * 1e6, COMPUTED),
            ("sigma0_err_um", fit.sigma0_err * 1e6, COMPUTED),
            ("n_atoms", fit.n_atoms, COMPUTED),
            ("n_atoms_err", fit.n_atoms_err, COMPUTED),
            ("degenerate", fit.degenerate, COMPUTED),
        ]
        _emit_report([("tof_fit", entries)], args.out)
        if fit.degenerate:
            # the slope (temperature) is still well defined; flag and proceed
            print("warning: negative fitted sigma0^2, width reported as nan",
                  file=sys.stderr)
        return 0
    else:
        raise ConfigError(f"unknown fit kind {kind!r}")

    report = residual_report(result, dataset)
    _emit_fit(result, report, args.out)
    if not result.converged:
        print(
            f"fit did not converge after {result.iterations} iterations: "
            f"{result.message}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_bound(cfg, args):
    xi = xi_from_beta(
        cfg["loss.beta_cm3_per_s"],
        cfg["sample.rho_peak_per_cm3"],
        cfg["loss.gamma_per_s"],
    )
    t0 = cfg["sample.temperature_uK"] * 1e-6
    bound = bound_gamma_tot(
        t0, cfg["evap.epsilon"], xi, cfg["loss.gamma_per_s"], cfg["bound.t_max_s"]
    )
    entries = [
        ("epsilon", cfg["evap.epsilon"], CONFIGURED),
        ("xi", xi, COMPUTED),
        ("gamma_per_s", cfg["loss.gamma_per_s"], CONFIGURED),
        ("t_max_s", cfg["bound.t_max_s"], CONFIGURED),
        ("gamma_tot_bound_per_s", bound, COMPUTED),
        ("bound_e_folding_s", 1.0 / bound if bound > 0 else float("inf"), COMPUTED),
    ]
    if args.psd:
        spectrum = read_noise_spectrum(args.psd)
        trap = trap_from_config(cfg)
        rates = rates_from_spectrum(spectrum, trap.nu_axial, trap.nu_radial)
        entries += [
            ("psd_gamma_axial_per_s", rates.gamma_axial, COMPUTED),
            ("psd_gamma_radial_per_s", rates.gamma_radial, COMPUTED),
            ("psd_gamma_tot_per_s", rates.gamma_total, COMPUTED),
            (
                "psd_e_folding_s",
                rates.e_folding_time if rates.e_folding_time is not None else float("inf"),
                COMPUTED,
            ),
            (
                "psd_to_bound_ratio",
                rates.gamma_total / bound if bound > 0 else float("inf"),
                COMPUTED,
            ),
        ]
    _emit_report([("heating_bound", entries)], args.out)
    return 0


def cmd_tof(cfg, args):
    if not args.out:
        raise ConfigError("tof requires --out for the series CSV")
    n_times = cfg["tof.n_times"]
    if n_times < 3:
        raise ConfigError("tof.n_times must be at least 3")
    times = np.linspace(
        cfg["tof.t_min_ms"] * 1e-3, cfg["tof.t_max_ms"] * 1e-3, n_times
    )
    series = synthesize_expansion(
        cfg["sample.atom_number"],
        cfg["sample.temperature_uK"] * 1e-6,
        cfg["tof.sigma0_um"] * 1e-6,
        times,
        cfg["tof.noise_frac"],
        cfg["tof.seed"],
        RB85,
    )
    write_expansion(args.out, series)
    entries = [
        ("atom_number", cfg["sample.atom_number"], CONFIGURED),
        ("temperature_uK", cfg["sample.temperature_uK"], CONFIGURED),
        ("sigma0_um", cfg["tof.sigma0_um"], CONFIGURED),
        ("noise_frac", cfg["tof.noise_frac"], CONFIGURED),
        ("seed", cfg["tof.seed"], CONFIGURED),
        ("n_times", n_times, CONFIGURED),
    ]
    _emit_report([("tof_synth", entries)], None)
    return 0


def cmd_ramp(cfg, args):
    _emit_report([("ramp", _run_ramp(cfg))], args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", default=None, help="output path")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        return p

    add("cavity", "resonator figures of merit")
    add("trap", "trap, density and coupling parameters")
    add(
        "simulate",
        "write a model trajectory CSV or run a ramp",
        **{"--model": {"required": True,
                       "choices": ["decay", "temperature", "combined", "ramp"]}},
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
    add("tof", "synthesize an expansion series")
    add("ramp", "simulate the configured depth ramp")
    return parser


_COMMANDS = {
    "cavity": cmd_cavity,
    "trap": cmd_trap,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "bound": cmd_bound,
    "tof": cmd_tof,
    "ramp": cmd_ramp,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns, rest = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        overrides = _parse_overrides(rest)
        cfg = load_config(ns.config, overrides)
        return _COMMANDS[ns.command](cfg, ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"model domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
