"""Command-line interface tying the toolkit together.

Subcommands: cavity, trap, simulate, fit, bound, tof, ramp; _build_parser
declares each one once, with its handler. Every command reads the schema
defaults, an optional config file (--config or the LATTICEKIT_CONFIG
environment variable) and trailing `--key value` overrides whose names mirror
the config keys (unambiguous tails are accepted). simulate and tof always
write a file, so their --out is a required argument.

Exit codes: 0 success, 2 input or configuration error, 3 model-domain error,
4 fit non-convergence. main is the only place that maps exceptions to codes:
DomainError gives 3; any other ValueError (ConfigError included), an
ArithmeticError (a derived quantity that overflows or divides by zero) or an
OSError gives 2. An OverflowError's line names the command and says that a
derived quantity overflows the float range. A malformed command line
(unknown command, missing --model or --out) exits 2 with argparse's usage
message.

Only numpy-free modules are imported here, and cavity, trap, simulate, bound
(with or without --psd) and ramp never load numpy; the array commands, fit
and tof, import their modules when they run. main keeps numpy's OpenBLAS pool to one thread unless
OPENBLAS_NUM_THREADS is already set: the largest product is J^T J of an
n x 3 Jacobian, so helper threads only cost CPU.
"""

import argparse
import math
import os
import sys

from .cavity import (
    CavitySpec,
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
from .heating import bound_gamma_tot, combined_temperature, rates_from_spectrum
from .losses import LossParams, population
from .ramp import RampProfile, ramp_simulate
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
    lattice_peak_intensity,
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


def _reject_nan(label, value):
    """No report shows a nan (inf is allowed): ValueError, which exits 2."""
    if isinstance(value, float) and math.isnan(value):
        raise ValueError(f"{label} is nan; refusing to report it")


def render_report(sections):
    """(text, csv) renderings of [(section, [(key, value, provenance)])]."""
    text_lines = []
    csv_lines = ["section,key,value,provenance"]
    for name, entries in sections:
        text_lines.append(f"[{name}]")
        for key, value, provenance in entries:
            _reject_nan(f"{name}.{key}", value)
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
    species = RB85
    state = state_from_config(cfg)
    trap = state.trap
    # the trap chain is driven at its own input power setting
    base = cavity_from_config(cfg)
    cavity = CavitySpec(
        base.mirrors,
        base.round_trip_length,
        cfg["trap.input_power_uW"] * 1e-6,
        base.mode_matching_efficiency,
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

    # the power per mode whose standing wave reaches the configured depth
    intensity = intensity_for_depth(trap.u0, trap.wavelength, species)
    p_implied = intensity / lattice_peak_intensity(1.0, mode)
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


def _linspace(start, stop, n):
    """n >= 2 evenly spaced floats from start to stop, bit for bit
    np.linspace: i * step + start, with the last point set to stop."""
    delta = stop - start
    step = delta / (n - 1)
    if step == 0:  # numpy scales by delta last when the step underflows
        grid = [i / (n - 1) * delta + start for i in range(n)]
    else:
        grid = [i * step + start for i in range(n)]
    grid[-1] = stop
    return grid


def _time_grid(cfg):
    n = cfg["sim.n_points"]
    if n < 2:
        raise ConfigError("sim.n_points must be at least 2")
    t_max = cfg["sim.t_max_s"]
    if t_max <= 0:
        raise ConfigError("sim.t_max_s must be positive")
    return _linspace(0.0, t_max, n)


def _loss_params(cfg):
    """The configured decay parameters; rejects a negative density, beta or
    xi."""
    if cfg["sample.rho_peak_per_cm3"] < 0:
        raise ConfigError("sample.rho_peak_per_cm3 must be >= 0")
    return LossParams.from_beta(
        cfg["loss.gamma_per_s"],
        cfg["loss.beta_cm3_per_s"],
        cfg["sample.rho_peak_per_cm3"],
    )


def cmd_simulate(cfg, args):
    model = args.model
    grid = _time_grid(cfg)
    params = _loss_params(cfg)
    if model == "decay":
        header = ("t_s", "N")
        n0 = cfg["sample.atom_number"]
        if n0 < 0:
            raise ValueError("atom number must be >= 0")
        values = [population(t, n0, params.gamma_per_s, params.xi) for t in grid]
    else:
        # the pure cooling law is the combined solution with zero heating,
        # so both models share one code path
        header = ("t_s", "T_uK")
        gamma_tot = cfg["heating.gamma_tot_per_s"] if model == "combined" else 0.0
        law = (
            cfg["sample.temperature_uK"],
            cfg["evap.epsilon"],
            params.xi,
            params.gamma_per_s,
            gamma_tot,
        )
        values = [combined_temperature(t, *law) for t in grid]
    write_columns(args.out, header, (grid, values), TRAJECTORY_DIGITS)
    return 0


def _emit_fit(result, out):
    for name, value in result.params.items():
        _reject_nan(name, value)
        _reject_nan(f"{name} uncertainty", result.uncertainties[name])
    _reject_nan("rss", result.rss)  # chi2_reduced = rss / dof follows suit
    lines = [f"model = {result.model}"]
    for name, value in result.params.items():
        err = result.uncertainties[name]
        lines.append(
            f"{name} = {format_value(value, REPORT_DIGITS)}"
            f" +- {format_value(err, REPORT_DIGITS)}"
        )
    lines += [
        f"rss = {format_value(result.rss, REPORT_DIGITS)}",
        f"chi2_reduced = {format_value(result.chi2_reduced, REPORT_DIGITS)}",
        f"converged = {format_value(result.converged)}",
        f"iterations = {result.iterations}",
        f"message = {result.message}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)

    csv_lines = ["param,value,uncertainty"]
    for name, value in result.params.items():
        err = result.uncertainties[name]
        csv_lines.append(f"{name},{format_value(float(value))},{format_value(float(err))}")
    if out:
        atomic_write_text(out, text)
        atomic_write_text(out + ".csv", "\n".join(csv_lines) + "\n")
        atomic_write_text(out + ".residuals.csv", _residuals_csv(result.residuals))
    else:
        sys.stdout.write("\n" + "\n".join(csv_lines) + "\n")


def _residuals_csv(residuals):
    lines = ["index,residual"]
    for i, r in enumerate(residuals):
        lines.append(f"{i},{format_value(float(r))}")
    return "\n".join(lines) + "\n"


def cmd_fit(cfg, args):
    from .fitting import fit_decay, fit_epsilon
    from .protocols import fit_expansion

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
        params = _loss_params(cfg)
        result = fit_epsilon(
            dataset, params.xi, params.gamma_per_s, cfg["sample.temperature_uK"]
        )
    else:  # tof
        series = read_expansion(args.data)
        fit = fit_expansion(series, RB85)
        # a degenerate fit has no initial width, so its two lines are left
        # out; the slope (temperature) is still well defined
        width = [] if fit.degenerate else [
            ("sigma0_um", fit.sigma0 * 1e6, COMPUTED),
            ("sigma0_err_um", fit.sigma0_err * 1e6, COMPUTED),
        ]
        entries = [
            ("temperature_uK", fit.temperature * 1e6, COMPUTED),
            ("temperature_err_uK", fit.temperature_err * 1e6, COMPUTED),
            *width,
            ("n_atoms", fit.n_atoms, COMPUTED),
            ("n_atoms_err", fit.n_atoms_err, COMPUTED),
            ("degenerate", fit.degenerate, COMPUTED),
        ]
        _emit_report([("tof_fit", entries)], args.out)
        if fit.degenerate:
            print("warning: negative fitted sigma0^2, width omitted",
                  file=sys.stderr)
        return 0

    _emit_fit(result, args.out)
    if not result.converged:
        print(
            f"fit did not converge after {result.iterations} iterations: "
            f"{result.message}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_bound(cfg, args):
    params = _loss_params(cfg)
    bound = bound_gamma_tot(
        cfg["evap.epsilon"], params.xi, params.gamma_per_s, cfg["bound.t_max_s"]
    )
    entries = [
        ("epsilon", cfg["evap.epsilon"], CONFIGURED),
        ("xi", params.xi, COMPUTED),
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
            ("psd_e_folding_s", rates.e_folding_time, COMPUTED),
            (
                "psd_to_bound_ratio",
                rates.gamma_total / bound if bound > 0 else float("inf"),
                COMPUTED,
            ),
        ]
    _emit_report([("heating_bound", entries)], args.out)
    return 0


def cmd_tof(cfg, args):
    from .protocols import synthesize_expansion

    n_times = cfg["tof.n_times"]
    if n_times < 3:
        raise ConfigError("tof.n_times must be at least 3")
    times = _linspace(
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
    state = state_from_config(cfg)
    profile = RampProfile(
        u_initial=cfg["trap.depth_uK"] * 1e-6 * CONST.kB,
        u_final=cfg["ramp.depth_final_uK"] * 1e-6 * CONST.kB,
        duration=cfg["ramp.duration_ms"] * 1e-3,
    )
    result = ramp_simulate(
        state,
        profile,
        RB85,
        rethermalization=cfg["ramp.rethermalization"],
        steps=cfg["ramp.steps"],
        rho_bar_per_cm3=cfg["sample.rho_peak_per_cm3"] / 4.0,
    )
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
    _emit_report([("ramp", entries)], args.out)
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

    def add(name, run, help_text, out_required=False, **extra):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", required=out_required, help="output path")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)

    add("cavity", cmd_cavity, "resonator figures of merit")
    add("trap", cmd_trap, "trap, density and coupling parameters")
    add(
        "simulate",
        cmd_simulate,
        "write a model trajectory CSV",
        out_required=True,
        **{"--model": {"required": True,
                       "choices": ["decay", "temperature", "combined"]}},
    )
    add(
        "fit",
        cmd_fit,
        "fit a measured series",
        **{
            "--kind": {"required": True,
                       "choices": ["decay", "temperature", "tof"]},
            "--data": {"required": True, "help": "input CSV path"},
        },
    )
    add("bound", cmd_bound, "heating-rate upper bound", **{"--psd": {"default": None}})
    add("tof", cmd_tof, "synthesize an expansion series", out_required=True)
    add("ramp", cmd_ramp, "simulate the configured depth ramp")
    return parser


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        ns, rest = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        overrides = _parse_overrides(rest)
        cfg = load_config(ns.config, overrides)
        return ns.run(cfg, ns)
    except DomainError as exc:
        print(f"model domain error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # a float power raises with (errno, text) as its arguments
        print(f"error: {ns.command}: a derived quantity overflows the float "
              f"range ({exc.args[-1]})", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
