"""Command-line interface tying the toolkit together.

Subcommands: cavity, trap, simulate, fit, bound, tof, ramp; the COMMANDS
table declares each one once, with its handler, help text and flags, and
parse_command_line reads the command line against it in one pass. Every
command reads the schema defaults, an optional config file (--config or the
LATTICEKIT_CONFIG environment variable) and trailing `--key value` overrides
whose names mirror the config keys (unambiguous tails are accepted); flags
match by their exact name only, so a prefix of one is read as a config key.
simulate and tof always write a file, so their --out is a required argument.

Exit codes: 0 success, 2 input or configuration error, 3 model-domain error,
4 fit non-convergence. main is the only place that maps exceptions to codes:
DomainError gives 3; any other ValueError (ConfigError included), an OSError
or an ArithmeticError gives 2. An ArithmeticError (OverflowError or
ZeroDivisionError from float arithmetic, FloatingPointError from the numpy
array functions and from the checked sums of the pure fits, which raise
instead of warning) gets a line that names the command and says that a
derived quantity overflows the float range or is undefined. A malformed
command line (unknown command, missing --model or --out) exits 2 with the
usage line and one error line; -h or --help prints the commands, or the
command's flags, and exits 0.

Each cmd_* handler returns (text, files, note, code): its stdout text, its
report files as {path: text}, its stderr note and its exit code. main is the
only code that writes a report file, prints a result and returns its exit
code; it writes every file before it prints anything, so a failed write
prints no report. simulate and tof write their own tables, through
tabular.write_columns. tabular.atomic_write_text writes every output file.

Only numpy-free modules are imported here, and cavity, trap, simulate, bound
(with or without --psd), ramp, fit --kind temperature and fit --kind tof
never load numpy: simulate builds its time grid as a list and evaluates its
closed form once on the whole grid, and the two linear fits are plain float
code. fit imports only the module of its --kind, and tof its generator,
when they run; fit --kind decay and tof load numpy. main keeps numpy's
OpenBLAS pool to one thread unless OPENBLAS_NUM_THREADS is already set: no
command calls BLAS, so helper threads only cost CPU.
"""

import math
import os
import sys
from types import SimpleNamespace

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
from .constants import CONST
from .errors import ConfigError, DomainError
from .evaporation import RampProfile, eta, ramp_simulate, temperature
from .heating import bound_gamma_tot, rates_from_spectrum
from .losses import population, xi_from_beta
from .tabular import (
    DATASET_HEADERS,
    atomic_write_text,
    format_value,
    read_dataset,
    read_expansion,
    read_noise_spectrum,
    residuals_csv,
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


def _report(name, entries, out=None, note=""):
    """(text, files, note, 0) of section name's [(key, value, provenance)]:
    its text rendering, and with out that text and its csv rendering as the
    files out and out.csv."""
    text_lines = [f"[{name}]"]
    csv_lines = ["section,key,value,provenance"]
    for key, value, provenance in entries:
        _reject_nan(f"{name}.{key}", value)
        text_lines.append(
            f"{key} = {format_value(value, REPORT_DIGITS)}  # {provenance}"
        )
        csv_lines.append(f"{name},{key},{format_value(value)},{provenance}")
    text = "\n".join(text_lines) + "\n"
    files = {out: text, out + ".csv": "\n".join(csv_lines) + "\n"} if out else {}
    return text, files, note, 0


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
    return _report("cavity", entries, args.out)


def cmd_trap(cfg, args):
    state = state_from_config(cfg)
    trap = state.trap
    # the trap chain is driven at its own input power setting
    cavity = cavity_from_config(cfg)._replace(
        input_power_per_mode=cfg["trap.input_power_uW"] * 1e-6
    )
    mode = trap.mode
    regimes = classify_regimes(trap)

    rho_model = peak_density(state)                      # m^-3
    rho_configured = cfg["sample.rho_peak_per_cm3"] * 1e6
    alpha = polarizability(trap.wavelength)
    rnf = collective_coupling(
        alpha, trap.wavelength, mode.effective_waist,
        state.n_atoms, finesse_from_losses(cavity),
    )
    u_unit, rate_unit = dipole_depth_and_scatter(1.0, trap.wavelength)
    depth_scatter_ratio = abs(u_unit) / rate_unit        # J s
    scattering_rate = trap.u0 / depth_scatter_ratio

    # the power per mode whose standing wave reaches the configured depth
    intensity = intensity_for_depth(trap.u0, trap.wavelength)
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
        ("eta", eta(trap.u0, state.temperature), COMPUTED),
        ("peak_density_model_per_cm3", rho_model * 1e-6, COMPUTED),
        ("rho_peak_per_cm3", cfg["sample.rho_peak_per_cm3"], CONFIGURED),
        ("phase_space_density_model", phase_space_density(rho_model, state.temperature), COMPUTED),
        ("phase_space_density", phase_space_density(rho_configured, state.temperature), COMPUTED),
        ("scattering_rate_model_per_s", scattering_rate, COMPUTED),
        ("depth_scatter_ratio_uK_s", depth_scatter_ratio / CONST.kB * 1e6, COMPUTED),
        ("polarizability_si", alpha, COMPUTED),
        ("collective_coupling_rnf", rnf, COMPUTED),
        ("implied_circulating_power_w", p_implied, COMPUTED),
        ("implied_mode_matching", implied_mode_matching(cavity, p_implied), COMPUTED),
    ]
    return _report("trap", entries, args.out)


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


def _configured_xi(cfg):
    """The two-body loss strength xi of the configured decay parameters and
    peak density."""
    return xi_from_beta(
        cfg["loss.beta_cm3_per_s"],
        cfg["sample.rho_peak_per_cm3"],
        cfg["loss.gamma_per_s"],
    )


def cmd_simulate(cfg, args):
    model = args.model
    grid = _linspace(0.0, cfg["sim.t_max_s"], cfg["sim.n_points"])
    xi = _configured_xi(cfg)
    gamma = cfg["loss.gamma_per_s"]
    if model == "decay":
        header = DATASET_HEADERS["population"]
        n0 = cfg["sample.atom_number"]
        if n0 == 0:
            raise ConfigError("sample.atom_number must be positive for a decay simulation")
        values = population(grid, n0, gamma, xi)
        # fit --kind decay reads N > 0 only; N falls with t, so the last row
        # is the first to underflow
        if values[-1] == 0.0:
            raise DomainError(f"N underflows to 0 by t = {grid[values.index(0.0)]!r} s; "
                              "lower sim.t_max_s below it")
    else:
        header = DATASET_HEADERS["temperature"]
        gamma_tot = cfg["heating.gamma_tot_per_s"] if model == "combined" else 0.0
        values = temperature(grid, cfg["sample.temperature_uK"], cfg["evap.epsilon"], xi, gamma,
                             gamma_tot)
    write_columns(args.out, header, (grid, values))
    return "", {}, "", 0


def _fit_report(result, out):
    """(text, files, note, code) of a FitResult: its text rendering, and with
    out that text, its parameter csv and its residuals as the files out,
    out.csv and out.residuals.csv, else the csv appended to the text; a fit
    that did not converge gives a note and code 4."""
    lines = [f"model = {result.model}"]
    csv_lines = ["param,value,uncertainty"]
    for name, value in result.params.items():
        err = result.uncertainties[name]
        _reject_nan(name, value)
        _reject_nan(f"{name} uncertainty", err)
        lines.append(
            f"{name} = {format_value(value, REPORT_DIGITS)}"
            f" +- {format_value(err, REPORT_DIGITS)}"
        )
        csv_lines.append(f"{name},{format_value(value)},{format_value(err)}")
    _reject_nan("rss", result.rss)  # chi2_reduced = rss / dof follows suit
    lines += [
        f"rss = {format_value(result.rss, REPORT_DIGITS)}",
        f"chi2_reduced = {format_value(result.chi2_reduced, REPORT_DIGITS)}",
        f"converged = {format_value(result.converged)}",
        f"iterations = {result.iterations}",
        f"message = {result.message}",
    ]
    text = "\n".join(lines) + "\n"
    csv_text = "\n".join(csv_lines) + "\n"
    if out:
        files = {out: text, out + ".csv": csv_text,
                 out + ".residuals.csv": residuals_csv(result.residuals)}
    else:
        files, text = {}, text + "\n" + csv_text
    if result.converged:
        return text, files, "", 0
    return text, files, (f"fit did not converge after {result.iterations} "
                         f"iterations: {result.message}"), 4


def cmd_fit(cfg, args):
    kind = args.kind
    if kind == "decay":
        from .fitting import fit_decay

        rho = cfg["sample.rho_peak_per_cm3"]
        if rho <= 0:
            raise ConfigError("sample.rho_peak_per_cm3 must be positive for a decay fit")
        dataset = read_dataset(args.data, "population")
        result = fit_decay(
            dataset,
            rho,
            (cfg["fit.guess_gamma_per_s"], cfg["fit.guess_beta_cm3_per_s"]),
            max_iterations=cfg["fit.max_iterations"],
        )
    elif kind == "temperature":
        from .fitting import fit_epsilon

        dataset = read_dataset(args.data, "temperature")
        xi = _configured_xi(cfg)
        if xi <= 0:  # a flat cooling law leaves epsilon unidentified
            raise ConfigError("loss.beta_cm3_per_s and sample.rho_peak_per_cm3 must give xi > 0")
        result = fit_epsilon(
            dataset, xi, cfg["loss.gamma_per_s"], cfg["sample.temperature_uK"]
        )
    else:  # tof
        from .protocols import fit_expansion

        series = read_expansion(args.data)
        fit = fit_expansion(series)
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
        note = "warning: negative fitted sigma0^2, width omitted" if fit.degenerate else ""
        return _report("tof_fit", entries, args.out, note)
    return _fit_report(result, args.out)


def cmd_bound(cfg, args):
    xi = _configured_xi(cfg)
    bound = bound_gamma_tot(
        cfg["evap.epsilon"], xi, cfg["loss.gamma_per_s"], cfg["bound.t_max_s"]
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
            ("psd_e_folding_s", rates.e_folding_time, COMPUTED),
            (
                "psd_to_bound_ratio",
                rates.gamma_total / bound if bound > 0 else float("inf"),
                COMPUTED,
            ),
        ]
    return _report("heating_bound", entries, args.out)


def cmd_tof(cfg, args):
    from .protocols import synthesize_expansion

    n_times = cfg["tof.n_times"]
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
    return _report("tof_synth", entries)


def cmd_ramp(cfg, args):
    if cfg["sample.atom_number"] == 0:
        raise ConfigError("sample.atom_number must be positive for a ramp")
    state = state_from_config(cfg)
    profile = RampProfile(
        u_initial=state.trap.u0,
        u_final=cfg["ramp.depth_final_uK"] * 1e-6 * CONST.kB,
        duration=cfg["ramp.duration_ms"] * 1e-3,
    )
    result = ramp_simulate(
        state,
        profile,
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
    return _report("ramp", entries, args.out)


# ---------------------------------------------------------------------------
# argument plumbing

# name -> (handler, help text, {flag: False if optional, True if required,
# or the choices of a required flag}); any other `--name value` pair after
# the command is a config override
COMMANDS = {
    "cavity": (cmd_cavity, "resonator figures of merit", {}),
    "trap": (cmd_trap, "trap, density and coupling parameters", {}),
    "simulate": (cmd_simulate, "write a model trajectory CSV",
                 {"--out": True, "--model": ("decay", "temperature", "combined")}),
    "fit": (cmd_fit, "fit a measured series",
            {"--kind": ("decay", "temperature", "tof"), "--data": True}),
    "bound": (cmd_bound, "heating-rate upper bound", {"--psd": False}),
    "tof": (cmd_tof, "synthesize an expansion series", {"--out": True}),
    "ramp": (cmd_ramp, "simulate the configured depth ramp", {}),
}


def _exit(name, flags, code, text):
    """Print the usage of command name (the program's for None) and text, as
    help on stdout (code 0) or as an error on stderr; exit with code."""
    prog = f"latticekit {name}" if name else "latticekit"
    words = [prog, "[-h]"] if name else [prog, "[-h]", "{" + ",".join(COMMANDS) + "}", "..."]
    for flag, spec in flags.items():
        arg = flag + " " + ("{" + ",".join(spec) + "}" if type(spec) is tuple else flag[2:].upper())
        words.append(arg if spec else f"[{arg}]")
    print("usage: " + " ".join(words), f"{prog}: error: {text}" if code else text,
          sep="\n", file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def parse_command_line(argv=None):
    """(command, flag namespace, [(config key, raw value)]) of argv; help or
    a malformed line is printed and raises SystemExit(0) or SystemExit(2)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        _exit(None, {}, 0, "\nRing-cavity optical lattice modeling and fitting toolkit\n\n"
              + "".join(f"  {command:<10}{spec[1]}\n" for command, spec in COMMANDS.items())
              + "\n`latticekit COMMAND -h` lists the flags of a command; any other\n"
              "`--key value` pair after the command overrides a config key.")
    if name not in COMMANDS:
        _exit(None, {}, 2, "the following arguments are required: command" if name is None
              else f"argument command: invalid choice: {name!r} "
                   f"(choose from {', '.join(map(repr, COMMANDS))})")
    flags = {"--config": False, "--out": False, **COMMANDS[name][2]}
    values, overrides, rest = dict.fromkeys(flags), [], argv[1:]
    # each --name takes the next token as its value, whatever it looks like
    for flag, value in zip(rest[::2], rest[1::2] + [None]):
        spec = flags.get(flag)
        if flag in ("-h", "--help"):
            _exit(name, flags, 0, "\n" + COMMANDS[name][1])
        elif not flag.startswith("--"):
            _exit(name, flags, 2, f"unexpected argument {flag!r}")
        elif value is None:
            _exit(name, flags, 2, f"argument {flag}: expected one argument")
        elif spec is None:
            overrides.append((flag[2:], value))
        elif type(spec) is tuple and value not in spec:
            _exit(name, flags, 2, f"argument {flag}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, spec))})")
        else:
            values[flag] = value
    missing = [flag for flag, spec in flags.items() if spec and values[flag] is None]
    if missing:
        _exit(name, flags, 2, "the following arguments are required: " + ", ".join(missing))
    return name, SimpleNamespace(**{f[2:]: v for f, v in values.items()}), overrides


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        name, args, overrides = parse_command_line(argv)
    except SystemExit as exc:
        return exc.code
    try:
        cfg = load_config(args.config, overrides)
        text, files, note, code = COMMANDS[name][0](cfg, args)
        for path, content in files.items():
            atomic_write_text(path, content)
    except DomainError as exc:
        print(f"model domain error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # a float power's OverflowError has (errno, text) as its arguments
        print(f"error: {name}: a derived quantity overflows the float "
              f"range or is undefined ({exc.args[-1]})", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if note:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
