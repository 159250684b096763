import importlib.util
import math
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pins
import pytest

import latticekit
from latticekit.cli import COMMANDS, main, parse_command_line
from latticekit.config import SCHEMA, load_config
from latticekit.constants import CONST, RB85
from latticekit.losses import population
from latticekit.tabular import read_dataset, read_expansion

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def rel(a, b):
    return abs(a - b) / abs(b)


def report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " = "):
            raw = line.split("=", 1)[1].split("#", 1)[0].strip()
            if raw in ("true", "false"):
                return raw == "true"
            return float(raw)
    raise KeyError(key)


# ---------------------------------------------------------------------------
# cavity and trap reports

def test_cavity_report_reference(capsys):
    assert main(["cavity"]) == 0
    text = capsys.readouterr().out
    assert rel(report_value(text, "free_spectral_range_hz"), 3.09e9) < 0.01
    ratio = report_value(text, "finesse_route_ratio")
    assert abs(ratio - 1.0) < 0.05
    assert rel(report_value(text, "mode_volume_mm3"), 1.3) < 0.05


def test_cavity_fsr_halves_with_doubled_length(capsys):
    assert main(["cavity"]) == 0
    base = report_value(capsys.readouterr().out, "free_spectral_range_hz")
    assert main(["cavity", "--round_trip_length_mm", "194"]) == 0
    doubled = report_value(capsys.readouterr().out, "free_spectral_range_hz")
    # report text carries 10 significant digits
    assert rel(doubled, base / 2) < 1e-9


def test_trap_report(capsys):
    assert main(["trap"]) == 0
    text = capsys.readouterr().out
    assert rel(report_value(text, "nu_axial_hz"), 340e3) < 0.05
    assert rel(report_value(text, "nu_radial_hz"), 460.0) < 0.05
    assert rel(report_value(text, "peak_density_model_per_cm3"), 9e11) < 1e-6
    assert rel(report_value(text, "phase_space_density"), 4.5e-6) < 0.10
    assert report_value(text, "lamb_dicke_axial") is True
    assert report_value(text, "lamb_dicke_radial") is False


def test_report_files_written(tmp_path, capsys):
    out = tmp_path / "cavity.txt"
    assert main(["cavity", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()
    twin = tmp_path / "cavity.txt.csv"
    assert twin.exists()
    header = twin.read_text().splitlines()[0]
    assert header == "section,key,value,provenance"


_REPORT_FILES = ("", ".csv")
_FIT_FILES = ("", ".csv", ".residuals.csv")


@pytest.mark.parametrize(("argv", "suffixes"), [
    pytest.param("cavity", _REPORT_FILES, id="cavity"),
    pytest.param("trap", _REPORT_FILES, id="trap"),
    pytest.param("bound", _REPORT_FILES, id="bound"),
    pytest.param("bound --psd {fixtures}/psd_noisy.csv", _REPORT_FILES, id="bound-psd"),
    pytest.param("ramp", _REPORT_FILES, id="ramp"),
    pytest.param("fit --kind decay --data {fixtures}/decay_noisy.csv", _FIT_FILES,
                 id="fit-decay"),
    pytest.param("fit --kind temperature --data {fixtures}/temperature_noisy.csv", _FIT_FILES,
                 id="fit-temperature"),
    pytest.param("fit --kind tof --data {fixtures}/tof_noisy.csv", _REPORT_FILES,
                 id="fit-tof"),
])
def test_report_handlers_return_their_files_and_write_none(tmp_path, monkeypatch, argv,
                                                           suffixes):
    # main writes what a handler returns, so the handler itself writes nothing
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "out")
    name, args, overrides = parse_command_line(
        argv.format(fixtures=FIXTURES).split() + ["--out", out])
    text, files, _note, code = COMMANDS[name][0](load_config(args.config, overrides), args)
    assert os.listdir(tmp_path) == []
    assert list(files) == [out + suffix for suffix in suffixes]
    assert files[out] == text
    assert code == 0


# ---------------------------------------------------------------------------
# config errors

def test_unknown_override_exits_2(capsys):
    assert main(["cavity", "--coating_ppm", "1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_empty_config_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("cavity.mirror_2.transmission_ppm =\n")
    assert main(["cavity", "--config", str(cfg)]) == 2
    assert "cavity.mirror_2.transmission_ppm" in capsys.readouterr().err


def test_negative_mirror_loss_exits_2(tmp_path, capsys):
    assert main(["cavity", "--cavity.mirror_1.scatter_ppm", "-3"]) == 2


# ---------------------------------------------------------------------------
# simulate

def test_simulate_decay_matches_closed_form(tmp_path):
    out = tmp_path / "decay.csv"
    assert main(["simulate", "--model", "decay", "--out", str(out)]) == 0
    ds = read_dataset(str(out), "population")
    xi = 7.5e-12 * 9e11 / (4 * 0.6)
    expected = population(4.0, 4e6, 0.6, xi)
    # the trajectory file carries 9 significant digits (5e-9 half-ulp)
    assert rel(ds.value[-1], expected) < 5e-9
    assert ds.t[-1] == 4.0


def test_simulate_temperature_equals_combined_with_zero_heating(tmp_path):
    a = tmp_path / "temp.csv"
    b = tmp_path / "combined.csv"
    assert main(["simulate", "--model", "temperature", "--out", str(a)]) == 0
    assert main([
        "simulate", "--model", "combined", "--out", str(b),
        "--heating.gamma_tot_per_s", "0",
    ]) == 0
    assert a.read_bytes() == b.read_bytes()


# small data files the invalid-input probes read from tmp_path
_PROBE_FILES = {
    "decay3.csv": "t_s,N\n0,4e6\n1,3e6\n2,2e6\n",
    "temp2.csv": "t_s,T_uK\n0,123\n1,120\n",
    "temp3.csv": "t_s,T_uK\n0,123\n1,120\n2,117\n",
    "psd_nan.csv": "freq_hz,S_rel_per_hz\n100,nan\n1e6,1e-13\n",
    "tof_nan.csv": "t_ms,sigma_um,amplitude\n1,nan,1\n2,50,1\n3,60,1\n",
    "tof_1e200.csv": "t_ms,sigma_um,amplitude\n1,1e200,1\n2,1e200,1\n3,1e200,1\n",
    "tof_neg_sigma.csv": "t_ms,sigma_um,amplitude\n1,-50,1\n2,-60,1\n3,-70,1\n",
    "tof_neg_t.csv": "t_ms,sigma_um,amplitude\n-1,50,1\n2,60,1\n3,70,1\n",
    "tof_neg_amplitude.csv": "t_ms,sigma_um,amplitude\n1,50,-1\n2,60,-1\n3,70,-1\n",
}

def _case(case_id, argv, stderr_has=None):
    return pytest.param(argv, stderr_has, id=case_id)


@pytest.mark.parametrize(("argv", "stderr_has"), [
    _case("simulate-combined-heating.gamma_tot_per_s--0.1",
          "simulate --model combined --out {out} --heating.gamma_tot_per_s -0.1"),
    _case("simulate-decay-sim.t_max_s-0",
          "simulate --model decay --out {out} --sim.t_max_s 0"),
    _case("simulate-decay-sim.t_max_s-inf",
          "simulate --model decay --out {out} --sim.t_max_s inf"),
    _case("simulate-decay-sample.atom_number--5",
          "simulate --model decay --out {out} --sample.atom_number -5"),
    # a decay series of no atoms is one that fit --kind decay refuses
    _case("simulate-decay-sample.atom_number-0",
          "simulate --model decay --out {out} --sample.atom_number 0",
          stderr_has="sample.atom_number"),
    _case("simulate-temperature-sample.temperature_uK--5",
          "simulate --model temperature --out {out} --sample.temperature_uK -5"),
    _case("ramp-depth_final_uK--1", "ramp --depth_final_uK -1"),
    _case("ramp-ramp.duration_ms--1", "ramp --ramp.duration_ms -1"),
    _case("cavity-ring_down_us-0", "cavity --ring_down_us 0"),
    _case("cavity-ring_down_us-inf", "cavity --ring_down_us inf"),
    _case("trap-laser_wavelength_nm-780.24", "trap --laser_wavelength_nm 780.24"),
    _case("trap-trap.input_power_uW--1", "trap --trap.input_power_uW -1",
          stderr_has="trap.input_power_uW"),
    _case("cavity-out-in-missing-directory", "cavity --out {tmp}/missing/x.txt",
          stderr_has="{tmp}/missing/x.txt"),
    _case("cavity-out-is-a-directory", "cavity --out {tmp}", stderr_has="{tmp}"),
    _case("fit-tof-out-in-missing-directory",
          "fit --kind tof --data {fixtures}/tof_noisy.csv --out {tmp}/missing/x.txt",
          stderr_has="{tmp}/missing/x.txt"),
    _case("bound-loss.gamma_per_s-0", "bound --loss.gamma_per_s 0"),
    _case("fit-decay-3-rows", "fit --kind decay --data {tmp}/decay3.csv"),
    _case("fit-temperature-2-rows", "fit --kind temperature --data {tmp}/temp2.csv"),
    _case("fit-temperature-2-rows-beta-0",
          "fit --kind temperature --data {tmp}/temp2.csv --loss.beta_cm3_per_s 0"),
    _case("tof-tof.t_min_ms--1", "tof --out {out} --tof.t_min_ms -1"),
    _case("trap-depth_uK-nan", "trap --depth_uK nan"),
    _case("bound-bound.t_max_s-nan", "bound --bound.t_max_s nan"),
    _case("tof-tof.sigma0_um-nan", "tof --out {out} --tof.sigma0_um nan"),
    _case("ramp-sample.atom_number-0", "ramp --sample.atom_number 0",
          stderr_has="sample.atom_number"),
    _case("trap-trap.laser_wavelength_nm-0", "trap --trap.laser_wavelength_nm 0"),
    _case("fit-decay-sample.rho_peak_per_cm3-0",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --sample.rho_peak_per_cm3 0",
          stderr_has="sample.rho_peak_per_cm3"),
    _case("fit-decay-sample.rho_peak_per_cm3--1",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --sample.rho_peak_per_cm3 -1",
          stderr_has="sample.rho_peak_per_cm3"),
    # xi = 0 leaves the cooling law flat, so epsilon cannot be fitted
    _case("fit-temperature-sample.rho_peak_per_cm3-0",
          "fit --kind temperature --data {fixtures}/temperature_noisy.csv"
          " --sample.rho_peak_per_cm3 0",
          stderr_has="sample.rho_peak_per_cm3"),
    _case("fit-temperature-loss.beta_cm3_per_s-0",
          "fit --kind temperature --data {fixtures}/temperature_noisy.csv"
          " --loss.beta_cm3_per_s 0",
          stderr_has="loss.beta_cm3_per_s"),
    _case("bound-bound.t_max_s--1293", "bound --bound.t_max_s -1293"),
    _case("bound-psd-nan-row", "bound --psd {tmp}/psd_nan.csv"),
    _case("fit-tof-nan-row", "fit --kind tof --data {tmp}/tof_nan.csv"),
    _case("tof-tof.sigma0_um-1e300", "tof --out {out} --tof.sigma0_um 1e300"),
    _case("tof-tof.sigma0_um-1e160", "tof --out {out} --tof.sigma0_um 1e160"),
    _case("tof-tof.t_max_ms-1e300", "tof --out {out} --tof.t_max_ms 1e300"),
    _case("fit-decay-fit.guess_gamma_per_s-1e-300",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --fit.guess_gamma_per_s 1e-300"),
    _case("fit-decay-fit.guess_beta_cm3_per_s-1e300",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --fit.guess_beta_cm3_per_s 1e300"),
    _case("simulate-decay-loss.beta_cm3_per_s-1e300",
          "simulate --model decay --out {out} --loss.beta_cm3_per_s 1e300"),
    # T(t) grows past the float range: fit would refuse the inf cells
    _case("simulate-combined-heating.gamma_tot_per_s-300",
          "simulate --model combined --out {out} --heating.gamma_tot_per_s 300",
          stderr_has="T_uK"),
    _case("fit-decay-fit.guess_gamma_per_s-1e300",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --fit.guess_gamma_per_s 1e300"),
    _case("fit-tof-sigma_um-1e200", "fit --kind tof --data {tmp}/tof_1e200.csv"),
    _case("bound-nan-at-window-end",
          "bound --evap.epsilon -1e300 --loss.beta_cm3_per_s 1e10"
          " --sample.rho_peak_per_cm3 1e10 --loss.gamma_per_s 1e20"),
    _case("fit-temperature-sample.temperature_uK-1e160",
          "fit --kind temperature --data {tmp}/temp3.csv --sample.temperature_uK 1e160",
          stderr_has="overflows"),
    _case("bound-loss.beta_cm3_per_s--1e-12", "bound --loss.beta_cm3_per_s -1e-12"),
    _case("bound-sample.rho_peak_per_cm3--1", "bound --sample.rho_peak_per_cm3 -1",
          stderr_has="sample.rho_peak_per_cm3"),
    _case("simulate-decay-sample.rho_peak_per_cm3--1",
          "simulate --model decay --out {out} --sample.rho_peak_per_cm3 -1",
          stderr_has="sample.rho_peak_per_cm3"),
    _case("ramp-gated-sample.rho_peak_per_cm3--9e11",
          "ramp --sample.rho_peak_per_cm3 -9e11 --ramp.duration_ms 1000",
          stderr_has="sample.rho_peak_per_cm3"),
    _case("ramp-instant-sample.rho_peak_per_cm3--9e11",
          "ramp --sample.rho_peak_per_cm3 -9e11 --ramp.duration_ms 1000"
          " --ramp.rethermalization instant",
          stderr_has="sample.rho_peak_per_cm3"),
    _case("trap-sample.rho_peak_per_cm3--9e11", "trap --sample.rho_peak_per_cm3 -9e11",
          stderr_has="sample.rho_peak_per_cm3"),
    # expansion series hold times >= 0, widths > 0 and amplitudes >= 0
    _case("fit-tof-negative-sigma", "fit --kind tof --data {tmp}/tof_neg_sigma.csv"),
    _case("fit-tof-negative-t", "fit --kind tof --data {tmp}/tof_neg_t.csv"),
    _case("fit-tof-negative-amplitude",
          "fit --kind tof --data {tmp}/tof_neg_amplitude.csv"),
    _case("tof-sample.atom_number--5", "tof --out {out} --sample.atom_number -5"),
    _case("tof-tof.noise_frac-5", "tof --out {out} --tof.noise_frac 5"),
    _case("tof-tof.noise_frac--0.5", "tof --out {out} --tof.noise_frac -0.5",
          stderr_has="tof.noise_frac"),
    # a derived quantity divides by zero or overflows a float power
    _case("trap-mode.diameter_sagittal_um-1e-300",
          "trap --mode.diameter_sagittal_um 1e-300"),
    _case("ramp-mode.diameter_transversal_um-1e-300",
          "ramp --mode.diameter_transversal_um 1e-300"),
    _case("bound-psd-mode.diameter_sagittal_um-1e-300",
          "bound --psd {fixtures}/psd_noisy.csv --mode.diameter_sagittal_um 1e-300"),
    _case("trap-trap.laser_wavelength_nm-1e-200", "trap --trap.laser_wavelength_nm 1e-200",
          stderr_has="error: trap: a derived quantity overflows the float range"),
    _case("ramp-trap.depth_uK-1e300", "ramp --trap.depth_uK 1e300",
          stderr_has="error: ramp: a derived quantity overflows the float range"),
    _case("fit-decay-sample.rho_peak_per_cm3-1e-200",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --sample.rho_peak_per_cm3 1e-200",
          stderr_has="error: fit: a derived quantity overflows the float range"),
    # numpy overflows in the decay fit raise FloatingPointError under the
    # fit's error policy, and main reports them like a math overflow
    _case("fit-decay-sample.rho_peak_per_cm3-5e-324",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --sample.rho_peak_per_cm3 5e-324",
          stderr_has="error: fit:"),
    _case("fit-decay-sample.rho_peak_per_cm3-1e300",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --sample.rho_peak_per_cm3 1e300",
          stderr_has="error: fit:"),
    _case("fit-decay-fit.guess_beta_cm3_per_s-1e200",
          "fit --kind decay --data {fixtures}/decay_noisy.csv --fit.guess_beta_cm3_per_s 1e200",
          stderr_has="error: fit:"),
    # a zero cloud width at t = 0 divides the amplitude by zero
    _case("tof-tof.sigma0_um-0-tof.t_min_ms-0",
          "tof --out {out} --tof.sigma0_um 0 --tof.t_min_ms 0",
          stderr_has="error: tof:"),
    # the schema checks a key's domain whether or not the command reads it
    _case("tof-tof.sigma0_um--1", "tof --out {out} --tof.sigma0_um -1",
          stderr_has="tof.sigma0_um"),
    _case("tof-tof.seed--1", "tof --out {out} --tof.seed -1", stderr_has="tof.seed"),
    _case("cavity-ramp.steps-0", "cavity --ramp.steps 0", stderr_has="ramp.steps"),
    # options are never abbreviated, so a prefix is an unknown config key
    _case("simulate-prefix-mod",
          "simulate --model decay --out {out} --mod temperature",
          stderr_has="error: unknown config key: mod"),
    _case("cavity-prefix-ou", "cavity --ou {out}",
          stderr_has="error: unknown config key: ou"),
    # a bare `--` is an override with an empty name
    _case("cavity-bare-double-dash", "cavity -- 5",
          stderr_has="error: `--` names no config key; an override is --<key> <value>"),
])
def test_invalid_input_exits_2(tmp_path, capsys, argv, stderr_has):
    for name, text in _PROBE_FILES.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out.csv"

    def fill(text):
        return text.format(tmp=tmp_path, out=out, fixtures=FIXTURES)

    assert main([fill(a) for a in argv.split()]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""  # a command that fails prints no report
    assert err.startswith("error: ")
    assert err.count("\n") == 1, err  # the one `error:` line, no warnings
    assert "Traceback" not in err
    assert not out.exists()
    if stderr_has is not None:
        assert fill(stderr_has) in err
    # a failed write names the requested path and leaves no temporary file
    assert not re.search(r"tmp\w+\.tmp", err)
    assert not list(tmp_path.rglob("*.tmp"))


# one value just outside each domain of the schema
_JUST_OUTSIDE = {
    (float, "> 0"): "0",
    (float, ">= 0"): "-5e-324",
    (float, "in [0, 1]"): "1.0000000000000002",
    (int, ">= 0"): "-1",
    (int, ">= 1"): "0",
    (int, ">= 2"): "1",
    (int, ">= 3"): "2",
    (str, "one of collision-gated, instant, off"): "Instant",
}


@pytest.mark.parametrize("key", [key for key, row in SCHEMA.items() if row[2]])
def test_value_outside_its_domain_exits_2_naming_the_key(tmp_path, capsys, key):
    typ, _default, domain = SCHEMA[key]
    raw = _JUST_OUTSIDE[typ, domain]
    # a command that does not read the key
    command = "bound" if key.startswith(("cavity.", "mode.")) else "cavity"
    assert main([command, "--" + key, raw]) == 2
    assert capsys.readouterr().err == f"error: {key} must be {domain}, got {raw}\n"
    config = tmp_path / "run.cfg"
    config.write_text(f"# line 1\n{key} = {raw}\n")
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: line 2: {key} must be {domain}, got {raw}\n"
    )


@pytest.mark.parametrize(("line", "message"), [
    ("trap.depth_uK = 0", "trap.depth_uK must be > 0, got 0"),
    ("trap.depth_uK =", "empty value for key trap.depth_uK"),
    ("sim.n_points = 2.5", "cannot parse value '2.5' for key sim.n_points as int"),
    ("sim.t_max_s = inf", "non-finite value 'inf' for key sim.t_max_s"),
])
def test_config_file_value_error_names_the_file(tmp_path, capsys, monkeypatch, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"# line 1\n{line}\n")
    assert main(["cavity", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: line 2: {message}\n"
    monkeypatch.setenv("LATTICEKIT_CONFIG", str(config))
    assert main(["cavity"]) == 2
    assert capsys.readouterr().err == f"error: {config}: line 2: {message}\n"


def test_bound_psd_with_sigma_column_exits_2(tmp_path, capsys):
    # only the fit datasets take an optional sigma column
    psd = tmp_path / "psd.csv"
    psd.write_text("freq_hz,S_rel_per_hz,sigma\n100,1e-13,1\n1e6,1e-13,1\n")
    assert main(["bound", "--psd", str(psd)]) == 2
    assert "line 1: expected header freq_hz,S_rel_per_hz, got" in capsys.readouterr().err


def test_simulate_never_calls_the_integrator():
    # the RK4 and quadrature oracles live in tests/oracles.py; the product
    # package has no integrator module and names none in any source file
    assert importlib.util.find_spec("latticekit.integrate") is None
    package = os.path.dirname(os.path.abspath(latticekit.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read().lower()
            for word in ("rk4", "scipy", "quad"):
                assert word not in text, f"{name} mentions {word}"


def test_unknown_model_or_kind_exits_2(capsys):
    # the command line is refused before any command runs
    for argv in (["simulate", "--model", "bogus"],
                 ["fit", "--kind", "bogus", "--data", "x"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "Traceback" not in err


def test_simulate_requires_out(capsys):
    assert main(["simulate", "--model", "decay"]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--help", "bogus"]])
def test_help_lists_the_commands_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "usage: latticekit [-h] {cavity,trap,simulate,fit,bound,tof,ramp} ...\n"
    )
    for name, (_run, help_text, _flags) in COMMANDS.items():
        assert f"\n  {name:<10}{help_text}\n" in out


@pytest.mark.parametrize(("command", "usage"), [
    ("cavity", "[--config CONFIG] [--out OUT]"),
    ("trap", "[--config CONFIG] [--out OUT]"),
    ("simulate", "[--config CONFIG] --out OUT --model {decay,temperature,combined}"),
    ("fit", "[--config CONFIG] [--out OUT] --kind {decay,temperature,tof} --data DATA"),
    ("bound", "[--config CONFIG] [--out OUT] [--psd PSD]"),
    ("tof", "[--config CONFIG] --out OUT"),
    ("ramp", "[--config CONFIG] [--out OUT]"),
])
def test_command_help_lists_its_flags_and_exits_0(capsys, command, usage):
    # help is answered before the required flags are checked
    for flag in ("-h", "--help"):
        assert main([command, "--out", "o.txt", flag, "x"]) == 0
        out = capsys.readouterr().out
        assert out == f"usage: latticekit {command} [-h] {usage}\n\n{COMMANDS[command][1]}\n"


def test_bare_command_line_exits_2_with_the_usage(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["latticekit"])
    assert main() == 2
    assert capsys.readouterr().err == (
        "usage: latticekit [-h] {cavity,trap,simulate,fit,bound,tof,ramp} ...\n"
        "latticekit: error: the following arguments are required: command\n"
    )


def test_simulate_outputs_reparse(tmp_path):
    out = tmp_path / "temperature.csv"
    assert main(["simulate", "--model", "temperature", "--out", str(out)]) == 0
    ds = read_dataset(str(out), "temperature")
    assert ds.value[0] == 123.0


def test_ramp_report_contains_adiabatic_reference(capsys):
    assert main(["ramp"]) == 0
    text = capsys.readouterr().out
    assert abs(report_value(text, "adiabatic_reference_uK") - 79.7) < 0.05
    assert report_value(text, "T_final_uK") < report_value(
        text, "adiabatic_reference_uK"
    )
    assert "adiabatic_reference_uK = 79.7" in text


@pytest.mark.parametrize("mode", ["collision-gated", "instant", "off"])
def test_ramp_to_a_depth_far_below_the_first_reports_no_nan(capsys, mode):
    # 1e-20 of the 350 uK start: the last depth is the configured one, not 0 J
    assert main(["ramp", "--ramp.depth_final_uK", "3.5e-18",
                 "--ramp.rethermalization", mode]) == 0
    text = capsys.readouterr().out
    for key in ("T_final_uK", "N_final", "adiabatic_reference_uK", "eta_final"):
        assert math.isfinite(report_value(text, key)), key
    assert report_value(text, "T_final_uK") > 0


# ---------------------------------------------------------------------------
# fit

def test_fit_decay_fixture(tmp_path, capsys):
    out = tmp_path / "fit.txt"
    data = os.path.join(FIXTURES, "decay_noisy.csv")
    assert main(["fit", "--kind", "decay", "--data", data, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    gamma = None
    for line in text.splitlines():
        if line.startswith("gamma_per_s = "):
            gamma = float(line.split("=")[1].split("+-")[0])
    assert gamma is not None and rel(gamma, 0.6) < 0.05
    assert (tmp_path / "fit.txt.csv").exists()
    assert (tmp_path / "fit.txt.residuals.csv").exists()
    csv_lines = (tmp_path / "fit.txt.csv").read_text().splitlines()
    assert csv_lines[0] == "param,value,uncertainty"
    beta_row = [l for l in csv_lines if l.startswith("beta_cm3_per_s,")][0]
    assert rel(float(beta_row.split(",")[1]), 7.5e-12) < 0.05


def test_fit_decay_chi2_counts_three_free_parameters(capsys):
    # beta is derived from xi, so the 20-row fixture leaves 20 - 3 = 17 dof
    data = os.path.join(FIXTURES, "decay_noisy.csv")
    assert len(read_dataset(data, "population").t) == 20
    assert main(["fit", "--kind", "decay", "--data", data]) == 0
    text = capsys.readouterr().out
    rss = report_value(text, "rss")
    assert rel(report_value(text, "chi2_reduced"), rss / 17) < 1e-9


def test_fit_temperature_roundtrip(tmp_path, capsys):
    traj = tmp_path / "cooling.csv"
    assert main(["simulate", "--model", "temperature", "--out", str(traj)]) == 0
    assert main(["fit", "--kind", "temperature", "--data", str(traj)]) == 0
    text = capsys.readouterr().out
    eps = None
    for line in text.splitlines():
        if line.startswith("epsilon = "):
            eps = float(line.split("=")[1].split("+-")[0])
    assert eps is not None and rel(eps, 0.057) < 1e-6


def test_fit_decay_roundtrip_noiseless(tmp_path, capsys):
    traj = tmp_path / "clean.csv"
    assert main(["simulate", "--model", "decay", "--out", str(traj)]) == 0
    assert main(["fit", "--kind", "decay", "--data", str(traj)]) == 0
    text = capsys.readouterr().out
    for line in text.splitlines():
        if line.startswith("gamma_per_s = "):
            gamma = float(line.split("=")[1].split("+-")[0])
            assert rel(gamma, 0.6) < 1e-6
        if line.startswith("beta_cm3_per_s = "):
            beta = float(line.split("=")[1].split("+-")[0])
            assert rel(beta, 7.5e-12) < 1e-6


def test_fit_tof_fixture(capsys):
    data = os.path.join(FIXTURES, "tof_noisy.csv")
    assert main(["fit", "--kind", "tof", "--data", data]) == 0
    text = capsys.readouterr().out
    assert rel(report_value(text, "temperature_uK"), 123.0) < 0.03


def test_fit_malformed_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,N\n0,4e6\n0.2,not-a-number\n")
    assert main(["fit", "--kind", "decay", "--data", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    [
        "0,4e6\n0.5,nan\n1,2e6\n1.5,1e6\n",
        "0,4e6\n0.5,inf\n1,2e6\n1.5,1e6\n",
        "-1,6e6\n0,4e6\n1,2e6\n1.5,1e6\n",
    ],
    ids=["nan", "inf", "negative-time"],
)
def test_fit_nonfinite_or_negative_time_row_exits_2(tmp_path, capsys, rows):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,N\n" + rows)
    assert main(["fit", "--kind", "decay", "--data", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fit_temperature_upper_boundary_exits_4(tmp_path, capsys):
    # data colder than the eps*xi -> 1 limit T0 exp(-gamma t) pins epsilon to
    # the upper edge of its domain: a non-converged fit, not a domain error
    t = np.linspace(0, 4, 21)
    temps = 0.9 * 123.0 * np.exp(-0.6 * t)
    data = tmp_path / "cold.csv"
    data.write_text("t_s,T_uK\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                            zip(t.tolist(), temps.tolist())))
    assert main(["fit", "--kind", "temperature", "--data", str(data)]) == 4
    assert "domain boundary" in capsys.readouterr().err


def test_fit_wrong_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,N\n0,4e6\n")
    assert main(["fit", "--kind", "decay", "--data", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_fit_tof_degenerate_flagged(tmp_path, capsys):
    t = np.array([1e-3, 2e-3, 3e-3])
    slope = CONST.kB * 123e-6 / RB85.mass
    sigma = np.sqrt(slope * t**2 - (20e-6) ** 2)
    rows = ["t_ms,sigma_um,amplitude"]
    for ti, si in zip(t, sigma):
        rows.append(f"{ti*1e3},{si*1e6},{1e6/(2*math.pi*si**2)}")
    bad = tmp_path / "degenerate.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--kind", "tof", "--data", str(bad)]) == 0
    captured = capsys.readouterr()
    assert "degenerate = true" in captured.out
    # the undefined width is left out of the report, not shown as nan
    assert "sigma0" not in captured.out
    assert "nan" not in captured.out
    assert "sigma0" in captured.err


# ---------------------------------------------------------------------------
# heating bound

def test_bound_reference(capsys):
    assert main(["bound"]) == 0
    text = capsys.readouterr().out
    bound = report_value(text, "gamma_tot_bound_per_s")
    assert 0.0095 <= bound <= 0.0107
    assert abs(report_value(text, "bound_e_folding_s") - 98) < 2


def test_bound_with_flat_psd(tmp_path, capsys):
    # the white level that gives gamma_tot = 0.041 1/s in the reference trap
    nu_a, nu_r = 332411.78138682665, 448.19807851141104
    s0 = 3.0 * 0.041 / (math.pi**2 * (nu_a**2 + 2.0 * nu_r**2))
    psd = tmp_path / "flat_psd.csv"
    psd.write_text(f"freq_hz,S_rel_per_hz\n100,{s0!r}\n1000000,{s0!r}\n")
    assert main(["bound", "--psd", str(psd)]) == 0
    text = capsys.readouterr().out
    assert rel(report_value(text, "psd_gamma_tot_per_s"), 0.041) < 1e-6
    assert abs(report_value(text, "psd_to_bound_ratio") - 4.0) < 0.5


def test_bound_zero_window(capsys):
    assert main(["bound", "--bound.t_max_s", "0"]) == 0
    text = capsys.readouterr().out
    expected = 0.057 * (7.5e-12 * 9e11 / (4 * 0.6)) * 0.6
    assert rel(report_value(text, "gamma_tot_bound_per_s"), expected) < 1e-12


def test_bound_psd_with_zero_bound_reports_inf(tmp_path, capsys):
    psd = tmp_path / "flat_psd.csv"
    psd.write_text("freq_hz,S_rel_per_hz\n100,1e-13\n1000000,1e-13\n")
    assert main(["bound", "--psd", str(psd), "--evap.epsilon", "0"]) == 0
    text = capsys.readouterr().out
    assert report_value(text, "gamma_tot_bound_per_s") == 0.0
    assert report_value(text, "psd_to_bound_ratio") == math.inf


def test_bound_domain_violation_exits_3(capsys):
    assert main(["bound", "--evap.epsilon", "0.5"]) == 3


# ---------------------------------------------------------------------------
# tof synthesis and determinism

def test_tof_writes_deterministic_series(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["tof", "--out", str(a)]) == 0
    assert main(["tof", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    series = read_expansion(str(a))
    assert len(series.times) == 8


def test_tof_requires_out(capsys):
    assert main(["tof"]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_tof_roundtrip_through_fit(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["tof", "--out", str(out), "--tof.noise_frac", "0"]) == 0
    capsys.readouterr()
    assert main(["fit", "--kind", "tof", "--data", str(out)]) == 0
    text = capsys.readouterr().out
    assert rel(report_value(text, "temperature_uK"), 123.0) < 1e-6


def test_tof_accepts_zero_atoms(tmp_path, capsys):
    # an empty cloud is valid input: its amplitudes are 0, not negative
    out = tmp_path / "series.csv"
    assert main(["tof", "--out", str(out), "--sample.atom_number", "0"]) == 0
    assert not any(read_expansion(str(out)).amplitude)


# ---------------------------------------------------------------------------
# fixtures regenerate deterministically

def test_fixture_generator_reproduces_committed_bytes(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", os.path.join(FIXTURES, "generate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for kind in ("decay", "tof", "psd", "temperature"):
        name = f"{kind}_noisy.csv"
        getattr(module, f"make_{kind}")(str(tmp_path / name))
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


# Every pin lives in tests/pins.json, printed by tests/pins.py; the runs of
# the fixture fits, the trajectories and the spectrum bound keep their own
# tests, and every other command variant, exit 3 and exit 4 share the third.
PINS = pins.load_pins()
FIXTURE_FIT_RUNS = ["fit-decay", "fit-tof"]
TRAJECTORY_AND_PSD_BOUND_RUNS = [
    name for name in sorted(pins.RUNS)
    if name == "bound-psd" or name.startswith("simulate-")
]
OTHER_RUNS = [
    name for name in sorted(pins.RUNS)
    if name not in FIXTURE_FIT_RUNS + TRAJECTORY_AND_PSD_BOUND_RUNS
]


def _assert_pinned(name, tmp_path):
    assert sorted(PINS) == sorted(pins.RUNS)
    assert pins.pin(name, str(tmp_path)) == PINS[name]


@pytest.mark.parametrize("kind", ["decay", "tof"])
def test_fixture_fits_are_pinned(tmp_path, kind):
    _assert_pinned(f"fit-{kind}", tmp_path)


@pytest.mark.parametrize("run", TRAJECTORY_AND_PSD_BOUND_RUNS)
def test_trajectories_and_psd_bound_are_pinned(tmp_path, run):
    _assert_pinned(run, tmp_path)


@pytest.mark.parametrize("run", OTHER_RUNS)
def test_command_variants_are_pinned(tmp_path, run):
    _assert_pinned(run, tmp_path)


def test_fit_nonconvergence_exits_4(capsys):
    data = os.path.join(FIXTURES, "decay_noisy.csv")
    code = main(["fit", "--kind", "decay", "--data", data,
                 "--fit.max_iterations", "1"])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err


def test_fit_decay_optimum_outside_the_model_domain_exits_4(capsys):
    # from this start the unbounded steps reach gamma < 0 and xi < 0
    data = os.path.join(FIXTURES, "decay_noisy.csv")
    code = main(["fit", "--kind", "decay", "--data", data,
                 "--fit.guess_gamma_per_s", "1e-5",
                 "--fit.guess_beta_cm3_per_s", "1e-8",
                 "--sample.rho_peak_per_cm3", "1e18"])
    assert code == 4
    captured = capsys.readouterr()
    assert "converged = false" in captured.out
    assert "\ngamma_per_s = -" in captured.out
    assert "outside the model domain" in captured.err


def test_simulate_combined_overflow_is_refused_without_warning(tmp_path, capsys):
    # exp(gamma_tot t) overflows to inf, as np.exp does; the writer holds a
    # table to the reader's cell rule, so an inf cell is refused like a nan
    # one, with one error line, no warning and no file
    out = tmp_path / "combined.csv"
    assert main(["simulate", "--model", "combined", "--out", str(out),
                 "--heating.gamma_tot_per_s", "1e300"]) == 2
    assert capsys.readouterr().err == "error: column T_uK holds inf; refusing to write it\n"
    assert not out.exists()


@pytest.mark.parametrize(("model", "closed_form"), [
    ("decay", "population"),
    ("temperature", "temperature"),
    ("combined", "temperature"),
])
def test_simulate_evaluates_its_closed_form_once_over_the_grid(
        tmp_path, monkeypatch, model, closed_form):
    # one call per op takes the whole grid; a per-point loop would show here
    import latticekit.cli as cli

    grids = []
    evaluate = getattr(cli, closed_form)

    def counted(grid, *args):
        grids.append(grid)
        return evaluate(grid, *args)

    monkeypatch.setattr(cli, closed_form, counted)
    out = tmp_path / f"{model}.csv"
    assert main(["simulate", "--model", model, "--out", str(out),
                 "--sim.n_points", "301"]) == 0
    assert [len(grid) for grid in grids] == [301]
    assert len(out.read_text().splitlines()) == 302


@pytest.mark.parametrize(("start", "stop", "n"), [
    (0.0, 4.0, 201), (0.0, 7.123456789, 2001), (0.0, 1e-300, 3),
    (5e-4, 6e-3, 8), (2e-3, 1e-3, 17), (5e-3, 5e-3, 4),
    (0.0, 1.5e-323, 64), (0.0, 5e-324, 9), (-1e297, 1e297, 5),
])
def test_linspace_is_np_linspace_bit_for_bit(start, stop, n):
    from latticekit.cli import _linspace

    assert _linspace(start, stop, n) == np.linspace(start, stop, n).tolist()


def test_simulate_combined_heats_relative_to_pure_cooling(tmp_path):
    cooled = tmp_path / "cooled.csv"
    heated = tmp_path / "heated.csv"
    assert main(["simulate", "--model", "temperature", "--out", str(cooled)]) == 0
    assert main(["simulate", "--model", "combined", "--out", str(heated)]) == 0
    cold = read_dataset(str(cooled), "temperature")
    warm = read_dataset(str(heated), "temperature")
    assert warm.value[-1] > cold.value[-1]


def test_trap_implied_mode_matching_tracks_drive_power(capsys):
    assert main(["trap"]) == 0
    base = report_value(capsys.readouterr().out, "implied_mode_matching")
    assert main(["trap", "--trap.input_power_uW", "120"]) == 0
    halved = report_value(capsys.readouterr().out, "implied_mode_matching")
    assert rel(halved, base / 2) < 1e-9


# Runs in a fresh interpreter: importing the package and the CLI must not
# load BLOCKED, and every run in RUNS must exit 0 with BLOCKED unimportable.
_BLOCKED_SCRIPT = """
import sys

import latticekit
import latticekit.cli

if BLOCKED in sys.modules:
    sys.exit(f"importing latticekit or latticekit.cli loaded {BLOCKED}")


class Block:
    def find_spec(self, name, path=None, target=None):
        if name == BLOCKED or name.startswith(BLOCKED + "."):
            raise ImportError(f"{BLOCKED} is blocked: {name}")
        return None


sys.meta_path.insert(0, Block())
from latticekit.cli import main

for argv in RUNS:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
"""


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(latticekit.__file__)))


def _run_with_blocked(module, runs, cwd=None):
    env = dict(os.environ, PYTHONPATH=_SRC)
    script = f"BLOCKED = {module!r}\nRUNS = {runs!r}\n" + _BLOCKED_SCRIPT
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# One run of each of the 12 command variants. The output paths are relative:
# the runs write into their working directory, which holds psd.csv.
COMMAND_RUNS = [
    ["cavity"],
    ["trap"],
    ["simulate", "--model", "decay", "--out", "decay.csv"],
    ["simulate", "--model", "temperature", "--out", "temperature.csv"],
    ["simulate", "--model", "combined", "--out", "combined.csv"],
    ["fit", "--kind", "decay", "--data", os.path.join(FIXTURES, "decay_noisy.csv")],
    ["fit", "--kind", "temperature", "--data", "temperature.csv"],
    ["fit", "--kind", "tof", "--data", os.path.join(FIXTURES, "tof_noisy.csv")],
    ["bound"],
    ["bound", "--psd", "psd.csv"],
    ["tof", "--out", "tof.csv"],
    ["ramp"],
]


def _run_commands_with_blocked(module, tmp_path):
    (tmp_path / "psd.csv").write_text("freq_hz,S_rel_per_hz\n100,1e-13\n1e6,1e-13\n")
    _run_with_blocked(module, COMMAND_RUNS, cwd=tmp_path)


def test_commands_run_without_scipy(tmp_path):
    _run_commands_with_blocked("scipy", tmp_path)


def test_commands_run_without_dataclasses(tmp_path):
    # the records are namedtuple classes; numpy loads inspect, not dataclasses
    _run_commands_with_blocked("dataclasses", tmp_path)


# Imports the CLI in a fresh interpreter without site (-S), where the site
# packages' .pth files cannot import the modules named on the command line.
_UNLOADED_SCRIPT = """
import sys

import latticekit.cli

loaded = [name for name in sys.argv[1:] if name in sys.modules]
assert not loaded, f"import latticekit.cli loaded {loaded}"
"""


def _assert_cli_import_leaves_unloaded(*modules):
    proc = subprocess.run([sys.executable, "-S", "-c", _UNLOADED_SCRIPT, *modules],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_tempfile_unloaded():
    _assert_cli_import_leaves_unloaded("tempfile")


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    _assert_cli_import_leaves_unloaded("dataclasses", "inspect")


def test_cli_import_leaves_argparse_and_gettext_unloaded():
    _assert_cli_import_leaves_unloaded("argparse", "gettext")


def test_scalar_commands_run_without_numpy(tmp_path):
    def out(name):
        return str(tmp_path / name)

    _run_with_blocked("numpy", [
        ["cavity", "--out", out("cavity.txt")],
        ["trap"],
        ["ramp", "--ramp.rethermalization", "collision-gated"],
        ["ramp", "--ramp.rethermalization", "instant"],
        ["bound"],
        ["simulate", "--model", "decay", "--out", out("decay.csv")],
        ["simulate", "--model", "temperature", "--out", out("temperature.csv")],
        ["simulate", "--model", "combined", "--out", out("combined.csv")],
        ["bound", "--psd", os.path.join(FIXTURES, "psd_noisy.csv"), "--out", out("psd.txt")],
        # the two linear fits, on the CRLF fixture and on the simulated series
        ["fit", "--kind", "temperature", "--data",
         os.path.join(FIXTURES, "temperature_noisy.csv"), "--out", out("crlf.txt")],
        ["fit", "--kind", "temperature", "--data", out("temperature.csv"),
         "--out", out("cooling.txt")],
        ["fit", "--kind", "tof", "--data", os.path.join(FIXTURES, "tof_noisy.csv"),
         "--out", out("tof.txt")],
    ])
    for name in ("cavity.txt.csv", "decay.csv", "temperature.csv", "combined.csv",
                 "psd.txt.csv", "crlf.txt", "crlf.txt.csv", "crlf.txt.residuals.csv",
                 "cooling.txt", "cooling.txt.csv", "cooling.txt.residuals.csv",
                 "tof.txt", "tof.txt.csv"):
        assert (tmp_path / name).exists(), name


def test_fit_and_protocols_modules_import_without_numpy():
    # -S: no site .pth file can import numpy on the modules' behalf
    script = ("import sys, latticekit.fitting, latticekit.protocols\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Runs every pin of tests/pins.py in a fresh interpreter, whose environment
# selects the OpenBLAS kernel or glibc's libm variant, and prints the names
# whose pin moved.
_KERNEL_SCRIPT = """
import os
import sys

import pins

table = pins.load_pins()
moved = []
for name in sorted(pins.RUNS):
    directory = f"{sys.argv[1]}/{name}"
    os.mkdir(directory)
    if pins.pin(name, directory) != table[name]:
        moved.append(name)
print(" ".join(moved))
"""


@pytest.mark.parametrize("kernel", [
    *(pytest.param({"OPENBLAS_CORETYPE": kernel}, id=kernel)
      for kernel in ("Haswell", "Sandybridge", "Zen")),
    # glibc's libm without its AVX2 and FMA variants, as on an older host
    pytest.param({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}, id="libm-without-FMA",
                 marks=pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                          reason="a glibc tunable")),
])
def test_pins_hold_under_every_blas_kernel(tmp_path, kernel):
    # no output sums or solves through BLAS, so no kernel reaches a pinned
    # byte; nor does libm's pow variant, since trap writes its powers as
    # products
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, tests]), **kernel)
    proc = subprocess.run([sys.executable, "-c", _KERNEL_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"pins moved under {kernel}: {proc.stdout}"


@pytest.mark.parametrize("command", ["cavity", "trap"])
def test_overflowing_mode_diameters_name_both_keys(capsys, command):
    # each diameter is in its domain; their product under the effective
    # waist's square root overflows
    assert main([command, "--mode.diameter_sagittal_um", "1e200",
                 "--mode.diameter_transversal_um", "1e200"]) == 2
    assert capsys.readouterr().err == (
        "error: effective_waist must be finite: mode.diameter_sagittal_um = 1e+200"
        " and mode.diameter_transversal_um = 1e+200\n"
    )


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["umask-022", "umask-077", "umask-002"])
def test_outputs_are_created_with_the_umask_mode(tmp_path, capsys, umask, mode):
    out = tmp_path / "cavity.txt"
    previous = os.umask(umask)
    try:
        assert main(["cavity", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    for path in (out, tmp_path / "cavity.txt.csv"):
        assert os.stat(path).st_mode & 0o777 == mode, oct(os.stat(path).st_mode)


# Runs an array command in a fresh interpreter and prints the thread count
# of the process afterwards, OpenBLAS's pool included; the command must have
# loaded numpy, or the count says nothing about OpenBLAS.
_THREADS_SCRIPT = """
import sys

from latticekit.cli import main

code = main(["tof", "--out", sys.argv[1]])
assert "numpy" in sys.modules, "tof ran without loading numpy"
with open("/proc/self/status") as fh:
    threads = [line.split()[1] for line in fh if line.startswith("Threads:")]
print(code, threads[0])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc/self/status")
@pytest.mark.parametrize(("preset", "expected"), [(None, "1"), ("2", "2")])
def test_cli_keeps_one_blas_thread_unless_set(tmp_path, preset, expected):
    if preset is not None and len(os.sched_getaffinity(0)) < int(preset):
        pytest.skip(f"OpenBLAS starts at most one thread per CPU; {preset} needed")
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT, str(tmp_path / "tof.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", expected]  # after tof's report
