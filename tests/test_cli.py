import math
import os

import numpy as np
import pytest

from latticekit.cli import main
from latticekit.constants import CONST, RB85
from latticekit.losses import population
from latticekit.tabular import read_dataset, read_expansion, write_noise_spectrum
from latticekit.heating import flat_level_for_total_rate, flat_spectrum

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


@pytest.mark.parametrize(
    "model,key,value",
    [
        ("combined", "heating.gamma_tot_per_s", "-0.1"),
        ("decay", "sim.t_max_s", "0"),
        ("decay", "sim.t_max_s", "inf"),
        ("decay", "sample.atom_number", "-5"),
        ("temperature", "sample.temperature_uK", "-5"),
    ],
)
def test_simulate_invalid_input_exits_2(tmp_path, capsys, model, key, value):
    out = tmp_path / "trajectory.csv"
    assert main(["simulate", "--model", model, "--out", str(out), f"--{key}", value]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_simulate_never_calls_the_integrator(tmp_path, monkeypatch):
    # the RK4 integrator is a test oracle; simulate runs the closed forms
    def refuse(*_args, **_kwargs):
        raise AssertionError("rk4_path called on the product path")

    monkeypatch.setattr("latticekit.losses.rk4_path", refuse)
    monkeypatch.setattr("latticekit.heating.rk4_path", refuse)
    for model in ("decay", "temperature", "combined"):
        out = tmp_path / f"{model}.csv"
        assert main(["simulate", "--model", model, "--out", str(out)]) == 0


def test_simulate_requires_out(capsys):
    assert main(["simulate", "--model", "decay"]) == 2


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


def test_simulate_ramp_same_as_ramp_command(capsys):
    assert main(["ramp"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--model", "ramp"]) == 0
    second = capsys.readouterr().out
    assert first == second


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
    nu_a, nu_r = 332411.78138682665, 448.19807851141104
    s0 = flat_level_for_total_rate(0.041, nu_a, nu_r)
    psd = tmp_path / "flat_psd.csv"
    write_noise_spectrum(str(psd), flat_spectrum(s0, 100.0, 1e6))
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
    write_noise_spectrum(str(psd), flat_spectrum(1e-13, 100.0, 1e6))
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
    assert series.times.size == 8


def test_tof_requires_out():
    assert main(["tof"]) == 2


def test_tof_roundtrip_through_fit(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["tof", "--out", str(out), "--tof.noise_frac", "0"]) == 0
    capsys.readouterr()
    assert main(["fit", "--kind", "tof", "--data", str(out)]) == 0
    text = capsys.readouterr().out
    assert rel(report_value(text, "temperature_uK"), 123.0) < 1e-6


# ---------------------------------------------------------------------------
# fixtures regenerate deterministically

def test_fixture_generator_reproduces_committed_bytes(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", os.path.join(FIXTURES, "generate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    decay = tmp_path / "decay_noisy.csv"
    tof = tmp_path / "tof_noisy.csv"
    module.make_decay(str(decay))
    module.make_tof(str(tof))
    with open(os.path.join(FIXTURES, "decay_noisy.csv"), "rb") as fh:
        assert decay.read_bytes() == fh.read()
    with open(os.path.join(FIXTURES, "tof_noisy.csv"), "rb") as fh:
        assert tof.read_bytes() == fh.read()


def test_fit_nonconvergence_exits_4(capsys):
    data = os.path.join(FIXTURES, "decay_noisy.csv")
    code = main(["fit", "--kind", "decay", "--data", data,
                 "--fit.max_iterations", "1"])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err


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
