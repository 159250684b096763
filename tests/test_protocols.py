import math
import random
import struct

import numpy as np
import pytest
from conftest import make_lattice_state, state_a
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fit_expansion_numpy, ramp_reference

from latticekit.config import load_config, state_from_config
from latticekit.constants import CONST, RB85
from latticekit.protocols import (
    ExpansionFit,
    ExpansionSeries,
    expansion_sigma,
    fit_expansion,
    synthesize_expansion,
)
from latticekit.ramp import (
    RETHERMALIZATION_MODES,
    RampProfile,
    adiabatic_final_temperature,
    ramp_simulate,
)

KB = CONST.kB
U_350 = 350e-6 * KB
U_147 = 147e-6 * KB
RHO_BAR_A = 2.25e11  # cm^-3, reference state (a) mean density


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# adiabatic limit

def test_adiabatic_reference_value():
    t_f = adiabatic_final_temperature(123e-6, U_350, U_147)
    assert t_f == 123e-6 * math.sqrt(147.0 / 350.0)
    assert abs(t_f * 1e6 - 79.7) < 0.02


def test_adiabatic_identity_and_quarter():
    assert adiabatic_final_temperature(123e-6, U_350, U_350) == 123e-6
    assert rel(adiabatic_final_temperature(100e-6, U_350, U_350 / 4), 50e-6) < 1e-15


def test_adiabatic_rejects_nonpositive():
    with pytest.raises(ValueError):
        adiabatic_final_temperature(0.0, U_350, U_147)
    with pytest.raises(ValueError):
        adiabatic_final_temperature(1e-6, U_350, -U_147)


# ---------------------------------------------------------------------------
# ramps

def _ramp(duration, rethermalization="collision-gated", u_final=U_147,
          state=None):
    state = state or state_a()
    profile = RampProfile(U_350, u_final, duration)
    return ramp_simulate(state, profile,
                         rethermalization=rethermalization,
                         rho_bar_per_cm3=RHO_BAR_A)


def test_sudden_ramp_is_adiabatic_limit():
    result = _ramp(0.0)
    assert result.t_final == result.adiabatic_reference
    assert rel(result.t_final, 123e-6 * math.sqrt(0.42)) < 1e-12
    assert not result.quasi_static


def test_ramp_without_evaporation_is_path_independent():
    for u_final in (U_147, 0.3 * U_350, 0.9 * U_350):
        for duration in (0.01, 0.07, 1.0):
            profile = RampProfile(U_350, u_final, duration)
            result = ramp_simulate(state_a(), profile,
                                   rethermalization="off",
                                   rho_bar_per_cm3=RHO_BAR_A)
            expected = adiabatic_final_temperature(123e-6, U_350, u_final)
            assert rel(result.t_final, expected) < 1e-6
            assert result.n_final == 4e6


def test_slow_ramp_ends_strictly_colder_than_adiabatic():
    result = _ramp(0.070)
    assert result.t_final < result.adiabatic_reference
    assert result.n_final < 4e6
    assert result.quasi_static


def test_fast_ramp_stays_within_five_percent_of_adiabatic():
    result = _ramp(0.010)
    assert rel(result.t_final, result.adiabatic_reference) < 0.05
    assert result.t_final < result.adiabatic_reference


def test_final_temperature_non_increasing_in_duration():
    durations = [0.0, 0.005, 0.010, 0.020, 0.040, 0.070, 0.150, 0.300]
    finals = [_ramp(d).t_final for d in durations]
    assert all(b <= a for a, b in zip(finals, finals[1:]))


def test_instant_rethermalization_cools_hardest():
    gated = _ramp(0.070)
    instant = _ramp(0.070, rethermalization="instant")
    assert instant.t_final < gated.t_final


def test_ramp_quasi_static_flag_for_abrupt_ramp():
    assert not _ramp(1e-7).quasi_static


def test_ramp_validation():
    with pytest.raises(ValueError):
        RampProfile(U_350, U_147, -1.0)
    with pytest.raises(ValueError):
        _ramp(0.07, rethermalization="sometimes")


def test_ramp_eta_final_consistent():
    result = _ramp(0.070)
    assert rel(result.eta_final, U_147 / (KB * result.t_final)) < 1e-12


def _outcome(state, profile, rho_bar_per_cm3, rethermalization, steps):
    """The bits of the five RampResult fields that ramp_simulate and the
    reference loop return, or the type and text of the error they raise."""
    outcomes = []
    for ramp in (ramp_simulate, ramp_reference):
        try:
            result = ramp(state, profile, rho_bar_per_cm3, rethermalization, steps)
        except (ArithmeticError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(tuple(
                struct.pack("<d", v) if isinstance(v, float) else v for v in result
            ))
    return outcomes


@pytest.mark.parametrize("steps", [1, 2, 7, 1024, 4096])
@pytest.mark.parametrize("rethermalization", RETHERMALIZATION_MODES)
def test_ramp_matches_its_reference_loop(rethermalization, steps):
    draw = random.Random(f"{rethermalization}-{steps}")
    for depths, duration, quasi_static in [
        ((U_350, U_147), 0.070, True),  # falling, quasi-static
        ((U_147, U_350), 0.010, True),  # rising
        ((U_350, U_147), 0.0, False),  # sudden
        ((U_350, U_147), 1e-7, False),  # too fast to be quasi-static
        # quasi-static at the first step (it breaks there below about 1.3 ms)
        # but not at the last, where the depth is lowest (below about 4.7 ms),
        # once the steps are fine enough that the last one starts deep: one
        # or two steps of 1.5-3 ms pass throughout
        ((U_350, U_147), 0.003, steps < 7),
        # the mirror image: rising, it breaks at the first step, where the
        # depth is lowest, and holds at the last
        ((U_147, U_350), 0.003, False),
    ]:
        state = make_lattice_state(draw.uniform(1e5, 1e7), draw.uniform(20e-6, 300e-6),
                                   depths[0] / KB * 1e6)
        profile = RampProfile(*depths, duration)
        rho = draw.uniform(1e10, 1e13)
        result, reference = _outcome(state, profile, rho, rethermalization, steps)
        assert result == reference, (depths, duration)
        assert result[-1] is quasi_static, (depths, duration)


# Depths in uK, falling or rising, and durations from 10 ns to 1 s, or 0:
# the quasi-static flag holds, breaks at the first step or breaks part way.
depths_uk = st.floats(10.0, 1000.0)
durations = st.just(0.0) | st.floats(-8.0, 0.0).map(lambda power: 10.0**power)


@settings(max_examples=300)
@given(n_atoms=st.floats(1e3, 1e8), temperature=st.floats(1e-6, 1e-3),
       depths=st.tuples(depths_uk, depths_uk), duration=durations,
       rho=st.floats(1e8, 1e14), rethermalization=st.sampled_from(RETHERMALIZATION_MODES),
       steps=st.integers(1, 64))
def test_ramp_matches_its_reference_loop_on_drawn_inputs(
        n_atoms, temperature, depths, duration, rho, rethermalization, steps):
    state = make_lattice_state(n_atoms, temperature, depths[0])
    profile = RampProfile(depths[0] * 1e-6 * KB, depths[1] * 1e-6 * KB, duration)
    result, reference = _outcome(state, profile, rho, rethermalization, steps)
    assert result == reference


def _cli_ramp(*overrides):
    """The inputs of ramp_simulate that the ramp command passes at the default
    config with overrides."""
    cfg = load_config(None, list(overrides))
    state = state_from_config(cfg)
    profile = RampProfile(state.trap.u0, cfg["ramp.depth_final_uK"] * 1e-6 * KB,
                          cfg["ramp.duration_ms"] * 1e-3)
    return (state, profile, cfg["sample.rho_peak_per_cm3"] / 4.0,
            cfg["ramp.rethermalization"], cfg["ramp.steps"])


A = state_a()
FALLING = RampProfile(U_350, U_147, 0.070)
TINY = make_lattice_state(4e6, 1e290, 1e-21)  # eta 1e-317 at the start


# Inputs on which the ramp raises, each with the error of one mode and step
# count; the test runs every mode at 1 and 7 steps on them as well.
RAISING = [
    pytest.param(_cli_ramp(("trap.depth_uK", "1e300")), OverflowError,
                 id="cli-trap.depth_uK-1e300"),
    pytest.param((A, FALLING, -1e15, "instant", 7), OverflowError, id="negative-density"),
    pytest.param((A, FALLING, -1e20, "collision-gated", 7), ValueError,
                 id="negative-density-cools-to-0-K"),
    pytest.param((A, RampProfile(U_350, U_147, 5e-324), RHO_BAR_A, "off", 7),
                 ZeroDivisionError, id="step-underflows"),
    pytest.param((TINY, RampProfile(TINY.trap.u0, TINY.trap.u0 * 1e-15, 0.070), RHO_BAR_A,
                  "collision-gated", 1), ValueError, id="eta-underflows"),
]


@pytest.mark.parametrize(("inputs", "error"), RAISING)
def test_ramp_raises_what_its_reference_loop_raises(inputs, error):
    result, reference = _outcome(*inputs)
    assert result == reference
    assert result[0] is error, result
    for rethermalization in RETHERMALIZATION_MODES:
        for steps in (1, 7):
            result, reference = _outcome(*inputs[:3], rethermalization, steps)
            assert result == reference, (rethermalization, steps)


# Ramps whose last depth lies so far below the first that the linear form of
# the depth would lose it (to 0 J at 1e-20, to 1.3% low at 1e-12): each ends
# on u_final in every mode and step count, as its reference loop does, so
# without evaporation it ends on the adiabatic temperature.
FAR_BELOW = [
    pytest.param(RampProfile(U_350, U_350 * 1e-20, 0.070), RHO_BAR_A,
                 id="last-depth-1e-20-of-the-first"),
    pytest.param(RampProfile(U_350, U_350 * 1e-12, 0.070), RHO_BAR_A,
                 id="last-depth-1e-12-of-the-first"),
    # a nan density makes T nan in the evaporating modes, and raises nowhere
    pytest.param(RampProfile(U_350, U_350 * 1e-20, 0.070), math.nan, id="nan-density"),
]


@pytest.mark.parametrize(("profile", "rho"), FAR_BELOW)
def test_ramp_ends_on_its_final_depth(profile, rho):
    assert profile.depth_at(1.0) == profile.u_final
    for rethermalization in RETHERMALIZATION_MODES:
        for steps in (1, 7, 1024):
            result, reference = _outcome(A, profile, rho, rethermalization, steps)
            assert result == reference, (rethermalization, steps)
            ramp = ramp_simulate(A, profile, rho, rethermalization, steps)
            if rethermalization == "off":
                assert rel(ramp.t_final, ramp.adiabatic_reference) < 1e-12, steps
            assert math.isnan(ramp.t_final) is (math.isnan(rho) and rethermalization != "off")


@pytest.mark.parametrize(("rethermalization", "steps"), [("sometimes", 7), ("off", 0)])
def test_ramp_refuses_what_its_reference_loop_refuses(rethermalization, steps):
    result, reference = _outcome(A, FALLING, RHO_BAR_A, rethermalization, steps)
    assert result == reference
    assert result[0] is ValueError


# ---------------------------------------------------------------------------
# ballistic expansion

def test_expansion_sigma_at_zero():
    assert expansion_sigma(50e-6, 100e-6, 0.0) == 50e-6


def test_expansion_sigma_reference_value():
    value = expansion_sigma(50e-6, 100e-6, 5e-3)
    expected = math.sqrt((50e-6) ** 2 + KB * 100e-6 / RB85.mass * (5e-3) ** 2)
    assert value == expected
    assert abs(value - 497e-6) < 0.5e-6


def test_expansion_sigma_zero_temperature():
    t = np.linspace(0, 10e-3, 5)
    assert np.all(expansion_sigma(40e-6, 0.0, t) == 40e-6)


def test_expansion_sigma_rejects_negative_time():
    with pytest.raises(ValueError):
        expansion_sigma(40e-6, 100e-6, -1e-3)


def test_synthesize_noiseless_is_exact():
    times = np.linspace(0.5e-3, 6e-3, 8)
    series = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.0, 1)
    expected = expansion_sigma(40e-6, 123e-6, times)
    assert np.max(np.abs(series.sigma - expected)) == 0.0


def test_synthesize_deterministic():
    times = np.linspace(0.5e-3, 6e-3, 8)
    one = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.01, 77)
    two = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.01, 77)
    assert np.array_equal(one.sigma, two.sigma)
    assert np.array_equal(one.amplitude, two.amplitude)


def test_round_trip_recovers_temperature():
    times = np.linspace(0.5e-3, 6e-3, 8)
    series = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.01, 7)
    fit = fit_expansion(series)
    assert rel(fit.temperature, 123e-6) < 0.03
    assert rel(fit.n_atoms, 1e6) < 0.05


def test_fit_expansion_noiseless_exact():
    times = np.linspace(0.5e-3, 6e-3, 10)
    series = synthesize_expansion(2e6, 85e-6, 55e-6, times, 0.0, 3)
    fit = fit_expansion(series)
    assert rel(fit.temperature, 85e-6) < 1e-9
    assert rel(fit.sigma0, 55e-6) < 1e-9
    assert rel(fit.n_atoms, 2e6) < 1e-9
    assert not fit.degenerate
    assert fit.temperature_err < 1e-9 * 85e-6


def test_fit_expansion_monte_carlo():
    times = np.linspace(0.5e-3, 6e-3, 8)
    hits = 0
    for seed in range(100):
        series = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.01, seed)
        fit = fit_expansion(series)
        if rel(fit.temperature, 123e-6) < 0.03:
            hits += 1
    assert hits >= 95


def test_fit_expansion_order_invariant():
    times = np.linspace(0.5e-3, 6e-3, 8)
    series = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.01, 11)
    perm = np.array([3, 0, 7, 1, 5, 2, 6, 4])
    shuffled = ExpansionSeries(*(np.asarray(column)[perm] for column in series))
    a = fit_expansion(series)
    b = fit_expansion(shuffled)
    assert rel(a.temperature, b.temperature) < 1e-12
    assert rel(a.sigma0, b.sigma0) < 1e-12


def test_expansion_series_converts_its_columns():
    columns = ([0.001, 0.002, 0.003], [1e-4] * 3, [1.0] * 3)
    from_lists = ExpansionSeries(*columns)
    from_arrays = ExpansionSeries(*(np.array(c) for c in columns))
    for a, b in zip(from_lists, from_arrays, strict=True):
        assert type(a) is tuple and all(type(v) is float for v in a)
        assert a == b
    assert fit_expansion(from_lists) == fit_expansion(from_arrays)


def test_fit_expansion_needs_three_points():
    times = np.array([1e-3, 2e-3])
    series = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.0, 1)
    with pytest.raises(ValueError):
        fit_expansion(series)


def test_fit_expansion_degenerate_intercept():
    # widths consistent with a negative sigma0^2 intercept
    times = np.array([1e-3, 2e-3, 3e-3])
    slope = KB * 123e-6 / RB85.mass
    offset = (20e-6) ** 2
    sigma = np.sqrt(slope * times**2 - offset)
    series = ExpansionSeries(
        times=times,
        sigma=sigma,
        amplitude=1e6 / (2 * math.pi * sigma**2),
    )
    fit = fit_expansion(series)
    assert fit.degenerate
    assert math.isnan(fit.sigma0)
    assert rel(fit.temperature, 123e-6) < 1e-9


def test_expansion_functions_raise_whatever_the_callers_numpy_policy():
    # the policy is the functions' own: a caller that ignores float errors
    # still gets FloatingPointError, and keeps its settings afterwards
    with np.errstate(all="ignore"):
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            expansion_sigma(1e300, 123e-6, 0.0)
        with pytest.raises(FloatingPointError):  # zero width at t = 0
            synthesize_expansion(1e6, 123e-6, 0.0, [0.0, 1e-3, 2e-3], 0.0, 1)
        times = np.array([1e-3, 2e-3, 3e-3])
        with pytest.raises(FloatingPointError):
            fit_expansion(ExpansionSeries(times, np.full(3, 1e200), np.ones(3)))
        assert np.geterr() == before


# ---------------------------------------------------------------------------
# the expansion fit against its numpy oracle

@pytest.mark.parametrize("n_times", [3, 4, 8, 20, 200, 2000])
def test_expansion_fit_agrees_with_its_numpy_oracle(n_times):
    for seed in range(5):
        times = np.linspace(0.1e-3, 2e-3, n_times)
        series = synthesize_expansion(3e6, 123e-6, 100e-6, times, 0.01, seed)
        pure, oracle = fit_expansion(series), fit_expansion_numpy(series)
        assert pure.degenerate == oracle.degenerate
        for field, a, b in zip(ExpansionFit._fields, pure, oracle):
            if field != "degenerate" and not (math.isnan(a) and math.isnan(b)):
                assert abs(a - b) <= 1e-12 * abs(b), (field, seed)


@pytest.mark.parametrize("columns", [
    ([1e-3, 2e-3, 3e-3], [1e200] * 3, [1.0] * 3),  # sigma^2 overflows
    ([1e200, 2e200, 3e200], [1e-4] * 3, [1.0] * 3),  # t^2 overflows
    ([1e-3, 2e-3, 3e-3], [1.0] * 3, [1e308] * 3),  # the counts overflow
    ([1e-3, 2e-3, 3e-3], [1e154] * 3, [1.0] * 3),  # the sum of sigma^2 overflows
], ids=["sigma-1e200", "t-1e200", "amplitude-1e308", "sigma-1e154"])
def test_expansion_fit_raises_where_its_numpy_oracle_raises(columns):
    series = ExpansionSeries(*columns)
    with pytest.raises(FloatingPointError):
        fit_expansion_numpy(series)
    with np.errstate(all="ignore"):  # the policy is the fit's own
        with pytest.raises(FloatingPointError):
            fit_expansion(series)
