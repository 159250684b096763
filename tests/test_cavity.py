import math

import pytest

from latticekit.cavity import (
    CavitySpec,
    MirrorSpec,
    ModeGeometry,
    circulating_power,
    finesse_from_linewidth,
    finesse_from_losses,
    free_spectral_range,
    implied_mode_matching,
    linewidth_from_ring_down,
    mode_volume,
    power_buildup,
)
from latticekit.constants import CONST
from latticekit.errors import DomainError


def rel(a, b):
    return abs(a - b) / abs(b)


def make_cavity(length=0.097, power=60e-6, eta_mm=1.0):
    """Reference triangular ring: one 23 ppm incoupler, two 0.8 ppm mirrors,
    3 ppm scatter each."""
    return CavitySpec(
        mirrors=(
            MirrorSpec(23e-6, 3e-6),
            MirrorSpec(0.8e-6, 3e-6),
            MirrorSpec(0.8e-6, 3e-6),
        ),
        round_trip_length=length,
        input_power_per_mode=power,
        mode_matching_efficiency=eta_mm,
    )


REFERENCE_MODE = ModeGeometry(268e-6 / 2, 258e-6 / 2)


# ---------------------------------------------------------------------------
# construction invariants

def test_mirror_validation():
    with pytest.raises(ValueError):
        MirrorSpec(-1e-6, 0.0)
    with pytest.raises(ValueError):
        MirrorSpec(0.6, 0.5)


def test_cavity_needs_three_mirrors():
    with pytest.raises(ValueError):
        CavitySpec(mirrors=(MirrorSpec(1e-6, 0), MirrorSpec(1e-6, 0)),
                   round_trip_length=0.1)


def test_cavity_incoupler_is_max_transmission():
    assert make_cavity().incoupler.transmission == 23e-6


# ---------------------------------------------------------------------------
# free spectral range

def test_fsr_reference_value():
    fsr = free_spectral_range(make_cavity())
    assert rel(fsr, 3.09e9) < 0.01
    assert rel(fsr, 3.1e9) < 0.01


def test_fsr_light_second_is_one_hertz():
    cavity = make_cavity(length=CONST.c * 1.0)
    assert free_spectral_range(cavity) == 1.0


def test_fsr_doubles_when_length_halves():
    assert rel(
        free_spectral_range(make_cavity(length=0.0485)),
        2 * free_spectral_range(make_cavity(length=0.097)),
    ) < 1e-15


# ---------------------------------------------------------------------------
# linewidth and ring-down

def test_linewidth_reference_value():
    assert rel(linewidth_from_ring_down(9.2e-6), 17.3e3) < 0.005


def test_linewidth_unit_case():
    assert rel(linewidth_from_ring_down(1.0 / (2 * math.pi)), 1.0) < 1e-15


def test_linewidth_tau_product_is_one():
    tau = 9.2e-6
    assert linewidth_from_ring_down(tau) * tau * 2 * math.pi == 1.0


def test_ring_down_round_trip_machine_precision():
    # inverted by hand, the linewidth returns tau to machine precision
    for tau in (1e-7, 9.2e-6, 3.3e-3):
        assert rel(1.0 / (2 * math.pi * linewidth_from_ring_down(tau)), tau) < 1e-15


def test_nonpositive_inputs_rejected():
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError):
            linewidth_from_ring_down(tau)


# ---------------------------------------------------------------------------
# finesse, two routes

def test_finesse_from_linewidth_reference():
    f = finesse_from_linewidth(3.09e9, 17.3e3)
    assert rel(f, 1.8e5) < 0.03


def test_finesse_equal_inputs_is_one():
    assert finesse_from_linewidth(1234.5, 1234.5) == 1.0


def test_finesse_halves_when_linewidth_doubles():
    f1 = finesse_from_linewidth(3.09e9, 17.3e3)
    f2 = finesse_from_linewidth(3.09e9, 34.6e3)
    assert rel(f2, f1 / 2) < 1e-15


def test_finesse_from_losses_reference_budget():
    cavity = make_cavity()
    # hand-summed budget: 23 + 3 + 0.8 + 3 + 0.8 + 3 = 33.6 ppm
    assert rel(cavity.round_trip_loss, 33.6e-6) < 1e-12
    f = finesse_from_losses(cavity)
    assert rel(f, 2 * math.pi / 33.6e-6) < 1e-12
    assert rel(f, 1.8e5) < 0.05


def test_finesse_routes_agree_within_five_percent():
    cavity = make_cavity()
    f_spectral = finesse_from_linewidth(
        free_spectral_range(cavity), linewidth_from_ring_down(9.2e-6)
    )
    assert rel(finesse_from_losses(cavity), f_spectral) < 0.05


@pytest.mark.parametrize(
    "loss, expected, tol",
    [(2 * math.pi * 1e-6, 1e6, 1e-12), (6.283e-5, 1e5, 1e-4)],
)
def test_finesse_from_losses_simple_budgets(loss, expected, tol):
    cavity = CavitySpec(
        mirrors=(MirrorSpec(loss, 0.0), MirrorSpec(0.0, 0.0), MirrorSpec(0.0, 0.0)),
        round_trip_length=0.1,
    )
    assert rel(finesse_from_losses(cavity), expected) < tol


def test_finesse_zero_loss_rejected():
    cavity = CavitySpec(
        mirrors=(MirrorSpec(0, 0), MirrorSpec(0, 0), MirrorSpec(0, 0)),
        round_trip_length=0.1,
    )
    with pytest.raises(DomainError):
        finesse_from_losses(cavity)


def test_finesse_monotone_in_ring_down():
    fsr = free_spectral_range(make_cavity())
    taus = [1e-6, 3e-6, 9.2e-6, 2e-5, 1e-4]
    finesses = [
        finesse_from_linewidth(fsr, linewidth_from_ring_down(tau)) for tau in taus
    ]
    assert all(a < b for a, b in zip(finesses, finesses[1:]))


# ---------------------------------------------------------------------------
# mode volume

def test_mode_volume_reference():
    vol = mode_volume(REFERENCE_MODE, make_cavity())
    assert rel(vol, 1.3e-9) < 0.05  # 1.3 mm^3


def test_mode_volume_scales_as_cube():
    base = mode_volume(REFERENCE_MODE, make_cavity())
    doubled = mode_volume(
        ModeGeometry(268e-6, 258e-6), make_cavity(length=2 * 0.097)
    )
    assert rel(doubled, 8 * base) < 1e-15


def test_mode_volume_unit_case():
    mode = ModeGeometry(2 / math.sqrt(math.pi), 2 / math.sqrt(math.pi))
    cavity = CavitySpec(
        mirrors=(MirrorSpec(1e-6, 0), MirrorSpec(0, 0), MirrorSpec(0, 0)),
        round_trip_length=1.0,
    )
    assert rel(mode_volume(mode, cavity), 1.0) < 1e-12


def test_mode_volume_multilinear():
    base = mode_volume(REFERENCE_MODE, make_cavity())
    assert rel(
        mode_volume(ModeGeometry(3 * 134e-6, 129e-6), make_cavity()), 3 * base
    ) < 1e-12
    assert rel(
        mode_volume(ModeGeometry(134e-6, 5 * 129e-6), make_cavity()), 5 * base
    ) < 1e-12


# ---------------------------------------------------------------------------
# build-up and circulating power

def test_buildup_reference_value():
    # hand-evaluated impedance form: T_in / (loss/2)^2
    expected = 23e-6 / (33.6e-6 / 2) ** 2
    buildup = power_buildup(make_cavity())
    assert rel(buildup, expected) < 1e-12
    assert rel(buildup, 8.15e4) < 0.01
    # approximate headline number; the ideal formula overestimates the real
    # chain (see implied_mode_matching), asserted against the formula only
    assert rel(circulating_power(make_cavity()), 4.9) < 0.01


def test_circulating_power_zero_input():
    assert circulating_power(make_cavity(power=0.0)) == 0.0


def test_circulating_power_linear_in_input():
    assert rel(
        circulating_power(make_cavity(power=120e-6)),
        2 * circulating_power(make_cavity(power=60e-6)),
    ) < 1e-15


def test_mode_matching_scales_buildup():
    assert rel(
        power_buildup(make_cavity(eta_mm=0.5)), 0.5 * power_buildup(make_cavity())
    ) < 1e-15


def test_implied_mode_matching():
    cavity = make_cavity()
    ideal = circulating_power(cavity)
    assert rel(implied_mode_matching(cavity, ideal), 1.0) < 1e-12
    assert rel(implied_mode_matching(cavity, 0.5 * ideal), 0.5) < 1e-12
    assert implied_mode_matching(cavity, 0.0) == 0.0
