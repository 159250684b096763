"""The closed forms over a time grid: one call on a list or tuple of times
gives, bit for bit, the floats of one scalar call per time, and those are
the floats of the formula written out in its original left-to-right order
(the factors hoisted out of the grid loop change no bit)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticekit.cli import _linspace
from latticekit.evaporation import temperature
from latticekit.losses import population


def population_inline(t, n0, gamma, xi):
    decay = math.exp(-gamma * t)
    return n0 * decay / (1.0 + xi * (1.0 - decay))


def temperature_inline(t, t0, eps, xi, gamma):
    return t0 * (1.0 - eps * xi * (1.0 - math.exp(-gamma * t)))


def combined_inline(t, t0, eps, xi, gamma, gamma_tot):
    try:
        growth = math.exp(gamma_tot * t)
    except OverflowError:
        growth = math.inf
    rate = gamma_tot + gamma
    return t0 * growth * (1.0 - eps * xi * (gamma / rate) * (1.0 - math.exp(-rate * t)))


def bits(values):
    # float.hex tells -0.0 from 0.0 and spells nan and inf
    return [value.hex() for value in values]


SUBNORMALS = (5e-324, 1.5e-323, 2.225073858507201e-308)
times = st.one_of(
    st.sampled_from((0.0, *SUBNORMALS)),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, allow_nan=False),
)
grids = st.lists(times, max_size=40).flatmap(
    lambda grid: st.sampled_from((grid, tuple(grid)))
)
positive = st.floats(min_value=1e-6, max_value=1e6)
strength = st.floats(min_value=0.0, max_value=10.0)


def law_params(draw):
    """(t0, eps, xi, gamma) inside the cooling law's domain eps xi < 1."""
    xi = draw(strength)
    eps = draw(st.floats(min_value=-2.0, max_value=0.99)) / max(xi, 1.0)
    return draw(positive), eps, xi, draw(positive)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(("population", "temperature", "combined")))
    if kind == "population":
        args = (draw(positive), draw(positive), draw(strength))
        return population, population_inline, args
    if kind == "temperature":
        return temperature, temperature_inline, law_params(draw)
    # up to 1e300, exp(gamma_tot t) overflows at a modest t
    gamma_tot = draw(st.one_of(st.just(0.0), strength, st.floats(0.0, 1e300)))
    return temperature, combined_inline, (*law_params(draw), gamma_tot)


@settings(max_examples=400)
@given(cases(), grids)
def test_grid_call_is_the_scalar_calls_bit_for_bit(case, grid):
    closed_form, inline, args = case
    values = closed_form(grid, *args)
    assert type(values) is list
    assert all(type(value) is float for value in values)
    assert bits(values) == bits([closed_form(t, *args) for t in grid])
    # the pure law parts from temperature only at t = inf, where exp(0 * inf)
    # is nan; the combined case at gamma_tot = 0 checks that point
    kept = [t for t in grid if inline is not temperature_inline or math.isfinite(t)]
    assert bits(closed_form(kept, *args)) == bits([inline(t, *args) for t in kept])


# the simulate defaults; at these heating rates eps xi (g/(k+g)) and
# eps xi g/(k+g) round apart, so a reordered product shows in the bits
PAPER_LAW = (123.0, 0.057, 2.80, 0.6)
PAPER_CASES = [
    pytest.param(population, population_inline, (4e6, 0.6, 2.8125), id="population"),
    pytest.param(temperature, temperature_inline, PAPER_LAW, id="temperature"),
    *(pytest.param(temperature, combined_inline, (*PAPER_LAW, k),
                   id=f"combined-{k}") for k in (0.0, 0.01, 0.02, 0.041, 0.2, 1.0)),
]


@pytest.mark.parametrize(("closed_form", "inline", "args"), PAPER_CASES)
def test_simulate_grid_keeps_the_formula_order_bit_for_bit(closed_form, inline, args):
    grid = _linspace(0.0, 4.0, 2001)
    assert bits(closed_form(grid, *args)) == bits([inline(t, *args) for t in grid])


@pytest.mark.parametrize("grid", [[], ()])
def test_empty_grid_gives_an_empty_list(grid):
    assert population(grid, 4e6, 0.6, 2.8) == []
    assert temperature(grid, 123e-6, 0.057, 2.80, 0.6) == []
    assert temperature(grid, 123e-6, 0.057, 2.80, 0.6, 0.041) == []


def test_combined_overflow_on_a_grid_is_inf():
    values = temperature([0.0, 1.0, 4.0], 123e-6, 0.057, 2.80, 0.6, 1e300)
    assert values[0] == 123e-6
    assert values[1:] == [math.inf, math.inf]


CLOSED_FORMS = [
    pytest.param(lambda grid: population(grid, 4e6, 0.6, 2.8), id="population"),
    pytest.param(lambda grid: temperature(grid, 123e-6, 0.057, 2.80, 0.6),
                 id="temperature"),
    pytest.param(lambda grid: temperature(grid, 123e-6, 0.057, 2.80, 0.6, 0.041),
                 id="combined"),
]


@pytest.mark.parametrize("evaluate", CLOSED_FORMS)
@pytest.mark.parametrize("grid", [
    [-1.0], [0.0, 1.0, -5e-324], (0.0, -1.0, 2.0),
    # min skips every negative after a leading nan
    [math.nan, -1.0], (math.nan, 1.0, -math.inf),
])
def test_negative_time_anywhere_in_a_grid_raises(evaluate, grid):
    with pytest.raises(ValueError, match=r"^time must be >= 0$"):
        evaluate(grid)


@pytest.mark.parametrize("evaluate", CLOSED_FORMS)
def test_nan_time_in_a_grid_is_evaluated_like_a_scalar(evaluate):
    values = evaluate([math.nan, 1.0])
    assert math.isnan(values[0])
    assert values[1] == evaluate(1.0)
