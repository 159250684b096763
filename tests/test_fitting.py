import math

import numpy as np
import pytest
from oracles import fit_epsilon_numpy

from latticekit.evaporation import temperature
from latticekit.fitting import (
    Dataset,
    _inverse3,
    _products,
    decay_jacobian,
    fit_decay,
    fit_epsilon,
)
from latticekit.losses import population

GAMMA_T, BETA_T, RHO_T, N0_T = 0.6, 7.5e-12, 9e11, 4e6
XI_T = BETA_T * RHO_T / (4 * GAMMA_T)  # 2.8125
GUESS = (0.4, 5e-12)


def rel(a, b):
    return abs(a - b) / abs(b)


def decay_dataset(noise=0.0, seed=0, n_points=21, weighted=False):
    t = np.linspace(0, 4, n_points)
    truth = population(t, N0_T, GAMMA_T, XI_T)
    if noise:
        rng = np.random.default_rng(seed)
        values = truth * (1 + noise * rng.standard_normal(t.size))
    else:
        values = truth.copy()
    sigma = noise * truth if (noise and weighted) else None
    return Dataset(t=t, value=values, sigma=sigma)


# ---------------------------------------------------------------------------
# containers

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(t=np.array([0.0, 0.0]), value=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Dataset(t=np.array([0.0, 1.0]), value=np.array([1.0, -1.0]))
    for t, value, sigma in [
        ([0.0, 1.0], [1.0, np.nan], None),
        ([0.0, 1.0], [1.0, np.inf], None),
        ([0.0, np.inf], [1.0, 1.0], None),
        ([0.0, 1.0], [1.0, 1.0], [1.0, np.nan]),
        ([-1.0, 1.0], [1.0, 1.0], None),
    ]:
        with pytest.raises(ValueError):
            Dataset(t=np.array(t), value=np.array(value),
                    sigma=None if sigma is None else np.array(sigma))
    ds = Dataset(t=np.array([0.0, 1.0]), value=np.array([2.0, 1.0]))
    assert ds.sigma == (1.0, 1.0)


def test_dataset_make_and_replace_convert_and_check():
    # the namedtuple API builds through __new__: tuples of floats, checked
    made = Dataset._make([[0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    assert len(made) == 3  # the three fields; len(t) is the row count
    assert all(type(column) is tuple and all(type(v) is float for v in column)
               for column in made)
    replaced = made._replace(value=[3.0, 2.0, 1.0])
    assert type(replaced.value) is tuple
    assert replaced.value == (3.0, 2.0, 1.0)
    assert replaced.t is made.t and replaced.sigma is made.sigma
    for value in ([3.0, 0.0, 1.0], [3.0, -2.0, 1.0]):
        with pytest.raises(ValueError, match="values must be positive"):
            made._replace(value=value)
    with pytest.raises(ValueError, match="equal length"):
        made._replace(sigma=[1.0, 1.0])


# ---------------------------------------------------------------------------
# decay fit

def test_noiseless_recovery_exact():
    result = fit_decay(decay_dataset(), RHO_T, GUESS)
    assert result.converged
    assert rel(result.params["gamma_per_s"], GAMMA_T) < 1e-6
    assert rel(result.params["beta_cm3_per_s"], BETA_T) < 1e-6
    assert rel(result.params["n0"], N0_T) < 1e-6


def test_needs_four_points():
    t = np.linspace(0, 1, 3)
    ds = Dataset(t=t, value=population(t, N0_T, GAMMA_T, XI_T))
    with pytest.raises(ValueError):
        fit_decay(ds, RHO_T, GUESS)


def test_positive_guess_required():
    with pytest.raises(ValueError):
        fit_decay(decay_dataset(), RHO_T, (0.0, 1e-12))


def test_jacobian_against_finite_differences():
    t = np.linspace(0.05, 4, 25)
    p = np.array([GAMMA_T, XI_T, N0_T])
    analytic = decay_jacobian(t, *p)
    for j in range(3):
        h = 1e-6 * abs(p[j])
        plus, minus = p.copy(), p.copy()
        plus[j] += h
        minus[j] -= h
        # columns are ordered (gamma, xi, n0); population takes (n0, gamma, xi)
        numeric = (population(t, plus[2], plus[0], plus[1])
                   - population(t, minus[2], minus[0], minus[1])) / (2 * h)
        scale = np.max(np.abs(analytic[:, j]))
        assert np.max(np.abs(analytic[:, j] - numeric)) / scale < 1e-6


def test_inverse3_agrees_with_numpy_and_flags_a_singular_matrix():
    rng = np.random.default_rng(5)
    for _ in range(50):
        # columns of scales 10^-6 .. 10^6, as the decay Jacobian's differ
        jac = rng.standard_normal((6, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, 3)
        a = jac.T @ jac
        # compare the inverses of a scaled to a unit diagonal
        scale = np.outer(np.sqrt(np.diag(a)), np.sqrt(np.diag(a)))
        ours = np.array(_inverse3(a.tolist())) * scale
        assert np.allclose(ours, np.linalg.inv(a) * scale, rtol=1e-12, atol=1e-12)
    assert _inverse3([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]) is None
    assert _inverse3([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]) is None
    # nearly singular: the unit-diagonal part has determinant 1 - b^2, and at
    # most 1e-10 of it counts as singular, whatever the scales
    for scales in ((1.0, 1.0, 1.0), (1e-6, 1.0, 1e6)):
        for det, invertible in ((2e-10, True), (5e-11, False), (4.4e-16, False)):
            b = math.sqrt(1.0 - det)
            unit = [[1.0, b, 0.0], [b, 1.0, 0.0], [0.0, 0.0, 1.0]]
            a = [[unit[i][j] * scales[i] * scales[j] for j in range(3)] for i in range(3)]
            assert (_inverse3(a) is not None) is invertible, (scales, det)


def test_decay_fit_with_a_singular_normal_matrix_does_not_converge():
    # exp(-gamma t) underflows past t = 0, so the gamma and xi columns of J are 0
    result = fit_decay(decay_dataset(), RHO_T, (1e4, 5e-12))
    assert not result.converged
    assert result.message == "J^T J is singular at the optimum"
    assert all(map(math.isinf, result.uncertainties.values()))


def test_monte_carlo_median_gamma():
    recovered = []
    for seed in range(100):
        ds = decay_dataset(noise=0.03, seed=seed, n_points=20, weighted=True)
        result = fit_decay(ds, RHO_T, GUESS)
        recovered.append(result.params["gamma_per_s"])
    assert rel(float(np.median(recovered)), GAMMA_T) < 0.05


def test_basin_robustness():
    ds = decay_dataset(noise=0.03, seed=5, weighted=True)
    results = [
        fit_decay(ds, RHO_T, (GAMMA_T * f, BETA_T * f)) for f in (1 / 3, 1.0, 3.0)
    ]
    # a gamma-only guess far above the truth takes trial steps whose model
    # overflows; the fit rejects them as it rejects a step that grows the rss
    results += [fit_decay(ds, RHO_T, (GAMMA_T * f, BETA_T)) for f in (10, 30, 100)]
    gammas = [r.params["gamma_per_s"] for r in results]
    assert all(r.converged for r in results)
    assert max(gammas) - min(gammas) < 1e-8 * GAMMA_T


def test_fit_determinism_bit_identical():
    a = fit_decay(decay_dataset(noise=0.03, seed=9), RHO_T, GUESS)
    b = fit_decay(decay_dataset(noise=0.03, seed=9), RHO_T, GUESS)
    assert a.params == b.params
    assert a.rss == b.rss
    assert a.iterations == b.iterations


def test_scale_equivariance():
    ds = decay_dataset(noise=0.02, seed=3)
    scaled = Dataset(t=ds.t, value=7.3 * np.asarray(ds.value))
    a = fit_decay(ds, RHO_T, GUESS)
    b = fit_decay(scaled, RHO_T, GUESS)
    assert rel(b.params["gamma_per_s"], a.params["gamma_per_s"]) < 1e-9
    assert rel(b.params["xi"], a.params["xi"]) < 1e-9
    assert rel(b.params["n0"], 7.3 * a.params["n0"]) < 1e-9


def test_uncertainties_positive_under_noise():
    result = fit_decay(decay_dataset(noise=0.03, seed=1, weighted=True), RHO_T, GUESS)
    assert result.uncertainties["gamma_per_s"] > 0
    assert result.uncertainties["beta_cm3_per_s"] > 0


# ---------------------------------------------------------------------------
# energy-removal coefficient fit

def cooling_dataset(eps, xi, gamma, t0_uk, noise=0.0, seed=0, n_points=17):
    t = np.linspace(0, 4, n_points)
    truth = temperature(t, t0_uk, eps, xi, gamma)
    if noise:
        rng = np.random.default_rng(seed)
        truth = truth * (1 + noise * rng.standard_normal(t.size))
    return Dataset(t=t, value=truth)


def test_epsilon_recovery_trace_a():
    ds = cooling_dataset(0.057, 2.80, 0.6, 123.0)
    result = fit_epsilon(ds, 2.80, 0.6, 123.0)
    assert result.converged
    assert rel(result.params["epsilon"], 0.057) < 1e-8


def test_epsilon_recovery_trace_b():
    ds = cooling_dataset(0.12, 3.72, 0.76, 38.0)
    result = fit_epsilon(ds, 3.72, 0.76, 38.0)
    assert rel(result.params["epsilon"], 0.12) < 1e-8


def test_epsilon_boundary_flagged():
    # flat data drives the optimum to the lower domain edge
    t = np.linspace(0, 4, 9)
    ds = Dataset(t=t, value=np.full(t.size, 123.0))
    result = fit_epsilon(ds, 2.80, 0.6, 123.0)
    assert not result.converged
    assert "boundary" in result.message
    assert result.params["epsilon"] == 0.0
    # data colder than the eps*xi -> 1 limit T0 exp(-gamma t) pins it to the
    # upper edge, where the cooling law must still be positive; at
    # xi = 2.8125, (1/xi) * xi rounds to exactly 1
    cold = Dataset(t=t, value=0.9 * 123.0 * np.exp(-0.6 * t))
    result = fit_epsilon(cold, 2.8125, 0.6, 123.0)
    assert not result.converged
    assert result.params["epsilon"] * 2.8125 < 1.0
    assert np.all(np.isfinite(result.residuals))


def test_epsilon_needs_three_points():
    t = np.linspace(0, 1, 2)
    ds = Dataset(t=t, value=np.full(t.size, 123.0))
    with pytest.raises(ValueError):
        fit_epsilon(ds, 2.80, 0.6, 123.0)


# ---------------------------------------------------------------------------
# residual bookkeeping

def test_residuals_zero_for_noiseless_self_fit():
    result = fit_decay(decay_dataset(), RHO_T, GUESS)
    assert np.max(np.abs(result.residuals)) < 1e-7
    assert result.rss == float(result.residuals @ result.residuals)


def test_halving_sigma_quadruples_chi2():
    ds = decay_dataset(noise=0.03, seed=2)
    halved = Dataset(t=ds.t, value=ds.value, sigma=np.full(len(ds.t), 0.5))
    r1 = fit_decay(ds, RHO_T, GUESS)
    r2 = fit_decay(halved, RHO_T, GUESS)
    assert rel(r2.rss, 4 * r1.rss) < 1e-12
    assert rel(r2.chi2_reduced, 4 * r1.chi2_reduced) < 1e-12


def test_reduced_chi2_near_one_at_matched_noise():
    values = []
    for seed in range(100):
        ds = decay_dataset(noise=0.03, seed=seed, weighted=True)
        values.append(fit_decay(ds, RHO_T, GUESS).chi2_reduced)
    mean = float(np.mean(values))
    assert 0.7 < mean < 1.3


@pytest.mark.parametrize(("kind", "n_free"), [("decay", 3), ("temperature", 1)])
def test_fit_carries_its_residuals_and_dof(kind, n_free):
    # one residual vector per fit: rss, dof and chi2_reduced all derive from it
    if kind == "decay":
        ds = decay_dataset(noise=0.03, seed=4, n_points=20, weighted=True)
        result = fit_decay(ds, RHO_T, GUESS)
        p = result.params
        # the decay fit evaluates its model on float arrays
        model = population(np.asarray(ds.t), p["n0"], p["gamma_per_s"], p["xi"])
    else:
        ds = cooling_dataset(0.057, 2.80, 0.6, 123.0, noise=0.005, seed=4)
        result = fit_epsilon(ds, 2.80, 0.6, 123.0)
        model = temperature(ds.t, 123.0, result.params["epsilon"], 2.80, 0.6)
    assert np.array_equal(result.residuals, (np.asarray(model) - ds.value) / ds.sigma)
    # the cooling-law fit sums with math.fsum, the decay fit with the engine's
    # table of products, numpy's pairwise sums and no BLAS
    r = result.residuals
    assert result.rss == (math.fsum(x * x for x in r) if kind == "temperature"
                          else _products(np.asarray([r]))[0][0])
    assert result.dof == len(ds.t) - n_free
    assert result.chi2_reduced == result.rss / result.dof


# ---------------------------------------------------------------------------
# the cooling-law fit against its numpy oracle

def _noisy_cooling(n_points, weighted, seed):
    """A seeded cooling series with 0.5% multiplicative noise, and the sigma
    column of that noise when weighted."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 6.0, n_points))
    truth = np.asarray(temperature(t, 123.0, 0.057, 2.80, 0.6))
    values = truth * (1 + 0.005 * rng.standard_normal(n_points))
    return Dataset(t, values, 0.005 * truth if weighted else None)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "sigma"])
@pytest.mark.parametrize("n_points", [3, 4, 7, 20, 200, 2000])
def test_epsilon_fit_agrees_with_its_numpy_oracle(n_points, weighted):
    for seed in range(5):
        ds = _noisy_cooling(n_points, weighted, seed)
        pure = fit_epsilon(ds, 2.80, 0.6, 123.0)
        oracle = fit_epsilon_numpy(ds, 2.80, 0.6, 123.0)
        for field in ("params", "uncertainties"):
            a, b = getattr(pure, field)["epsilon"], getattr(oracle, field)["epsilon"]
            assert abs(a - b) <= 1e-12 * abs(b), (field, seed)
        assert abs(pure.rss - oracle.rss) <= 1e-12 * oracle.rss
        # the residuals to 1e-12 of the largest one: a residual near 0 is a
        # difference of nearly equal numbers, and moves by an ulp of them
        gap = np.max(np.abs(np.subtract(pure.residuals, oracle.residuals)))
        assert gap <= 1e-12 * np.max(np.abs(oracle.residuals))
        assert (pure.dof, pure.converged, pure.message) == (
            oracle.dof, oracle.converged, oracle.message)


@pytest.mark.parametrize(("t0", "sigma"), [
    (1e160, None),  # the squared derivative column overflows
    (123.0, 1e-300),  # the weighted offsets from T0 overflow
    (1e300, None),  # T0 xi itself overflows
], ids=["T0-1e160", "sigma-1e-300", "T0-1e300"])
def test_epsilon_fit_raises_where_its_numpy_oracle_raises(t0, sigma):
    t = [0.0, 1.0, 2.0]
    ds = Dataset(t, [123.0, 120.0, 117.0], None if sigma is None else [sigma] * 3)
    with pytest.raises(FloatingPointError):
        fit_epsilon_numpy(ds, 2.8125, 0.6, t0)
    with np.errstate(all="ignore"):  # the policy is the fit's own
        with pytest.raises(FloatingPointError):
            fit_epsilon(ds, 2.8125, 0.6, t0)
