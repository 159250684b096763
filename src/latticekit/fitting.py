"""Deterministic least squares for the decay and cooling models.

A damped Gauss-Newton engine with Marquardt scaling binds the closed-form
models to measured series: (gamma, beta) from N(t) data and the
energy-removal coefficient from T(t) data. The models themselves are
losses.population and evaporation.temperature. A Dataset record holds the
series as float columns that constants.CheckedRecord checks; Dataset adds
only increasing times and the default sigma. Each fit returns a
FitResult record with the weighted residuals (model - data)/sigma at its
optimum, their sum of squares and the degrees of freedom (points minus free
parameters: 3 for the decay, 1 for the cooling law), so the reduced chi^2
and the covariance share one count. Everything is double precision with a
fixed iteration order, so identical inputs give bit-identical fits.

Only the decay fit needs arrays: fit_decay and decay_jacobian import numpy
when they run, and the decay fit runs under numpy's raise policy for
overflow, division by zero and invalid values. Its engine reduces with
numpy's pairwise sums and solves its 3 x 3 system in plain float code. The
cooling-law fit is plain float code whose every sum is a correctly rounded
math.fsum, and it never loads numpy. Neither fit calls BLAS or LAPACK. Both
fits share one error policy: an extreme input raises FloatingPointError
instead of carrying inf or nan into a report.

The 3 x 3 system counts as singular when the determinant of J^T J scaled to
a unit diagonal is at most 1e-10. That determinant is at most 1; it is
computed with an absolute rounding error of a few 1e-16, and the inverse
inherits a relative error of about that error over the determinant. At
1e-10 the inverse still holds about six digits; below it, a parameter the
data leave unidentified can report a finite but meaningless error, such as
gamma 300 +- 1.5e35 with a determinant of 4.4e-16. Identified decay fits
sit far above the bound: 0.020 for tests/fixtures/decay_noisy.csv, and at
least 4.8e-4 over 1920 seeded series of perfbench's fit_batch pool.
"""

import math
from collections import namedtuple
from operator import lt, mul

from .constants import CheckedRecord, _fsum
from .evaporation import temperature
from .losses import population, xi_from_beta


class Dataset(CheckedRecord, namedtuple("Dataset", "t value sigma", defaults=(None,))):
    """Timestamped measurement series, three float columns; sigma defaults
    to 1 (unweighted). len(t) is the row count."""

    __slots__ = ()
    _columns = ("t", "value", "sigma")
    _domains = (("t", ">= 0", "times must be >= 0"),
                ("value", "> 0", "values must be positive"),
                ("sigma", "> 0", "sigmas must be positive"))

    def _checked(self):
        t, value, sigma = self
        if not all(map(lt, t, t[1:])):
            raise ValueError("times must be strictly increasing")
        return t, value, (1.0,) * len(t) if sigma is None else sigma


class FitResult(namedtuple(
    "FitResult",
    "params uncertainties residuals rss dof converged iterations message model",
)):
    """Fitted parameters with 1-sigma uncertainties and diagnostics: the
    weighted residuals (model - data)/sigma at the optimum, their sum of
    squares rss and the degrees of freedom dof (points minus free
    parameters)."""

    __slots__ = ()

    @property
    def chi2_reduced(self):
        return self.rss / self.dof


# ---------------------------------------------------------------------------
# analytic Jacobian of losses.population

def decay_jacobian(t, gamma, xi, n0):
    """Columns dN/d(gamma), dN/d(xi), dN/d(n0).

    Under fit_decay's error policy an extreme gamma or xi raises
    FloatingPointError, and the fit rejects that trial step.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    u = np.exp(-gamma * t)
    denom = 1.0 + xi * (1.0 - u)
    d_gamma = -t * u * n0 * (1.0 + xi) / denom**2
    d_xi = -n0 * u * (1.0 - u) / denom**2
    d_n0 = u / denom
    return np.column_stack([d_gamma, d_xi, d_n0])


# ---------------------------------------------------------------------------
# damped Gauss-Newton engine

_LAMBDA_INIT = 1e-3
_LAMBDA_GROW = 10.0
_LAMBDA_SHRINK = 0.1
_LAMBDA_MAX = 1e12
_RSS_TOL = 1e-12
_GRAD_TOL = 1e-10
_SINGULAR_DET = 1e-10


def _products(m):
    """J^T J, J^T r and r.r as the 4 x 4 table (lists of floats) of the row
    dot products of the C-ordered m = [J^T; r], numpy's pairwise sums."""
    return (m[:, None] * m).sum(axis=-1).tolist()


def _inverse3(a):
    """The inverse of the symmetric positive semi-definite 3 x 3 matrix a, as
    the adjugate over the determinant of a scaled to a unit diagonal; None
    when a is singular, or nearly so: that determinant is at most
    _SINGULAR_DET."""
    if not min(a[0][0], a[1][1], a[2][2]) > 0.0:
        return None
    d = [1.0 / math.sqrt(a[i][i]) for i in range(3)]
    b01, b02, b12 = a[0][1] * d[0] * d[1], a[0][2] * d[0] * d[2], a[1][2] * d[1] * d[2]
    c01, c02, c12 = b02 * b12 - b01, b01 * b12 - b02, b01 * b02 - b12
    c = [[1.0 - b12 * b12, c01, c02], [c01, 1.0 - b02 * b02, c12], [c02, c12, 1.0 - b01 * b01]]
    det = c[0][0] + b01 * c01 + b02 * c02
    if not det > _SINGULAR_DET:
        return None
    return [[c[i][j] / det * d[i] * d[j] for j in range(3)] for i in range(3)]


def _levenberg_marquardt(eval_fn, p, max_iterations=200):
    """Minimize |r(p)|^2 from the float array p, given eval_fn(p) -> the
    4 x n array [J^T; r].

    Marquardt-scaled damping: increased tenfold when a step grows the
    residual, is singular or raises FloatingPointError, reduced tenfold on
    success. Stops when the relative RSS change drops below 1e-12 or the
    gradient infinity-norm below 1e-10. An overflow at the start raises.
    Returns the parameters, [J^T; r] and its table of products at the last
    accepted step.
    """
    m = eval_fn(p)
    table = _products(m)
    lam, converged, iterations, message = _LAMBDA_INIT, False, 0, "maximum iterations reached"
    for iterations in range(1, max_iterations + 1):
        rss, grad = table[3][3], table[3][:3]
        if max(map(abs, grad)) < _GRAD_TOL:
            converged, message = True, "gradient below tolerance"
            break
        while lam <= _LAMBDA_MAX:
            inverse = _inverse3([[v + lam * v if i == j else v for j, v in enumerate(row[:3])]
                                 for i, row in enumerate(table[:3])])
            rss_try = math.inf
            if inverse is not None:
                try:
                    p_try = p - [_fsum(map(mul, row, grad)) for row in inverse]
                    m_try = eval_fn(p_try)
                    table_try = _products(m_try)
                    rss_try = table_try[3][3]
                except FloatingPointError:
                    pass
            if rss_try <= rss:
                rel_change = abs(rss - rss_try) / max(rss, 1e-300)
                p, m, table = p_try, m_try, table_try
                lam = max(lam * _LAMBDA_SHRINK, 1e-15)
                if rel_change < _RSS_TOL:
                    converged, message = True, "relative RSS change below tolerance"
                break
            lam *= _LAMBDA_GROW
        else:
            message = "damping exhausted (singular or stalled step)"
            break
        if converged:
            break
    return p, m, table, converged, iterations, message


# ---------------------------------------------------------------------------
# decay fit

def fit_decay(dataset: Dataset, rho_peak_per_cm3, initial_guess,
              max_iterations=200) -> FitResult:
    """Fit (gamma, beta) plus the amplitude N0 to a population series.

    initial_guess is (gamma, beta_cm3_per_s); the internal parameters are
    (gamma, xi, N0) with xi = beta rho_peak / (4 gamma) and the amplitude
    seeded from the first sample. beta and its uncertainty are recovered
    through the fixed rho_peak convention. The fit runs on float arrays under
    numpy's raise policy for overflow, division by zero and invalid values.
    A J^T J that is singular, or nearly so (see _inverse3), at the optimum
    leaves a parameter unidentified: the fit does not converge, and every
    uncertainty is inf.
    """
    if len(dataset.t) < 4:
        raise ValueError("need at least 4 points to fit the decay model")
    if rho_peak_per_cm3 <= 0:
        raise ValueError("peak density must be positive")
    gamma0, beta0 = initial_guess
    if gamma0 <= 0 or beta0 <= 0:
        raise ValueError("initial guess must be positive")
    xi0 = xi_from_beta(beta0, rho_peak_per_cm3, gamma0)

    import numpy as np

    t, y, s = map(np.asarray, dataset)
    p0 = np.array([gamma0, xi0, y[0]])

    def eval_fn(p):
        gamma, xi, n0 = p
        m = np.empty((4, t.size))
        m[:3], m[3] = decay_jacobian(t, gamma, xi, n0).T, population(t, n0, gamma, xi) - y
        return np.divide(m, s, out=m)

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        p, m, table, converged, iterations, message = _levenberg_marquardt(
            eval_fn, p0, max_iterations
        )
        gamma, xi, n0 = p
        cov = _inverse3([row[:3] for row in table[:3]])
        if cov is None:
            converged, message = False, "J^T J is singular at the optimum"
        # the steps are unbounded, so the optimum can leave the domain gamma > 0, xi >= 0
        if gamma <= 0 or xi < 0:
            converged = False
            message = "the optimum lies outside the model domain gamma > 0, xi >= 0"
        beta = 4.0 * gamma * xi / rho_peak_per_cm3
        # beta = 4 gamma xi / rho: first-order propagation incl. the cross
        # term, whose factors overflow (and raise) even when cov is singular
        xi2, gamma2, cross = xi**2, gamma**2, 2.0 * gamma * xi
        # beta is derived from xi, so three parameters are free
        rss, dof = table[3][3], t.size - 3
        var_gamma = var_xi = var_n0 = var_beta = math.inf
        if cov is not None:
            var_gamma, var_xi, var_n0 = (cov[i][i] * (rss / dof) for i in range(3))
            var_beta = (4.0 / rho_peak_per_cm3) ** 2 * (
                xi2 * var_gamma + gamma2 * var_xi + cross * (cov[0][1] * (rss / dof))
            )
            # plain float code carries inf or nan without a float flag
            if not math.isfinite(var_beta):
                raise ValueError("the beta uncertainty overflows: "
                                 "the fitted gamma or xi is too large")
    names = ("gamma_per_s", "beta_cm3_per_s", "xi", "n0")
    return FitResult(
        params=dict(zip(names, (gamma, beta, xi, n0))),
        uncertainties={name: math.sqrt(max(var, 0.0)) for name, var
                       in zip(names, (var_gamma, var_beta, var_xi, var_n0))},
        residuals=m[3],
        rss=rss,
        dof=dof,
        converged=converged,
        iterations=iterations,
        message=message,
        model="decay",
    )


# ---------------------------------------------------------------------------
# energy-removal coefficient fit

def fit_epsilon(dataset: Dataset, xi, gamma_per_s, t0) -> FitResult:
    """One-dimensional least squares for the energy-removal coefficient.

    (xi, gamma, T0) stay fixed, mirroring the two-stage procedure of fitting
    the decay first. The residual is linear in eps, so the normal equation
    gives the exact optimum. It is clipped to [0, 1/xi), with the upper end
    stepped down until eps xi < 1 in floating point so the cooling law stays
    positive, and a clipped solution is reported as not converged. The
    residuals come from the cooling law itself. Plain float code: each sum
    is a math.fsum, and one that overflows raises FloatingPointError.
    """
    if len(dataset.t) < 3:
        raise ValueError("need at least 3 points to fit")
    if xi <= 0:
        raise ValueError("xi must be positive")
    t, y, s = dataset
    exp, minus_gamma, scale = math.exp, -gamma_per_s, -t0 * xi
    try:
        # d(model)/d(eps), weighted
        a = [scale * (1.0 - exp(minus_gamma * time)) / sigma for time, sigma in zip(t, s)]
    except OverflowError:  # a negative gamma; math.exp raises where np.exp flags
        raise FloatingPointError("overflow encountered in exp") from None
    denom = _fsum(map(mul, a, a))
    # a times the weighted offset from T0
    numer = _fsum([ai * ((value - t0) / sigma) for ai, value, sigma in zip(a, y, s)])
    eps_free = numer / denom if denom > 0 else 0.0
    eps_max = 1.0 / xi
    while eps_max * xi >= 1.0:
        eps_max = math.nextafter(eps_max, 0.0)
    eps = min(max(eps_free, 0.0), eps_max)
    model = temperature(t, t0, eps, xi, gamma_per_s)
    r = tuple([(m - value) / sigma for m, value, sigma in zip(model, y, s)])
    rss = _fsum(map(mul, r, r))

    converged = 0.0 < eps_free < eps_max
    dof = len(t) - 1
    var_eps = (rss / dof) / denom if denom > 0 else math.inf
    return FitResult(
        params={"epsilon": eps},
        uncertainties={"epsilon": math.sqrt(var_eps)},
        residuals=r,
        rss=rss,
        dof=dof,
        converged=converged,
        iterations=1,
        message="converged" if converged else "minimum at domain boundary",
        model="temperature",
    )
