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

Only the decay fit needs arrays: fit_decay, decay_jacobian and the engine
import numpy when they run, and the decay fit runs under numpy's raise
policy for overflow, division by zero and invalid values. The cooling-law
fit is plain float code whose every sum is a correctly rounded math.fsum,
so its bits depend on no BLAS kernel, and it never loads numpy. Both fits
share one error policy: an extreme input raises FloatingPointError instead
of carrying inf or nan into a report.
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


def _levenberg_marquardt(eval_fn, p0, max_iterations=200):
    """Minimize |r(p)|^2 given eval_fn(p) -> (r, J).

    Marquardt-scaled damping: increased tenfold when a step grows the
    residual or raises FloatingPointError, reduced tenfold on success. Stops
    when the relative RSS change drops below 1e-12 or the gradient
    infinity-norm below 1e-10. An overflow at p0 or in J^T J raises.
    """
    import numpy as np

    p = np.asarray(p0, dtype=float).copy()
    r, jac = eval_fn(p)
    rss = float(r @ r)
    lam = _LAMBDA_INIT
    message = "maximum iterations reached"
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jtj = jac.T @ jac
        grad = jac.T @ r
        if np.max(np.abs(grad)) < _GRAD_TOL:
            converged = True
            message = "gradient below tolerance"
            break
        stepped = False
        while lam <= _LAMBDA_MAX:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -grad)
                # LAPACK returns inf or nan without setting a float flag
                if not np.all(np.isfinite(delta)):
                    raise np.linalg.LinAlgError
                p_try = p + delta
                r_try, jac_try = eval_fn(p_try)
                rss_try = float(r_try @ r_try)
            except (np.linalg.LinAlgError, FloatingPointError):
                rss_try = math.inf
            if rss_try <= rss:
                rel_change = abs(rss - rss_try) / max(rss, 1e-300)
                p, r, jac, rss = p_try, r_try, jac_try, rss_try
                lam = max(lam * _LAMBDA_SHRINK, 1e-15)
                stepped = True
                if rel_change < _RSS_TOL:
                    converged = True
                    message = "relative RSS change below tolerance"
                break
            lam *= _LAMBDA_GROW
        if not stepped:
            message = "damping exhausted (singular or stalled step)"
            break
        if converged:
            break

    return p, r, jac, rss, converged, iterations, message


def _covariance(jac, chi2_reduced):
    """Linearized covariance at the optimum, scaled by the reduced chi^2."""
    import numpy as np

    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    return cov * chi2_reduced


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
        r = (population(t, n0, gamma, xi) - y) / s
        jac = decay_jacobian(t, gamma, xi, n0) / s[:, None]
        return r, jac

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        p, r, jac, rss, converged, iterations, message = _levenberg_marquardt(
            eval_fn, p0, max_iterations
        )
        gamma, xi, n0 = p
        # the steps are unbounded, so the optimum can leave the domain gamma > 0, xi >= 0
        if gamma <= 0 or xi < 0:
            converged = False
            message = "the optimum lies outside the model domain gamma > 0, xi >= 0"
        beta = 4.0 * gamma * xi / rho_peak_per_cm3

        # beta is derived from xi, so three parameters are free
        dof = t.size - 3
        cov = _covariance(jac, rss / dof)
        var_gamma, var_xi, var_n0 = np.diag(cov)
        cov_gx = cov[0, 1]
        # beta = 4 gamma xi / rho: first-order propagation incl. the cross term
        var_beta = (4.0 / rho_peak_per_cm3) ** 2 * (
            xi**2 * var_gamma + gamma**2 * var_xi + 2.0 * gamma * xi * cov_gx
        )
    # an inverted covariance can hold inf or nan without a float flag
    if not math.isfinite(var_beta):
        raise ValueError(
            "the beta uncertainty overflows: the fitted gamma or xi is too large"
        )
    return FitResult(
        params={
            "gamma_per_s": gamma,
            "beta_cm3_per_s": beta,
            "xi": xi,
            "n0": n0,
        },
        uncertainties={
            "gamma_per_s": math.sqrt(max(var_gamma, 0.0)),
            "beta_cm3_per_s": math.sqrt(max(var_beta, 0.0)),
            "xi": math.sqrt(max(var_xi, 0.0)),
            "n0": math.sqrt(max(var_n0, 0.0)),
        },
        residuals=r,
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
