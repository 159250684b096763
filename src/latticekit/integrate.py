"""Fixed-step fourth-order Runge-Kutta integration, kept as a test oracle.

The product path uses the closed forms; the tests check them against this
independent route (losses.integrate_eq1, heating.combined_temperature_ode).
Deterministic by construction: the step size is tied to the total span
(span / 4096 by default), so repeated runs give bit-identical trajectories.
"""

import math

from .errors import DomainError

DEFAULT_SUBSTEPS = 4096


def rk4_path(f, y0: float, t_grid, n_substeps: int = DEFAULT_SUBSTEPS):
    """Integrate dy/dt = f(t, y) over a sorted grid starting at its first point.

    Uniform substeps of size span / n_substeps are taken inside each output
    interval (rounded up so the grid points are hit exactly). Returns y at
    every grid point as an ndarray.
    """
    import numpy as np

    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    out = np.empty(t.size, dtype=float)
    out[0] = y = float(y0)
    span = t[-1] - t[0]
    if t.size == 1:
        return out

    h_target = span / n_substeps
    if h_target <= 0 or not math.isfinite(h_target):
        raise DomainError("step size underflow in RK4 integration")

    for i in range(t.size - 1):
        t0, t1 = t[i], t[i + 1]
        steps = max(1, int(math.ceil((t1 - t0) / h_target - 1e-12)))
        h = (t1 - t0) / steps
        if t0 + h == t0:
            raise DomainError("step size underflow in RK4 integration")
        ti = t0
        for _ in range(steps):
            k1 = f(ti, y)
            k2 = f(ti + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(ti + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(ti + h, y + h * k3)
            y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ti += h
        out[i + 1] = y
    return out
