"""Reference solvers used to audit the fast projections.

Each projection problem is posed as a small dense quadratic program and
handed to SciPy's SLSQP solver, which shares no code path with the
sort/threshold/dual-iteration implementations it audits. Only intended for
low dimensions (<= a few dozen variables).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .projections import tv_forward_diff

__all__ = [
    "qp_project_box",
    "qp_project_l2",
    "qp_project_l1",
    "qp_project_tv",
    "qp_project_box_l1",
]

_OPTS = {"maxiter": 800, "ftol": 1e-14}


def qp_project_box(x, lo: float, hi: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    res = minimize(lambda z: 0.5 * np.sum((z - x) ** 2), np.clip(x, lo, hi),
                   jac=lambda z: z - x, bounds=[(lo, hi)] * x.size,
                   method="SLSQP", options=_OPTS)
    return res.x


def qp_project_l2(x, radius: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    nx = np.linalg.norm(x)
    z0 = x if nx <= radius else x * (radius / nx) * 0.999999
    cons = [{"type": "ineq",
             "fun": lambda z: radius ** 2 - float(z @ z),
             "jac": lambda z: -2.0 * z}]
    res = minimize(lambda z: 0.5 * np.sum((z - x) ** 2), z0,
                   jac=lambda z: z - x, constraints=cons,
                   method="SLSQP", options=_OPTS)
    return res.x


def _split_objective(x):
    n = x.size

    def f(s):
        d = s[:n] - s[n:] - x
        return 0.5 * float(d @ d)

    def jac(s):
        d = s[:n] - s[n:] - x
        return np.concatenate([d, -d])

    return f, jac


def qp_project_l1(x, radius: float) -> np.ndarray:
    """Split formulation z = u - v with u, v >= 0 and sum(u + v) <= radius."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    a1 = np.abs(x).sum()
    scale = 1.0 if a1 <= radius else (radius / a1) * 0.999
    s0 = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)]) * scale
    f, jac = _split_objective(x)
    cons = [{"type": "ineq",
             "fun": lambda s: radius - s.sum(),
             "jac": lambda s: -np.ones_like(s)}]
    res = minimize(f, s0, jac=jac, bounds=[(0.0, None)] * (2 * n),
                   constraints=cons, method="SLSQP", options=_OPTS)
    return res.x[:n] - res.x[n:]


def qp_project_box_l1(x, lo: float, hi: float, radius: float) -> np.ndarray:
    """Nearest point in Box(lo, hi) intersected with the l1 ball."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    z0 = np.clip(x, lo, hi)
    a1 = np.abs(z0).sum()
    if a1 > radius:
        z0 = z0 * (radius / a1) * 0.999
    s0 = np.concatenate([np.maximum(z0, 0.0), np.maximum(-z0, 0.0)])
    f, jac = _split_objective(x)
    eye = np.eye(n)
    box_jac = np.hstack([eye, -eye])
    cons = [
        {"type": "ineq", "fun": lambda s: radius - s.sum(),
         "jac": lambda s: -np.ones_like(s)},
        {"type": "ineq", "fun": lambda s: (s[:n] - s[n:]) - lo,
         "jac": lambda s: box_jac},
        {"type": "ineq", "fun": lambda s: hi - (s[:n] - s[n:]),
         "jac": lambda s: -box_jac},
    ]
    res = minimize(f, s0, jac=jac, bounds=[(0.0, None)] * (2 * n),
                   constraints=cons, method="SLSQP", options=_OPTS)
    return res.x[:n] - res.x[n:]


def _dense_diff_matrix(shape) -> np.ndarray:
    """Dense matrix of the circular forward-difference operator, built by
    applying it to the identity basis (2*rows*cols x rows*cols)."""
    rows, cols = shape
    n = rows * cols
    d = np.empty((2 * n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        d[:, j] = tv_forward_diff(e.reshape(rows, cols)).ravel()
    return d


def qp_project_tv(x, radius: float, lo: float | None = None,
                  hi: float | None = None) -> np.ndarray:
    """Auxiliary-variable formulation: minimize over (z, s) with
    s >= |Dz| elementwise and sum(s) <= radius, and lo <= z <= hi when
    bounds are given (None leaves that side open)."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = x.shape
    n = rows * cols
    d = _dense_diff_matrix((rows, cols))
    m = d.shape[0]
    xf = x.ravel()

    def f(p):
        r = p[:n] - xf
        return 0.5 * float(r @ r)

    def jac(p):
        g = np.zeros(n + m)
        g[:n] = p[:n] - xf
        return g

    jac_pos = np.hstack([-d, np.eye(m)])
    jac_neg = np.hstack([d, np.eye(m)])
    sum_jac = np.concatenate([np.zeros(n), -np.ones(m)])
    cons = [
        {"type": "ineq", "fun": lambda p: p[n:] - d @ p[:n], "jac": lambda p: jac_pos},
        {"type": "ineq", "fun": lambda p: p[n:] + d @ p[:n], "jac": lambda p: jac_neg},
        {"type": "ineq", "fun": lambda p: radius - p[n:].sum(), "jac": lambda p: sum_jac},
    ]
    p0 = np.concatenate([np.full(n, np.clip(xf.mean(), lo, hi)), np.zeros(m)])
    bounds = [(lo, hi)] * n + [(0.0, None)] * m
    res = minimize(f, p0, jac=jac, bounds=bounds, constraints=cons,
                   method="SLSQP", options=_OPTS)
    return res.x[:n].reshape(rows, cols)
