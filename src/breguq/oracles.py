"""Reference projection used to audit the fast projections.

`qp_project` poses the projection onto any constraint stack as one small
dense quadratic program and hands it to SciPy's SLSQP solver, which shares
no code path with the sort/threshold/dual-iteration implementations it
audits: it reads only the set types and the TV difference operator. Only
intended for low dimensions (<= a few dozen variables).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from .projections import Box, L1Ball, L2Ball, TVBall, tv_forward_diff

__all__ = ["qp_project"]

_OPTS = {"maxiter": 800, "ftol": 1e-14}


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


def qp_project(x, stack) -> np.ndarray:
    """Nearest point to `x` in the intersection of `stack`'s sets, an array
    of `x`'s shape (a stack with a TV ball needs a 2-D `x`).

    Minimizes 0.5*||z - x||^2 over p = (z, s_1, ..., s_k). The stack's
    boxes merge into bounds on z. Each l1 or TV ball {||K_i z||_1 <= r_i}
    adds an auxiliary block with s_i >= |K_i z| elementwise and
    sum(s_i) <= r_i, where K_i is I or the dense circular difference
    matrix; each l2 ball adds r^2 - ||z||^2 >= 0. The start is the box
    clamp of x with every s_i = |K_i z|.
    """
    x = np.asarray(x, dtype=np.float64)
    v = x.ravel()
    n = v.size
    lo = max((s.lo for s in stack.sets if isinstance(s, Box)), default=-math.inf)
    hi = min((s.hi for s in stack.sets if isinstance(s, Box)), default=math.inf)
    blocks = [(np.eye(n) if isinstance(s, L1Ball) else _dense_diff_matrix(x.shape),
               s.radius) for s in stack.sets if isinstance(s, (L1Ball, TVBall))]
    l2_radii = [s.radius for s in stack.sets if isinstance(s, L2Ball)]

    z0 = np.clip(v, lo, hi)
    size = n + sum(k.shape[0] for k, _ in blocks)
    rows, consts, start, at = [], [], [z0], n
    for k, radius in blocks:
        m = k.shape[0]
        aux = np.zeros((m, size))
        aux[:, at:at + m] = np.eye(m)
        lin = np.zeros((m, size))
        lin[:, :n] = k
        total = np.zeros((1, size))
        total[0, at:at + m] = -1.0
        rows += [aux - lin, aux + lin, total]  # s_i - K_i z, s_i + K_i z, r_i - sum(s_i)
        consts += [np.zeros(2 * m), [radius]]
        start.append(np.abs(k @ z0))
        at += m
    cons = [{"type": "ineq", "fun": lambda p, r=r: r * r - p[:n] @ p[:n],
             "jac": lambda p: np.concatenate([-2.0 * p[:n], np.zeros(size - n)])}
            for r in l2_radii]
    if rows:
        a, b = np.vstack(rows), np.concatenate(consts)
        cons.append({"type": "ineq", "fun": lambda p: a @ p + b, "jac": lambda p: a})

    def jac(p):
        g = np.zeros(size)
        g[:n] = p[:n] - v
        return g

    res = minimize(lambda p: 0.5 * float((p[:n] - v) @ (p[:n] - v)), np.concatenate(start),
                   jac=jac, bounds=[(lo, hi)] * n + [(0.0, None)] * (size - n),
                   constraints=cons, method="SLSQP", options=_OPTS)
    return res.x[:n].reshape(x.shape)
