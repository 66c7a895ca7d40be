"""Euclidean projections onto handcrafted convex sets and intersections.

Supported sets: boxes, l2 balls, l1 balls (sort-and-threshold), and
anisotropic total-variation balls with circular boundary (accelerated
projected/proximal gradient on the dual). A box intersected with an l1 ball
is projected exactly, in closed form: a soft threshold followed by the box
clamp, with the threshold found by a sorted-breakpoint search. Every other
intersection (one holding an l2 or TV ball, or more than two sets) runs
Dykstra's algorithm, which converges to the Euclidean-nearest point of the
intersection and reports when its sweep cap stops it first.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .linops import as_grid

__all__ = [
    "Box",
    "L2Ball",
    "L1Ball",
    "TVBall",
    "ConstraintStack",
    "project_box",
    "project_l2_ball",
    "project_l1_ball",
    "project_tv_ball",
    "project_constraint",
    "project_intersection",
    "constraint_violation",
    "is_feasible",
    "total_variation",
    "tv_forward_diff",
    "tv_diff_adjoint",
    "TvResult",
    "IntersectionResult",
    "FeasibilityReport",
    "TV_DEFAULT_TOL",
    "TV_DEFAULT_MAX_ITERS",
]

TV_DEFAULT_TOL = 1e-6
TV_DEFAULT_MAX_ITERS = 500


@dataclass(frozen=True)
class Box:
    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("box bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"box lower bound {self.lo} exceeds upper bound {self.hi}")


@dataclass(frozen=True)
class L2Ball:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"l2 ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class L1Ball:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"l1 ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class TVBall:
    """Anisotropic total-variation ball; radius 0 forces constant grids."""

    radius: float

    def __post_init__(self):
        if not (self.radius >= 0 and np.isfinite(self.radius)):
            raise ValueError(f"tv ball radius must be non-negative, got {self.radius}")


Constraint = Box | L2Ball | L1Ball | TVBall


@dataclass(frozen=True)
class ConstraintStack:
    """Ordered constraint sets plus solver knobs for their intersection."""

    sets: tuple
    dykstra_max_iters: int = 200
    dykstra_tol: float = 1e-8
    tv_max_iters: int = TV_DEFAULT_MAX_ITERS
    tv_tol: float = TV_DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValueError("constraint stack must contain at least one set")
        if self.dykstra_tol <= 0 or self.tv_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.dykstra_max_iters < 1 or self.tv_max_iters < 1:
            raise ValueError("iteration caps must be positive")


@dataclass(frozen=True)
class TvResult:
    x: np.ndarray
    converged: bool
    gap: float


@dataclass(frozen=True)
class IntersectionResult:
    """`tv_gap` is the largest duality gap of the TV solves in the final
    sweep, or None when the stack has no TV set."""

    x: np.ndarray
    converged: bool
    sweeps: int
    violations: np.ndarray
    tv_gap: float | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: np.ndarray

    def __bool__(self):
        return self.feasible


def project_box(x, lo: float, hi: float) -> np.ndarray:
    """Elementwise clamp; the unique Euclidean projection onto a box."""
    if lo > hi:
        raise ValueError(f"box lower bound {lo} exceeds upper bound {hi}")
    return np.clip(np.asarray(x, dtype=np.float64), lo, hi)


def project_l2_ball(x, radius: float) -> np.ndarray:
    if not radius > 0:
        raise ValueError(f"l2 ball radius must be positive, got {radius}")
    x = np.asarray(x, dtype=np.float64)
    n = float(np.linalg.norm(x.ravel()))
    if n <= radius:
        return x.copy()
    return x * (radius / n)


def _l1_project_flat(v: np.ndarray, radius: float) -> np.ndarray:
    """Sort-and-threshold projection of a flat vector onto the l1 ball."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = int(np.nonzero(u * j > css - radius)[0][-1]) + 1
    theta = (css[rho - 1] - radius) / rho
    out = np.sign(v) * np.maximum(a - theta, 0.0)
    # summation rounding can leave the norm a hair over the radius at high
    # dimension; pull exactly onto the boundary so feasibility is unconditional
    norm = np.abs(out).sum()
    if norm > radius:
        out *= radius / norm
    return out


def _box_l1_project_flat(v: np.ndarray, lo: float, hi: float,
                         radius: float) -> np.ndarray:
    """Exact projection of a flat vector onto {lo <= x <= hi, ||x||_1 <= radius}.

    Dualizing the l1 constraint separates the problem: the projection is
    x_i(theta) = clip(soft(v_i, theta), lo, hi) for the smallest
    multiplier theta >= 0 with ||x(theta)||_1 <= radius. This holds for any
    box, including one that does not contain 0. In terms of a_i = |v_i|,
    |x_i(theta)| = clip(a_i - theta, p, q_i), where p is the distance from 0
    to the box and q_i the largest |x| on the side of the box that v_i's
    sign selects. The norm is therefore continuous, non-increasing and
    piecewise linear in theta, with kinks at a_i - q_i and a_i - p. Prefix
    sums over the two sorted kink sets give the norm at any kink in
    O(log n), so bisection over each set finds the last kink whose norm is
    still >= radius (a breakpoint search in the style of Condat, "Fast
    projection onto the simplex and the l1 ball", Math. Prog. 2016). The
    root lies on the linear piece right of that kink and is solved there
    from a direct evaluation of the norm. When the box misses the ball
    (n * p > radius) the norm never falls to the radius, theta stops at the
    last kink, and the result is clip(0, lo, hi), the box point of least
    l1 norm.
    """
    a = np.abs(v)
    p = max(lo, -hi, 0.0)
    q = np.where(v >= 0.0, max(hi, p), max(-lo, p))

    def norm_at(theta: float) -> float:
        return float(np.clip(a - theta, p, q).sum())

    theta = 0.0
    if norm_at(0.0) > radius:
        starts = a - q
        starts.sort()
        ends = a - p
        ends.sort()
        cum_starts = np.concatenate(([0.0], np.cumsum(starts)))
        cum_ends = np.concatenate(([0.0], np.cumsum(ends)))
        q_sum = float(q.sum())

        def piece_at(t: float):
            """Slope count just right of `t` and the norm at `t`."""
            ks = int(np.searchsorted(starts, t, "right"))
            ke = int(np.searchsorted(ends, t, "right"))
            return ks - ke, q_sum - (ks * t - cum_starts[ks]) + (ke * t - cum_ends[ke])

        for kinks in (starts, ends):
            j = bisect.bisect_left(kinks, True, key=lambda t: piece_at(t)[1] < radius)
            if j:
                theta = max(theta, float(kinks[j - 1]))
        slope, _ = piece_at(theta)
        if slope:
            theta += (norm_at(theta) - radius) / slope
    x = np.maximum(a - theta, 0.0)
    np.copysign(x, v, out=x)
    return np.clip(x, lo, hi, out=x)


def project_l1_ball(x, radius: float) -> np.ndarray:
    if not radius > 0:
        raise ValueError(f"l1 ball radius must be positive, got {radius}")
    x = np.asarray(x, dtype=np.float64)
    return _l1_project_flat(x.ravel(), radius).reshape(x.shape)


def tv_forward_diff(x: np.ndarray) -> np.ndarray:
    """Circular forward differences, stacked (2, rows, cols): down then right."""
    return np.stack((np.roll(x, -1, axis=0) - x, np.roll(x, -1, axis=1) - x))


def tv_diff_adjoint(p: np.ndarray) -> np.ndarray:
    """Adjoint of `tv_forward_diff` (negative circular divergence)."""
    return (np.roll(p[0], 1, axis=0) - p[0]) + (np.roll(p[1], 1, axis=1) - p[1])


def total_variation(x) -> float:
    """Anisotropic TV with circular boundary: sum of |forward differences|."""
    return float(np.abs(tv_forward_diff(as_grid(x))).sum())


def project_tv_ball(x, radius: float, tol: float = TV_DEFAULT_TOL,
                    max_iters: int = TV_DEFAULT_MAX_ITERS) -> TvResult:
    """Project a grid onto {v : TV(v) <= radius}.

    Runs an accelerated proximal-gradient method on the dual problem
        min_p 0.5*||D^T p||^2 - <D^T p, x> + radius*||p||_inf
    (D = circular forward differences), recovering the primal as
    x - D^T p and rescaling around the grid mean so the returned point is
    always feasible. The duality gap drives the stopping rule; momentum is
    reset whenever the dual objective backtracks.

    Non-convergence within `max_iters` is reported, not raised: the result
    carries the attained gap with converged=False.
    """
    x = as_grid(x)
    if radius < 0:
        raise ValueError(f"tv ball radius must be non-negative, got {radius}")
    mean = float(x.mean())
    if radius == 0.0:
        return TvResult(np.full_like(x, mean), True, 0.0)
    if total_variation(x) <= radius:
        return TvResult(x.copy(), True, 0.0)

    step = 1.0 / 8.0  # 1 / ||D||^2 for 2-D circular differences
    p = np.zeros((2,) + x.shape)
    v = p.copy()
    t_mom = 1.0
    prev_obj = math.inf
    best_gap = math.inf
    best_x = np.full_like(x, mean)
    for _ in range(max_iters):
        grad = tv_forward_diff(tv_diff_adjoint(v) - x)
        q = (v - step * grad).ravel()
        p_new = (q - _l1_project_flat(q, step * radius)).reshape(p.shape)

        dtp = tv_diff_adjoint(p_new)
        obj = (0.5 * float(np.dot(dtp.ravel(), dtp.ravel()))
               - float(np.dot(dtp.ravel(), x.ravel()))
               + radius * float(np.abs(p_new).max()))

        u = x - dtp
        tvu = total_variation(u)
        x_feas = u if tvu <= radius else mean + (radius / tvu) * (u - mean)
        diff = x_feas - x
        primal = 0.5 * float(np.dot(diff.ravel(), diff.ravel()))
        gap = primal + obj
        if gap < best_gap:
            best_gap = gap
            best_x = x_feas
        if gap <= tol * max(1.0, primal):
            return TvResult(x_feas, True, gap)

        if obj > prev_obj:
            t_mom = 1.0
            v = p_new
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            v = p_new + ((t_mom - 1.0) / t_next) * (p_new - p)
            t_mom = t_next
        p = p_new
        prev_obj = obj
    return TvResult(best_x, False, best_gap)


def project_constraint(spec: Constraint, x, tv_tol: float = TV_DEFAULT_TOL,
                       tv_max_iters: int = TV_DEFAULT_MAX_ITERS):
    """Dispatch the projection for a single constraint set.

    Returns (projected point, converged, duality gap); only the iterative
    TV solve can report converged=False, and only it has a gap (None for
    the closed-form projections)."""
    if isinstance(spec, Box):
        return project_box(x, spec.lo, spec.hi), True, None
    if isinstance(spec, L2Ball):
        return project_l2_ball(x, spec.radius), True, None
    if isinstance(spec, L1Ball):
        return project_l1_ball(x, spec.radius), True, None
    if isinstance(spec, TVBall):
        res = project_tv_ball(x, spec.radius, tv_tol, tv_max_iters)
        return res.x, res.converged, res.gap
    raise TypeError(f"unknown constraint spec {spec!r}")


def constraint_violation(spec: Constraint, x) -> float:
    """How far `x` sits outside one set (0 when inside).

    Boxes report the largest bound exceedance; norm balls report the norm
    excess over the radius.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(spec, Box):
        over = float(max(np.max(x - spec.hi, initial=0.0),
                         np.max(spec.lo - x, initial=0.0)))
        return max(0.0, over)
    if isinstance(spec, L2Ball):
        return max(0.0, float(np.linalg.norm(x.ravel())) - spec.radius)
    if isinstance(spec, L1Ball):
        return max(0.0, float(np.abs(x).sum()) - spec.radius)
    if isinstance(spec, TVBall):
        return max(0.0, total_variation(x) - spec.radius)
    raise TypeError(f"unknown constraint spec {spec!r}")


def project_intersection(x, stack: ConstraintStack) -> IntersectionResult:
    """Euclidean projection onto the intersection of the stack's sets.

    Single-set stacks reduce exactly to that set's projection. A stack of
    one box and one l1 ball, in either order, is projected exactly in
    closed form (one "sweep"); if the box misses the ball, the result is
    flagged converged=False and carries the l1 violation. Every other
    multi-set stack (any stack with an l2 or TV ball, or more than two
    sets) runs Dykstra's alternating projections with increment vectors;
    the sweep loop stops when every per-set violation and the increment
    drift are below `dykstra_tol`. Hitting the cap returns a flagged
    result carrying each set's remaining violation. A TV solve stopped by
    `tv_max_iters` flags the result too: for a single TV set, or for any
    TV solve in Dykstra's final sweep.
    """
    x = as_grid(x)

    def proj(spec, u):
        return project_constraint(spec, u, stack.tv_tol, stack.tv_max_iters)

    def violations_of(u):
        return np.array([constraint_violation(s, u) for s in stack.sets])

    if len(stack.sets) == 1:
        out, converged, gap = proj(stack.sets[0], x)
        return IntersectionResult(out, converged, 1, violations_of(out), gap)

    by_kind = {type(s): s for s in stack.sets}
    if len(stack.sets) == 2 and by_kind.keys() == {Box, L1Ball}:
        box, ball = by_kind[Box], by_kind[L1Ball]
        out = _box_l1_project_flat(x.ravel(), box.lo, box.hi,
                                   ball.radius).reshape(x.shape)
        violations = violations_of(out)
        return IntersectionResult(out, bool(violations.max() <= stack.dykstra_tol),
                                  1, violations)

    cur = x.copy()
    increments = [np.zeros_like(x) for _ in stack.sets]
    violations = np.full(len(stack.sets), math.inf)
    for sweep in range(1, stack.dykstra_max_iters + 1):
        drift = 0.0
        solves_converged = True
        tv_gaps = []
        for j, spec in enumerate(stack.sets):
            u = cur + increments[j]
            cur, converged, gap = proj(spec, u)
            solves_converged &= converged
            if gap is not None:
                tv_gaps.append(gap)
            new_inc = u - cur
            drift = max(drift, float(np.max(np.abs(new_inc - increments[j]))))
            increments[j] = new_inc
        violations = violations_of(cur)
        tv_gap = max(tv_gaps, default=None)
        if violations.max(initial=0.0) <= stack.dykstra_tol and drift <= stack.dykstra_tol:
            return IntersectionResult(cur, solves_converged, sweep, violations, tv_gap)
    return IntersectionResult(cur, False, stack.dykstra_max_iters, violations, tv_gap)


def is_feasible(x, stack: ConstraintStack, tol: float) -> FeasibilityReport:
    """Check every set's violation against `tol`."""
    v = np.array([constraint_violation(s, x) for s in stack.sets])
    return FeasibilityReport(bool(np.all(v <= tol)), v)
