"""Euclidean projections onto handcrafted convex sets and their intersections.

Supported sets: boxes, l2 balls, l1 balls (sort-and-threshold) and
anisotropic total-variation balls with circular boundary. A stack's boxes
merge into one box [lo, hi]. Three kinds of stack are projected exactly, in
closed form: boxes only (the clamp), a lone l2 or l1 ball, and boxes with
one l1 ball (a soft threshold followed by the clamp, with the threshold
found by a sorted-breakpoint search). Every other stack is projected by one
iterative solve: FISTA (Beck & Teboulle, SIAM J. Imaging Sci. 2009) on the
dual of

    min_x 0.5*||x - v||^2  s.t.  lo <= x <= hi,  ||K_i x|| <= r_i,

with one dual block per ball (K_i = I for an l1 or l2 ball, circular
forward differences D for a TV ball) and the box as a clip, the route
Peters & Herrmann (Geophysics 2019) take for intersections of constraints.
Its primal iterates are always feasible, its stopping rule is a relative
duality gap, and it reports when its iteration cap stops it first.

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
    "project_intersection",
    "constraint_violation",
    "is_feasible",
    "total_variation",
    "tv_forward_diff",
    "tv_diff_adjoint",
    "IntersectionResult",
    "FeasibilityReport",
]


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
    """Ordered constraint sets plus solver knobs for their intersection.

    `tv_max_iters` and `tv_tol` cap and stop the dual solve of any stack
    without a closed form; `dykstra_tol` is the feasibility bar every
    result must meet to count as converged."""

    sets: tuple
    dykstra_tol: float = 1e-8
    tv_max_iters: int = 2000
    tv_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValueError("constraint stack must contain at least one set")
        if self.dykstra_tol <= 0 or self.tv_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.tv_max_iters < 1:
            raise ValueError("tv_max_iters must be positive")


@dataclass(frozen=True)
class IntersectionResult:
    """`sweeps` is the dual solve's iteration count (1 for a closed form);
    `tv_gap` is its duality gap, None for a closed form."""

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


def project_l1_ball(x, radius: float) -> np.ndarray:
    """Sort-and-threshold projection onto the l1 ball."""
    if not radius > 0:
        raise ValueError(f"l1 ball radius must be positive, got {radius}")
    x = np.asarray(x, dtype=np.float64)
    v = x.ravel()
    a = np.abs(v)
    if a.sum() <= radius:
        return x.copy()
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
    return out.reshape(x.shape)


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


def tv_forward_diff(x: np.ndarray) -> np.ndarray:
    """Circular forward differences, stacked (2, rows, cols): down then right."""
    return np.stack((np.roll(x, -1, axis=0) - x, np.roll(x, -1, axis=1) - x))


def tv_diff_adjoint(p: np.ndarray) -> np.ndarray:
    """Adjoint of `tv_forward_diff` (negative circular divergence)."""
    return (np.roll(p[0], 1, axis=0) - p[0]) + (np.roll(p[1], 1, axis=1) - p[1])


def total_variation(x) -> float:
    """Anisotropic TV with circular boundary: sum of |forward differences|."""
    return float(np.abs(tv_forward_diff(as_grid(x))).sum())


def _l1_norm(a) -> float:
    return float(np.abs(a).sum())


def _l2_norm(a) -> float:
    return float(np.linalg.norm(a.ravel()))


def _linf_norm(a) -> float:
    return float(np.abs(a).max())


def _ball_terms(spec):
    """(K is D, norm, dual norm, ball projection) of one ball {||K x|| <= r}."""
    if isinstance(spec, L2Ball):
        return False, _l2_norm, _l2_norm, project_l2_ball
    if isinstance(spec, L1Ball):
        return False, _l1_norm, _linf_norm, project_l1_ball
    if isinstance(spec, TVBall):
        return True, _l1_norm, _linf_norm, project_l1_ball
    raise TypeError(f"unknown constraint spec {spec!r}")


def _dual_solve(v, lo, hi, balls, tol, max_iters):
    """Project `v` onto {lo <= x <= hi} intersected with `balls`.

    Accelerated proximal gradient on the dual
        min_y  -h(sum_i K_i^T y_i) + sum_i r_i*||y_i||_*,
        h(s) = min_{lo <= x <= hi} 0.5*||x - v||^2 + <x, s>,
    whose gradient is -K_i x(s) with x(s) = clip(v - s, lo, hi). The step is
    1 / sum_i ||K_i||^2 (||D||^2 = 8); each dual prox is the Moreau
    complement of a ball projection. Each x(s) is pulled toward a constant
    anchor in every set, by the one scalar that satisfies every ball
    (enough by convexity): clip(mean(v), lo, hi) when every ball is a TV
    ball, else clip(0, lo, hi), the box point of least l1 and l2 norm. An
    anchor outside a ball means the sets do not meet; it is returned
    unconverged with an infinite gap. Momentum restarts whenever the dual
    objective backtracks. Returns (x, converged, duality gap, iterations);
    a loop capped before its relative gap falls to `tol` returns its
    least-gap iterate.
    """
    terms = [(b.radius,) + _ball_terms(b) for b in balls]
    fwd = lambda diff, u: tv_forward_diff(u) if diff else u
    adj = lambda diff, p: tv_diff_adjoint(p) if diff else p

    u = np.clip(v, lo, hi)
    if all(norm(fwd(diff, u)) <= r for r, diff, norm, _, _ in terms):
        return u, True, 0.0, 1
    tv_only = all(diff for _, diff, _, _, _ in terms)
    anchor = float(np.clip(v.mean() if tv_only else 0.0, lo, hi))
    anchor_norms = [norm(fwd(diff, np.full_like(v, anchor)))
                    for _, diff, norm, _, _ in terms]
    if any(na > r for (r, *_), na in zip(terms, anchor_norms)):
        return np.full_like(v, anchor), False, math.inf, 1

    step = 1.0 / sum(8.0 if diff else 1.0 for _, diff, _, _, _ in terms)
    ps = [np.zeros_like(fwd(diff, v)) for _, diff, _, _, _ in terms]
    ws, s, s_w = ps, np.zeros_like(v), np.zeros_like(v)
    t_mom, prev_obj = 1.0, math.inf
    best_gap, best_x = math.inf, None
    for it in range(1, max_iters + 1):
        u_w = np.clip(v - s_w, lo, hi)
        new = []
        for (r, diff, _, _, project), w in zip(terms, ws):
            q = w + step * fwd(diff, u_w)
            new.append(q - project(q, step * r) if r > 0 else q)
        s_new = sum(adj(diff, p) for (_, diff, _, _, _), p in zip(terms, new))
        u = np.clip(v - s_new, lo, hi)
        obj = (sum(r * dual(p) for (r, _, _, dual, _), p in zip(terms, new))
               - 0.5 * float(np.vdot(u - v, u - v)) - float(np.vdot(u, s_new)))

        theta = 1.0
        for (r, diff, norm, _, _), na in zip(terms, anchor_norms):
            nu = norm(fwd(diff, u))
            if nu > r:
                theta = min(theta, (r - na) / (nu - na))
        x_feas = u if theta >= 1.0 else anchor + theta * (u - anchor)
        primal = 0.5 * float(np.vdot(x_feas - v, x_feas - v))
        gap = primal + obj
        if best_x is None or gap < best_gap:
            best_gap, best_x = gap, x_feas
        if gap <= tol * max(1.0, primal):
            return x_feas, True, gap, it

        if obj > prev_obj:
            t_mom, ws, s_w = 1.0, new, s_new
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            beta = (t_mom - 1.0) / t_next
            ws = [p + beta * (p - p_old) for p, p_old in zip(new, ps)]
            s_w = s_new + beta * (s_new - s)
            t_mom = t_next
        ps, s, prev_obj = new, s_new, obj
    return best_x, False, best_gap, max_iters


def constraint_violation(spec: Constraint, x) -> float:
    """How far `x` sits outside one set (0 when inside).

    Boxes report the largest bound exceedance; norm balls report the norm
    excess over the radius.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(spec, Box):
        return float(max(np.max(x - spec.hi, initial=0.0),
                         np.max(spec.lo - x, initial=0.0)))
    diff, norm, _, _ = _ball_terms(spec)
    return max(0.0, norm(tv_forward_diff(as_grid(x)) if diff else x) - spec.radius)


def project_intersection(x, stack: ConstraintStack) -> IntersectionResult:
    """Euclidean projection onto the intersection of the stack's sets.

    The stack's boxes merge into one. Boxes alone, a lone l2 or l1 ball,
    and boxes with one l1 ball are projected in closed form; every other
    stack runs the dual solve, capped by `tv_max_iters` and stopped by
    `tv_tol`, and reports its duality gap. A result is converged when its solve converged and every
    per-set violation is within `dykstra_tol`: sets that do not meet and
    a capped solve are flagged.
    """
    x = as_grid(x)
    lo = max((s.lo for s in stack.sets if isinstance(s, Box)), default=-math.inf)
    hi = min((s.hi for s in stack.sets if isinstance(s, Box)), default=math.inf)
    balls = [s for s in stack.sets if not isinstance(s, Box)]
    boxed = len(balls) < len(stack.sets)
    kinds = [type(b) for b in balls]
    solved, iters, gap = True, 1, None
    if not balls or lo > hi:
        out = np.clip(x, lo, hi)
    elif kinds == [L1Ball] and boxed:
        out = _box_l1_project_flat(x.ravel(), lo, hi, balls[0].radius).reshape(x.shape)
    elif kinds == [L1Ball]:
        out = project_l1_ball(x, balls[0].radius)
    elif kinds == [L2Ball] and not boxed:
        out = project_l2_ball(x, balls[0].radius)
    else:
        out, solved, gap, iters = _dual_solve(x, lo, hi, balls, stack.tv_tol,
                                              stack.tv_max_iters)
    violations = np.array([constraint_violation(s, out) for s in stack.sets])
    return IntersectionResult(out, solved and bool(violations.max() <= stack.dykstra_tol),
                              iters, violations, gap)


def is_feasible(x, stack: ConstraintStack, tol: float) -> FeasibilityReport:
    """Check every set's violation against `tol`."""
    v = np.array([constraint_violation(s, x) for s in stack.sets])
    return FeasibilityReport(bool(np.all(v <= tol)), v)
