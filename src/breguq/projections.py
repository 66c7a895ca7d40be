"""Euclidean projections onto handcrafted convex sets and their intersections.

Supported sets: boxes, l2 balls, l1 balls and anisotropic total-variation
balls with circular boundary. A stack merges by kind: its boxes become one
box [lo, hi], and of several balls of one kind only the smallest counts,
because it lies inside the others. Every stack without a TV ball is
projected exactly, in closed form, by one separable map: dualizing the l2
ball scales v by s = 1/(1 + mu), so the projection is P_box∩l1(s*v) (a soft
threshold followed by the clamp, with the threshold found by a vectorized
sorted-breakpoint search: a sort, a prefix sum per kink set and two batched
evaluations of the norm, with no Python loop over kinks), with s in (0, 1]
found by bisection. That search is the one l1-ball projection: without a
box it has no start kinks, and the TV dual prox runs it too. A stack with
a TV ball is projected by one iterative solve: FISTA (Beck & Teboulle, SIAM
J. Imaging Sci. 2009) on the dual of

    min_x 0.5*||x - v||^2  s.t.  x in C,  ||D x||_1 <= r,

with one dual block, the TV ball (D the circular forward differences), and
the separable projection onto C, the stack's other sets, as its primal map;
Peters & Herrmann (Geophysics 2019) take this dual route for intersections
of constraints. Its primal iterates are always feasible, its stopping rule
is a relative duality gap, and it reports when its iteration cap stops it
first.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

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

    `tv_max_iters` and `tv_tol` cap and stop the dual solve of a stack with
    a TV ball; every other stack is projected in closed form. `dykstra_tol`
    is the feasibility bar every result must meet to count as converged."""

    sets: tuple
    dykstra_tol: float = 1e-8
    tv_max_iters: int = 2000
    tv_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValueError("constraint stack must contain at least one set")
        if not (0 < self.dykstra_tol < math.inf and 0 < self.tv_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.tv_max_iters < 1:
            raise ValueError("tv_max_iters must be positive")


@dataclass(frozen=True)
class IntersectionResult:
    """`sweeps` is the TV dual solve's iteration count and `tv_gap` its
    duality gap; a stack without a TV ball has `sweeps` 1 and `tv_gap`
    None."""

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


def _box_l1_project_flat(v: np.ndarray, lo: float, hi: float,
                         radius: float) -> np.ndarray:
    """Exact projection of a flat vector onto {lo <= x <= hi, ||x||_1 <= radius}.

    Dualizing the l1 constraint separates the problem: the projection is
    x_i(theta) = clip(soft(v_i, theta), lo, hi) for the smallest
    multiplier theta >= 0 with ||x(theta)||_1 <= radius. This holds for any
    box, including one that does not contain 0. In terms of a_i = |v_i|,
    |x_i(theta)| = clip(a_i - theta, p, q_i), where p is the distance from 0
    to the box and q_i the largest |x| on the side of the box that v_i's
    sign selects (one q for a box symmetric about 0); with no box
    (lo = -inf, hi = inf), p = 0 and q = inf. The norm is therefore
    continuous, non-increasing and piecewise linear in theta, with kinks at
    a_i - q_i (none when q = inf: every |x_i| starts on its linear piece)
    and a_i - p. Prefix sums over the sorted kink sets give the norm at a
    whole batch of kinks in one vectorized evaluation, and two such
    evaluations find the last kink whose norm is still >= radius (a
    breakpoint search in the style of Condat, "Fast projection onto the
    simplex and the l1 ball", Math. Prog. 2016): one at every
    ceil(sqrt(n))-th kink of each set finds the last sampled kink that
    qualifies, and one at the ceil(sqrt(n)) kinks of each set from there
    finds the kink itself. The root lies on the linear piece right of that
    kink, or of 0 if it is larger, and is solved there from a direct
    evaluation of the norm. The cost is one sort when q is one number
    (sort(a) - c equals sort(a - c) bit for bit, and q = inf leaves no
    start kinks to sort) and two otherwise, a prefix sum per kink set,
    O(sqrt(n) log n) lookups and a few passes over the vector, with no
    Python loop over kinks. The TV dual prox runs the no-box search too.
    When the box misses the ball (n * p > radius) the norm never falls to
    the radius, theta stops at the last kink, and the result is
    clip(0, lo, hi), the box point of least l1 norm.
    """
    a = np.abs(v)
    p = max(lo, -hi, 0.0)
    q_pos, q_neg = max(hi, p), max(-lo, p)
    q = q_pos if q_pos == q_neg else np.where(v >= 0.0, q_pos, q_neg)

    def norm_at(theta: float) -> float:
        x = a - theta
        return float(np.clip(x, p, q, out=x).sum())

    theta = 0.0
    if norm_at(0.0) > radius:
        ends = np.sort(a)
        if np.ndim(q):
            starts = np.sort(a - q)
        else:
            starts = ends - q if q < math.inf else ends[:0]
        ends -= p
        cum_starts, cum_ends = np.zeros(starts.size + 1), np.zeros(a.size + 1)
        starts.cumsum(out=cum_starts[1:])
        ends.cumsum(out=cum_ends[1:])
        if starts.size:
            q_sum = float(np.full_like(a, q).sum())  # pairwise, unlike q * n

            def started(t):
                """(start kinks <= t, the norm at t were no end kink passed)"""
                ks = starts.searchsorted(t, "right")
                return ks, q_sum - (ks * t - cum_starts[ks])
        else:  # no box: every |x_i| is a_i - t until its end kink
            def started(t):
                return a.size, cum_ends[-1] - a.size * t

        def at_or_above(t: np.ndarray) -> np.ndarray:
            """Whether the norm at each kink in `t` is still >= radius."""
            ke = ends.searchsorted(t, "right")
            return started(t)[1] + (ke * t - cum_ends[ke]) >= radius

        stride = math.isqrt(a.size - 1) + 1
        sampled = np.concatenate((starts[::stride], ends[::stride]))
        last = sampled[at_or_above(sampled)].max(initial=-math.inf)

        def block(kinks: np.ndarray) -> np.ndarray:
            """The stride of kinks from the last one <= `last`; the next
            sampled kink of the set is past `last`, so it and every kink
            after it are below the radius."""
            i = max(int(kinks.searchsorted(last, "right")) - 1, 0)
            return kinks[i:i + stride]

        near = np.concatenate((block(starts), block(ends)))
        theta = max(theta, float(near[at_or_above(near)].max(initial=-math.inf)))
        slope = int(started(theta)[0] - ends.searchsorted(theta, "right"))
        if slope:
            theta += (norm_at(theta) - radius) / slope
    x = a - theta
    np.maximum(x, 0.0, out=x)
    np.copysign(x, v, out=x)
    return np.clip(x, lo, hi, out=x)


def tv_forward_diff(x: np.ndarray) -> np.ndarray:
    """Circular forward differences, stacked (2, rows, cols): down then right."""
    out = np.empty((2,) + x.shape)
    np.subtract(x[1:], x[:-1], out=out[0, :-1])
    np.subtract(x[0], x[-1], out=out[0, -1])
    np.subtract(x[:, 1:], x[:, :-1], out=out[1, :, :-1])
    np.subtract(x[:, 0], x[:, -1], out=out[1, :, -1])
    return out


def tv_diff_adjoint(p: np.ndarray) -> np.ndarray:
    """Adjoint of `tv_forward_diff` (negative circular divergence)."""
    out, right = np.empty(p.shape[1:]), np.empty(p.shape[1:])
    np.subtract(p[0, :-1], p[0, 1:], out=out[1:])
    np.subtract(p[0, -1], p[0, 0], out=out[0])
    np.subtract(p[1, :, :-1], p[1, :, 1:], out=right[:, 1:])
    np.subtract(p[1, :, -1], p[1, :, 0], out=right[:, 0])
    out += right
    return out


def total_variation(x) -> float:
    """Anisotropic TV with circular boundary: sum of |forward differences|."""
    return float(np.abs(tv_forward_diff(as_grid(x))).sum())


def _l1_norm(a) -> float:
    return float(np.abs(a).sum())


def _l2_norm(a) -> float:
    return float(np.linalg.norm(a.ravel()))


def _separable_project(v: np.ndarray, lo: float, hi: float, r1: float,
                       r2: float) -> np.ndarray:
    """Exact projection of `v` onto {lo <= x <= hi, ||x||_1 <= r1,
    ||x||_2 <= r2}; an infinite bound or radius drops its set.

    Dualizing the l2 ball with multiplier mu >= 0 turns the objective into
    (1 + mu)/2 * ||x - s*v||^2 with s = 1/(1 + mu), so the projection is
    x(s) = P_box∩l1(s*v) (the clamp when r1 is infinite). ||x(s)||_2 is
    non-decreasing in s (it is minus the derivative of the concave dual in
    mu), so the projection is x(s) at the largest s in [0, 1] with
    ||x(s)||_2 <= r2: s = 1 when the ball is absent or inactive, else a
    bisection of [0, 1] that stops when its midpoint rounds onto an end,
    keeping the feasible end. x(0) = clip(0, lo, hi) is the point of least
    norm in the box; when even it lies outside a ball, the sets do not meet
    and it is returned.
    """
    flat = v.ravel()
    if r1 == math.inf:
        inner = lambda u: np.clip(u, lo, hi)
    else:
        inner = lambda u: _box_l1_project_flat(u, lo, hi, r1)
    x = inner(flat)
    if r2 != math.inf and _l2_norm(x) > r2:
        below, above, x = 0.0, 1.0, inner(np.zeros_like(flat))
        while below < (mid := 0.5 * (below + above)) < above:
            x_mid = inner(mid * flat)
            if _l2_norm(x_mid) <= r2:
                below, x = mid, x_mid
            else:
                above = mid
    return x.reshape(v.shape)


def _dual_solve(v, lo, hi, r1, r2, radius, tol, max_iters):
    """Project `v` onto C = {lo <= x <= hi, ||x||_1 <= r1, ||x||_2 <= r2}
    intersected with the TV ball {||D x||_1 <= radius}.

    Accelerated proximal gradient on the dual
        min_y  -h(D^T y) + radius*||y||_inf,
        h(s) = min_{x in C} 0.5*||x - v||^2 + <x, s>,
    whose gradient is -D x(s) with x(s) the separable projection of v - s
    onto C. The step is 1/||D||^2 = 1/8; the dual prox is the Moreau
    complement of the l1 ball projection, the breakpoint search with no
    box. Each x(s) is pulled toward a constant anchor in C, which has TV 0,
    just far enough to enter the TV ball: clip(mean(v), lo, hi) when C is
    the box alone, else clip(0, lo, hi), the box point of least l1 and l2
    norm. An anchor outside C means the sets do not meet; it is returned
    unconverged with an infinite gap. Momentum restarts whenever the dual
    objective backtracks. Returns (x, converged, duality gap, iterations);
    a loop capped before its relative gap falls to `tol` returns its
    least-gap iterate.
    """
    project = lambda u: _separable_project(u, lo, hi, r1, r2)
    anchor = float(np.clip(v.mean() if r1 == r2 == math.inf else 0.0, lo, hi))
    anchor_grid = np.full_like(v, anchor)
    if _l1_norm(anchor_grid) > r1 or _l2_norm(anchor_grid) > r2:
        return anchor_grid, False, math.inf, 1
    u = project(v)
    if _l1_norm(tv_forward_diff(u)) <= radius:
        return u, True, 0.0, 1

    step = 1.0 / 8.0
    p = w = np.zeros((2,) + v.shape)
    s, s_w = np.zeros_like(v), np.zeros_like(v)
    t_mom, prev_obj = 1.0, math.inf
    best_gap, best_x = math.inf, None
    for it in range(1, max_iters + 1):
        q = w + step * tv_forward_diff(project(v - s_w))
        p_new = (q - _separable_project(q, -math.inf, math.inf, step * radius, math.inf)
                 if radius > 0 else q)
        s_new = tv_diff_adjoint(p_new)
        u = project(v - s_new)
        obj = (radius * float(np.abs(p_new).max())
               - 0.5 * float(np.vdot(u - v, u - v)) - float(np.vdot(u, s_new)))

        tv = _l1_norm(tv_forward_diff(u))
        x_feas = u if tv <= radius else anchor + (radius / tv) * (u - anchor)
        primal = 0.5 * float(np.vdot(x_feas - v, x_feas - v))
        gap = primal + obj
        if best_x is None or gap < best_gap:
            best_gap, best_x = gap, x_feas
        if gap <= tol * max(1.0, primal):
            return x_feas, True, gap, it

        if obj > prev_obj:
            t_mom, w, s_w = 1.0, p_new, s_new
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            beta = (t_mom - 1.0) / t_next
            w = p_new + beta * (p_new - p)
            s_w = s_new + beta * (s_new - s)
            t_mom = t_next
        p, s, prev_obj = p_new, s_new, obj
    return best_x, False, best_gap, max_iters


_NORMS = {L1Ball: _l1_norm, L2Ball: _l2_norm, TVBall: total_variation}


def constraint_violation(spec: Constraint, x) -> float:
    """How far `x` sits outside one set (0 when inside).

    Boxes report the largest bound exceedance; norm balls report the norm
    excess over the radius.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(spec, Box):
        return max(float(x.max(initial=-math.inf)) - spec.hi,
                   spec.lo - float(x.min(initial=math.inf)), 0.0)
    if type(spec) not in _NORMS:
        raise TypeError(f"unknown constraint spec {spec!r}")
    return max(0.0, _NORMS[type(spec)](x) - spec.radius)


def project_intersection(x, stack: ConstraintStack) -> IntersectionResult:
    """Euclidean projection onto the intersection of the stack's sets.

    The stack's boxes merge into one, and each ball kind keeps its smallest
    radius. A stack without a TV ball is projected in closed form; one with
    a TV ball runs the dual solve, capped by `tv_max_iters` and stopped by
    `tv_tol`, and reports its duality gap. A result is converged when its
    solve converged and every per-set violation is within `dykstra_tol`:
    sets that do not meet and a capped solve are flagged.
    """
    x = as_grid(x)
    lo = max((s.lo for s in stack.sets if isinstance(s, Box)), default=-math.inf)
    hi = min((s.hi for s in stack.sets if isinstance(s, Box)), default=math.inf)
    r1, r2, r_tv = (min((s.radius for s in stack.sets if isinstance(s, kind)),
                        default=math.inf) for kind in (L1Ball, L2Ball, TVBall))
    solved, iters, gap = True, 1, None
    if lo > hi:  # boxes that do not meet; their violations flag it
        out = np.clip(x, lo, hi)
    elif r_tv == math.inf:
        out = _separable_project(x, lo, hi, r1, r2)
    else:
        out, solved, gap, iters = _dual_solve(x, lo, hi, r1, r2, r_tv, stack.tv_tol,
                                              stack.tv_max_iters)
    report = is_feasible(out, stack, stack.dykstra_tol)
    return IntersectionResult(out, solved and report.feasible, iters, report.violations, gap)


def is_feasible(x, stack: ConstraintStack, tol: float) -> FeasibilityReport:
    """Check every set's violation against `tol`."""
    v = np.array([constraint_violation(s, x) for s in stack.sets])
    return FeasibilityReport(bool(np.all(v <= tol)), v)
