"""Stochastic linearized Bregman iterations on the dual variable.

Each step draws one source experiment, takes a dynamically sized gradient
step on the dual accumulator, and projects onto the constraint stack to
obtain the primal iterate, which therefore stays feasible for every
iteration. One step function serves both plain inversion and training: a
positive trade-off parameter adds the weak generator penalty to the
update direction, and a zero one ignores it. The step never evaluates the
generator: the caller passes its output g(z, w), which stays fixed while
z and w do.

A step never draws randomness itself: experiment selection happens in the
one driver loop, `run_bregman`, for inversion and training alike, and bank
objects are duck-typed (anything with an `experiments` sequence of items
with `.op` and `.y` attributes works). `breguq.stats` writes and reads
trace records as CSV rows whose columns are `TraceRecord`'s fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbortError
from .projections import ConstraintStack, project_intersection

__all__ = [
    "T_MAX_DEFAULT",
    "GRAD_TINY",
    "BregmanState",
    "TraceRecord",
    "bregman_step",
    "run_bregman",
    "initial_state",
]

T_MAX_DEFAULT = 10.0
GRAD_TINY = 1e-30


@dataclass(frozen=True)
class BregmanState:
    """Dual accumulator, its projection, and the step counter."""

    x_dual: np.ndarray
    x_primal: np.ndarray
    iter: int = 0


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration log line; `joint_objective` is None when the weak
    prior is inactive. `skipped` marks a zero step forced by a vanishing
    gradient (residual in the operator's null-space direction).
    `proj_sweeps` and `proj_converged` report the projection onto the
    constraint stack that produced the new primal iterate (its TV
    dual-solve iteration count, 1 for a stack without a TV ball), and
    `proj_tv_gap` that solve's duality gap (None without a TV ball)."""

    iter: int
    k: int
    t_k: float
    residual_norm: float
    joint_objective: float | None = None
    skipped: bool = False
    proj_sweeps: int = 0
    proj_converged: bool = True
    proj_tv_gap: float | None = None


def initial_state(shape) -> BregmanState:
    """Zero dual and primal; no warm start."""
    z = np.zeros(tuple(shape))
    return BregmanState(z, z.copy(), 0)


def bregman_step(state: BregmanState, experiment, stack: ConstraintStack,
                 t_max: float = T_MAX_DEFAULT, k: int = -1, *, center=None,
                 lam: float = 0.0):
    """One dual update against a single experiment, then projection.

    The residual uses the current primal (projected) iterate. With
    `lam == 0` the direction is the data gradient A_k^T(A_k x - y_k), the
    center is not needed and the record's `joint_objective` is None.
    With `lam > 0` the weak generator penalty joins the direction,
    A_k^T(A_k x - y_k) + lam^2 (x - g), where `center` is the generator
    output g = g(z, w) computed by the caller, and the steplength is the
    dynamic ratio for the stacked system [A_k; lam*I]: the stacked residual
    energy over the direction energy. Either ratio is capped at `t_max`,
    and a vanishing direction with a non-zero residual (a residual in the
    operator's null space) drops the step. Returns the new state and a
    trace record labeled with the caller-supplied bank index `k`.
    """
    if lam < 0:
        raise ValueError(f"trade-off parameter must be non-negative, got {lam}")
    x = state.x_primal
    r = experiment.op.apply(x) - experiment.y
    direction = experiment.op.adjoint(r)
    rr = float(np.dot(r.ravel(), r.ravel()))
    num, joint = rr, None
    if lam > 0:
        if center is None:
            raise ValueError("a positive trade-off parameter needs the center g(z, w)")
        diff = x - center
        direction = direction + (lam * lam) * diff
        dd = float(np.dot(diff.ravel(), diff.ravel()))
        num = rr + (lam * lam) * dd
        joint = 0.5 * rr + 0.5 * (lam * lam) * dd
    den = float(np.dot(direction.ravel(), direction.ravel()))
    skipped = den < GRAD_TINY and num >= GRAD_TINY
    t = 0.0 if den < GRAD_TINY else min(num / den, t_max)

    x_dual = state.x_dual - t * direction
    if not np.all(np.isfinite(x_dual)):
        raise NumericalAbortError(
            "non-finite dual iterate",
            diagnostics={"state": state, "steplength": t})
    proj = project_intersection(x_dual, stack)
    rec = TraceRecord(state.iter, k, t, float(np.sqrt(rr)), joint, skipped,
                      proj.sweeps, proj.converged, proj.tv_gap)
    return BregmanState(x_dual, proj.x, state.iter + 1), rec


def run_bregman(bank, stack: ConstraintStack, state: BregmanState, ids, steps: int,
                seed: int, *, key: int = 0, t_max: float = T_MAX_DEFAULT,
                center=None, lam: float = 0.0):
    """The one stochastic Bregman loop: `steps` steps from `state`, each
    against an experiment drawn uniformly with replacement from the bank
    indices `ids`, at trade-off `lam` toward `center` (see `bregman_step`).

    Draws come from the stream keyed by (seed, key) past the `state.iter`
    draws the chain has taken, so a continued chain continues its stream.
    Each step calls the module binding `bregman_step`. Returns (state, trace).
    """
    ids = np.asarray(ids, dtype=np.int64)
    exps = bank.experiments
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(key)]))
    # replay (not jump) the chain's past draws: bounded-integer rejection
    # sampling consumes a bound-dependent amount of the bitstream
    for _ in range(state.iter):
        rng.integers(0, ids.size)
    trace = []
    for _ in range(steps):
        k = int(ids[rng.integers(0, ids.size)])
        state, rec = bregman_step(state, exps[k], stack, t_max=t_max, k=k,
                                  center=center, lam=lam)
        trace.append(rec)
    return state, trace
