"""Stochastic linearized Bregman iterations on the dual variable.

Each step draws one source experiment, takes a dynamically sized gradient
step on the dual accumulator, and projects onto the constraint stack to
obtain the primal iterate, which therefore stays feasible for every
iteration. The augmented variant adds the weak generator penalty to the
update direction; with a zero trade-off parameter it delegates to the
plain step, so the two are bit-identical in that regime.

A step never draws randomness itself: experiment selection happens in the
driver loops, and bank objects are duck-typed (anything with an
`experiments` sequence of (op, y) pairs works).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbortError
from .net import net_forward
from .projections import ConstraintStack, project_intersection

__all__ = [
    "T_MAX_DEFAULT",
    "GRAD_TINY",
    "BregmanState",
    "TraceRecord",
    "dynamic_steplength",
    "bregman_step",
    "bregman_step_augmented",
    "run_bregman",
    "eval_lsq_objective",
    "eval_joint_objective",
    "write_trace_csv",
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
    constraint stack that produced the new primal iterate."""

    iter: int
    k: int
    t_k: float
    residual_norm: float
    joint_objective: float | None = None
    skipped: bool = False
    proj_sweeps: int = 0
    proj_converged: bool = True


def initial_state(shape) -> BregmanState:
    """Zero dual and primal; no warm start."""
    z = np.zeros(tuple(shape))
    return BregmanState(z, z.copy(), 0)


def _steplength(num: float, den: float, t_max: float) -> tuple[float, bool]:
    if den < GRAD_TINY:
        return 0.0, num >= GRAD_TINY
    return min(num / den, t_max), False


def dynamic_steplength(residual, gradient, t_max: float = T_MAX_DEFAULT) -> float:
    """||residual||^2 / ||gradient||^2, capped at `t_max`.

    Returns 0 when the gradient energy underflows (the step is a no-op).
    """
    r = np.asarray(residual, dtype=np.float64).ravel()
    g = np.asarray(gradient, dtype=np.float64).ravel()
    t, _ = _steplength(float(np.dot(r, r)), float(np.dot(g, g)), t_max)
    return t


def _advance(state: BregmanState, t: float, direction: np.ndarray,
             stack: ConstraintStack):
    """Dual step and projection; returns the new state and the projection
    result, whose health goes into the trace."""
    x_dual = state.x_dual - t * direction
    if not np.all(np.isfinite(x_dual)):
        raise NumericalAbortError(
            "non-finite dual iterate",
            diagnostics={"state": state, "steplength": t})
    proj = project_intersection(x_dual, stack)
    return BregmanState(x_dual, proj.x, state.iter + 1), proj


def bregman_step(state: BregmanState, experiment, stack: ConstraintStack,
                 t_max: float = T_MAX_DEFAULT, k: int = -1):
    """One dual update against a single experiment, then projection.

    The residual uses the current primal (projected) iterate. Returns the
    new state and a trace record labeled with the caller-supplied bank
    index `k`.
    """
    r = experiment.op.apply(state.x_primal) - experiment.y
    grad = experiment.op.adjoint(r)
    num = float(np.dot(r.ravel(), r.ravel()))
    t, skipped = _steplength(num, float(np.dot(grad.ravel(), grad.ravel())), t_max)
    new_state, proj = _advance(state, t, grad, stack)
    rec = TraceRecord(state.iter, k, t, float(np.sqrt(num)), None, skipped,
                      proj.sweeps, proj.converged)
    return new_state, rec


def bregman_step_augmented(state: BregmanState, experiment, z, arch, w,
                           lam: float, stack: ConstraintStack,
                           t_max: float = T_MAX_DEFAULT,
                           steplength_mode: str = "stacked", k: int = -1):
    """Dual update with the weak generator penalty added to the direction.

    The update direction is A_k^T(A_k x - y_k) + lam^2 (x - g(z, w)). With
    `steplength_mode="stacked"` (default) the steplength is the dynamic
    ratio for the stacked system [A_k; lam*I], i.e. the stacked residual
    (r_data, lam*(x - g)) over the full direction; `"data_only"` uses the
    plain data-term ratio instead. lam == 0 delegates to `bregman_step`.
    """
    if lam < 0:
        raise ValueError(f"trade-off parameter must be non-negative, got {lam}")
    if lam == 0.0:
        return bregman_step(state, experiment, stack, t_max=t_max, k=k)
    if steplength_mode not in ("stacked", "data_only"):
        raise ValueError(f"unknown steplength mode {steplength_mode!r}")

    x = state.x_primal
    r = experiment.op.apply(x) - experiment.y
    data_grad = experiment.op.adjoint(r)
    diff = x - net_forward(arch, w, z)
    direction = data_grad + (lam * lam) * diff

    rr = float(np.dot(r.ravel(), r.ravel()))
    dd = float(np.dot(diff.ravel(), diff.ravel()))
    if steplength_mode == "stacked":
        num = rr + (lam * lam) * dd
        den = float(np.dot(direction.ravel(), direction.ravel()))
    else:
        num = rr
        den = float(np.dot(data_grad.ravel(), data_grad.ravel()))
    t, skipped = _steplength(num, den, t_max)
    new_state, proj = _advance(state, t, direction, stack)
    joint = 0.5 * rr + 0.5 * (lam * lam) * dd
    rec = TraceRecord(state.iter, k, t, float(np.sqrt(rr)), joint, skipped,
                      proj.sweeps, proj.converged)
    return new_state, rec


def run_bregman(bank, stack: ConstraintStack, iters: int, seed: int,
                t_max: float = T_MAX_DEFAULT, on_state=None):
    """Plain stochastic Bregman loop over a bank of experiments.

    Experiments are drawn uniformly with replacement from a stream keyed
    by (seed, 0); the whole run is a pure function of (bank, seed, iters).
    `on_state` (if given) observes every post-step state.
    """
    exps = list(bank.experiments)
    if not exps:
        raise ValueError("experiment bank is empty")
    state = initial_state(exps[0].op.domain_shape)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    trace = []
    for _ in range(iters):
        k = int(rng.integers(0, len(exps)))
        state, rec = bregman_step(state, exps[k], stack, t_max=t_max, k=k)
        trace.append(rec)
        if on_state is not None:
            on_state(state)
    return state, trace


def eval_lsq_objective(bank, x) -> float:
    """0.5 * sum_i ||A_i x - y_i||^2, accumulated in bank order."""
    total = 0.0
    for exp in bank.experiments:
        r = exp.op.apply(x) - exp.y
        total += float(np.dot(r.ravel(), r.ravel()))
    return 0.5 * total


def eval_joint_objective(bank, x, z, arch, w, lam: float) -> float:
    """Data misfit over the bank plus the weak-prior penalty."""
    if lam < 0:
        raise ValueError(f"trade-off parameter must be non-negative, got {lam}")
    data = eval_lsq_objective(bank, x)
    if lam == 0.0:
        return data
    diff = np.asarray(x, dtype=np.float64) - net_forward(arch, w, z)
    return data + 0.5 * (lam * lam) * float(np.dot(diff.ravel(), diff.ravel()))


def write_trace_csv(records, path) -> None:
    """Trace export: iter, k, t_k, residual_norm, joint_objective, skipped,
    proj_sweeps, proj_converged (flags written as 0/1)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["iter", "k", "t_k", "residual_norm", "joint_objective",
                         "skipped", "proj_sweeps", "proj_converged"])
        for r in records:
            joint = "" if r.joint_objective is None else repr(r.joint_objective)
            writer.writerow([r.iter, r.k, repr(r.t_k), repr(r.residual_norm), joint,
                             int(r.skipped), r.proj_sweeps, int(r.proj_converged)])
