"""Self-check property suite behind the `check` CLI subcommand.

Four families: adjoint dot tests over every operator kind (plus a freshly
generated mini bank); `project_intersection` against the one reference QP,
`oracles.qp_project`, on every kind of stack it runs (one table row per
stack); generator gradient checks against central finite differences; and
the closed-form stationary variance of the drift-only Langevin recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracles
from .linops import (ComposeOp, ConvKernel, ConvOp, IdentityOp, RestrictionMask,
                     RestrictOp, ScaleOp, dot_test)
from .net import (NetArch, StageSpec, net_eval_and_backward, net_forward,
                  net_init)
from .projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall,
                          project_intersection, total_variation)
from .sgld import SgldParams, sgld_step
from .testbed import gaussian_kernel, make_bank, make_ground_truth

__all__ = ["CheckResult", "run_property_suite", "run_dot_test_checks",
           "run_projection_oracle_checks", "run_gradient_checks",
           "run_sgld_variance_check"]

DOT_TEST_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _standard_ops():
    rng = np.random.default_rng(90210)
    shape = (12, 12)
    kernel3 = ConvKernel(rng.standard_normal((3, 3)))
    kernel5 = ConvKernel(rng.standard_normal((5, 5)))
    mask = RestrictionMask(np.sort(rng.choice(shape[0] * shape[1], 60, replace=False)))
    ops = [
        ("identity", IdentityOp(shape)),
        ("scale", ScaleOp(shape, -2.5)),
        ("conv3", ConvOp(kernel3, shape)),
        ("conv5", ConvOp(kernel5, shape)),
        ("restrict", RestrictOp(mask, shape)),
        ("restrict_conv", ComposeOp(RestrictOp(mask, shape), ConvOp(kernel3, shape))),
    ]
    return ops


def run_dot_test_checks(extra_ops=()) -> list:
    results = []
    for name, op in list(_standard_ops()) + list(extra_ops):
        worst = dot_test(op, seed=7, trials=20)
        results.append(CheckResult(f"dot_test:{name}", worst <= DOT_TEST_TOL,
                                   f"max relative discrepancy {worst:.3e}"))
    truth = make_ground_truth((16, 16), seed=5)
    bank = make_bank(truth, 6, gaussian_kernel(3, 0.8), 0.3, seed=6)
    worst = max(dot_test(e.op, seed=8, trials=20) for e in bank.experiments)
    results.append(CheckResult("dot_test:generated_bank", worst <= DOT_TEST_TOL,
                               f"max relative discrepancy {worst:.3e}"))
    return results


def _pointwise(mine, ref, x) -> float:
    return float(np.max(np.abs(mine - ref)))


def _objective(mine, ref, x) -> float:
    obj, obj_ref = (0.5 * float(np.sum((p - x) ** 2)) for p in (mine, ref))
    return abs(obj - obj_ref) / max(1.0, abs(obj_ref))


def _draw(scale, shape, sets):
    """Input draw: x = scale * N(0, I) of `shape`, then the sets `sets(x, rng)`."""
    def draw(rng):
        x = scale * rng.standard_normal(shape)
        return x, sets(x, rng)
    return draw


def _clip(x):
    return np.clip(x, -0.8, 0.6)


# (name, trials, input draw, measure, bound): pointwise for the stacks with
# a closed form (every stack without a TV ball), relative objective for
# those the dual solve runs
_ORACLE_ROWS = (
    ("box", 5, _draw(3.0, (1, 6), lambda x, rng: (Box(-1.0, 1.0),)), _pointwise, 1e-6),
    ("l2_ball", 5, _draw(2.0, (1, 7), lambda x, rng: (L2Ball(1.5),)), _pointwise, 1e-6),
    ("l1_ball", 5, _draw(2.0, (1, 8), lambda x, rng: (L1Ball(2.0),)), _pointwise, 1e-6),
    ("tv_ball", 3, _draw(1.0, (2, 3), lambda x, rng: (
        TVBall(0.5 * float(np.abs(np.diff(x)).sum() + 1.0) * rng.uniform(0.2, 0.8)),)),
     _objective, 1e-4),
    ("box_l1_intersection", 3, _draw(2.0, (2, 3), lambda x, rng: (
        Box(-0.6, 0.8), L1Ball(1.5))), _pointwise, 1e-6),
    ("box_tv_intersection", 3, _draw(2.0, (3, 4), lambda x, rng: (
        Box(-0.8, 0.6), TVBall(rng.uniform(0.2, 0.6) * total_variation(_clip(x))))),
     _objective, 1e-4),
    ("box_l2_intersection", 3, _draw(2.0, (3, 4), lambda x, rng: (
        Box(-0.8, 0.6), L2Ball(rng.uniform(0.3, 0.7) * float(np.linalg.norm(_clip(x)))))),
     _pointwise, 1e-6),
    # 2.0 / sqrt(6) < 1.2 < 2.0, so neither ball holds the other
    ("l1_l2_intersection", 3, _draw(2.0, (2, 3), lambda x, rng: (
        L1Ball(2.0), L2Ball(1.2))), _pointwise, 1e-6),
    ("box_l1_tv_intersection", 3, _draw(2.0, (3, 4), lambda x, rng: (
        Box(-0.8, 0.6), L1Ball(rng.uniform(0.3, 0.7) * float(np.abs(_clip(x)).sum())),
        TVBall(rng.uniform(0.2, 0.6) * total_variation(_clip(x))))), _objective, 1e-4),
)


def run_projection_oracle_checks() -> list:
    """Every row's inputs, projected by `project_intersection` at the
    shipped solver knobs, against `oracles.qp_project` on the same stack."""
    rng = np.random.default_rng(424242)
    results = []
    for name, trials, draw, measure, tol in _ORACLE_ROWS:
        worst = 0.0
        for _ in range(trials):
            x, sets = draw(rng)
            stack = ConstraintStack(sets)
            worst = max(worst, measure(project_intersection(x, stack).x,
                                       oracles.qp_project(x, stack), x))
        results.append(CheckResult(f"projection_oracle:{name}", worst <= tol,
                                   f"worst deviation {worst:.3e} (tol {tol:.0e})"))
    return results


def _fd_grad(fun, x0, coords, h=1e-5):
    """Central differences of `fun` at `x0` along the coordinates `coords`."""
    g = np.empty(len(coords))
    for j, i in enumerate(coords):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        g[j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def run_gradient_checks() -> list:
    arch = NetArch(latent_dim=16, base_rows=2, base_cols=2, base_channels=4,
                   stages=(StageSpec(4), StageSpec(4)))
    rng = np.random.default_rng(1234)
    w = net_init(arch, seed=77, scale=1.0)
    z = rng.standard_normal(arch.latent_dim)
    upstream = rng.standard_normal(arch.out_shape)
    _, grad_z, grad_w = net_eval_and_backward(arch, w, z, lambda _: upstream)

    def denom(a, b):
        return max(abs(a), abs(b), 1e-8)

    fd_z = _fd_grad(lambda zz: float(np.sum(upstream * net_forward(arch, w, zz))), z,
                    range(z.size))
    worst = float(np.max(np.abs(fd_z - grad_z) / np.array(
        [denom(a, b) for a, b in zip(fd_z, grad_z)])))

    coords = rng.choice(arch.n_params, size=30, replace=False)
    fd_w = _fd_grad(lambda ww: float(np.sum(upstream * net_forward(arch, ww, z))), w, coords)
    for fd, i in zip(fd_w, coords):
        worst = max(worst, abs(fd - grad_w[i]) / denom(fd, grad_w[i]))
    return [CheckResult("gradient_check:generator", worst <= 1e-5,
                        f"worst relative error {worst:.3e}")]


def run_sgld_variance_check() -> list:
    """Drift-only recursion at lam=0 is z <- (1-eps) z + N(0, eps I); the
    stationary per-coordinate variance is eps / (1 - (1-eps)^2)."""
    eps = 0.1
    params = SgldParams(epsilon=eps, steps=1)
    dim = 6
    rng = np.random.default_rng(5150)
    z = np.zeros(dim)
    warmup, keep = 2000, 40000
    arch = None
    for _ in range(warmup):
        z, _ = sgld_step(z, None, arch, None, 0.0, params, rng)
    acc = 0.0
    acc2 = 0.0
    for _ in range(keep):
        z, _ = sgld_step(z, None, arch, None, 0.0, params, rng)
        acc += z.sum()
        acc2 += float(z @ z)
    mean = acc / (keep * dim)
    var = acc2 / (keep * dim) - mean * mean
    target = eps / (1.0 - (1.0 - eps) ** 2)
    rel = abs(var - target) / target
    return [CheckResult("sgld_variance", rel <= 0.05,
                        f"pooled variance {var:.4f} vs {target:.4f} ({rel:.2%} off)")]


def run_property_suite(extra_ops=()) -> list:
    results = []
    results.extend(run_dot_test_checks(extra_ops))
    results.extend(run_projection_oracle_checks())
    results.extend(run_gradient_checks())
    results.extend(run_sgld_variance_check())
    return results
