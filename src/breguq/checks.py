"""Self-check property suite behind the `check` CLI subcommand.

Four families, each a function that takes its inputs (seed, shapes or
operators, trials or steps) and returns what it measured: adjoint dot
tests over every operator kind (plus a freshly generated mini bank);
`project_intersection` against the one reference QP, `oracles.qp_project`;
generator gradients against central finite differences; and the moments
of the drift-only Langevin recursion. `run_property_suite` runs them at
its own inputs and bounds, one table row per operator, stack or property;
acceptance criteria 1-4 run the same functions at theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracles
from .linops import ComposeOp, ConvOp, RestrictOp, dot_test
from .net import (NetArch, StageSpec, net_eval_and_backward, net_forward,
                  net_init)
from .projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall,
                          project_intersection, total_variation)
from .sgld import SgldParams, sgld_step
from .testbed import gaussian_kernel, make_bank, make_ground_truth

__all__ = ["CheckResult", "run_property_suite", "run_dot_test_checks",
           "operator_kinds", "oracle_worst", "pointwise_gap",
           "objective_gap", "gradient_worst", "sgld_moments"]

DOT_TEST_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def operator_kinds(shape, seed, kernel_sizes, kept) -> list:
    """(name, operator) for every operator kind on `shape`: one convolution
    per size in `kernel_sizes`, restriction to `kept` random pixels, and
    that restriction after the first convolution. One rng at `seed` draws
    the kernels, then the mask."""
    rng = np.random.default_rng(seed)
    convs = [ConvOp(rng.standard_normal((k, k)), shape) for k in kernel_sizes]
    restrict = RestrictOp(np.sort(rng.choice(shape[0] * shape[1], kept, replace=False)), shape)
    return ([(f"conv{k}", c) for k, c in zip(kernel_sizes, convs)]
            + [("restrict", restrict), ("restrict_conv", ComposeOp(restrict, convs[0]))])


def _dot_row(name, ops, seed) -> CheckResult:
    worst = max(dot_test(op, seed=seed, trials=20) for op in ops)
    return CheckResult(f"dot_test:{name}", worst <= DOT_TEST_TOL,
                       f"max relative discrepancy {worst:.3e}")


def run_dot_test_checks(named_ops) -> list:
    """One row per (name, operator), each probed at seed 7."""
    return [_dot_row(name, [op], 7) for name, op in named_ops]


def pointwise_gap(mine, ref, x, stack) -> float:
    return float(np.max(np.abs(mine - ref)))


def objective_gap(mine, ref, x, stack) -> float:
    obj, obj_ref = (0.5 * float(np.sum((p - x) ** 2)) for p in (mine, ref))
    return abs(obj - obj_ref) / max(1.0, abs(obj_ref))


def oracle_worst(seed, rows) -> list:
    """Per row (trials, draw, measures): the worst of each
    `measure(mine, ref, x, stack)` over `trials` inputs `x, sets = draw(rng)`,
    where `mine` is `project_intersection` at the shipped solver knobs and
    `ref` is `oracles.qp_project` on the same stack. One rng at `seed` runs
    through the rows in order."""
    rng = np.random.default_rng(seed)
    worst = []
    for trials, draw, measures in rows:
        measured = []
        for _ in range(trials):
            x, sets = draw(rng)
            stack = ConstraintStack(sets)
            mine = project_intersection(x, stack).x
            ref = oracles.qp_project(x, stack)
            measured.append([m(mine, ref, x, stack) for m in measures])
        worst.append(np.max(measured, axis=0))
    return worst


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
    ("box", 5, _draw(3.0, (1, 6), lambda x, rng: (Box(-1.0, 1.0),)), pointwise_gap, 1e-6),
    ("l2_ball", 5, _draw(2.0, (1, 7), lambda x, rng: (L2Ball(1.5),)), pointwise_gap, 1e-6),
    ("l1_ball", 5, _draw(2.0, (1, 8), lambda x, rng: (L1Ball(2.0),)), pointwise_gap, 1e-6),
    ("tv_ball", 3, _draw(1.0, (2, 3), lambda x, rng: (
        TVBall(0.5 * float(np.abs(np.diff(x)).sum() + 1.0) * rng.uniform(0.2, 0.8)),)),
     objective_gap, 1e-4),
    ("box_l1_intersection", 3, _draw(2.0, (2, 3), lambda x, rng: (
        Box(-0.6, 0.8), L1Ball(1.5))), pointwise_gap, 1e-6),
    ("box_tv_intersection", 3, _draw(2.0, (3, 4), lambda x, rng: (
        Box(-0.8, 0.6), TVBall(rng.uniform(0.2, 0.6) * total_variation(_clip(x))))),
     objective_gap, 1e-4),
    ("box_l2_intersection", 3, _draw(2.0, (3, 4), lambda x, rng: (
        Box(-0.8, 0.6), L2Ball(rng.uniform(0.3, 0.7) * float(np.linalg.norm(_clip(x)))))),
     pointwise_gap, 1e-6),
    # 2.0 / sqrt(6) < 1.2 < 2.0, so neither ball holds the other
    ("l1_l2_intersection", 3, _draw(2.0, (2, 3), lambda x, rng: (
        L1Ball(2.0), L2Ball(1.2))), pointwise_gap, 1e-6),
    ("box_l1_tv_intersection", 3, _draw(2.0, (3, 4), lambda x, rng: (
        Box(-0.8, 0.6), L1Ball(rng.uniform(0.3, 0.7) * float(np.abs(_clip(x)).sum())),
        TVBall(rng.uniform(0.2, 0.6) * total_variation(_clip(x))))), objective_gap, 1e-4),
)


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


def gradient_worst(arch, weight_seed, seed, weight_coords) -> float:
    """Worst relative error of the backward pass against central differences
    of <upstream, g(z, w)>, over every latent coordinate and `weight_coords`
    random weight coordinates. Weights from `net_init(arch, weight_seed)`;
    one rng at `seed` draws z, then the upstream, then the weight coordinates."""
    rng = np.random.default_rng(seed)
    w = net_init(arch, seed=weight_seed)
    z = rng.standard_normal(arch.latent_dim)
    upstream = rng.standard_normal(arch.out_shape)
    _, grad_z, grad_w = net_eval_and_backward(arch, w, z, lambda _: upstream)
    coords = rng.choice(arch.n_params, size=weight_coords, replace=False)
    fd = np.concatenate([
        _fd_grad(lambda zz: float(np.sum(upstream * net_forward(arch, w, zz))), z,
                 range(z.size)),
        _fd_grad(lambda ww: float(np.sum(upstream * net_forward(arch, ww, z))), w, coords)])
    grad = np.concatenate([grad_z, grad_w[coords]])
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-8)
    return float(np.max(np.abs(fd - grad) / scale))


def sgld_moments(seed, dim, epsilon, warmup, steps):
    """Per-coordinate first and second moments of the drift-only recursion
    at lam = 0, z <- (1 - epsilon) z + N(0, epsilon I), over `steps` steps
    after `warmup` from z = 0; one rng at `seed` draws the noise."""
    params = SgldParams(epsilon=epsilon, steps=1)
    rng = np.random.default_rng(seed)
    z = np.zeros(dim)
    for _ in range(warmup):
        z, _ = sgld_step(z, None, None, None, 0.0, params, rng)
    acc = np.zeros(dim)
    acc2 = np.zeros(dim)
    for _ in range(steps):
        z, _ = sgld_step(z, None, None, None, 0.0, params, rng)
        acc += z
        acc2 += z * z
    return acc / steps, acc2 / steps


def run_property_suite() -> list:
    results = run_dot_test_checks(operator_kinds((12, 12), 90210, (3, 5), 60))
    bank = make_bank(make_ground_truth((16, 16), seed=5), 6, gaussian_kernel(3, 0.8),
                     0.3, seed=6)
    results.append(_dot_row("generated_bank", [e.op for e in bank.experiments], 8))

    worst = oracle_worst(424242, [(trials, draw, (measure,))
                                  for _, trials, draw, measure, _ in _ORACLE_ROWS])
    for (name, _, _, _, tol), (gap,) in zip(_ORACLE_ROWS, worst):
        results.append(CheckResult(f"projection_oracle:{name}", gap <= tol,
                                   f"worst deviation {gap:.3e} (tol {tol:.0e})"))

    arch = NetArch(latent_dim=16, base_rows=2, base_cols=2, base_channels=4,
                   stages=(StageSpec(4), StageSpec(4)))
    gap = gradient_worst(arch, weight_seed=77, seed=1234, weight_coords=30)
    results.append(CheckResult("gradient_check:generator", gap <= 1e-5,
                               f"worst relative error {gap:.3e}"))

    # pooled over coordinates; the stationary variance is eps / (1 - (1-eps)^2)
    eps = 0.1
    mean, second = sgld_moments(seed=5150, dim=6, epsilon=eps, warmup=2000, steps=40000)
    var = second.mean() - mean.mean() ** 2
    target = eps / (1.0 - (1.0 - eps) ** 2)
    rel = abs(var - target) / target
    results.append(CheckResult("sgld_variance", rel <= 0.05,
                               f"pooled variance {var:.4f} vs {target:.4f} ({rel:.2%} off)"))
    return results
