"""Stochastic Gradient Langevin Dynamics over latent vectors.

One step moves the latent z along minus half the stepsize times the
gradient of the potential

    U(z) = lam^2 ||x - g(z, w)||^2 + c * ||z||^2

and injects N(0, epsilon*I) noise. The default latent-prior weight is
c = 1, the literal potential; c = 0.5 (the weight implied by a standard
normal latent prior) is selectable for comparison. `sgld_step` is the only
update: `sgld_run` chains it for training, and `checks.sgld_moments`
drives it at lam = 0 with no generator (`x`, `arch` and `w` None). Each
step of a training chain draws its noise from `stats.keyed_rng(seed,
tuple id, round, step)`, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbortError
from .net import net_eval_and_backward
from .stats import keyed_rng

__all__ = [
    "SgldParams",
    "sgld_step",
    "sgld_run",
]


@dataclass(frozen=True)
class SgldParams:
    """Steplength and per-round chain length.

    epsilon must stay below 2: the noise-free recursion at lam = 0 is
    z <- (1 - epsilon) z, unstable beyond that.
    """

    epsilon: float = 0.01
    steps: int = 20
    z_prior_weight: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 2.0):
            raise ValueError(f"epsilon must lie in (0, 2), got {self.epsilon}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if self.z_prior_weight not in (1.0, 0.5):
            raise ValueError(
                f"z prior weight must be 1.0 (literal) or 0.5, got {self.z_prior_weight}")


def sgld_step(z, x, arch, w, lam: float, params: SgldParams,
              rng: np.random.Generator):
    """One Langevin update z + drift + noise, with drift -(epsilon/2) grad U(z)
    and noise N(0, epsilon*I) drawn from `rng`. At lam = 0 the generator is
    not evaluated (`x`, `arch` and `w` may be None). Returns the new latent
    and U(z) at the current latent, both from one generator evaluation.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    pot = params.z_prior_weight * float(np.dot(z, z))
    grad = 2.0 * params.z_prior_weight * z
    if lam != 0.0:
        x = np.asarray(x, dtype=np.float64)
        g, grad_z, _ = net_eval_and_backward(
            arch, w, z, lambda out: 2.0 * lam * lam * (out - x), weights=False)
        diff = g - x
        pot += lam * lam * float(np.dot(diff.ravel(), diff.ravel()))
        grad = grad + grad_z
    drift = -(0.5 * params.epsilon) * grad
    z_new = z + drift + math.sqrt(params.epsilon) * rng.standard_normal(z.size)
    if not np.all(np.isfinite(z_new)):
        raise NumericalAbortError("non-finite latent iterate",
                                  diagnostics={"z": z, "epsilon": params.epsilon})
    return z_new, pot


def sgld_run(z_warm, x, arch, w, lam: float, params: SgldParams, noise_key):
    """Run `params.steps` sequential updates from the warm-started latent.

    `noise_key` is a tuple of ints; step s draws its noise from
    `keyed_rng(*noise_key, s)`. Returns the final latent and the potential
    evaluated at each visited state (U(z_0) ... U(z_{steps-1})).
    """
    z = np.asarray(z_warm, dtype=np.float64).ravel().copy()
    trace = []
    for s in range(params.steps):
        z, pot = sgld_step(z, x, arch, w, lam, params, keyed_rng(*noise_key, s))
        trace.append(pot)
    return z, trace
