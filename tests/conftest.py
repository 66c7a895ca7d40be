import numpy as np
import pytest

from breguq.linops import LinearOp, RestrictionMask, RestrictOp
from breguq.net import NetArch, StageSpec
from breguq.testbed import ExperimentBank, LinearExperiment, _coherent_basis


def run_files(run_dir):
    """Every file under a run directory, by path relative to it -> bytes."""
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def small_arch():
    return NetArch(latent_dim=8, base_rows=2, base_cols=2, base_channels=4,
                   stages=(StageSpec(4),))


class ScaledIdentity(LinearOp):
    """x -> factor * x on grids of `shape`; self-adjoint."""

    def __init__(self, shape, factor=1.0):
        self.domain_shape = self.range_shape = tuple(shape)
        self.factor = float(factor)

    def apply(self, x):
        return self.factor * self._check_domain(x)

    def adjoint(self, y):
        return self.factor * self._check_range(y)


def identity_bank(y_grids):
    """Bank of identity experiments over the given observation grids."""
    shape = y_grids[0].shape
    exps = [LinearExperiment(ScaledIdentity(shape), np.asarray(y, dtype=np.float64))
            for y in y_grids]
    return ExperimentBank(tuple(exps), shape)


def restriction_bank(x_star, index_groups):
    """Consistent bank: each experiment observes part of `x_star`."""
    shape = x_star.shape
    exps = []
    for idx in index_groups:
        op = RestrictOp(RestrictionMask(np.asarray(sorted(idx), dtype=np.int64)), shape)
        exps.append(LinearExperiment(op, op.apply(x_star)))
    return ExperimentBank(tuple(exps), shape)


def eval_lsq_objective(bank, x) -> float:
    """0.5 * sum_i ||A_i x - y_i||^2, accumulated in bank order."""
    total = 0.0
    for exp in bank.experiments:
        r = exp.op.apply(x) - exp.y
        total += float(np.dot(r.ravel(), r.ravel()))
    return 0.5 * total


def linearization_error(dm, C, gamma, bank):
    """Closed-form coherent error gamma * R_i((C dm)^2), per experiment, as
    `add_noise_to_snr` computes it."""
    return [gamma * b for b in _coherent_basis(dm, C, bank)]


def linearization_error_direct(dm, m, C, gamma, bank):
    """Three-term linearization error of the quadratic surrogate forward
    F_i(v) = A_i v + gamma * R_i((C v)^2) for the perturbation `dm`,
    evaluated literally around the background model `m`."""

    def restrict(exp, grid):
        return grid.ravel()[exp.op.outer.mask.indices].copy()

    out = []
    for exp in bank.experiments:
        def forward(v):
            cv = C.apply(v)
            return exp.op.apply(v) + gamma * restrict(exp, cv * cv)

        jac = exp.op.apply(dm) + 2.0 * gamma * restrict(exp, C.apply(m) * C.apply(dm))
        out.append(forward(m + dm) - forward(m) - jac)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1337)
