import numpy as np
import pytest

from breguq.errors import NumericalAbortError
from breguq.net import NetArch, net_forward, net_init
from breguq.sgld import SgldParams, sgld_run, sgld_step
from breguq.stats import keyed_rng

from conftest import small_arch


def linear_generator():
    """Frozen weights realizing g(z) = reshape(M z) on a 2x2 grid."""
    arch = NetArch(latent_dim=3, base_rows=2, base_cols=2, base_channels=1,
                   stages=(), final_kernel_size=1)
    M = 0.8 * np.random.default_rng(42).standard_normal((4, 3))
    w = np.zeros(arch.n_params)
    layout = {p.name: p for p in arch.param_layout()}
    w[layout["dense.W"].offset:layout["dense.W"].offset + M.size] = M.ravel()
    w[layout["final.W"].offset] = 1.0
    return arch, w, M


def test_params_validation():
    with pytest.raises(ValueError):
        SgldParams(epsilon=2.0)
    with pytest.raises(ValueError):
        SgldParams(epsilon=-0.1)
    with pytest.raises(ValueError):
        SgldParams(steps=-1)
    with pytest.raises(ValueError):
        SgldParams(z_prior_weight=0.7)


def _noise(seed, dim, eps):
    """The perturbation a step driven by default_rng(seed) injects."""
    return np.sqrt(eps) * np.random.default_rng(seed).standard_normal(dim)


def test_contraction_with_noise_forced_zero():
    # the noise is reproduced from a second generator with the same seed
    params = SgldParams(epsilon=0.1, steps=1)
    out, pot = sgld_step(np.ones(4), None, None, None, 0.0, params,
                         np.random.default_rng(3))
    np.testing.assert_allclose(out - _noise(3, 4, 0.1), 0.9 * np.ones(4), rtol=1e-15)
    assert pot == 4.0


def test_half_weight_prior_variant():
    params = SgldParams(epsilon=0.1, steps=1, z_prior_weight=0.5)
    out, pot = sgld_step(np.ones(4), None, None, None, 0.0, params,
                         np.random.default_rng(4))
    np.testing.assert_allclose(out - _noise(4, 4, 0.1), 0.95 * np.ones(4),
                               rtol=1e-15)
    assert pot == 2.0


def test_drift_at_generator_match_reduces_to_latent_pull(rng):
    arch = small_arch()
    w = net_init(arch, seed=4)
    z = rng.standard_normal(8)
    x = net_forward(arch, w, z)
    params = SgldParams(epsilon=0.2, steps=1)
    out, pot = sgld_step(z, x, arch, w, 3.0, params, np.random.default_rng(5))
    drift = out - z - _noise(5, 8, params.epsilon)
    np.testing.assert_allclose(drift, -params.epsilon * z, rtol=1e-10, atol=1e-12)
    assert pot == float(np.dot(z, z))


def test_nonfinite_latent_aborts_with_diagnostics():
    params = SgldParams(epsilon=0.1, steps=1)
    z = np.full(4, 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalAbortError) as err:
            sgld_step(z, None, None, None, 0.0, params, np.random.default_rng(0))
    assert err.value.diagnostics["epsilon"] == 0.1
    np.testing.assert_array_equal(err.value.diagnostics["z"], z)


def test_injected_noise_covariance():
    # from z = 0 at lam = 0 the drift vanishes and a step is pure noise
    eps = 0.05
    params = SgldParams(epsilon=eps, steps=1)
    rng = np.random.default_rng(31337)
    draws = np.stack([sgld_step(np.zeros(4), None, None, None, 0.0, params, rng)[0]
                      for _ in range(40000)])
    cov = np.cov(draws.T, bias=True)
    assert np.max(np.abs(np.diag(cov) - eps)) / eps < 0.05
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.05 * eps


def test_stationary_variance_matches_recursion_formula():
    eps = 0.1
    params = SgldParams(epsilon=eps, steps=1)
    rng = np.random.default_rng(2718)
    dim = 8
    z = np.zeros(dim)
    for _ in range(2000):
        z, _ = sgld_step(z, None, None, None, 0.0, params, rng)
    n = 100000
    acc = np.zeros(dim)
    acc2 = np.zeros(dim)
    for _ in range(n):
        z, _ = sgld_step(z, None, None, None, 0.0, params, rng)
        acc += z
        acc2 += z * z
    mean = acc / n
    var = acc2 / n - mean * mean
    target = 1.0 / (2.0 - eps)  # eps / (1 - (1-eps)^2)
    assert np.max(np.abs(var - target)) / target < 0.05


def test_run_zero_steps_returns_warm_start(rng):
    arch = small_arch()
    w = net_init(arch, seed=5)
    z = rng.standard_normal(8)
    params = SgldParams(epsilon=0.1, steps=0)
    out, trace = sgld_run(z, np.zeros((4, 4)), arch, w, 0.5, params, (1, 2, 3))
    np.testing.assert_array_equal(out, z)
    assert trace == []


def test_run_deterministic_given_key(rng):
    arch = small_arch()
    w = net_init(arch, seed=6)
    z = rng.standard_normal(8)
    x = rng.standard_normal((4, 4))
    params = SgldParams(epsilon=0.05, steps=12)
    out1, trace1 = sgld_run(z, x, arch, w, 0.8, params, (9, 0, 4))
    out2, trace2 = sgld_run(z, x, arch, w, 0.8, params, (9, 0, 4))
    np.testing.assert_array_equal(out1, out2)
    assert trace1 == trace2
    out3, _ = sgld_run(z, x, arch, w, 0.8, params, (9, 0, 5))
    assert not np.array_equal(out1, out3)


def test_potential_trace_recorded_per_step(rng):
    arch = small_arch()
    w = net_init(arch, seed=7)
    params = SgldParams(epsilon=0.05, steps=6)
    x = rng.standard_normal((4, 4))
    z0 = rng.standard_normal(8)
    out, trace = sgld_run(z0, x, arch, w, 1.0, params, (0,))
    assert len(trace) == 6
    assert all(np.isfinite(v) for v in trace)
    d = (x - net_forward(arch, w, z0)).ravel()
    assert trace[0] == float(np.dot(z0, z0)) + float(np.dot(d, d))


def test_linear_generator_posterior_mean_matches_ridge():
    arch, w, M = linear_generator()
    z_true = np.array([1.2, -0.8, 0.6])
    x = (M @ z_true).reshape(2, 2)
    ridge = np.linalg.solve(M.T @ M + np.eye(3), M.T @ x.ravel())
    params = SgldParams(epsilon=0.1, steps=1)
    rng = np.random.default_rng(777)
    z = np.zeros(3)
    for _ in range(1500):
        z, _ = sgld_step(z, x, arch, w, 1.0, params, rng)
    keep = 20000
    acc = np.zeros(3)
    for _ in range(keep):
        z, _ = sgld_step(z, x, arch, w, 1.0, params, rng)
        acc += z
    mean = acc / keep
    assert np.linalg.norm(mean - ridge) / np.linalg.norm(ridge) < 0.10


def test_counter_keyed_streams_are_independent():
    a = keyed_rng(1, 2, 3).standard_normal(4)
    b = keyed_rng(1, 2, 3).standard_normal(4)
    c = keyed_rng(1, 2, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
