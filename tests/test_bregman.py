import numpy as np
import pytest

from breguq.bregman import (BregmanState, bregman_step, initial_state,
                            run_bregman, TraceRecord)
from breguq.errors import NumericalAbortError
from breguq.net import NetArch, net_forward, net_init
from breguq.projections import (Box, ConstraintStack, L1Ball, TVBall, is_feasible,
                                total_variation)
from breguq.stats import read_records, write_records
from breguq.testbed import ExperimentBank, LinearExperiment

from conftest import (ScaledIdentity, eval_lsq_objective, identity_bank,
                      restriction_bank, small_arch)

WIDE = ConstraintStack((Box(-1e9, 1e9),))


def _step_from_zero(op, y, t_max=10.0):
    """One plain step from x = 0, where the residual is -y and the
    gradient op^T(-y)."""
    exp = LinearExperiment(op, np.asarray(y, dtype=np.float64))
    return bregman_step(initial_state(op.domain_shape), exp, WIDE, t_max=t_max)


def test_steplength_identity():
    # gradient equals residual: ||r||^2 / ||g||^2 = 1
    _, rec = _step_from_zero(ScaledIdentity((1, 3)), [[1.0, -2.0, 0.5]])
    assert rec.t_k == pytest.approx(1.0)
    assert not rec.skipped


def test_steplength_doubled_gradient():
    _, rec = _step_from_zero(ScaledIdentity((1, 3), 2.0), [[1.0, -2.0, 0.5]])
    assert rec.t_k == pytest.approx(0.25)


def test_steplength_zero_residual():
    _, rec = _step_from_zero(ScaledIdentity((1, 3)), np.zeros((1, 3)))
    assert rec.t_k == 0.0
    assert not rec.skipped


def test_steplength_cap():
    _, rec = _step_from_zero(ScaledIdentity((1, 4), 1e-3), np.ones((1, 4)), t_max=10.0)
    assert rec.t_k == 10.0


def test_steplength_null_space_residual_skips():
    # non-zero residual, vanishing gradient: the step is dropped
    state, rec = _step_from_zero(ScaledIdentity((1, 3), 1e-200), np.ones((1, 3)))
    assert rec.t_k == 0.0
    assert rec.skipped
    np.testing.assert_array_equal(state.x_dual, np.zeros((1, 3)))


def test_one_step_exact_solve():
    y = np.ones((2, 2))
    exp = LinearExperiment(ScaledIdentity((2, 2)), y)
    state, rec = bregman_step(initial_state((2, 2)), exp, WIDE, k=0)
    np.testing.assert_array_equal(state.x_dual, y)
    np.testing.assert_array_equal(state.x_primal, y)
    assert rec.t_k == pytest.approx(1.0)
    assert rec.joint_objective is None


def test_projection_clips_primal_only():
    y = np.ones((2, 2))
    exp = LinearExperiment(ScaledIdentity((2, 2)), y)
    stack = ConstraintStack((Box(0.0, 0.5),))
    state, _ = bregman_step(initial_state((2, 2)), exp, stack)
    np.testing.assert_array_equal(state.x_dual, np.ones((2, 2)))
    np.testing.assert_array_equal(state.x_primal, np.full((2, 2), 0.5))


def test_record_carries_projection_health():
    arch = small_arch()
    w = net_init(arch, seed=3)
    exp = LinearExperiment(ScaledIdentity((4, 4)), np.full((4, 4), 3.0))
    empty = ConstraintStack((Box(0.0, 0.0), Box(1.0, 1.0)))
    for lam in (0.0, 0.5):
        _, rec = bregman_step(initial_state((4, 4)), exp, empty,
                              center=net_forward(arch, w, np.zeros(8)), lam=lam)
        assert (rec.proj_sweeps, rec.proj_converged) == (1, False)
        _, rec = bregman_step(initial_state((4, 4)), exp, WIDE,
                              center=net_forward(arch, w, np.zeros(8)), lam=lam)
        assert (rec.proj_sweeps, rec.proj_converged) == (1, True)
    # a dual solve stopped by its cap: the record carries its iteration count
    capped = ConstraintStack((Box(-1.0, 1.0), TVBall(1e-3)), tv_max_iters=3)
    ramp = LinearExperiment(ScaledIdentity((4, 4)), np.arange(16.0).reshape(4, 4))
    _, rec = bregman_step(initial_state((4, 4)), ramp, capped)
    assert (rec.proj_sweeps, rec.proj_converged) == (3, False)


def test_record_and_trace_carry_tv_gap(tmp_path):
    # the capped dual solve on (box, TV ball): its gap reaches the record
    # and survives the CSV round trip
    x = np.random.default_rng(0).standard_normal((8, 8))
    capped = ConstraintStack((Box(-1.0, 1.0), TVBall(0.2 * total_variation(x))),
                             tv_max_iters=2)
    exp = LinearExperiment(ScaledIdentity(x.shape), x)
    state = BregmanState(x.copy(), np.zeros_like(x), 0)
    _, rec = bregman_step(state, exp, capped)
    assert not rec.proj_converged and rec.proj_tv_gap > 1e3 * capped.tv_tol
    _, plain = bregman_step(state, exp, WIDE)
    assert plain.proj_tv_gap is None
    path = tmp_path / "trace.csv"
    write_records(path, TraceRecord, [rec, plain])
    assert read_records(path, TraceRecord) == [rec, plain]


def test_consistent_restriction_bank_converges():
    x_star = np.array([[0.3, -0.2], [0.5, 0.1]])
    bank = restriction_bank(x_star, [[0, 1], [2, 3]])
    state, trace = run_bregman(bank, WIDE, initial_state(bank.shape), range(bank.n),
                               60, seed=5)
    worst = max(float(np.linalg.norm(e.op.apply(state.x_primal) - e.y))
                for e in bank.experiments)
    assert worst <= 1e-6
    # independent oracle: dense least squares of the stacked system
    a = np.zeros((4, 4))
    for i, e in enumerate(bank.experiments):
        for j in range(4):
            unit = np.zeros(4)
            unit[j] = 1.0
            a[2 * i:2 * i + 2, j] = e.op.apply(unit.reshape(2, 2))
    b = np.concatenate([e.y for e in bank.experiments])
    oracle = np.linalg.lstsq(a, b, rcond=None)[0].reshape(2, 2)
    np.testing.assert_allclose(state.x_primal, oracle, atol=1e-6)


def test_augmented_lambda_zero_bit_identical(rng):
    arch = small_arch()
    w = net_init(arch, seed=1)
    y = rng.standard_normal((4, 4))
    exp = LinearExperiment(ScaledIdentity((4, 4)), y)
    stack = ConstraintStack((Box(-2.0, 2.0), L1Ball(10.0)))
    s0 = initial_state((4, 4))
    plain, rec_p = bregman_step(s0, exp, stack, k=3)
    aug, rec_a = bregman_step(s0, exp, stack, k=3,
                              center=net_forward(arch, w, rng.standard_normal(8)),
                              lam=0.0)
    np.testing.assert_array_equal(plain.x_dual, aug.x_dual)
    np.testing.assert_array_equal(plain.x_primal, aug.x_primal)
    assert rec_p == rec_a


def test_augmented_joint_fixed_point_is_noop(rng):
    arch = small_arch()
    w = net_init(arch, seed=2)
    z = rng.standard_normal(8)
    g = net_forward(arch, w, z)
    exp = LinearExperiment(ScaledIdentity((4, 4)), g.copy())  # zero data residual at x=g
    state = BregmanState(g.copy(), g.copy(), 0)
    new, rec = bregman_step(state, exp, WIDE, center=net_forward(arch, w, z), lam=1.0)
    np.testing.assert_array_equal(new.x_dual, state.x_dual)
    np.testing.assert_array_equal(new.x_primal, state.x_primal)
    assert rec.t_k == 0.0


def _const_generator_setup(g_value):
    # stage-free 1x1 net emitting a constant, independent of z
    arch = NetArch(latent_dim=1, base_rows=1, base_cols=1, base_channels=1,
                   stages=(), final_kernel_size=1)
    w = np.zeros(arch.n_params)
    w[-1] = g_value  # final bias
    return arch, w


def test_augmented_scalar_fixed_point_unconstrained():
    arch, w = _const_generator_setup(0.2)
    y = np.array([[1.0]])
    exp = LinearExperiment(ScaledIdentity((1, 1)), y)
    x_fix = (y + 0.2) / 2.0
    state = BregmanState(x_fix.copy(), x_fix.copy(), 0)
    new, rec = bregman_step(state, exp, WIDE,
                            center=net_forward(arch, w, np.zeros(1)), lam=1.0)
    assert rec.t_k == 0.0
    np.testing.assert_array_equal(new.x_primal, x_fix)


def test_augmented_scalar_fixed_point_clipped_box():
    arch, w = _const_generator_setup(0.2)
    y = np.array([[1.0]])
    exp = LinearExperiment(ScaledIdentity((1, 1)), y)
    stack = ConstraintStack((Box(0.0, 0.4),))
    state = BregmanState(np.array([[0.4]]), np.array([[0.4]]), 0)
    for _ in range(25):
        state, _ = bregman_step(state, exp, stack,
                                center=net_forward(arch, w, np.zeros(1)), lam=1.0)
    # primal pinned at the projected stationary point P_C((y + g)/2)
    np.testing.assert_allclose(state.x_primal, [[0.4]], rtol=1e-12)


def test_run_bregman_zero_iters():
    bank = identity_bank([np.ones((3, 3))])
    state, trace = run_bregman(bank, WIDE, initial_state(bank.shape), range(bank.n),
                               0, seed=0)
    np.testing.assert_array_equal(state.x_primal, np.zeros((3, 3)))
    assert trace == []


def test_run_bregman_single_experiment_draws_constant():
    bank = identity_bank([np.ones((2, 2))])
    _, trace = run_bregman(bank, WIDE, initial_state(bank.shape), range(bank.n),
                           7, seed=1)
    assert [r.k for r in trace] == [0] * 7
    assert [r.iter for r in trace] == list(range(7))


def test_run_bregman_deterministic(rng):
    bank = identity_bank([rng.standard_normal((3, 3)) for _ in range(4)])
    s1, t1 = run_bregman(bank, WIDE, initial_state(bank.shape), range(bank.n), 25, seed=9)
    s2, t2 = run_bregman(bank, WIDE, initial_state(bank.shape), range(bank.n), 25, seed=9)
    assert t1 == t2
    np.testing.assert_array_equal(s1.x_primal, s2.x_primal)


def test_feasibility_and_steplength_bounds_along_run(rng, monkeypatch):
    import breguq.bregman

    x_star = rng.uniform(-1, 1, (4, 4))
    bank = restriction_bank(x_star, [range(0, 8), range(8, 16)])
    stack = ConstraintStack((Box(-1.0, 1.0), L1Ball(6.0)))
    audited = []

    def recorded(*args, **kwargs):
        state, rec = bregman_step(*args, **kwargs)
        audited.append(state.x_primal)
        return state, rec

    monkeypatch.setattr(breguq.bregman, "bregman_step", recorded)
    state, trace = run_bregman(bank, stack, initial_state(bank.shape), range(bank.n),
                               30, seed=11)
    assert len(audited) == 30
    for x in audited:
        assert is_feasible(x, stack, stack.dykstra_tol)
    for rec in trace:
        assert 0.0 <= rec.t_k <= 10.0


def test_eval_lsq_zero_at_truth(rng):
    x_star = rng.standard_normal((3, 3))
    bank = restriction_bank(x_star, [range(0, 4), range(4, 9)])
    assert eval_lsq_objective(bank, x_star) == 0.0


def test_eval_lsq_at_zero(rng):
    ys = [rng.standard_normal((2, 2)) for _ in range(3)]
    bank = identity_bank(ys)
    expected = 0.5 * sum(float(np.sum(y * y)) for y in ys)
    assert eval_lsq_objective(bank, np.zeros((2, 2))) == pytest.approx(expected,
                                                                      rel=1e-15)


def test_eval_lsq_matches_reversed_accumulation(rng):
    ys = [rng.standard_normal((4, 4)) for _ in range(6)]
    bank = identity_bank(ys)
    x = rng.standard_normal((4, 4))
    forward = eval_lsq_objective(bank, x)
    rev = 0.0
    for exp in reversed(bank.experiments):
        r = exp.op.apply(x) - exp.y
        rev += float(np.dot(r.ravel(), r.ravel()))
    rev *= 0.5
    assert abs(forward - rev) <= 1e-10 * abs(rev)


def test_eval_joint_reduction_and_additivity(rng):
    # the recorded joint objective is the data misfit plus the weak-prior
    # penalty at the pre-step primal; with no prior there is none
    arch = small_arch()
    w = net_init(arch, seed=3)
    z = rng.standard_normal(8)
    bank = identity_bank([rng.standard_normal((4, 4))])
    x = rng.standard_normal((4, 4))
    state = BregmanState(x.copy(), x.copy(), 0)
    _, rec = bregman_step(state, bank.experiments[0], WIDE,
                          center=net_forward(arch, w, z), lam=0.0)
    assert rec.joint_objective is None
    lam = 0.7
    _, rec = bregman_step(state, bank.experiments[0], WIDE,
                          center=net_forward(arch, w, z), lam=lam)
    diff = x - net_forward(arch, w, z)
    expected = eval_lsq_objective(bank, x) + 0.5 * lam * lam * float(np.sum(diff * diff))
    assert rec.joint_objective == pytest.approx(expected, rel=1e-14)


def test_positive_lambda_requires_prior_and_negative_rejected():
    exp = LinearExperiment(ScaledIdentity((4, 4)), np.ones((4, 4)))
    arch = small_arch()
    w = net_init(arch, seed=3)
    with pytest.raises(ValueError):
        bregman_step(initial_state((4, 4)), exp, WIDE, lam=0.5)
    with pytest.raises(ValueError):
        bregman_step(initial_state((4, 4)), exp, WIDE,
                     center=net_forward(arch, w, np.zeros(8)), lam=-0.1)


def test_nonfinite_aborts_with_snapshot():
    y = np.full((2, 2), 1e200)
    exp = LinearExperiment(ScaledIdentity((2, 2)), y)
    with pytest.raises(NumericalAbortError) as err:
        bregman_step(initial_state((2, 2)), exp, WIDE)
    assert "state" in err.value.diagnostics


def test_trace_csv_format(tmp_path):
    records = [TraceRecord(0, 3, 0.5, 1.25, None, False, 1, True),
               TraceRecord(1, 0, 0.0, 0.5, 0.875, True, 200, False, 0.0625)]
    path = tmp_path / "trace.csv"
    write_records(path, TraceRecord, records)
    lines = path.read_text().splitlines()
    assert lines[0] == ("iter,k,t_k,residual_norm,joint_objective,"
                        "skipped,proj_sweeps,proj_converged,proj_tv_gap")
    assert lines[1] == "0,3,0.5,1.25,,0,1,1,"
    assert lines[2] == "1,0,0.0,0.5,0.875,1,200,0,0.0625"
    assert read_records(path, TraceRecord) == records
