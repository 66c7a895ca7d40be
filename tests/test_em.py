from dataclasses import replace

import numpy as np
import pytest

import breguq.bregman
from breguq.bregman import (BregmanState, TraceRecord, bregman_step, initial_state,
                            run_bregman)
from breguq.em import (RoundRecord, TrainConfig, TrainTuple, e_step, init_tuples,
                       load_checkpoint, m_step, round_schedule, save_checkpoint,
                       train)
from breguq.errors import NumericalAbortError
from breguq.net import (NetArch, StageSpec, net_eval_and_backward, net_forward,
                        net_init)
from breguq.projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall,
                                is_feasible)
from breguq.sgld import SgldParams
from breguq.testbed import (NoiseSpec, add_noise_to_snr, gaussian_kernel,
                            make_bank, make_ground_truth)

from conftest import restriction_bank, run_files, small_arch

WIDE = ConstraintStack((Box(-1e9, 1e9),))


def small_bank(rng, shape=(4, 4), n_exp=4):
    x_star = rng.uniform(-1, 1, shape)
    size = shape[0] * shape[1]
    groups = [range(i, size, n_exp) for i in range(n_exp)]
    return restriction_bank(x_star, groups)


def training_instance():
    """16x16 bank with mixed noise plus a stable training config."""
    truth = make_ground_truth((16, 16), seed=101)
    bank0 = make_bank(truth, 8, gaussian_kernel(3, 0.8), 0.5, seed=102)
    bank, _ = add_noise_to_snr(bank0, truth, NoiseSpec(-5.0), seed=103)
    l1 = 1.2 * float(np.abs(truth).sum())
    stack = ConstraintStack((Box(-1.0, 1.0), L1Ball(l1)))
    arch = NetArch(latent_dim=16, base_rows=4, base_cols=4, base_channels=4,
                   stages=(StageSpec(4), StageSpec(4)))
    return truth, bank, stack, arch


# --- tuple initialization ---

def test_init_tuples_partition_covers_bank(rng):
    bank = small_bank(rng, n_exp=4)
    tuples = init_tuples(bank, 3, seed=1, latent_dim=6)
    all_ids = np.concatenate([t.experiment_ids for t in tuples])
    assert sorted(all_ids.tolist()) == [0, 1, 2, 3]
    assert [t.id for t in tuples] == [0, 1, 2]
    for t in tuples:
        assert not t.state.x_primal.any() and not t.state.x_dual.any()


def test_init_tuples_one_per_tuple(rng):
    bank = small_bank(rng, n_exp=4)
    tuples = init_tuples(bank, 4, seed=2, latent_dim=3)
    assert [t.experiment_ids.tolist() for t in tuples] == [[0], [1], [2], [3]]


def test_init_tuples_single_tuple_owns_bank(rng):
    bank = small_bank(rng, n_exp=4)
    (t,) = init_tuples(bank, 1, seed=3, latent_dim=3)
    assert t.experiment_ids.tolist() == [0, 1, 2, 3]


def test_init_tuples_latent_statistics(rng):
    bank = small_bank(rng, n_exp=16, shape=(8, 8))
    tuples = init_tuples(bank, 16, seed=4, latent_dim=64)
    z = np.concatenate([t.z for t in tuples])
    assert z.size >= 1000
    assert abs(z.mean()) < 0.1
    assert abs(z.var() - 1.0) < 0.1


def test_init_tuples_rejects_oversubscription(rng):
    with pytest.raises(ValueError):
        init_tuples(small_bank(rng, n_exp=4), 5, seed=0, latent_dim=3)


# --- e-step ---

def _null_config(**kw):
    base = dict(n_tuples=2, rounds=1, bregman_steps_per_round=0,
                sgld=SgldParams(epsilon=0.01, steps=0), lam_init=0.0,
                lam_final=0.0, eta=0.0, z_seed=5, draw_seed=6, noise_seed=7)
    base.update(kw)
    return TrainConfig(**base)


def test_e_step_noop_when_counts_zero(rng):
    bank = small_bank(rng)
    arch = small_arch()
    w = net_init(arch, seed=8)
    tuples = init_tuples(bank, 2, seed=9, latent_dim=8)
    out, traces = e_step(tuples, bank, arch, w, 0.5, WIDE, _null_config(), 0)
    for a, b in zip(out, tuples):
        np.testing.assert_array_equal(a.state.x_primal, b.state.x_primal)
        np.testing.assert_array_equal(a.z, b.z)
    assert all(rows == [] for rows in traces.values())


def test_e_step_lambda_zero_matches_manual_keyed_steps(rng):
    bank = small_bank(rng)
    arch = small_arch()
    w = net_init(arch, seed=10)
    tuples = init_tuples(bank, 2, seed=11, latent_dim=8)
    cfg = _null_config(bregman_steps_per_round=5)
    out, _ = e_step(tuples, bank, arch, w, 0.0, WIDE, cfg, 0)
    for t in tuples:
        stream = np.random.default_rng(np.random.SeedSequence([6, t.id]))
        state = t.state
        for _ in range(5):
            j = int(stream.integers(0, t.experiment_ids.size))
            k = int(t.experiment_ids[j])
            state, _ = bregman_step(state, bank.experiments[k], WIDE, k=k)
        got = next(o for o in out if o.id == t.id)
        np.testing.assert_array_equal(got.state.x_primal, state.x_primal)


def test_e_step_feasible_after_round(rng):
    truth, bank, stack, arch = training_instance()
    w = net_init(arch, seed=12)
    tuples = init_tuples(bank, 2, seed=13, latent_dim=16)
    cfg = _null_config(bregman_steps_per_round=6,
                       sgld=SgldParams(epsilon=0.001, steps=3))
    out, _ = e_step(tuples, bank, arch, w, 0.2, stack, cfg, 0)
    for t in out:
        assert is_feasible(t.state.x_primal, stack, stack.dykstra_tol)


def test_e_step_schedule_independent(rng):
    bank = small_bank(rng)
    arch = small_arch()
    w = net_init(arch, seed=14)
    tuples = init_tuples(bank, 4, seed=15, latent_dim=8)
    cfg = _null_config(n_tuples=4, bregman_steps_per_round=3,
                       sgld=SgldParams(epsilon=0.01, steps=2))
    fwd, _ = e_step(tuples, bank, arch, w, 0.3, WIDE, cfg, 2)
    rev, _ = e_step(list(reversed(tuples)), bank, arch, w, 0.3, WIDE, cfg, 2)
    by_id = {t.id: t for t in rev}
    for t in fwd:
        np.testing.assert_array_equal(t.state.x_primal, by_id[t.id].state.x_primal)
        np.testing.assert_array_equal(t.z, by_id[t.id].z)


def test_e_step_evaluates_generator_once_per_tuple(rng, monkeypatch):
    # z and w are fixed during a tuple's Bregman block, so the center g(z, w)
    # is computed once per tuple, not once per step, and never at lam = 0
    bank = small_bank(rng)
    arch = small_arch()
    w = net_init(arch, seed=18)
    tuples = init_tuples(bank, 3, seed=19, latent_dim=8)
    cfg = _null_config(n_tuples=3, bregman_steps_per_round=5)
    calls = []

    def counted(*args):
        calls.append(args)
        return net_forward(*args)

    monkeypatch.setattr("breguq.em.net_forward", counted)
    e_step(tuples, bank, arch, w, 0.4, WIDE, cfg, 0)
    assert len(calls) == len(tuples)
    calls.clear()
    e_step(tuples, bank, arch, w, 0.0, WIDE, cfg, 0)
    assert calls == []


# --- m-step ---

def _tuple(tid, x_primal, z):
    """A tuple at primal `x_primal` (zero dual): all the M-step reads."""
    return TrainTuple(tid, np.array([tid]), BregmanState(np.zeros_like(x_primal), x_primal),
                      z)


def test_m_step_fixed_point(rng):
    arch = small_arch()
    w = net_init(arch, seed=16)
    z = rng.standard_normal(8)
    t = _tuple(0, net_forward(arch, w, z), z)
    np.testing.assert_array_equal(m_step([t], arch, w, eta=0.5), w)


def test_m_step_zero_eta(rng):
    arch = small_arch()
    w = net_init(arch, seed=17)
    z = rng.standard_normal(8)
    t = _tuple(0, rng.standard_normal((4, 4)), z)
    np.testing.assert_array_equal(m_step([t], arch, w, eta=0.0), w)


def test_m_step_scalar_hand_case():
    # g(z) = fW*(dW*z + db) + fb with w = (dW, db, fW, fb) = (0, 0, 1, 0):
    # for z = 1, x = 1 the gradient of ||x - g||^2 is (-2, -2, 0, -2),
    # so eta = 0.5 sends the dense weight from 0 to 1.
    arch = NetArch(latent_dim=1, base_rows=1, base_cols=1, base_channels=1,
                   stages=(), final_kernel_size=1)
    w = np.array([0.0, 0.0, 1.0, 0.0])
    t = _tuple(0, np.array([[1.0]]), np.array([1.0]))
    out = m_step([t], arch, w, eta=0.5)
    np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0], rtol=1e-15)


def test_m_step_sum_vs_mean_normalization(rng):
    arch = small_arch()
    w = net_init(arch, seed=18)
    tuples = [_tuple(i, rng.standard_normal((4, 4)), rng.standard_normal(8))
              for i in range(4)]
    # the tuple-averaged step is a step on the summed loss with eta / tuples
    w_mean = m_step(tuples, arch, w, eta=1e-3)
    grad_sum = sum(net_eval_and_backward(arch, w, t.z,
                                         lambda out, t=t: 2.0 * (out - t.state.x_primal))[2]
                   for t in tuples)
    w_sum = w - (1e-3 / 4) * grad_sum
    np.testing.assert_allclose(w_mean, w_sum, rtol=1e-12, atol=1e-15)


def test_m_step_aborts_on_nonfinite(rng):
    arch = small_arch()
    w = net_init(arch, seed=19)
    w[0] = 1e200
    t = _tuple(0, np.full((4, 4), 1e200), np.full(8, 1e150))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbortError) as err:
            m_step([t], arch, w, eta=1e-3)
    assert "per_tuple_loss" in err.value.diagnostics


# --- schedule ---

def lam_at(cfg, r):
    return round_schedule(cfg, WIDE, WIDE, r)[0]


def test_lam_schedule_ramp():
    cfg = TrainConfig(rounds=10, lam_init=0.0, lam_final=1.0, lam_ramp_rounds=None)
    vals = [lam_at(cfg, r) for r in range(10)]
    assert vals[0] == 0.0
    assert vals[5] == 1.0 and vals[9] == 1.0  # ramp over rounds // 2
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    cfg2 = TrainConfig(rounds=10, lam_init=0.2, lam_final=0.2, lam_ramp_rounds=4)
    assert lam_at(cfg2, 0) == pytest.approx(0.2)


def test_negative_lam_ramp_rounds_rejected():
    with pytest.raises(ValueError, match="lam_ramp_rounds must be non-negative, got -5"):
        TrainConfig(lam_ramp_rounds=-5)
    assert lam_at(TrainConfig(rounds=4, lam_ramp_rounds=0), 0) == 1.0


def test_round_schedule_moves_lam_and_stack_on_one_fraction():
    cfg = TrainConfig(rounds=8, lam_init=0.0, lam_final=2.0, lam_ramp_rounds=4)
    start = ConstraintStack((Box(-0.0, 0.25), L1Ball(10.0)), dykstra_tol=1e-7)
    final = ConstraintStack((Box(-0.0, 1.0), L1Ball(30.0)))
    for r, lam, hi, radius in [(0, 0.0, 0.25, 10.0), (1, 0.5, 0.4375, 15.0),
                               (2, 1.0, 0.625, 20.0), (4, 2.0, 1.0, 30.0),
                               (7, 2.0, 1.0, 30.0)]:
        got_lam, stack = round_schedule(cfg, start, final, r)
        assert got_lam == lam
        assert stack == ConstraintStack((Box(-0.0, hi), L1Ball(radius)), dykstra_tol=1e-7)
        # a field the two ends share keeps its bits: the lower bound stays -0.0
        assert np.signbit(stack.sets[0].lo)
    # equal ends: the start stack itself, every round
    assert round_schedule(cfg, start, start, 2)[1] is start


# --- full loop ---

def test_train_zero_rounds_returns_initial(rng):
    bank = small_bank(rng)
    arch = small_arch()
    cfg = _null_config(rounds=0, n_tuples=2)
    res = train(bank, WIDE, arch, cfg)
    np.testing.assert_array_equal(res.weights, res.initial_weights)
    np.testing.assert_array_equal(res.weights, net_init(arch, cfg.init_seed,
                                                        cfg.init_scale))
    assert res.rounds == []
    for t in res.tuples:
        assert not t.state.x_primal.any()


def test_train_reduces_to_plain_bregman(rng):
    bank = small_bank(rng, n_exp=4)
    stack = ConstraintStack((Box(-1.0, 1.0), L1Ball(8.0)))
    arch = small_arch()
    iters = 12
    state, trace = run_bregman(bank, stack, initial_state(bank.shape), range(bank.n),
                               iters, seed=77)
    cfg = TrainConfig(n_tuples=1, rounds=3, bregman_steps_per_round=4,
                      sgld=SgldParams(epsilon=0.01, steps=0),
                      lam_init=0.0, lam_final=0.0, eta=0.0,
                      z_seed=1, draw_seed=77, noise_seed=2)
    res = train(bank, stack, arch, cfg)
    assert res.tuple_traces[0] == trace
    assert res.tuples[0].state.iter == state.iter
    np.testing.assert_array_equal(res.tuples[0].state.x_primal, state.x_primal)
    np.testing.assert_array_equal(res.tuples[0].state.x_dual, state.x_dual)


def test_train_sends_every_step_through_the_one_driver(rng, monkeypatch):
    # run_bregman is the only loop over bregman_step: every E-step step goes
    # through the module binding it calls, which sees each new state
    bank = small_bank(rng, n_exp=4)
    calls, states = [], []

    def counted(*args, **kwargs):
        calls.append(kwargs["k"])
        state, rec = bregman_step(*args, **kwargs)
        states.append(state)
        return state, rec

    monkeypatch.setattr(breguq.bregman, "bregman_step", counted)
    cfg = TrainConfig(n_tuples=2, rounds=2, bregman_steps_per_round=3,
                      sgld=SgldParams(epsilon=0.01, steps=1), lam_init=0.5,
                      lam_final=0.5, eta=1e-4, z_seed=3, draw_seed=4, noise_seed=5)
    res = train(bank, WIDE, small_arch(), cfg)
    assert len(calls) == 12
    assert len(states) == 12
    assert sorted(s.iter for s in states) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    assert [t.state.iter for t in res.tuples] == [6, 6]


def test_train_improves_prior_misfit():
    truth, bank, stack, arch = training_instance()
    cfg = TrainConfig(n_tuples=2, rounds=30, bregman_steps_per_round=4,
                      sgld=SgldParams(epsilon=0.001, steps=5),
                      lam_init=0.0, lam_final=1.0, eta=1e-4, m_steps_per_round=10,
                      init_seed=7, z_seed=8, draw_seed=9, noise_seed=10)
    res = train(bank, stack, arch, cfg)
    pm = [r.mean_prior_misfit for r in res.rounds]
    assert pm[-1] <= pm[0] / 2.0


def test_train_center_variable_slack_orders_with_lambda():
    truth, bank, stack, arch = training_instance()

    def spread(lam):
        cfg = TrainConfig(n_tuples=4, rounds=24, bregman_steps_per_round=4,
                          sgld=SgldParams(epsilon=0.001, steps=4),
                          lam_init=lam, lam_final=lam, eta=1e-4,
                          m_steps_per_round=10, init_seed=7, z_seed=8,
                          draw_seed=9, noise_seed=10)
        res = train(bank, stack, arch, cfg)
        xs = [t.state.x_primal for t in res.tuples]
        return max(np.linalg.norm(a - b) for i, a in enumerate(xs)
                   for b in xs[i + 1:])

    small, large = spread(0.02), spread(5.0)
    assert small > 0.0
    assert large < small


def test_train_honors_stack_schedule(rng):
    # a 1-round ramp window: round 0 runs the tight box, round 1 the loose one
    bank = small_bank(rng, n_exp=4)
    arch = small_arch()
    cfg = TrainConfig(n_tuples=2, rounds=2, bregman_steps_per_round=4,
                      sgld=SgldParams(epsilon=0.01, steps=0),
                      lam_init=0.0, lam_final=0.0, eta=0.0,
                      z_seed=30, draw_seed=31, noise_seed=32)
    tight = ConstraintStack((Box(-0.05, 0.05),))
    loose = ConstraintStack((Box(-1.0, 1.0),))
    fixed = train(bank, tight, arch, cfg)
    relaxed = train(bank, tight, arch, cfg, stack_final=loose)
    assert np.max(np.abs(fixed.tuples[0].state.x_primal)) <= 0.05 + 1e-12
    assert np.max(np.abs(relaxed.tuples[0].state.x_primal)) > 0.05


def test_train_relaxes_l1_radius_over_the_ramp(monkeypatch):
    # l1 radius 0.5 -> 0.25 of the truth's l1 norm over a 2-round window:
    # the first round's iterates reach beyond the final radius, and every
    # iterate of the last round is within it
    truth, bank, stack, arch = training_instance()
    l1 = float(np.abs(truth).sum())
    start = ConstraintStack((Box(-1.0, 1.0), L1Ball(0.5 * l1)))
    final = ConstraintStack((Box(-1.0, 1.0), L1Ball(0.25 * l1)))
    cfg = TrainConfig(n_tuples=2, rounds=3, bregman_steps_per_round=6,
                      sgld=SgldParams(epsilon=0.001, steps=2), lam_init=0.5,
                      lam_final=0.5, lam_ramp_rounds=2, eta=1e-4, init_seed=7,
                      z_seed=8, draw_seed=9, noise_seed=10)
    norms = {}

    def recorded(*args, **kwargs):
        s, rec = bregman_step(*args, **kwargs)
        norms.setdefault((s.iter - 1) // cfg.bregman_steps_per_round, []).append(
            float(np.abs(s.x_primal).sum()))
        return s, rec

    monkeypatch.setattr(breguq.bregman, "bregman_step", recorded)
    train(bank, start, arch, cfg, stack_final=final)
    assert sorted(norms) == [0, 1, 2] and len(norms[2]) == 12
    assert max(norms[0]) > 0.25 * l1
    assert max(norms[2]) <= 0.25 * l1 + final.dykstra_tol


def test_train_checkpoint_resume_reproduces(tmp_path, rng):
    truth, bank, stack, arch = training_instance()
    # lam_ramp_rounds pinned so the interrupted and full runs share the
    # same schedule despite their different `rounds`
    cfg = TrainConfig(n_tuples=2, rounds=6, bregman_steps_per_round=3,
                      sgld=SgldParams(epsilon=0.001, steps=3),
                      lam_init=0.0, lam_final=0.5, lam_ramp_rounds=3, eta=1e-4,
                      init_seed=7, z_seed=8, draw_seed=9, noise_seed=10)
    full = train(bank, stack, arch, cfg, run_dir=tmp_path / "full")

    cfg_half = TrainConfig(**{**cfg.__dict__, "rounds": 3})
    run = tmp_path / "run"
    train(bank, stack, arch, cfg_half, run_dir=run)
    resumed = train(bank, stack, arch, cfg, resume_from=run)
    np.testing.assert_array_equal(resumed.weights, full.weights)
    assert resumed.rounds == full.rounds
    assert resumed.tuple_traces == full.tuple_traces
    for a, b in zip(resumed.tuples, full.tuples):
        np.testing.assert_array_equal(a.state.x_primal, b.state.x_primal)
        np.testing.assert_array_equal(a.z, b.z)
    # resumed in place, the run directory becomes the uninterrupted one
    train(bank, stack, arch, cfg, run_dir=run, resume_from=run)
    assert run_files(run) == run_files(tmp_path / "full")


def test_checkpoint_roundtrip(tmp_path, rng):
    bank = small_bank(rng)
    arch = small_arch()
    w = net_init(arch, seed=20)
    rounds = [RoundRecord(r, 0.1 * r, 1.0 / 3.0 + r, 2.0 / 7.0) for r in range(5)]
    traces = {0: [TraceRecord(0, 2, 0.1, 1.0 / 3.0, None, False, 1, True)],
              1: [TraceRecord(0, 1, 0.0, 0.5, 2.0 / 3.0, True, 7, False),
                  TraceRecord(1, 3, 10.0, 1e-17, 0.25, False, 1, True)]}
    # a tuple's step count is the length of its trace; load_checkpoint checks it
    tuples = [replace(t, state=replace(t.state, iter=len(traces[t.id])))
              for t in init_tuples(bank, 2, seed=21, latent_dim=8)]
    # every set kind and every knob, off their defaults
    stacks = (ConstraintStack((Box(-1.0, 0.5), L1Ball(1.0 / 3.0), L2Ball(2.0), TVBall(0.0)),
                              dykstra_tol=1e-9, tv_max_iters=7, tv_tol=1.0 / 3.0),
              ConstraintStack((Box(-0.75, 0.5), L1Ball(0.25), L2Ball(2.0), TVBall(1e-17)),
                              dykstra_tol=1e-9, tv_max_iters=7, tv_tol=1.0 / 3.0))
    save_checkpoint(tmp_path / "c", arch, w, tuples, 4, 3, stacks, rounds, traces)
    w2, tuples2, nxt, rounds2, traces2, window, stacks2 = load_checkpoint(tmp_path / "c", arch)
    assert nxt == 5 and window == 3 and stacks2 == stacks
    assert rounds2 == rounds
    assert traces2 == traces
    np.testing.assert_array_equal(w2, w)
    for a, b in zip(tuples2, tuples):
        assert a.id == b.id and a.state.iter == b.state.iter
        np.testing.assert_array_equal(a.experiment_ids, b.experiment_ids)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.state.x_primal, b.state.x_primal)
        np.testing.assert_array_equal(a.state.x_dual, b.state.x_dual)


def test_checkpoint_append_writes_the_whole_save(tmp_path, rng):
    # a save of rounds 0-2 and one that appends rounds 3-4 (and the later
    # trace rows) leave the files of one save of rounds 0-4
    bank = small_bank(rng)
    arch = small_arch()
    w = net_init(arch, seed=20)
    rounds = [RoundRecord(r, 0.1 * r, 1.0 / 3.0 + r, 2.0 / 7.0) for r in range(5)]
    row = TraceRecord(0, 1, 0.0, 0.5, 2.0 / 3.0, True, 7, False, None)
    traces = {0: [replace(row, iter=i) for i in range(3)], 1: [row]}
    tuples = [replace(t, state=replace(t.state, iter=len(traces[t.id])))
              for t in init_tuples(bank, 2, seed=21, latent_dim=8)]
    stacks = (ConstraintStack((Box(-1.0, 1.0), L1Ball(2.0))),) * 2
    save_checkpoint(tmp_path / "whole", arch, w, tuples, 4, 2, stacks, rounds, traces)
    save_checkpoint(tmp_path / "grown", arch, w, tuples, 2, 2, stacks, rounds[:3],
                    {0: traces[0][:1], 1: []})
    save_checkpoint(tmp_path / "grown", arch, w, tuples, 4, 2, stacks, rounds[3:],
                    {0: traces[0][1:], 1: traces[1]}, append=True)
    assert run_files(tmp_path / "grown") == run_files(tmp_path / "whole")
    assert load_checkpoint(tmp_path / "grown", arch)[3] == rounds


def test_m_step_bit_reproducible(rng):
    arch = small_arch()
    w = net_init(arch, seed=22)
    tuples = [_tuple(i, rng.standard_normal((4, 4)), rng.standard_normal(8))
              for i in range(3)]
    a = m_step(tuples, arch, w, eta=1e-3)
    b = m_step(tuples, arch, w, eta=1e-3)
    np.testing.assert_array_equal(a, b)
