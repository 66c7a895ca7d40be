"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The desk-scale fixtures (generated survey, 350-step inversion,
full training run) are session-scoped and shared across criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import breguq.bregman
from breguq.bregman import bregman_step, initial_state, run_bregman
from breguq.checks import (gradient_worst, objective_gap, operator_kinds, oracle_worst,
                           pointwise_gap, sgld_moments)
from breguq.cli import main
from breguq.em import TrainConfig, train
from breguq.linops import dot_test
from breguq.net import NetArch, StageSpec, net_forward, net_init
from breguq.projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall,
                                is_feasible, total_variation)
from breguq.sgld import SgldParams
from breguq.stats import SampleSet, draw_latents, model_quality, summarize
from breguq.testbed import load_bank, make_ground_truth

from conftest import (eval_lsq_objective, identity_bank, linearization_error,
                      linearization_error_direct, small_arch)

DESK_SHAPE = (64, 64)
DESK_SEEDS = {"truth": 11, "mask": 13, "noise": 17}
DESK_L1_RADIUS = 2100.0
DESK_STACK = ConstraintStack((Box(-1.0, 1.0), L1Ball(DESK_L1_RADIUS)))
DESK_ARCH = NetArch(latent_dim=64, base_rows=4, base_cols=4, base_channels=8,
                    stages=tuple(StageSpec(8) for _ in range(4)))
# tuned desk-scale training settings (see resolved config shipped with runs)
DESK_TRAIN = dict(n_tuples=8, rounds=60, bregman_steps_per_round=8,
                  sgld=SgldParams(epsilon=1e-2, steps=20),
                  lam_init=0.0, lam_final=0.25, eta=3e-5, m_steps_per_round=20,
                  init_seed=23, init_scale=1.3, z_seed=37, draw_seed=41,
                  noise_seed=31)

DESK_CFG = f"""\
[testbed]
rows = 64
cols = 64
experiments = 64
sampling_fraction = 0.25
kernel_size = 5
kernel_sigma = 1.0
target_snr_db = -11.37
truth_seed = {DESK_SEEDS["truth"]}
mask_seed = {DESK_SEEDS["mask"]}
noise_seed = {DESK_SEEDS["noise"]}

[constraints]
sets = box,l1
box_lo = -1.0
box_hi = 1.0
l1_radius = {DESK_L1_RADIUS}
"""


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def desk_bank(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CFG)
    out = root / "bank"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    bank, manifest = load_bank(out)
    truth = make_ground_truth(DESK_SHAPE, DESK_SEEDS["truth"])
    return {"dir": out, "cfg": cfg, "bank": bank, "manifest": manifest,
            "truth": truth}


@contextmanager
def feasibility_recorded(flags):
    """Within it, every `bregman_step` appends to `flags` whether its new
    primal iterate is feasible for the desk stack."""
    def recorded(*args, **kwargs):
        state, rec = bregman_step(*args, **kwargs)
        flags.append(is_feasible(state.x_primal, DESK_STACK,
                                 DESK_STACK.dykstra_tol).feasible)
        return state, rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(breguq.bregman, "bregman_step", recorded)
        yield


@pytest.fixture(scope="session")
def desk_inversion(desk_bank):
    audited = []
    bank = desk_bank["bank"]
    with feasibility_recorded(audited):
        state, trace = run_bregman(bank, DESK_STACK, initial_state(bank.shape),
                                   range(bank.n), 350, seed=29)
    return {"state": state, "trace": trace, "feasible_flags": audited}


@pytest.fixture(scope="session")
def desk_training(desk_bank):
    flags = []
    config = TrainConfig(**DESK_TRAIN)
    t0 = time.time()
    with feasibility_recorded(flags):
        result = train(desk_bank["bank"], DESK_STACK, DESK_ARCH, config)
    return {"result": result, "feasible_flags": flags,
            "train_seconds": time.time() - t0}


def test_criterion_1_operator_dot_tests(desk_bank):
    t0 = time.time()
    kinds = operator_kinds((16, 16), 424, (5,), 100)
    worst = max(dot_test(op, seed=1, trials=20) for _, op in kinds)
    for exp in desk_bank["bank"].experiments:
        worst = max(worst, dot_test(exp.op, seed=2, trials=20))
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"max adjoint discrepancy {worst:.2e} over every kind and all "
           f"{desk_bank['bank'].n} bank operators in {elapsed:.1f}s")


def _vector_draw(scale, one_set):
    def draw(rng):
        return np.atleast_2d(scale * rng.standard_normal(rng.integers(2, 9))), (one_set,)
    return draw


def _tv_draw(rng):
    x = rng.standard_normal((2, 4))
    return x, (TVBall(total_variation(x) * rng.uniform(0.15, 0.85)),)


def _tv_excess(mine, ref, x, stack):
    (ball,) = stack.sets
    return total_variation(mine) - ball.radius * (1 + 1e-6)


def test_criterion_2_projection_qp_agreement():
    t0 = time.time()
    point = (pointwise_gap,)
    *points, (worst_tv, tv_excess) = oracle_worst(777, [
        (100, _vector_draw(3.0, Box(-0.8, 0.9)), point),
        (100, _vector_draw(2.0, L2Ball(1.4)), point),
        (100, _vector_draw(2.0, L1Ball(1.8)), point),
        (100, lambda rng: (2.0 * rng.standard_normal((2, 4)),
                           (Box(-0.7, 0.8), L1Ball(1.6))), point),
        (100, _tv_draw, (objective_gap, _tv_excess))])
    worst_pt = max(gap for (gap,) in points)
    elapsed = time.time() - t0
    report(2, worst_pt <= 1e-6 and worst_tv <= 1e-4 and tv_excess <= 0
           and elapsed < 60.0,
           f"worst point deviation {worst_pt:.2e}, worst tv objective gap "
           f"{worst_tv:.2e}, {elapsed:.1f}s"
           + (f"; a result outside its TV ball by {tv_excess:.2e}" if tv_excess > 0 else ""))


def test_criterion_3_gradient_exactness():
    t0 = time.time()
    arch = NetArch(latent_dim=64, base_rows=4, base_cols=4, base_channels=8,
                   stages=(StageSpec(8), StageSpec(8)))
    worst = gradient_worst(arch, weight_seed=13, seed=12, weight_coords=50)
    elapsed = time.time() - t0
    report(3, worst <= 1e-5 and elapsed < 30.0,
           f"worst finite-difference relative error {worst:.2e} over all "
           f"latent and 50 weight coordinates, {elapsed:.1f}s")


def test_criterion_4_sgld_stationary_variance():
    t0 = time.time()
    eps = 0.1
    n = 100000
    mean, second = sgld_moments(seed=2718, dim=8, epsilon=eps, warmup=2000, steps=n)
    var = second - mean ** 2
    target = 1.0 / (2.0 - eps)
    dev = float(np.max(np.abs(var - target)) / target)
    elapsed = time.time() - t0
    report(4, dev <= 0.05 and elapsed < 30.0,
           f"per-coordinate variance within {dev:.2%} of 1/(2-eps)={target:.4f} "
           f"over {n} post-warm-up steps, {elapsed:.1f}s")


def test_criterion_5_reduction_chain(rng):
    arch = small_arch()
    w = net_init(arch, seed=3)
    ys = [rng.standard_normal((4, 4)) for _ in range(4)]
    bank = identity_bank(ys)
    stack = ConstraintStack((Box(-2.0, 2.0), L1Ball(12.0)))
    s0 = initial_state((4, 4))
    bitwise = True
    for k in range(4):
        plain, rp = bregman_step(s0, bank.experiments[k], stack, k=k)
        aug, ra = bregman_step(s0, bank.experiments[k], stack, k=k,
                               center=net_forward(arch, w, rng.standard_normal(8)),
                               lam=0.0)
        bitwise &= (plain.x_dual.tobytes() == aug.x_dual.tobytes()
                    and plain.x_primal.tobytes() == aug.x_primal.tobytes()
                    and rp == ra)
        s0 = plain

    state, trace = run_bregman(bank, stack, initial_state((4, 4)), range(4), 12, seed=55)
    cfg = TrainConfig(n_tuples=1, rounds=3, bregman_steps_per_round=4,
                      sgld=SgldParams(epsilon=0.01, steps=0),
                      lam_init=0.0, lam_final=0.0, eta=0.0,
                      z_seed=1, draw_seed=55, noise_seed=2)
    res = train(bank, stack, arch, cfg)
    trace_match = (res.tuple_traces[0] == trace
                   and res.tuples[0].state.x_primal.tobytes() == state.x_primal.tobytes())
    report(5, bitwise and trace_match,
           "step given prior arguments at zero trade-off is bit-identical to "
           "the plain step, and single-tuple training reproduces the plain "
           "trace exactly")


def test_criterion_6_noise_calibration(desk_bank):
    measured = desk_bank["manifest"]["snr_report"]["measured_snr_db"]
    gamma = desk_bank["manifest"]["snr_report"]["gamma"]
    bank = desk_bank["bank"]
    truth = desk_bank["truth"]
    C = bank.experiments[0].op.inner
    # expanded around a smooth ramp background
    rows, cols = DESK_SHAPE
    ramp = (0.25 + 0.5 * np.arange(rows)[:, None] / (rows - 1)
            + 0.25 * np.arange(cols)[None, :] / (cols - 1))
    closed = linearization_error(truth, gamma, bank)
    direct = linearization_error_direct(truth, ramp, C, gamma, bank)
    scale = max(1.0, max(float(np.max(np.abs(d))) for d in direct))
    worst = max(float(np.max(np.abs(c - d))) / scale
                for c, d in zip(closed, direct))
    ok = abs(measured + 11.37) <= 0.01 and worst <= 1e-12
    report(6, ok, f"measured SNR {measured:.6f} dB (target -11.37 +/- 0.01), "
                  f"closed-form vs three-term error {worst:.2e}")


def test_desk_inversion_misfit_reaches_noise_floor(desk_bank, desk_inversion):
    # after 350 iterations the data misfit sits at the injected perturbation
    # energy (within 10%), checked against the generation-time report
    misfit = 2.0 * eval_lsq_objective(desk_bank["bank"],
                                      desk_inversion["state"].x_primal)
    floor = desk_bank["manifest"]["snr_report"]["perturbation_energy"]
    print(f"[PASS] desk inversion: misfit/noise-floor ratio {misfit / floor:.4f}")
    assert misfit <= 1.1 * floor


def test_criterion_7_feasibility_invariant(desk_inversion, desk_training):
    inv_flags = desk_inversion["feasible_flags"]
    train_flags = desk_training["feasible_flags"]
    ok = (len(inv_flags) == 350 and all(inv_flags)
          and len(train_flags) > 0 and all(train_flags))
    report(7, ok, f"every recorded primal feasible at dykstra_tol: "
                  f"{len(inv_flags)} inversion states, {len(train_flags)} "
                  f"training states")


def test_criterion_8_end_to_end_structure(desk_bank, desk_training):
    t0 = time.time()
    result = desk_training["result"]
    truth = desk_bank["truth"]
    tuple_errors = [model_quality(t.state.x_primal, truth)["relative_l2"]
                    for t in result.tuples]
    best = min(tuple_errors)
    latents = draw_latents(DESK_ARCH.latent_dim, 3200, 43)
    post = summarize(SampleSet(DESK_ARCH, result.weights, latents))
    prior_weights = net_init(DESK_ARCH, DESK_TRAIN["init_seed"], DESK_TRAIN["init_scale"])
    prior = summarize(SampleSet(DESK_ARCH, prior_weights, latents))
    mean_err = model_quality(post.mean, truth)["relative_l2"]
    elapsed = desk_training["train_seconds"] + (time.time() - t0)
    ok_a = mean_err <= 1.05 * best
    ok_b = post.std.mean() < prior.std.mean()
    report(8, ok_a and ok_b and elapsed < 1800.0,
           f"mean of 3200 realizations rel_l2 {mean_err:.4f} vs best tuple "
           f"{best:.4f} (bound {1.05 * best:.4f}); mean pointwise std "
           f"{post.std.mean():.4f} after vs {prior.std.mean():.4f} before; "
           f"{elapsed:.0f}s total")


def test_criterion_9_byte_determinism(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("""\
[testbed]
rows = 16
cols = 16
experiments = 4
sampling_fraction = 0.5
kernel_size = 3
target_snr_db = -5.0

[constraints]
l1_radius = 160.0

[net]
latent_dim = 16
base_rows = 4
base_cols = 4
base_channels = 4
stages = 2
stage_channels = 4

[bregman]
iterations = 10

[sgld]
epsilon = 0.001
steps = 2

[em]
tuples = 2
rounds = 2
bregman_steps_per_round = 3
eta = 0.0001

[stats]
samples = 6
bins = 4
""")
    pairs = {}
    for tag in ("a", "b"):
        bank = tmp_path / f"bank_{tag}"
        inv = tmp_path / f"inv_{tag}"
        tr = tmp_path / f"train_{tag}"
        st = tmp_path / f"stats_{tag}"
        sm = tmp_path / f"samples_{tag}"
        assert main(["gen", "--config", str(cfg), "--out", str(bank)]) == 0
        assert main(["invert", "--config", str(cfg), "--bank", str(bank),
                     "--out", str(inv)]) == 0
        assert main(["train", "--config", str(cfg), "--bank", str(bank),
                     "--out", str(tr)]) == 0
        assert main(["sample", "--config", str(cfg), "--checkpoint", str(tr),
                     "--out", str(sm), "--count", "2"]) == 0
        assert main(["stats", "--config", str(cfg), "--checkpoint", str(tr),
                     "--out", str(st),
                     "--truth", str(bank / "truth_delta.pgrd")]) == 0
        pairs[tag] = [bank / "manifest.json", bank / "masks.pgrd", bank / "data.pgrd",
                      inv / "trace.csv", inv / "x_primal.pgrd",
                      tr / "weights.dpnw", tr / "rounds.csv",
                      tr / "trace_tuple_001.csv", sm / "sample_0001.pgrd",
                      st / "mean.pgrd", st / "std.pgrd",
                      st / "hist_posterior.csv", st / "quality.csv"]
    mismatched = [p.name for p, q in zip(pairs["a"], pairs["b"])
                  if p.read_bytes() != q.read_bytes()]
    report(9, not mismatched,
           f"gen/invert/train/sample/stats reruns byte-identical "
           f"({len(pairs['a'])} files compared)"
           + (f"; mismatches: {mismatched}" if mismatched else ""))
