import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import breguq
from breguq import checks
from breguq.bregman import TraceRecord
from breguq.cli import main
from breguq.config import load_config
from breguq.em import RoundRecord
from breguq.errors import NumericalAbortError
from breguq.net import net_init
from breguq.stats import (auto_probes, load_weights, read_portable_grid, read_records,
                          read_table, save_weights, write_portable_grid)
from breguq.testbed import load_bank

from conftest import ScaledIdentity, eval_lsq_objective, run_files

SMALL_TESTBED = """\
[testbed]
rows = 16
cols = 16
experiments = 4
sampling_fraction = 0.5
kernel_size = 3
kernel_sigma = 0.8
target_snr_db = -5.0

[constraints]
sets = box,l1
box_lo = -1.0
box_hi = 1.0
l1_radius = 160.0

[net]
latent_dim = 16
base_rows = 4
base_cols = 4
base_channels = 4
stages = 2
stage_channels = 4

[bregman]
iterations = 12

[sgld]
epsilon = 0.001
steps = 2

[em]
tuples = 2
rounds = 2
bregman_steps_per_round = 3
eta = 0.0001

[stats]
samples = 8
bins = 5
"""

REDUCTION_CFG = (SMALL_TESTBED
                 .replace("iterations = 12", "iterations = 12\ndraw_seed = 29")
                 .replace("steps = 2", "steps = 0")
                 .replace("tuples = 2", "tuples = 1")
                 .replace("rounds = 2", "rounds = 3")
                 .replace("bregman_steps_per_round = 3",
                          "bregman_steps_per_round = 4\nlam_init = 0.0\n"
                          "lam_final = 0.0\ndraw_seed = 29")
                 .replace("eta = 0.0001", "eta = 0.0"))


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


@pytest.fixture
def gen_dir(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_TESTBED)
    out = tmp_path / "bank"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


def test_gen_outputs_and_snr_print(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_TESTBED)
    out = tmp_path / "bank"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    assert "measured snr_db: -5.0" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["data.pgrd", "manifest.json", "masks.pgrd",
                                       "resolved.cfg", "truth_delta.pgrd"]
    # the recipe lives in resolved.cfg alone; the manifest holds what gen measured
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["cols", "format", "kernel_size", "kernel_taps", "masks",
                                "rows", "snr_report", "version"]
    assert sorted(manifest["snr_report"]) == [
        "coherent_energy", "gamma", "measured_snr_db", "noise_energy",
        "perturbation_energy", "signal_energy"]


def test_gen_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_TESTBED)
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ["manifest.json", "truth_delta.pgrd", "masks.pgrd", "data.pgrd",
                 "resolved.cfg"]:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_gen_noise_free_bank_is_consistent(tmp_path):
    body = SMALL_TESTBED.replace("target_snr_db = -5.0",
                                 "target_snr_db = inf")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "clean"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    bank, _ = load_bank(out)
    truth = read_portable_grid(out / "truth_delta.pgrd")
    assert eval_lsq_objective(bank, truth) == 0.0


def test_gen_bad_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[testbed]\nrows = -3\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_negative_seed_exit_2_naming_flag_or_key(gen_dir, tmp_path, capsys):
    # numpy seeds reject negative entropy; the message names what set the seed
    cfg_path, bank_dir = gen_dir
    assert main(["invert", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "a"), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["gen", "--config", cfg_path, "--out", str(tmp_path / "b"),
                 "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace(
        "iterations = 12", "iterations = 12\ndraw_seed = -4"), name="neg.cfg")
    assert main(["invert", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "c")]) == 2
    assert "[bregman] draw_seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting, named", [
    ("invert", "iterations = 12\nt_max = -1", "[bregman] t_max"),
    ("invert", "iterations = 12\nt_max = 0", "[bregman] t_max"),
    ("invert", "iterations = -3", "[bregman] iterations"),
    ("train", "iterations = 12\nt_max = 0", "[bregman] t_max"),
], ids=["invert-t_max-negative", "invert-t_max-zero", "invert-iterations-negative",
        "train-t_max-zero"])
def test_bregman_bounds_exit_2_before_any_grid(gen_dir, tmp_path, capsys, command,
                                               setting, named):
    _, bank_dir = gen_dir
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace("iterations = 12", setting),
                    name="b.cfg")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(out)]) == 2
    assert f"config error: {named}" in capsys.readouterr().err
    assert not list(out.glob("*.pgrd")) and not (out / "checkpoint").exists()


def test_invert_writes_grids_trace_quality(gen_dir):
    cfg, bank_dir = gen_dir
    out = bank_dir.parent / "inv"
    assert main(["invert", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    x = read_portable_grid(out / "x_primal.pgrd")
    assert x.shape == (16, 16)
    assert (out / "x_dual.pgrd").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == ("iter,k,t_k,residual_norm,joint_objective,"
                        "skipped,proj_sweeps,proj_converged,proj_tv_gap")
    assert len(trace) == 13
    quality = (out / "quality.csv").read_text()
    assert quality.startswith("metric,value")
    assert "relative_l2" in quality


def test_invert_with_tv_ball_reports_its_gap_every_step(tmp_path):
    # every other setting at its default: the box,l1,tv stack runs the dual solve
    cfg = write_cfg(tmp_path, "[testbed]\nrows = 16\ncols = 16\nexperiments = 8\n\n"
                              "[constraints]\nsets = box,l1,tv\nl1_radius = 60\n"
                              "tv_radius = 20\n\n[bregman]\niterations = 20\n")
    bank, out = tmp_path / "bank", tmp_path / "inv"
    assert main(["gen", "--config", cfg, "--out", str(bank)]) == 0
    assert main(["invert", "--config", cfg, "--bank", str(bank), "--out", str(out)]) == 0
    gaps = [r.proj_tv_gap for r in read_records(out / "trace.csv", TraceRecord)]
    assert len(gaps) == 20 and None not in gaps


def test_invert_zero_iterations_zero_grids(gen_dir, tmp_path):
    cfg_path, bank_dir = gen_dir
    body = SMALL_TESTBED.replace("iterations = 12", "iterations = 0")
    cfg = write_cfg(tmp_path, body, name="zero.cfg")
    out = tmp_path / "inv0"
    assert main(["invert", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    assert not read_portable_grid(out / "x_primal.pgrd").any()
    assert len((out / "trace.csv").read_text().splitlines()) == 1


def test_invert_rerun_identical_trace(gen_dir, tmp_path):
    cfg, bank_dir = gen_dir
    a, b = tmp_path / "ia", tmp_path / "ib"
    main(["invert", "--config", cfg, "--bank", str(bank_dir), "--out", str(a)])
    main(["invert", "--config", cfg, "--bank", str(bank_dir), "--out", str(b)])
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "x_primal.pgrd").read_bytes() == (b / "x_primal.pgrd").read_bytes()


def test_invert_missing_bank_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_TESTBED)
    assert main(["invert", "--config", cfg, "--bank", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "o")]) == 2


def _bad_manifest(text):
    def corrupt(bank_dir):
        (bank_dir / "manifest.json").write_text(text)
        return bank_dir / "manifest.json"
    return corrupt


def _version_1(bank_dir):
    path = bank_dir / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": 1}))
    return path


def _edit_masks(edit):
    def corrupt(bank_dir):
        path = bank_dir / "masks.pgrd"
        write_portable_grid(edit(read_portable_grid(path)), path)
        return path
    return corrupt


def _zero_experiments(bank_dir):
    # a data grid of no rows where the masks hold 4
    path = bank_dir / "data.pgrd"
    path.write_bytes(struct.pack("<4sHIIH", b"PGRD", 1, 0, 128, 0))
    return path


def _bad_length_data(bank_dir):
    # the 16x16 truth grid where the masks are 4 x 128
    (bank_dir / "data.pgrd").write_bytes((bank_dir / "truth_delta.pgrd").read_bytes())
    return bank_dir / "data.pgrd"


def _cut_data(bank_dir):
    path = bank_dir / "data.pgrd"
    path.write_bytes(path.read_bytes()[:-100])
    return path


def _set_entry(row, col, value):
    # the masks with entry (row, col) set to value(masks), its only fault
    def edit(masks):
        masks[row, col] = value(masks)
        return masks
    return edit


@pytest.mark.parametrize("corrupt", [
    _bad_manifest('{"format": "x"}'), _bad_manifest('{"format": '),
    _edit_masks(lambda masks: masks[:-1]), _zero_experiments, _bad_length_data, _cut_data,
    _version_1, _edit_masks(_set_entry(1, 5, lambda m: m[1, 5] + 0.5)),
    _edit_masks(_set_entry(2, -1, lambda m: 16.0 * 16)),
    _edit_masks(_set_entry(3, 5, lambda m: m[3, 4])),
], ids=["not_a_bank", "invalid_json", "mask_count", "zero_experiments", "data_length",
        "data_cut", "version_1", "mask_not_integer", "mask_out_of_range",
        "mask_not_increasing"])
def test_invert_malformed_bank_manifest_exit_2(gen_dir, tmp_path, capsys, corrupt):
    # the message names the bad file, once
    cfg_path, bank_dir = gen_dir
    bad = corrupt(bank_dir)
    assert main(["invert", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "inv")]) == 2
    assert capsys.readouterr().err.count(str(bad)) == 1
    assert not (tmp_path / "inv").exists()


def test_version_1_bank_names_the_gen_that_rebuilds_it(gen_dir, tmp_path, capsys):
    # gen is deterministic, so the command in the message rebuilds the bank
    cfg, bank_dir = gen_dir
    before = {p.name: p.read_bytes() for p in bank_dir.iterdir()}
    _version_1(bank_dir)
    assert main(["invert", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "inv")]) == 2
    resolved = bank_dir / "resolved.cfg"
    assert f"`breguq gen --config {resolved} --out <new bank>`" in capsys.readouterr().err
    rebuilt = tmp_path / "rebuilt"
    assert main(["gen", "--config", str(resolved), "--out", str(rebuilt)]) == 0
    assert {p.name: p.read_bytes() for p in rebuilt.iterdir()} == before


def _user_file(tmp_path, bank_dir):
    path = tmp_path / "notes.txt"
    path.write_text("not a run directory\n")
    return path


def _latin1_config(tmp_path, bank_dir):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(SMALL_TESTBED.replace("[testbed]", "[testbed]\n; d\xe9j\xe0 vu")
                     .encode("latin-1"))
    return path


@pytest.mark.parametrize("flag, make_path, message", [
    ("--config", lambda tmp_path, bank_dir: tmp_path, "config error: unreadable config"),
    ("--config", _latin1_config, "config error: unreadable config"),
    ("--bank", lambda tmp_path, bank_dir: bank_dir / "manifest.json", "bad path: "),
    ("--out", _user_file, "bad path: "),
], ids=["config-directory", "config-not-utf8", "bank-file", "out-file"])
def test_path_of_the_wrong_kind_exit_2(gen_dir, tmp_path, capsys, flag, make_path,
                                       message):
    # one message line, no traceback; a run-created --out goes again and a
    # user's file given as --out stays as it was
    cfg, bank_dir = gen_dir
    args = {"--config": cfg, "--bank": str(bank_dir), "--out": str(tmp_path / "inv")}
    path = make_path(tmp_path, bank_dir)
    before = path.read_bytes() if path.is_file() else None
    args[flag] = str(path)
    assert main(["invert", *(item for pair in args.items() for item in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "inv").exists()
    if before is not None:
        assert path.read_bytes() == before


@pytest.mark.parametrize("name, grid", [
    ("wrong-shape", lambda bank_dir: read_portable_grid(bank_dir / "data.pgrd")),
    ("zero", lambda bank_dir: np.zeros((16, 16))),
], ids=["wrong-shape", "zero"])
def test_invert_truth_checked_before_it_runs(gen_dir, tmp_path, capsys, name, grid):
    cfg, bank_dir = gen_dir
    path = bank_dir / "truth_delta.pgrd"
    write_portable_grid(grid(bank_dir), path)
    out = tmp_path / "inv"
    assert main(["invert", "--config", cfg, "--bank", str(bank_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"input error: {path}: the truth grid must be non-zero")
    assert not out.exists()


def test_train_zero_rounds_initial_checkpoint_only(gen_dir, tmp_path):
    _, bank_dir = gen_dir
    body = SMALL_TESTBED.replace("rounds = 2", "rounds = 0")
    cfg = write_cfg(tmp_path, body, name="r0.cfg")
    out = tmp_path / "train0"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    import json
    state = json.loads((out / "checkpoint" / "state.json").read_text())
    assert state["round_completed"] == -1
    assert (out / "rounds.csv").read_text().splitlines() == [
        "round,lam,mean_data_misfit,mean_prior_misfit"]
    from breguq.config import build_arch, load_config
    arch = build_arch(load_config(cfg))
    w = load_weights(out / "weights.dpnw", arch)
    np.testing.assert_array_equal(w, net_init(arch, 23, 1.0))


def test_train_reduction_matches_invert_trace(gen_dir, tmp_path):
    _, bank_dir = gen_dir
    cfg = write_cfg(tmp_path, REDUCTION_CFG, name="red.cfg")
    inv = tmp_path / "inv"
    tr = tmp_path / "train"
    assert main(["invert", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(inv)]) == 0
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(tr)]) == 0
    assert ((inv / "trace.csv").read_bytes()
            == (tr / "trace_tuple_000.csv").read_bytes())


def half_and_full_runs(bank_dir, tmp_path, edit=str, full_bank=None):
    """A 4-round run, and the first 2 rounds of it as a run directory;
    `edit` changes the 4-round run's config text, and `full_bank` (default
    `bank_dir`) is its bank. Returns the full run's config and both
    directories."""
    # ramp pinned so both schedules agree despite different round counts
    cfg_full, out_full = write_cfg(tmp_path, edit(SMALL_TESTBED.replace(
        "rounds = 2", "rounds = 4\nlam_ramp_rounds = 2")), name="full.cfg"), tmp_path / "full"
    cfg_half, out_half = write_cfg(tmp_path, SMALL_TESTBED.replace(
        "rounds = 2", "rounds = 2\nlam_ramp_rounds = 2"), name="half.cfg"), tmp_path / "half"
    for cfg, bank, out in ((cfg_full, full_bank or bank_dir, out_full),
                           (cfg_half, bank_dir, out_half)):
        assert main(["train", "--config", cfg, "--bank", str(bank), "--out", str(out)]) == 0
    return cfg_full, out_full, out_half


def test_train_resume_reproduces(gen_dir, tmp_path):
    _, bank_dir = gen_dir
    cfg_full, out_full, out_half = half_and_full_runs(bank_dir, tmp_path)
    out_res = tmp_path / "resumed"
    assert main(["train", "--config", cfg_full, "--bank", str(bank_dir),
                 "--out", str(out_res), "--resume", str(out_half)]) == 0
    assert run_files(out_res) == run_files(out_full)


def test_train_resume_in_place_reproduces(gen_dir, tmp_path):
    # the resumed run rewrites its logs whole before appending to them
    _, bank_dir = gen_dir
    cfg_full, out_full, out_half = half_and_full_runs(bank_dir, tmp_path)
    assert main(["train", "--config", cfg_full, "--bank", str(bank_dir),
                 "--out", str(out_half), "--resume", str(out_half)]) == 0
    assert run_files(out_half) == run_files(out_full)


def test_train_run_directory_holds_one_copy_of_each_file(gen_dir, tmp_path):
    cfg_path, bank_dir = gen_dir
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    root = {p.name for p in out.iterdir() if p.is_file()}
    state = {p.name for p in (out / "checkpoint").iterdir()}
    assert root == {"resolved.cfg", "weights.dpnw", "rounds.csv", "trace_tuple_000.csv",
                    "trace_tuple_001.csv"}
    assert state == {"state.json", "latents.pgrd", "tuple_000_x.pgrd", "tuple_000_xdual.pgrd",
                     "tuple_001_x.pgrd", "tuple_001_xdual.pgrd"}


@pytest.mark.parametrize("anchor, trained, resumed, flags, message", [
    ("tuples = 2", "tuples = 4", "tuples = 2", [], "--resume: {out} ran with n_tuples = 4, not 2"),
    ("bregman_steps_per_round = 3", "bregman_steps_per_round = 3", "bregman_steps_per_round = 5",
     [], "--resume: {out} ran with bregman_steps_per_round = 3, not 5"),
    # the auto ramp window is rounds // 2: lam_final in round 0 of a 1-round
    # run, lam_init in round 0 of a 2-round one
    ("lam_ramp_rounds = 1", "lam_ramp_rounds = auto", "lam_ramp_rounds = auto", [],
     "[em] lam_ramp_rounds: {out} ran round 0"),
    ("eta = 0.0001", "eta = 0.0001", "eta = 0.0005", [],
     "--resume: {out} ran with eta = 0.0001, not 0.0005"),
    ("epsilon = 0.001", "epsilon = 0.001", "epsilon = 0.01", [],
     "--resume: {out} ran with sgld = SgldParams(epsilon=0.001, steps=2, z_prior_weight=1.0), "
     "not SgldParams(epsilon=0.01, steps=2, z_prior_weight=1.0)"),
    ("eta = 0.0001", "eta = 0.0001", "eta = 0.0001", ["--seed", "5"],
     "--resume: {out} ran with init_seed = 23, not 5"),
    ("stage_channels = 4", "stage_channels = 4", "stage_channels = 4\nleaky_slope = 0.5", [],
     "--resume: {out} ran with net = NetArch(latent_dim=16, base_rows=4, base_cols=4, "
     "base_channels=4, stages=(StageSpec(channels=4, kernel_size=3), StageSpec(channels=4, "
     "kernel_size=3)), final_kernel_size=3, leaky_slope=0.2), not NetArch("),
    # a bank at another SNR; every other case resumes on a regenerated copy
    # of the bank it trained on
    ("target_snr_db = -5.0", "target_snr_db = -5.0", "target_snr_db = -3.0", [],
     "--resume: {out} ran with bank_sha256 = "),
], ids=["tuples", "steps", "lam", "eta", "sgld-epsilon", "seed", "leaky-slope", "bank"])
def test_resume_disagreeing_with_config_exit_2(gen_dir, tmp_path, capsys, anchor, trained,
                                               resumed, flags, message):
    # a 1-round checkpoint resumed for round 2 with another setting, lam
    # schedule, generator or bank, into a new directory and in place; the
    # pinned ramp window gives both runs the same round 0
    _, bank_dir = gen_dir
    body = SMALL_TESTBED.replace("eta = 0.0001", "eta = 0.0001\nlam_ramp_rounds = 1")
    cfg = write_cfg(tmp_path, body.replace("rounds = 2", "rounds = 1").replace(
        anchor, trained), name="a.cfg")
    cfg_other = write_cfg(tmp_path, body.replace(anchor, resumed), name="b.cfg")
    bank_other = tmp_path / "bank_b"
    assert main(["gen", "--config", cfg_other, "--out", str(bank_other)]) == 0
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir), "--out", str(out)]) == 0
    before = run_files(out)
    capsys.readouterr()
    for res in (tmp_path / "res", out):
        assert main(["train", "--config", cfg_other, "--bank", str(bank_other),
                     "--out", str(res), "--resume", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: " + message.format(out=out))
    assert not (tmp_path / "res").exists()
    assert run_files(out) == before


@pytest.mark.parametrize("edit, indent", [
    (lambda body: body.replace("samples = 8", "samples = 9"), False),
    (lambda body: body.replace("iterations = 12", "iterations = 5"), False),
    (lambda body: body, True),
], ids=["stats-samples", "bregman-iterations", "indented-manifest"])
def test_resume_outside_the_fingerprint_reproduces(gen_dir, tmp_path, edit, indent):
    # a key that train does not read, or a bank whose manifest is laid out
    # another way, changed for the resume and the uninterrupted run alike
    _, bank_dir = gen_dir
    full_bank = bank_dir
    if indent:
        full_bank = tmp_path / "indented"
        shutil.copytree(bank_dir, full_bank)
        manifest = full_bank / "manifest.json"
        manifest.write_text(json.dumps(json.loads(manifest.read_text()), indent=2))
    cfg_full, out_full, out_half = half_and_full_runs(bank_dir, tmp_path, edit, full_bank)
    out_res = tmp_path / "resumed"
    assert main(["train", "--config", cfg_full, "--bank", str(full_bank),
                 "--out", str(out_res), "--resume", str(out_half)]) == 0
    assert run_files(out_res) == run_files(out_full)


def test_resume_into_fewer_rounds_than_ran_exit_2(gen_dir, tmp_path, capsys):
    # a 2-round run resumed with rounds = 1, into a new directory and in
    # place; resumed with its own round count, it is finished and unchanged
    cfg_path, bank_dir = gen_dir
    cfg_fewer = write_cfg(tmp_path, SMALL_TESTBED.replace("rounds = 2", "rounds = 1"),
                          name="r1.cfg")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir), "--out", str(out)]) == 0
    before = run_files(out)
    for res in (tmp_path / "res", out):
        assert main(["train", "--config", cfg_fewer, "--bank", str(bank_dir),
                     "--out", str(res), "--resume", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: [em] rounds: {out} completed 2 "
                                           f"rounds, more than the configured 1\n")
    assert not (tmp_path / "res").exists()
    assert run_files(out) == before
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir), "--out", str(out),
                 "--resume", str(out)]) == 0
    assert run_files(out) == before


def test_resume_that_moves_a_completed_rounds_stack_exit_2(gen_dir, tmp_path, capsys):
    # constant lam, l1 radius 160 -> 100 over the auto window: 2 rounds ran
    # round 1 at radius 100 (window 1), where 4 rounds give 130 (window 2)
    _, bank_dir = gen_dir
    relaxed = SMALL_TESTBED.replace("l1_radius = 160.0", "l1_radius = 160.0\n"
                                    "l1_radius_final = 100.0").replace(
        "eta = 0.0001", "eta = 0.0001\nlam_init = 0.5\nlam_final = 0.5")
    cfg2 = write_cfg(tmp_path, relaxed, name="r2.cfg")
    cfg4 = write_cfg(tmp_path, relaxed.replace("rounds = 2", "rounds = 4"), name="r4.cfg")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg2, "--bank", str(bank_dir), "--out", str(out)]) == 0
    before = run_files(out)
    for res in (tmp_path / "res", out):
        assert main(["train", "--config", cfg4, "--bank", str(bank_dir),
                     "--out", str(res), "--resume", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [em] lam_ramp_rounds: {out} ran round 1 at lam 0.5 with the "
            f"stack of a 1-round ramp window, not at lam 0.5 with the stack of the "
            f"configured 2-round window\n")
    assert not (tmp_path / "res").exists()
    assert run_files(out) == before


@pytest.mark.parametrize("key, anchor, changed", [
    ("stack", "l1_radius = 160.0", "l1_radius = 130.0"),
    ("stack_final", "l1_radius = 160.0", "l1_radius = 160.0\nl1_radius_final = 130.0"),
    ("stack", "l1_radius = 160.0", "l1_radius = 160.0\ntv_max_iters = 50"),
], ids=["start", "final", "knob"])
def test_resume_with_other_constraint_values_exit_2(gen_dir, tmp_path, capsys, key, anchor,
                                                    changed):
    # a 2-round run resumed for a third round with another [constraints]
    # value, into a new directory and in place
    cfg_path, bank_dir = gen_dir
    cfg_other = write_cfg(tmp_path, SMALL_TESTBED.replace("rounds = 2", "rounds = 3").replace(
        anchor, changed), name="b.cfg")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir), "--out", str(out)]) == 0
    before = run_files(out)
    for res in (tmp_path / "res", out):
        assert main(["train", "--config", cfg_other, "--bank", str(bank_dir),
                     "--out", str(res), "--resume", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: --resume: {out} ran with {key} = ConstraintStack(")
    assert not (tmp_path / "res").exists()
    assert run_files(out) == before


def test_resume_that_keeps_every_completed_round_reproduces(gen_dir, tmp_path):
    # constant lam and no *_final value: the auto window moves from 1 to 2
    # rounds, yet no completed round's lam or stack changes
    _, bank_dir = gen_dir
    steady = SMALL_TESTBED.replace("eta = 0.0001", "eta = 0.0001\nlam_init = 0.5\n"
                                   "lam_final = 0.5")
    cfg2 = write_cfg(tmp_path, steady, name="s2.cfg")
    cfg4 = write_cfg(tmp_path, steady.replace("rounds = 2", "rounds = 4"), name="s4.cfg")
    half, full = tmp_path / "half", tmp_path / "full"
    assert main(["train", "--config", cfg2, "--bank", str(bank_dir), "--out", str(half)]) == 0
    assert main(["train", "--config", cfg4, "--bank", str(bank_dir), "--out", str(full)]) == 0
    assert main(["train", "--config", cfg4, "--bank", str(bank_dir), "--out", str(half),
                 "--resume", str(half)]) == 0
    assert run_files(half) == run_files(full)


@pytest.mark.parametrize("window, message", [
    # checkpoints written before state.json recorded the ramp window
    (None, "KeyError: 'lam_ramp_rounds'"),
    ("2", "ValueError: lam_ramp_rounds must be a non-negative integer, got '2'"),
    (-1, "ValueError: lam_ramp_rounds must be a non-negative integer, got -1"),
], ids=["absent", "string", "negative"])
def test_resume_from_checkpoint_without_ramp_window_exit_2(gen_dir, tmp_path, capsys,
                                                           window, message):
    cfg_path, bank_dir = gen_dir
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    path = out / "checkpoint" / "state.json"
    state = json.loads(path.read_text())
    assert state.pop("lam_ramp_rounds") == 1
    path.write_text(json.dumps(state if window is None else {**state, "lam_ramp_rounds": window}))
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "res"), "--resume", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"
    assert not (tmp_path / "res").exists()


def test_resume_from_checkpoint_without_fingerprint_exit_2(gen_dir, tmp_path, capsys):
    # checkpoints written before state.json recorded the resume fingerprint
    cfg_path, bank_dir = gen_dir
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    path = out / "checkpoint" / "state.json"
    state = json.loads(path.read_text())
    del state["fingerprint"]
    path.write_text(json.dumps(state))
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "res"), "--resume", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {path}: KeyError: 'fingerprint'\n"
    assert not (tmp_path / "res").exists()


def test_resume_from_checkpoint_without_tv_gap_column_exit_2(gen_dir, tmp_path, capsys):
    # checkpoints written before the trace gained proj_tv_gap
    cfg_path, bank_dir = gen_dir
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    trace = out / "trace_tuple_000.csv"
    trace.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                             for line in trace.read_text().splitlines()))
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "res"), "--resume", str(out)]) == 2
    assert "lacks the column 'proj_tv_gap'" in capsys.readouterr().err


def test_resume_from_checkpoint_without_latent_grid_exit_2(gen_dir, tmp_path, capsys):
    # run directories written before the latents became one grid hold
    # checkpoint/latents.csv instead, which no reader reads
    cfg_path, bank_dir = gen_dir
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    (out / "checkpoint" / "latents.pgrd").unlink()
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "res"), "--resume", str(out)]) == 2
    assert str(out / "checkpoint" / "latents.pgrd") in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def _cut_half(data):
    # invalid JSON, a CSV table cut off partway through a row, or a binary
    # file cut off partway through its payload
    return data[:len(data) // 2]


@pytest.mark.parametrize("name, cut", [
    *[pytest.param(name, _cut_half, id=os.path.basename(name))
      for name in ["checkpoint/state.json", "checkpoint/latents.pgrd",
                   "checkpoint/tuple_000_x.pgrd", "weights.dpnw", "rounds.csv",
                   "trace_tuple_000.csv"]],
    # the last latent cut mid-value; the 2x16 latent grid read as 1x32; a
    # 16x16 tuple grid read as 8x32; the trace one step short of state.json
    pytest.param("checkpoint/latents.pgrd", lambda data: data[:-3],
                 id="latents.pgrd-mid-value"),
    pytest.param("checkpoint/latents.pgrd",
                 lambda data: data[:6] + struct.pack("<II", 1, 32) + data[14:],
                 id="latents.pgrd-reshaped"),
    pytest.param("checkpoint/tuple_000_x.pgrd",
                 lambda data: data[:6] + struct.pack("<II", 8, 32) + data[14:],
                 id="tuple_000_x.pgrd-reshaped"),
    # a completed round that is not an integer
    pytest.param("checkpoint/state.json",
                 lambda data: data.replace(b'"round_completed": 1', b'"round_completed": 1.0'),
                 id="state.json-float-round"),
    pytest.param("trace_tuple_000.csv", lambda data: b"".join(data.splitlines(True)[:-1]),
                 id="trace_tuple_000.csv-last-row"),
])
def test_resume_from_malformed_checkpoint_exit_2(gen_dir, tmp_path, capsys, name, cut):
    # the message names the bad file, once
    cfg_path, bank_dir = gen_dir
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(out)]) == 0
    path = out / name
    path.write_bytes(cut(path.read_bytes()))
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(tmp_path / "res"), "--resume", str(out)]) == 2
    assert capsys.readouterr().err.count(str(path)) == 1
    assert not (tmp_path / "res").exists()


def test_default_em_settings_train_the_default_bank(tmp_path):
    # the shipped [em] defaults on the bank the shipped [testbed] defaults make
    bank = tmp_path / "bank"
    assert main(["gen", "--out", str(bank)]) == 0
    cfg = write_cfg(tmp_path, "[em]\nrounds = 2\n")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank), "--out", str(out)]) == 0
    rounds = read_records(out / "rounds.csv", RoundRecord)
    assert [r.round for r in rounds] == [0, 1]
    assert all(np.isfinite([r.mean_data_misfit, r.mean_prior_misfit]).all()
               for r in rounds)


def test_train_arch_grid_mismatch_exit_2(gen_dir, tmp_path, capsys):
    # checks that need the bank run with the command, after --out exists;
    # an exit 2 removes the directory again
    _, bank_dir = gen_dir
    for setting, named in (("stages = 3", "[net] generator output"),
                           ("tuples = 100", "[em] tuples")):
        body = SMALL_TESTBED.replace(setting.split(" =")[0] + " = 2", setting)
        cfg = write_cfg(tmp_path, body, name="bad.cfg")
        out = tmp_path / "t"
        assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")
        assert not out.exists()
    bad = _bad_length_data(bank_dir)
    assert main(["train", "--config", write_cfg(tmp_path, SMALL_TESTBED), "--bank",
                 str(bank_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {bad}: holds a (16, 16) grid")
    assert not out.exists()


@pytest.mark.parametrize("slope", ["-0.1", "1.5"])
def test_leaky_slope_outside_unit_interval_exit_2(tmp_path, capsys, slope):
    body = SMALL_TESTBED.replace("stage_channels = 4",
                                 f"stage_channels = 4\nleaky_slope = {slope}")
    cfg = write_cfg(tmp_path, body)
    assert main(["sample", "--config", cfg, "--checkpoint", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "s")]) == 2
    assert "leaky slope must lie in [0, 1]" in capsys.readouterr().err


def test_nonpositive_init_scale_exit_2_in_train_and_stats(gen_dir, tmp_path, capsys):
    cfg_path, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace(
        "stage_channels = 4", "stage_channels = 4\ninit_scale = -1"), name="neg.cfg")
    for argv in (["train", "--bank", str(bank_dir)],
                 ["stats", "--checkpoint", str(train_out)]):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: [net] init scale must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_final_constraint_rejected_before_round_0(gen_dir, tmp_path, capsys):
    _, bank_dir = gen_dir
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace(
        "l1_radius = 160.0", "l1_radius = 160.0\nl1_radius_final = -100").replace(
        "rounds = 2", "rounds = 2\nlam_ramp_rounds = 1"), name="final.cfg")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: [constraints] l1 ball radius must be positive, got -100.0\n")
    assert not (out / "checkpoint").exists()


# a config that one command rejects fails in every command, with one message
# and before --out exists; the inputs are absent, so the config error must
# come before any input is read
@pytest.mark.parametrize("anchor, setting, message", [
    ("epsilon = 0.001", "epsilon = 0.001\nz_prior_weight = 0.7", "[sgld] z prior weight"),
    ("epsilon = 0.001", "epsilon = 5", "[sgld] epsilon must lie in (0, 2)"),
    ("samples = 8", "samples = 1", "[stats] samples: pointwise standard deviation"),
    ("bins = 5", "bins = 0", "[stats] bins: need at least one bin"),
    ("bins = 5", "bins = 5\nprobes = 99,99", "[stats] probes: pixel (99, 99) out of range"),
    ("rounds = 2", "rounds = 2\nlam_ramp_rounds = -5", "[em] lam_ramp_rounds must be non-negative"),
    ("rows = 16", "rows = 8", "[testbed] ground-truth grid must be at least 16x16, got 8x16"),
    ("kernel_size = 3", "kernel_size = 4", "[testbed] kernel size must be odd and positive, got 4"),
    ("sampling_fraction = 0.5", "sampling_fraction = 0",
     "[testbed] sampling fraction must lie in (0, 1], got 0.0"),
    ("kernel_sigma = 0.8", "kernel_sigma = 0", "[testbed] kernel sigma must be positive, got 0.0"),
    ("experiments = 4", "experiments = 0", "[testbed] need at least one experiment, got 0"),
    ("target_snr_db = -5.0", "target_snr_db = -5.0\ncoherent_fraction = 1",
     "[testbed] coherent fraction must lie in [0, 1)"),
    ("[testbed]", "stray = 1\n[testbed]", "malformed config"),
    ("tuples = 2", "tuples = 0", "[em] need at least one tuple"),
    ("rounds = 2", "rounds = -1", "[em] round counts must be non-negative"),
    ("eta = 0.0001", "eta = 0.0001\nm_steps_per_round = 0",
     "[em] m_steps_per_round must be at least 1"),
    *[("eta = 0.0001", setting, "[em] steplengths and trade-off values must be finite and "
       "non-negative") for setting in ("eta = -1", "eta = nan", "eta = inf",
                                       "eta = 0.0001\nlam_init = nan",
                                       "eta = 0.0001\nlam_final = inf")],
    ("stage_channels = 4", "stage_channels = 4\nkernel_size = 2",
     "[net] stage kernel size must be odd and positive"),
    ("latent_dim = 16", "latent_dim = 0", "[net] latent dimension and base shape must be "
     "positive"),
    ("base_channels = 4", "base_channels = 0", "[net] base channels must be positive"),
    ("stage_channels = 4", "stage_channels = 4\ninit_scale = inf",
     "[net] init scale must be positive and finite, got inf"),
    ("box_lo = -1.0", "box_lo = inf", "[constraints] box bounds must be finite"),
    ("sets = box,l1", "sets = l2\nl2_radius = 0",
     "[constraints] l2 ball radius must be positive, got 0.0"),
    ("sets = box,l1", "sets = tv\ntv_radius = -1",
     "[constraints] tv ball radius must be non-negative, got -1.0"),
    *[("l1_radius = 160.0", f"l1_radius = 160.0\n{setting}",
       "[constraints] tolerances must be positive and finite")
      for setting in ("dykstra_tol = 0", "dykstra_tol = nan", "tv_tol = nan")],
    ("l1_radius = 160.0", "l1_radius = 160.0\ntv_max_iters = 0",
     "[constraints] tv_max_iters must be positive"),
    ("sets = box,l1", "sets = ,", "[constraints] sets must name at least one set"),
    ("bins = 5", "bins = 5\nsample_count = 0", "[stats] sample_count must be at least 1"),
], ids=["z_prior_weight", "epsilon", "samples", "bins", "probes", "lam_ramp_rounds",
        "rows", "kernel_size", "sampling_fraction", "kernel_sigma", "experiments",
        "coherent_fraction", "line_before_section", "tuples", "rounds", "m_steps_per_round",
        "eta_negative", "eta_nan", "eta_inf", "lam_init_nan", "lam_final_inf",
        "net_kernel_size", "latent_dim", "base_channels", "init_scale_inf", "box_lo_inf",
        "l2_radius", "tv_radius", "dykstra_tol_zero", "dykstra_tol_nan", "tv_tol_nan",
        "tv_max_iters", "sets_empty", "sample_count"])
def test_config_rejected_by_one_command_fails_in_every_command(tmp_path, capsys, anchor,
                                                               setting, message):
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace(anchor, setting))
    absent = str(tmp_path / "absent")
    errors = set()
    for argv in (["gen"], ["invert", "--bank", absent], ["train", "--bank", absent],
                 ["sample", "--checkpoint", absent], ["stats", "--checkpoint", absent]):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 2, argv[0]
        errors.add(capsys.readouterr().err)
        assert not out.exists(), argv[0]
    assert len(errors) == 1 and errors.pop().startswith(f"config error: {message}")


def test_sample_writes_realizations(gen_dir, tmp_path):
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    out = tmp_path / "samples"
    assert main(["sample", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(out), "--count", "3"]) == 0
    for j in range(3):
        assert read_portable_grid(out / f"sample_{j:04d}.pgrd").shape == (16, 16)


def test_sample_checks_the_generator_alone(gen_dir, tmp_path):
    # sample never builds the untrained weights, so a run directory must
    # have trained the --config generator, whatever init_seed and
    # init_scale say
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    other = write_cfg(tmp_path, SMALL_TESTBED.replace("[net]\n", "[net]\ninit_seed = 99\n"
                                                      "init_scale = 0.5\n"), name="other.cfg")
    first, again = tmp_path / "s1", tmp_path / "s2"
    for config, out in ((cfg, first), (other, again)):
        assert main(["sample", "--config", config, "--checkpoint", str(train_out),
                     "--out", str(out), "--count", "2"]) == 0
    assert {n: b for n, b in run_files(first).items() if n != "resolved.cfg"} == \
        {n: b for n, b in run_files(again).items() if n != "resolved.cfg"}


def test_sample_count_zero_exit_2_names_flag(gen_dir, tmp_path, capsys):
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    out = tmp_path / "samples"
    assert main(["sample", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(out), "--count", "0"]) == 2
    assert capsys.readouterr().err == "config error: --count must be at least 1, got 0\n"
    assert not out.exists()


def test_sample_count_is_recorded_and_regenerates(gen_dir, tmp_path):
    # --count stands in for [stats] sample_count, so resolved.cfg records it
    # and a rerun from it alone writes the same files
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    first, again = tmp_path / "s1", tmp_path / "s2"
    assert main(["sample", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(first), "--count", "2"]) == 0
    assert main(["sample", "--config", str(first / "resolved.cfg"), "--checkpoint",
                 str(train_out), "--out", str(again)]) == 0
    assert run_files(first) == run_files(again)
    assert sorted(run_files(first)) == ["resolved.cfg", "sample_0000.pgrd",
                                        "sample_0001.pgrd"]


def test_count_still_rejects_a_bad_sample_count_in_the_file(tmp_path, capsys):
    # the file's own value is checked before --count replaces it, so this
    # config fails in `sample --count` as in every other command
    cfg = write_cfg(tmp_path, "[stats]\nsample_count = 0\n")
    out = tmp_path / "samples"
    assert main(["sample", "--config", cfg, "--checkpoint", str(tmp_path / "absent"),
                 "--out", str(out), "--count", "3"]) == 2
    assert capsys.readouterr().err == "config error: [stats] sample_count must be at least 1\n"
    assert not out.exists()


def test_stats_outputs_and_determinism(gen_dir, tmp_path):
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    a, b = tmp_path / "sa", tmp_path / "sb"
    truth = str(bank_dir / "truth_delta.pgrd")
    for out in (a, b):
        assert main(["stats", "--config", cfg, "--checkpoint", str(train_out),
                     "--out", str(out), "--truth", truth]) == 0
    for name in ["mean.pgrd", "std.pgrd", "prior_mean.pgrd", "prior_std.pgrd",
                 "hist_posterior.csv", "hist_prior.csv", "quality.csv",
                 "resolved.cfg"]:
        assert (a / name).exists(), name
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    hist = (a / "hist_posterior.csv").read_text().splitlines()
    assert hist[0] == "pixel_row,pixel_col,bin_lo,bin_hi,count"
    counts = sum(int(line.split(",")[-1]) for line in hist[1:])
    assert counts == 2 * 8  # two probes, eight samples each
    # auto probes: the max- and median-std pixels of the posterior, in both files
    probes = auto_probes(read_portable_grid(a / "std.pgrd"))
    for name in ["hist_posterior.csv", "hist_prior.csv"]:
        rows = read_table(a / name, {"pixel_row": int, "pixel_col": int})
        assert list(dict.fromkeys(rows)) == probes, name
    quality = read_table(a / "quality.csv", {"metric": str, "value": str})
    assert [m for m, _ in quality] == ["relative_l2", "snr_db", "coverage_95",
                                       "error_std_corr"]
    assert 0.0 <= float(quality[2][1]) <= 1.0 and -1.0 <= float(quality[3][1]) <= 1.0


def test_stats_runs_two_full_forwards_per_sample(gen_dir, tmp_path, monkeypatch):
    # the posterior pass and the prior pass; the probe traces come from
    # the probes' receptive cones, not from further full forwards
    import breguq.stats as stats_mod

    cfg, _ = gen_dir
    config = load_config(cfg)
    weights = tmp_path / "w.dpnw"
    save_weights(weights, config.arch, net_init(config.arch, 5))
    calls = []
    original = stats_mod.net_forward
    monkeypatch.setattr(stats_mod, "net_forward",
                        lambda *args: calls.append(args) or original(*args))
    assert main(["stats", "--config", cfg, "--checkpoint", str(weights),
                 "--out", str(tmp_path / "s")]) == 0
    assert len(calls) == 2 * config.get("stats", "samples") == 16


def test_stats_draws_each_latent_once_and_sample_writes_its_realizations(
        gen_dir, tmp_path, monkeypatch):
    import breguq.cli as cli_mod

    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    streams, passes = [], []

    class CountedSeedSequence(np.random.SeedSequence):
        def __init__(self, entropy=None, **kwargs):
            streams.append(entropy)
            super().__init__(entropy, **kwargs)

    def recorded_summarize(samples, *args):
        passes.append([])

        class Recorded:
            count = samples.count

            def realizations(self):
                for x in samples.realizations():
                    passes[-1].append(x.copy())
                    yield x

        return original(Recorded(), *args)

    original = cli_mod.summarize
    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    monkeypatch.setattr(cli_mod, "summarize", recorded_summarize)
    assert main(["stats", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(tmp_path / "s")]) == 0
    # the posterior and the prior pass over eight realizations, one draw
    # per sample index
    assert [len(p) for p in passes] == [8, 8]
    assert streams == [[43, j] for j in range(8)]  # the default sample_seed
    # each histogram spans its own pass's values of each probe pixel
    columns = {"pixel_row": int, "pixel_col": int, "bin_lo": float, "bin_hi": float}
    for name, grids in zip(["posterior", "prior"], passes):
        rows = read_table(tmp_path / "s" / f"hist_{name}.csv", columns)
        for r, c in dict.fromkeys((r, c) for r, c, _, _ in rows):
            edges = [e for rr, cc, lo, hi in rows if (rr, cc) == (r, c) for e in (lo, hi)]
            values = [x[r, c] for x in grids]
            np.testing.assert_allclose([min(edges), max(edges)], [min(values), max(values)],
                                       rtol=0, atol=1e-14 * np.abs(grids).max())
    out = tmp_path / "samples"
    assert main(["sample", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(out), "--count", "2"]) == 0
    for j in range(2):
        np.testing.assert_array_equal(read_portable_grid(out / f"sample_{j:04d}.pgrd"),
                                      passes[0][j])


@pytest.mark.parametrize("command, scale, diagnostics", [
    ("stats", 1e60, {"pass": "posterior", "pixel": [0, 0]}),
    ("sample", 1e100, {"sample": 0, "pixel": [0, 0]}),
])
def test_overflowing_realizations_abort_with_exit_3(gen_dir, tmp_path, capsys, command,
                                                    scale, diagnostics):
    # finite weights whose realizations overflow: stats' squared deviations
    # (1e60 per layer) or sample's grids themselves (1e100)
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    arch = load_config(cfg).arch
    huge = tmp_path / "huge.dpnw"
    save_weights(huge, arch, scale * load_weights(train_out / "weights.dpnw", arch))
    out = tmp_path / command
    assert main([command, "--config", cfg, "--checkpoint", str(huge),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical abort: non-finite realization")
    report = strict_json(out / "abort.json")
    assert {k: report["diagnostics"][k] for k in diagnostics} == diagnostics
    assert not list(out.glob("*.pgrd"))


@pytest.mark.parametrize("truth, message", [
    ("data.pgrd", "input error: {path}: the truth grid must be non-zero"),
    ("zero.pgrd", "input error: {path}: the truth grid must be non-zero"),
    ("absent.pgrd", "missing input: "),
], ids=["wrong-shape", "zero", "absent"])
def test_stats_truth_checked_before_any_grid(gen_dir, tmp_path, capsys, truth, message):
    cfg, bank_dir = gen_dir
    write_portable_grid(np.zeros((16, 16)), bank_dir / "zero.pgrd")
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    out, path = tmp_path / "s", bank_dir / truth
    assert main(["stats", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(out), "--truth", str(path)]) == 2
    assert capsys.readouterr().err.startswith(message.format(path=path))
    assert not out.exists()


@pytest.mark.parametrize("command, key, message", [
    ("stats", "init_seed = 99", "config error: --checkpoint: {tr} ran with init_seed = 23, not 99"),
    ("stats", "init_scale = 0.5",
     "config error: --checkpoint: {tr} ran with init_scale = 1.0, not 0.5"),
    ("stats", "leaky_slope = 0.5", "config error: --checkpoint: {tr} ran with net = NetArch("),
    ("stats", None, "input error: {state}: KeyError: 'fingerprint'"),
    ("sample", "leaky_slope = 0.5", "config error: --checkpoint: {tr} ran with net = NetArch("),
    ("sample", None, "input error: {state}: KeyError: 'fingerprint'"),
], ids=["init_seed", "init_scale", "net", "no_fingerprint", "sample_net",
        "sample_no_fingerprint"])
def test_stats_checkpoint_of_another_prior_exit_2(gen_dir, tmp_path, capsys, command, key,
                                                  message):
    # stats rebuilds the prior weights from --config, so a run directory must
    # have started from them, as its fingerprint records; sample draws from
    # the --config generator, so a run directory must have trained it. One
    # written before the fingerprint cannot be checked. A bare .dpnw records
    # no prior and is read as is
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    state = train_out / "checkpoint" / "state.json"
    if key is None:
        state.write_text(json.dumps({k: v for k, v in json.loads(state.read_text()).items()
                                     if k != "fingerprint"}))
    other = write_cfg(tmp_path, SMALL_TESTBED.replace("[net]\n", f"[net]\n{key or ''}\n"),
                      name="other.cfg")
    out = tmp_path / "s"
    assert main([command, "--config", other, "--checkpoint", str(train_out),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message.format(tr=train_out, state=state))
    assert err.count("\n") == 1 and not out.exists()
    assert main([command, "--config", other, "--checkpoint", str(train_out / "weights.dpnw"),
                 "--out", str(out)]) == 0


def test_stats_single_sample_rejected(gen_dir, tmp_path, capsys):
    cfg_path, bank_dir = gen_dir
    body = SMALL_TESTBED.replace("samples = 8", "samples = 1")
    cfg = write_cfg(tmp_path, body, name="one.cfg")
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    code = main(["stats", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_stats_zero_bins_rejected_before_sampling(gen_dir, tmp_path, capsys):
    cfg_path, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace("bins = 5", "bins = 0"),
                    name="nobins.cfg")
    out = tmp_path / "s"
    code = main(["stats", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "mean.pgrd").exists()


def test_stats_out_of_range_probes_rejected(gen_dir, tmp_path, capsys):
    cfg_path, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg_path, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    cfg = write_cfg(tmp_path, SMALL_TESTBED.replace("bins = 5", "bins = 5\nprobes = 99,99"),
                    name="farprobe.cfg")
    out = tmp_path / "s"
    code = main(["stats", "--config", cfg, "--checkpoint", str(train_out),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: [stats] probes" in err and "(99, 99)" in err
    assert not (out / "mean.pgrd").exists()


def test_check_passes_and_prints_table(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "dot_test:generated_bank" in out
    assert "sgld_variance" in out
    assert "FAIL" not in out


def test_check_fault_injection_names_dot_test():
    class BrokenAdjoint(ScaledIdentity):
        def adjoint(self, y):
            return -super().adjoint(y)

    results = checks.run_dot_test_checks(
        [("scale", ScaledIdentity((6, 6), 2.0)), ("sabotaged", BrokenAdjoint((6, 6), 2.0))])
    failing = [r for r in results if not r.passed]
    assert len(failing) == 1
    assert failing[0].name == "dot_test:sabotaged"


def test_check_exit_1_on_failure(monkeypatch, capsys):
    from breguq.checks import CheckResult

    monkeypatch.setattr(checks, "run_property_suite",
                        lambda: [CheckResult("dot_test:injected", False, "bad")])
    assert main(["check"]) == 1
    assert "dot_test:injected" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # only `check` needs scipy, for the scipy.optimize oracles it imports
    # itself; a fresh interpreter shows what every other command loads
    src = os.path.dirname(os.path.dirname(breguq.__file__))
    code = ("import sys, breguq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_numerical_abort_maps_to_exit_3(monkeypatch, tmp_path):
    import breguq.cli as cli_mod

    def boom(args, config):
        raise NumericalAbortError("synthetic abort")

    monkeypatch.setattr(cli_mod, "cmd_gen", boom)
    assert cli_mod.main(["gen", "--out", str(tmp_path / "o")]) == 3


def strict_json(path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_train_gradient_abort_writes_abort_json(gen_dir, tmp_path, capsys):
    # the first M-step's huge step sends the weights to ~1e200; the second
    # M-step's generator output overflows and its gradient is non-finite
    cfg_path, bank_dir = gen_dir
    body = SMALL_TESTBED.replace("eta = 0.0001", "eta = 1e200\nm_steps_per_round = 2")
    cfg = write_cfg(tmp_path, body, name="blowup.cfg")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(out)]) == 3
    assert "numerical abort: non-finite weight gradient" in capsys.readouterr().err
    report = strict_json(out / "abort.json")
    assert report["message"] == "non-finite weight gradient"
    assert report["diagnostics"] == {"per_tuple_loss": {"0": "nan", "1": "nan"}}


def test_train_prior_misfit_abort_writes_abort_json(gen_dir, tmp_path, capsys):
    # one huge M-step sends the generator output to nan, so round 0's prior
    # misfit is not finite; the run stops before logging it
    cfg_path, bank_dir = gen_dir
    body = SMALL_TESTBED.replace("eta = 0.0001",
                                 "eta = 1e100\nlam_init = 0.25\nlam_final = 0.25")
    cfg = write_cfg(tmp_path, body, name="misfit.cfg")
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(out)]) == 3
    assert "numerical abort: non-finite prior misfit" in capsys.readouterr().err
    report = strict_json(out / "abort.json")
    assert report["message"] == "non-finite prior misfit"
    assert report["diagnostics"] == {"round": 0, "lam": 0.25, "eta": 1e100,
                                     "per_tuple_misfit": {"0": "nan", "1": "nan"}}
    csvs = list(out.rglob("*.csv"))
    assert csvs
    for path in csvs:
        assert "nan" not in path.read_text(), path


def test_numerical_abort_prints_one_stderr_line(gen_dir, tmp_path):
    # each abort path above, in a fresh interpreter: the abort message is the
    # only stderr line, with no numpy RuntimeWarning lines before it
    cfg, bank_dir = gen_dir
    train_out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--bank", str(bank_dir),
                 "--out", str(train_out)]) == 0
    arch = load_config(cfg).arch
    weights = load_weights(train_out / "weights.dpnw", arch)
    runs = []
    for command, scale in [("stats", 1e60), ("sample", 1e100)]:
        huge = tmp_path / f"{command}.dpnw"
        save_weights(huge, arch, scale * weights)
        runs.append([command, "--config", cfg, "--checkpoint", str(huge)])
    for name, setting in [("blowup", "eta = 1e200\nm_steps_per_round = 2"),
                          ("misfit", "eta = 1e100\nlam_init = 0.25\nlam_final = 0.25")]:
        body = SMALL_TESTBED.replace("eta = 0.0001", setting)
        runs.append(["train", "--config", write_cfg(tmp_path, body, name=f"{name}.cfg"),
                     "--bank", str(bank_dir)])
    src = os.path.dirname(os.path.dirname(breguq.__file__))
    for i, argv in enumerate(runs):
        run = subprocess.run([sys.executable, "-m", "breguq.cli", *argv,
                              "--out", str(tmp_path / f"abort{i}")],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 3, (argv, run.stderr)
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical abort:"), (argv, run.stderr)


def test_abort_json_is_strict_json(monkeypatch, tmp_path):
    import breguq.cli as cli_mod
    from breguq.bregman import BregmanState

    def boom(args, config):
        raise NumericalAbortError("synthetic abort", diagnostics={
            "state": BregmanState(np.array([[1.0, np.inf]]), np.zeros((1, 2)), 4),
            "latent": np.array([np.nan, -np.inf, 0.5]), "epsilon": 1e-2})

    monkeypatch.setattr(cli_mod, "cmd_gen", boom)
    assert cli_mod.main(["gen", "--out", str(tmp_path / "o")]) == 3
    assert strict_json(tmp_path / "o" / "abort.json") == {
        "message": "synthetic abort",
        "diagnostics": {"state": {"x_dual": [[1.0, "inf"]], "x_primal": [[0.0, 0.0]],
                                  "iter": 4},
                        "latent": ["nan", "-inf", 0.5], "epsilon": 0.01}}


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_seed_override_is_deterministic_and_effective(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_TESTBED)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["gen", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(b), "--seed", "5"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(c), "--seed", "6"]) == 0
    assert (a / "truth_delta.pgrd").read_bytes() == (b / "truth_delta.pgrd").read_bytes()
    assert (a / "truth_delta.pgrd").read_bytes() != (c / "truth_delta.pgrd").read_bytes()
