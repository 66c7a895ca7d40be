#!/usr/bin/env python3
"""Desk-scale benchmark for breguq: one workload per timed `breguq` command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload invert|train|stats|all \
        [--seed N] [--seconds S] [--trace 0|1]

Set-up builds the synthetic bank with `breguq gen` several times and
keeps the median time (and, for `stats`, trains a checkpoint briefly).
The measured command then runs repeatedly in one fresh process that calls
`breguq.cli.main`, until another repetition would end after `--seconds`.
Times are scaled to nominal host speed by control kernels run in the same
process (control.py). Every command's outputs are checked: exit code 0,
every grid finite, primal grids feasible at dykstra_tol, and outputs
byte-identical across repetitions.

With `--trace 0` the last line of output carries the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it carries the per-layer metrics
of traced repetitions, interleaved with untraced ones so that the tracing
overhead is measured in the same run. README.md in this directory lists
the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 0
# Not used while the benchmark was tuned: re-check a claimed gain on it.
HOLDOUT_SEED = 7

BLAS_THREADS = 1
INVERT_ITERATIONS = 100
RUN_DEADLINE_S = 170.0
SETUP_REPS = 11
MIN_REPS = 3
TRAIN_ROUNDS = 1
STATS_SAMPLES = 200
STATS_PASSES = 3  # probes = auto summarizes the posterior twice and the prior once
# A 1-minute load above nproc - BUSY_MARGIN means something besides this
# single-threaded benchmark was running.
BUSY_MARGIN = 0.5

# The desk problem of the acceptance tests, with the training settings of
# its acceptance run except that lam is held at 0.25: at lam = 0 the
# augmented step falls back to the plain one and SGLD skips the generator.
# The problem (truth, masks, noise) and the generator initialization are
# fixed; the workload seed moves the random streams of the timed command:
# Bregman draws, training latents, draws and Langevin noise, and the
# sampled latents of stats. Seed 0 is the desk problem's own streams.
CONFIG = """\
[testbed]
rows = 64
cols = 64
experiments = 64
sampling_fraction = 0.25
target_snr_db = -11.37
truth_seed = 11
mask_seed = 13
noise_seed = 17

[constraints]
sets = box,l1
box_lo = -1.0
box_hi = 1.0
l1_radius = 2100.0

[net]
init_scale = 1.3
init_seed = 23

[bregman]
iterations = {iterations}
draw_seed = {s[29]}

[sgld]
epsilon = 0.01
steps = 20
noise_seed = {s[31]}

[em]
tuples = 8
rounds = {rounds}
bregman_steps_per_round = 8
eta = 3e-5
lam_init = 0.25
lam_final = 0.25
m_steps_per_round = 20
z_seed = {s[37]}
draw_seed = {s[41]}

[stats]
samples = {samples}
probes = auto
sample_seed = {s[43]}
"""


class _SeededDefaults(dict):
    """Maps a desk default seed d to d + 1000 * workload seed."""

    def __init__(self, seed):
        super().__init__()
        self.seed = seed

    def __missing__(self, default):
        return int(default) + 1000 * self.seed


class Run:
    """One benchmark run: its scratch directory, its deadline, the commands
    attempted and the reasons any of them failed."""

    def __init__(self, workload, seed, trace):
        self.trace = trace
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        self.cfg = self.write_config("run.cfg", seed)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = set()
        self.reasons = []
        self.env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))

    def path(self, name):
        return os.path.join(self.dir, name)

    def write_config(self, name, seed):
        path = self.path(name)
        with open(path, "w") as f:
            f.write(CONFIG.format(s=_SeededDefaults(seed), iterations=INVERT_ITERATIONS,
                                  rounds=TRAIN_ROUNDS, samples=STATS_SAMPLES))
        return path

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def fail(self, label, why):
        self.failed.add(label)
        self.reasons.append(f"{label}: {why}")

    def commands(self, label, argv, mix, min_reps, seconds=0.0, trace=False):
        """Run `breguq argv` repeatedly in one fresh worker process (see
        worker.py; "{rep}" in argv becomes the repetition's index), scaled
        by the control mix `mix` (control.py): each report gains
        `nominal_wall_s`, its wall time at nominal host speed. Returns
        the reports of the repetitions, or None when one failed."""
        result_path = self.path(f"{label}.result.json")
        timeout = max(5.0, RUN_DEADLINE_S - (time.perf_counter() - self.t0))
        try:
            proc = subprocess.run([sys.executable, WORKER, result_path, "1" if trace else "0",
                                   str(min_reps), str(seconds), mix] + argv, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.fail(label, f"timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.attempted += 1
            self.fail(label, f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
            return None
        with open(result_path) as f:
            result = json.load(f)
        reports = result["reps"]
        self.attempted += len(reports)
        if reports[-1]["exit_code"] != 0:
            self.fail(f"{label}{len(reports) - 1}", f"breguq exited "
                      f"{reports[-1]['exit_code']}: {proc.stderr.strip()[-800:]}")
            return None
        scale = result["control_nominal_s"] / result["control_s"]
        for r in reports:
            r["nominal_wall_s"] = r["wall_s"] * scale
            r["control_s"] = result["control_s"]
        return reports

    def check_repetitions(self, label, reports, out, primal_globs):
        """Check each repetition's outputs (`out` with "{rep}"): valid, and
        byte-identical to the first repetition's. Keeps only the first."""
        first = None
        for i in range(len(reports)):
            path = out.replace("{rep}", str(i))
            if check_outputs(self, f"{label}{i}", path, primal_globs):
                digest = tree_digest(path)
                first = first or digest
                if digest != first:
                    self.fail(f"{label}{i}", f"outputs differ from {label}0's")
            if i > 0:
                shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------- checks

def tree_digest(path):
    """sha256 of every file under `path`, keyed by relative name."""
    digests = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as f:
                digests[os.path.relpath(full, path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, files in os.walk(path) for name in files)


def check_outputs(run, label, out, primal_globs):
    """Every grid finite and every primal grid feasible at dykstra_tol.
    Returns True when the outputs pass."""
    import numpy as np
    from breguq.config import build_stack, load_config
    from breguq.errors import GridFormatError
    from breguq.projections import is_feasible
    from breguq.stats import read_portable_grid

    ok = True

    def fail(why):
        nonlocal ok
        ok = False
        run.fail(label, why)

    grids = glob.glob(os.path.join(out, "**", "*.pgrd"), recursive=True)
    if not grids:
        fail(f"no output grids in {out}")
    for path in grids:
        try:
            grid = read_portable_grid(path)
        except GridFormatError as exc:
            fail(f"{os.path.relpath(path, out)}: {exc}")
            continue
        if not np.all(np.isfinite(grid)):
            fail(f"{os.path.relpath(path, out)} is not finite")
    primals = sorted(p for g in primal_globs for p in glob.glob(os.path.join(out, g)))
    if primal_globs and not primals:
        fail(f"no primal grids matching {primal_globs}")
    stack = build_stack(load_config(run.cfg))
    for path in primals:
        feasible = is_feasible(read_portable_grid(path), stack, stack.dykstra_tol)
        if not feasible:
            fail(f"{os.path.relpath(path, out)} infeasible, violations "
                 f"{feasible.violations.tolist()}")
    return ok


# ---------------------------------------------------------------- workloads

def _train_argv(cfg, bank, out):
    return ["train", "--config", cfg, "--bank", bank, "--out", out]


def _bank(bank_dir):
    """(bank, noise floor from the manifest, truth grid)."""
    from breguq.stats import read_portable_grid
    from breguq.testbed import load_bank
    bank, manifest = load_bank(bank_dir)
    truth = read_portable_grid(os.path.join(bank_dir, "truth_delta.pgrd"))
    return bank, manifest["snr_report"]["perturbation_energy"], truth


def _misfit(bank, grid, ids):
    import numpy as np
    total = 0.0
    for k in ids:
        exp = bank.experiments[int(k)]
        r = exp.op.apply(grid) - exp.y
        total += float(np.dot(r.ravel(), r.ravel()))
    return total


def _rel_l2(grid, truth):
    import numpy as np
    return float(np.linalg.norm(grid - truth) / np.linalg.norm(truth))


def _grid(path):
    from breguq.stats import read_portable_grid
    return read_portable_grid(path)


def invert_quality(bank_dir, out):
    bank, floor, truth = _bank(bank_dir)
    x = _grid(os.path.join(out, "x_primal.pgrd"))
    return {"misfit_over_floor": _misfit(bank, x, range(bank.n)) / floor,
            "rel_l2": _rel_l2(x, truth)}


def train_quality(bank_dir, out):
    """Each tuple's grid against its own experiments (the subsets partition
    the bank, so the floor is the whole bank's); rel_l2 of the best tuple."""
    bank, floor, truth = _bank(bank_dir)
    with open(os.path.join(out, "checkpoint", "state.json")) as f:
        tuples = json.load(f)["tuples"]
    misfit, errors = 0.0, []
    for t in tuples:
        x = _grid(os.path.join(out, "checkpoint", f"tuple_{t['id']:03d}_x.pgrd"))
        misfit += _misfit(bank, x, t["experiment_ids"])
        errors.append(_rel_l2(x, truth))
    with open(os.path.join(out, "rounds.csv")) as f:
        last = f.read().split()[-1].split(",")
    return {"misfit_over_floor": misfit / floor, "rel_l2": min(errors),
            "prior_misfit": float(last[3])}


def stats_quality(bank_dir, out):
    bank, floor, truth = _bank(bank_dir)
    mean = _grid(os.path.join(out, "mean.pgrd"))
    return {"misfit_over_floor": _misfit(bank, mean, range(bank.n)) / floor,
            "rel_l2": _rel_l2(mean, truth)}


@dataclass(frozen=True)
class Workload:
    name: str
    work: int  # units of work per command, for throughput
    unit_of_work: str
    primal_globs: tuple
    quality: object
    needs_checkpoint: bool = False

    def argv(self, run, out):
        bank = run.path("bank0")
        if self.name == "invert":
            return ["invert", "--config", run.cfg, "--bank", bank, "--out", out]
        if self.name == "train":
            return _train_argv(run.cfg, bank, out)
        return ["stats", "--config", run.cfg, "--checkpoint", run.path("fit0"), "--out", out,
                "--truth", os.path.join(bank, "truth_delta.pgrd")]


TRAIN_PRIMALS = ("checkpoint/tuple_*_x.pgrd",)
WORKLOADS = {w.name: w for w in (
    Workload("invert", INVERT_ITERATIONS, "Bregman iterations", ("x_primal.pgrd",),
             invert_quality),
    Workload("train", TRAIN_ROUNDS, "EM rounds", TRAIN_PRIMALS, train_quality),
    Workload("stats", STATS_PASSES * STATS_SAMPLES, "generator realizations", (),
             stats_quality, needs_checkpoint=True),
)}

# Per-layer values that are exact counts: identical across traced
# repetitions of the same code, or the run is not correct.
EXACT_COUNTS = ("linops.apply_calls", "linops.adjoint_calls", "projections.calls",
                "projections.sweeps", "projections.converged_frac", "net.forward_calls",
                "net.fwdbwd_calls", "bregman.steps", "bregman.skipped_frac",
                "sgld.chains", "em.m_step_calls", "stats.passes", "stats.realizations")


def gen(run):
    """Build the bank SETUP_REPS times; returns the reports, or None."""
    reports = run.commands("gen", ["gen", "--config", run.cfg, "--out", run.path("bank{rep}")],
                           "setup", SETUP_REPS, trace=run.trace)
    if reports is not None:
        run.check_repetitions("gen", reports, run.path("bank{rep}"), ())
    return reports


def fit(run):
    """Train the checkpoint `stats` reads, with the default streams whatever
    the workload seed: how far one round moves the generator depends on its
    streams, and the spread of rel_l2 across seeds would measure that.
    Returns the nominal wall seconds, or None."""
    out = run.path("fit0")
    cfg = run.write_config("fit.cfg", DEFAULT_SEED)
    reports = run.commands("fit", _train_argv(cfg, run.path("bank0"), out), "train", 1)
    if reports is None or not check_outputs(run, "fit0", out, TRAIN_PRIMALS):
        return None
    return reports[0]["nominal_wall_s"]


# ---------------------------------------------------------------- computed kernel counts

def generator_counts(cfg_path):
    """GEMM flops and im2col shift-stack bytes of one generator forward,
    from the NetArch shapes (float64; biases and activations not counted)."""
    from breguq.config import build_arch, load_config
    arch = build_arch(load_config(cfg_path))
    flops = 2 * arch.base_rows * arch.base_cols * arch.base_channels * arch.latent_dim
    stack_bytes = 0
    ch_in, rows, cols = arch.base_channels, arch.base_rows, arch.base_cols
    convs = [(st.channels, st.kernel_size, 2) for st in arch.stages]
    convs.append((1, arch.final_kernel_size, 1))
    for ch_out, k, upsample in convs:
        rows, cols = rows * upsample, cols * upsample
        stacked = k * k * ch_in * rows * cols
        flops += 2 * ch_out * stacked
        stack_bytes += 8 * stacked
        ch_in = ch_out
    return flops, stack_bytes


def operator_bytes(bank_dir):
    """Array bytes one experiment operator apply reads and writes, counting
    numpy temporaries. The blur zero-fills the grid, then per non-zero tap
    rolls it (read + write), scales it (read + write) and accumulates (two
    reads + one write); the restriction gathers the kept entries (index
    read, value read, write) and copies them (read + write)."""
    with open(os.path.join(bank_dir, "manifest.json")) as f:
        manifest = json.load(f)
    n = 8 * manifest["rows"] * manifest["cols"]
    m = 8 * len(manifest["masks"][0])
    taps = sum(1 for t in manifest["kernel_taps"] if t != 0.0)
    return n + 7 * n * taps + 5 * m


# ---------------------------------------------------------------- environment

def _loadavg():
    with open("/proc/loadavg") as f:
        return [float(v) for v in f.read().split()[:3]]


def _git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return None
    return lines[1]


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "breguq", "*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "git_sha": _git_sha(),
            "src_breguq_lines": src_lines}


# ---------------------------------------------------------------- one workload

def measure(workload, seed, seconds, trace):
    """Run one workload. Returns (run, metrics, notes); metrics is empty
    when a command or check failed."""
    notes = {"environment": environment(), "loadavg_before": _loadavg()}
    run = Run(workload.name, seed, trace)
    try:
        metrics = _measure(run, workload, seconds, notes)
    finally:
        run.close()
    notes["loadavg_after"] = _loadavg()
    busy_at = notes["environment"]["nproc"] - BUSY_MARGIN
    notes["busy"] = max(notes["loadavg_before"][0], notes["loadavg_after"][0]) > busy_at
    return run, metrics if not run.failed else {}, notes


def _measure(run, workload, seconds, notes):
    # gen is cheap, so set-up repeats it and keeps the median; the
    # checkpoint for stats is trained once.
    gens = gen(run)
    fit_s = fit(run) if workload.needs_checkpoint and not run.failed else 0.0
    if run.failed:
        return {}
    reps = run.commands(workload.name, workload.argv(run, run.path("out{rep}")),
                        workload.name, MIN_REPS * (2 if run.trace else 1), seconds, run.trace)
    if reps is None:
        return {}
    run.check_repetitions(workload.name, reps, run.path("out{rep}"), workload.primal_globs)
    plain = [r for r in reps if not r["traced"]]
    if run.failed:
        return {}

    quality = workload.quality(run.path("bank0"), run.path("out0"))
    gen_s = [r["nominal_wall_s"] for r in gens if not r["traced"]]
    notes["repetitions"] = len(reps)
    notes["gen_s_each"] = gen_s
    notes["wall_s_each"] = [r["wall_s"] for r in reps]
    notes["control_s"] = reps[0]["control_s"]
    notes["quality"] = quality
    notes["cpu_over_wall"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in plain)
    notes["sys_over_cpu"] = statistics.median(r["sys_s"] / r["cpu_s"] for r in plain)
    if run.trace:
        return layer_summary(run, workload, [r for r in reps if r["traced"]], gens,
                             statistics.median(r["wall_s"] for r in plain), quality, notes)
    # The host's speed drifts by up to 2x over minutes. Each repetition's
    # wall time is scaled to nominal host speed by the control mix timed
    # around it (control.py).
    wall_s = statistics.median(r["nominal_wall_s"] for r in plain)
    return {
        "setup_s": statistics.median(gen_s) + fit_s,
        "wall_s": wall_s,
        "throughput": workload.work / wall_s,
        "peak_rss_mb": reps[-1]["peak_rss_mb"],
        "misfit_over_floor": quality["misfit_over_floor"],
        "rel_l2": quality["rel_l2"],
    }


def layer_summary(run, workload, traced, gens, untraced_wall_s, quality, notes):
    """Medians over the traced repetitions, the set-up's testbed numbers,
    the computed kernel counts and the tracing overhead."""
    for name in EXACT_COUNTS:
        first = traced[0]["layers"][name]
        for i, r in enumerate(traced[1:], 1):
            if r["layers"][name] != first:
                run.fail(f"{workload.name}{2 * i}",
                         f"{name} = {r['layers'][name]}, first traced run had {first}")
    metrics = {name: (traced[0]["layers"][name] if name in EXACT_COUNTS else
                      statistics.median(r["layers"][name] for r in traced))
               for name in traced[0]["layers"]}
    metrics["testbed.gen_s"] = statistics.median(g["wall_s"] for g in gens if not g["traced"])
    metrics["testbed.save_bank_s"] = statistics.median(g["layers"]["testbed.save_bank_s"]
                                                       for g in gens if g["traced"])
    metrics["testbed.bank_bytes"] = tree_bytes(run.path("bank0"))
    flops, stack_bytes = generator_counts(run.cfg)
    metrics["net.flops_per_forward_computed"] = flops
    metrics["net.stack_bytes_per_forward_computed"] = stack_bytes
    metrics["linops.bytes_per_apply_computed"] = operator_bytes(run.path("bank0"))
    checkpoint = run.path(os.path.join("out0", "checkpoint"))
    metrics["em.checkpoint_bytes"] = tree_bytes(checkpoint) if os.path.isdir(checkpoint) else 0
    metrics["em.prior_misfit"] = quality.get("prior_misfit", 0.0)
    metrics["process.minor_faults"] = statistics.median(r["minor_faults"] for r in traced)
    metrics["process.sys_s"] = statistics.median(r["sys_s"] for r in traced)
    traced_wall_s = statistics.median(r["wall_s"] for r in traced)
    metrics["cli.traced_wall_s"] = traced_wall_s
    metrics["cli.trace_overhead_s"] = traced_wall_s - untraced_wall_s
    notes["layer_self_sum_s"] = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    notes["unbound_entry_points"] = sorted({u for r in traced for u in r["unbound"]})
    return metrics


# ---------------------------------------------------------------- output

def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "breguq", "cli.py")):
        print(f"benchmark: no breguq sources under {SRC}", file=sys.stderr)
        return 2
    # The orchestrator's own numpy (output checks) gets the same BLAS pool.
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    units = declared_units(args.trace)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        run, metrics, notes = measure(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace))
        for why in run.reasons:
            print(why, file=sys.stderr)
        if metrics and set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                               "match BENCHMARK.json")
        print(f"== {name} (seed {args.seed}, trace {args.trace}): "
              f"{len(run.failed)} of {run.attempted} commands failed; "
              f"throughput counts {WORKLOADS[name].unit_of_work}")
        print("notes: " + json.dumps(notes))
        for key, value in metrics.items():
            print(f"  {key:<40} {value:>16.6g} {units[key]}")
        correct = correct and not run.failed
        attempted += run.attempted
        failed += len(run.failed)
        prefix = f"{name}." if len(names) > 1 else ""
        out.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
