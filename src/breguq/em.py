"""Semi-supervised training loop: per-tuple inversion and latent inference
alternated with averaged generator-weight updates.

Each training tuple owns a disjoint round-robin subset of the experiment
bank, a `BregmanState` (its primal/dual grid pair and step count), and a
latent vector. A round runs, per tuple, a block of Bregman steps with the
generator penalty through the one Bregman driver, `run_bregman`, over the
tuple's subset, followed by a warm-started Langevin chain over the latent,
all with the weights read-only; the round ends with a synchronization
barrier where the per-tuple gradients, each at the tuple's current latent,
are reduced in ascending id order and averaged, and the weights take
`m_steps_per_round` descent steps. The generator output acts as the
shared center the per-tuple solutions are elastically pulled toward.
`round_schedule` gives each round's trade-off parameter and stack.

Randomness is counter-keyed: experiment draws come from per-tuple streams
(seed, tuple id) consumed sequentially across rounds, and Langevin noise
from per-step streams (seed, tuple id, round, step). E-step results are
therefore independent of tuple scheduling, and a resumed run fast-forwards
the draw streams. `train` alone writes a run directory, one copy per file:
the weights and the logs, which each round appends to, at its root; the
per-tuple state, the ramp window and the stacks in `checkpoint/`. A resume
reads the logs back, so it writes every file as an uninterrupted run does.
Checkpoint files use `breguq.stats` formats; a malformed one raises
`CheckpointFormatError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bregman import (T_MAX_DEFAULT, BregmanState, TraceRecord, initial_state,
                      run_bregman)
from .errors import CheckpointFormatError, ConfigError, NumericalAbortError
from .net import NetArch, net_eval_and_backward, net_forward, net_init
from .projections import Box, ConstraintStack, L1Ball, L2Ball, TVBall
from .sgld import SgldParams, sgld_run
from .stats import (load_weights, read_portable_grid, read_records, save_weights,
                    write_portable_grid, write_records)

__all__ = [
    "TrainTuple",
    "TrainConfig",
    "RoundRecord",
    "TrainResult",
    "init_tuples",
    "round_schedule",
    "e_step",
    "m_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class TrainTuple:
    """One latent pair: assigned experiments, their Bregman state, latent."""

    id: int
    experiment_ids: np.ndarray
    state: BregmanState
    z: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    n_tuples: int = 8
    rounds: int = 50
    bregman_steps_per_round: int = 8
    sgld: SgldParams = SgldParams()
    lam_init: float = 0.0
    lam_final: float = 1.0
    lam_ramp_rounds: int | None = None  # None -> rounds // 2
    eta: float = 3e-5
    m_steps_per_round: int = 1
    t_max: float = T_MAX_DEFAULT
    init_seed: int = 23
    init_scale: float = 1.0
    z_seed: int = 37
    draw_seed: int = 41
    noise_seed: int = 31

    def __post_init__(self):
        if self.n_tuples < 1:
            raise ValueError("need at least one tuple")
        if self.rounds < 0 or self.bregman_steps_per_round < 0:
            raise ValueError("round counts must be non-negative")
        if not all(0 <= v < np.inf for v in (self.eta, self.lam_init, self.lam_final)):
            raise ValueError("steplengths and trade-off values must be finite and "
                             "non-negative")
        if self.m_steps_per_round < 1:
            raise ValueError("m_steps_per_round must be at least 1")
        if self.lam_ramp_rounds is not None and self.lam_ramp_rounds < 0:
            raise ValueError(f"lam_ramp_rounds must be non-negative, got {self.lam_ramp_rounds}")


@dataclass(frozen=True)
class RoundRecord:
    """One line of `rounds.csv`; its fields, in order, are the columns."""

    round: int
    lam: float
    mean_data_misfit: float
    mean_prior_misfit: float


@dataclass(frozen=True)
class TrainResult:
    weights: np.ndarray
    initial_weights: np.ndarray
    tuples: list
    rounds: list
    tuple_traces: dict


def _ramp_window(config: TrainConfig) -> int:
    return config.rounds // 2 if config.lam_ramp_rounds is None else config.lam_ramp_rounds


def round_schedule(config: TrainConfig, stack: ConstraintStack,
                   stack_final: ConstraintStack, round_idx: int):
    """Round `round_idx`'s (lam, stack) from one ramp fraction: round /
    window, capped at 1 (window `lam_ramp_rounds`, None: rounds // 2; an
    empty window is complete at round 0). lam ramps from lam_init to
    lam_final; a set field c that `stack_final` sets to v != c is
    c + frac * (v - c)."""
    window = _ramp_window(config)
    frac = 1.0 if window <= 0 else min(1.0, round_idx / window)
    lam = (config.lam_final if frac >= 1.0
           else config.lam_init + (config.lam_final - config.lam_init) * frac)
    if stack_final == stack:
        return lam, stack
    lerp = lambda c, v: c if c == v else c + frac * (v - c)
    return lam, replace(stack, sets=tuple(
        replace(s, **{f.name: lerp(getattr(s, f.name), getattr(e, f.name)) for f in fields(s)})
        for s, e in zip(stack.sets, stack_final.sets)))


def init_tuples(bank, n: int, seed: int, latent_dim: int) -> list:
    """Round-robin partition of the bank (experiment i -> tuple i mod n),
    zero Bregman states, and latents drawn from one seeded stream."""
    n_exp = bank.n
    if n > n_exp:
        raise ConfigError(f"[em] tuples: cannot split {n_exp} experiments into {n} tuples")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return [TrainTuple(t, np.arange(t, n_exp, n, dtype=np.int64), initial_state(bank.shape),
                       rng.standard_normal(latent_dim)) for t in range(n)]


def e_step(tuples, bank, arch: NetArch, w, lam: float, stack: ConstraintStack,
           config: TrainConfig, round_idx: int):
    """Per tuple: a block of penalized Bregman steps drawing experiments
    inside the tuple's subset, continuing its draw stream (key: tuple id),
    then a warm-started Langevin chain on the latent. Weights are
    read-only and the latent is fixed during the block, so its center
    g(z, w) is evaluated once per tuple (not at lam = 0). Returns (new
    tuples, per-tuple trace).
    """
    steps = config.bregman_steps_per_round
    new_tuples, traces = [], {}
    for t in tuples:
        center = net_forward(arch, w, t.z) if lam > 0 else None
        state, traces[t.id] = run_bregman(
            bank, stack, t.state, t.experiment_ids, steps, config.draw_seed,
            key=t.id, skip=round_idx * steps, t_max=config.t_max, center=center,
            lam=lam)
        z_new = t.z
        if config.sgld.steps > 0:
            z_new, _ = sgld_run(t.z, state.x_primal, arch, w, lam, config.sgld,
                                (config.noise_seed, t.id, round_idx))
        new_tuples.append(replace(t, state=state, z=z_new))
    return new_tuples, traces


def m_step(tuples, arch: NetArch, w, eta: float) -> np.ndarray:
    """One descent step on the tuple-averaged squared mismatch between
    primal grids and generator outputs; gradients accumulate in ascending
    tuple-id order."""
    grad = np.zeros(arch.n_params)
    losses = {}
    for t in sorted(tuples, key=lambda u: u.id):
        x = t.state.x_primal
        g, _, gw = net_eval_and_backward(arch, w, t.z, lambda out: 2.0 * (out - x))
        diff = g - x
        losses[t.id] = float(np.dot(diff.ravel(), diff.ravel()))
        grad += gw
    grad /= len(tuples)
    if not np.all(np.isfinite(grad)):
        raise NumericalAbortError("non-finite weight gradient",
                                  diagnostics={"per_tuple_loss": losses})
    return w - eta * grad


def _tuple_data_misfit(t: TrainTuple, bank) -> float:
    total = 0.0
    for k in t.experiment_ids:
        exp = bank.experiments[int(k)]
        r = exp.op.apply(t.state.x_primal) - exp.y
        total += float(np.dot(r.ravel(), r.ravel()))
    return total


def train(bank, stack: ConstraintStack, arch: NetArch, config: TrainConfig,
          stack_final: ConstraintStack | None = None, run_dir=None,
          resume_from=None) -> TrainResult:
    """Run the full loop: rounds of (e_step; m_step) with lam and the stack
    following `round_schedule` from `stack` to `stack_final` (default
    `stack`; the same sets, in order); every Bregman step of every tuple
    goes through `run_bregman`. `run_dir` receives the run directory (see
    `save_checkpoint`), written whole first and extended after every
    round. `resume_from` is such a directory: the run restarts from it and
    reproduces the uninterrupted run exactly (streams are counter-keyed);
    more completed rounds than `config.rounds`, or a tuple split, step
    count, start or final stack, or completed round's lam or stack that the
    arguments would not give raises `ConfigError` before any write. A round
    whose prior misfit is not finite raises `NumericalAbortError` before its
    checkpoint is written.
    """
    if arch.out_shape != tuple(bank.shape):
        raise ConfigError(f"[net] generator output {arch.out_shape} does not match the bank "
                          f"grid {tuple(bank.shape)}; adjust base shape or stages")
    stack_final = stack if stack_final is None else stack_final
    w0 = net_init(arch, config.init_seed, config.init_scale)
    w, start_round, window = w0.copy(), 0, _ramp_window(config)
    tuples = init_tuples(bank, config.n_tuples, config.z_seed, arch.latent_dim)
    round_records, tuple_traces = [], {t.id: [] for t in tuples}
    if resume_from is not None:
        partition = [(t.id, t.experiment_ids.tolist()) for t in tuples]
        (w, tuples, start_round, round_records, tuple_traces, ran_window,
         ran_stacks) = load_checkpoint(resume_from, arch)
        if start_round > config.rounds:
            raise ConfigError(f"[em] rounds: {resume_from} completed {start_round} rounds, "
                              f"more than the configured {config.rounds}")
        if [(t.id, t.experiment_ids.tolist()) for t in tuples] != partition:
            raise ConfigError(f"[em] tuples: {resume_from} splits the bank into "
                              f"{len(tuples)} tuples, not as configured")
        if any(t.state.iter != start_round * config.bregman_steps_per_round for t in tuples):
            raise ConfigError(f"[em] bregman_steps_per_round: {resume_from} ran another "
                              f"number of steps per round")
        for end, ran_stack, configured in zip(("start", "final"), ran_stacks,
                                              (stack, stack_final)):
            if ran_stack != configured:
                raise ConfigError(f"[constraints]: {resume_from} ran on the {end} stack "
                                  f"{ran_stack}, not the configured {configured}")
        ran = replace(config, lam_ramp_rounds=ran_window)
        for rec in round_records:  # a logged lam round-trips through repr exactly
            lam, stack_r = round_schedule(config, stack, stack_final, rec.round)
            if (rec.lam, round_schedule(ran, stack, stack_final, rec.round)[1]) != (lam, stack_r):
                raise ConfigError(f"[em] lam_ramp_rounds: {resume_from} ran round {rec.round} "
                                  f"at lam {rec.lam!r} with the stack of a {ran_window}-round "
                                  f"ramp window, not at lam {lam!r} with the stack of the "
                                  f"configured {window}-round window")
    if run_dir is not None:
        save_checkpoint(run_dir, arch, w, tuples, start_round - 1, window,
                        (stack, stack_final), round_records, tuple_traces)
        save_weights(os.path.join(run_dir, "weights_init.dpnw"), arch, w0)

    for r in range(start_round, config.rounds):
        lam, stack_r = round_schedule(config, stack, stack_final, r)
        tuples, traces = e_step(tuples, bank, arch, w, lam, stack_r, config, r)
        for tid, rows in traces.items():
            tuple_traces[tid].extend(rows)
        for _ in range(config.m_steps_per_round):
            w = m_step(tuples, arch, w, config.eta)
        data = float(np.mean([_tuple_data_misfit(t, bank) for t in tuples]))
        misfits = {t.id: float(np.linalg.norm(
            (t.state.x_primal - net_forward(arch, w, t.z)).ravel())) for t in tuples}
        prior = float(np.mean(list(misfits.values())))
        if not np.isfinite(prior):
            raise NumericalAbortError("non-finite prior misfit", diagnostics={
                "round": r, "lam": lam, "eta": config.eta,
                "per_tuple_misfit": misfits})
        round_records.append(RoundRecord(r, lam, data, prior))
        if run_dir is not None:
            save_checkpoint(run_dir, arch, w, tuples, r, window, (stack, stack_final),
                            round_records[-1:], traces, append=True)
    return TrainResult(w, w0, tuples, round_records, tuple_traces)


_SET_KINDS = {kind.__name__: kind for kind in (Box, L1Ball, L2Ball, TVBall)}


def _stack_to_json(stack: ConstraintStack) -> dict:
    """The stack's knobs, and per set its kind and fields."""
    return {**asdict(stack), "sets": [{"kind": type(s).__name__, **asdict(s)}
                                      for s in stack.sets]}


def _stack_from_json(record: dict) -> ConstraintStack:
    sets = [_SET_KINDS[s["kind"]](**{k: v for k, v in s.items() if k != "kind"})
            for s in record["sets"]]
    return ConstraintStack(**{**record, "sets": sets})


def save_checkpoint(dirpath, arch: NetArch, w, tuples, round_completed: int,
                    ramp_rounds: int, stacks, rounds, traces, append: bool = False) -> None:
    """The run directory `dirpath` as of `round_completed`: the weights and
    logs at its root, the tuple state in `checkpoint/` (the latents as one
    grid, a row per tuple in `tuples` order). `stacks` is the run's (start,
    final) constraint stack pair. `rounds` and `traces` (tuple id -> rows)
    are the whole logs, or with `append` the rows the logs on disk gain.
    `state.json`, whose counts say how many log rows a resume reads, and
    which records the rounds' ramp window and stacks, goes last."""
    state_dir = os.path.join(dirpath, "checkpoint")
    os.makedirs(state_dir, exist_ok=True)
    write_records(os.path.join(dirpath, "rounds.csv"), RoundRecord, rounds, append)
    for t in tuples:
        write_records(os.path.join(dirpath, f"trace_tuple_{t.id:03d}.csv"), TraceRecord,
                      traces[t.id], append)
    save_weights(os.path.join(dirpath, "weights.dpnw"), arch, w)
    write_portable_grid([t.z for t in tuples], os.path.join(state_dir, "latents.pgrd"))
    for t in tuples:
        for name, grid in (("x", t.state.x_primal), ("xdual", t.state.x_dual)):
            write_portable_grid(grid, os.path.join(state_dir, f"tuple_{t.id:03d}_{name}.pgrd"))
    state = {"round_completed": int(round_completed), "lam_ramp_rounds": int(ramp_rounds),
             "stacks": [_stack_to_json(stack) for stack in stacks],
             "tuples": [{"id": int(t.id), "experiment_ids": t.experiment_ids.tolist(),
                         "step_count": int(t.state.iter)} for t in tuples]}
    with open(os.path.join(state_dir, "state.json"), "w", newline="") as f:
        json.dump(state, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(dirpath, arch: NetArch):
    """Reads the run directory `dirpath`: (weights, tuples, next round index,
    round records, per-tuple traces, ramp window, (start, final) stacks).
    Malformed content in any file, a log whose row count disagrees with
    `state.json`, or a latent grid that is not one row per tuple of
    `state.json`, raises `CheckpointFormatError` naming the file."""
    state_dir = os.path.join(dirpath, "checkpoint")

    def parse(path, read, *args):
        try:
            return read(path, *args)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointFormatError(
                f"{path}: {type(exc).__name__}: {exc}") from exc

    def read_state(path):
        with open(path) as f:
            state = json.load(f)
        if type(window := state["lam_ramp_rounds"]) is not int or window < 0:
            raise ValueError(f"lam_ramp_rounds must be a non-negative integer, got {window!r}")
        start, final = (_stack_from_json(record) for record in state["stacks"])
        return (state["round_completed"] + 1, window, (start, final),
                [(rec["id"], np.asarray(rec["experiment_ids"], dtype=np.int64),
                  rec["step_count"]) for rec in state["tuples"]])

    def read_log(path, cls, rows):  # one trace row per step, one round row per round
        logged = read_records(path, cls)
        if len(logged) != rows:
            raise ValueError(f"holds {len(logged)} rows where state.json implies {rows}")
        return logged

    next_round, window, stacks, records = parse(os.path.join(state_dir, "state.json"),
                                                read_state)
    w = load_weights(os.path.join(dirpath, "weights.dpnw"), arch)
    latents = read_portable_grid(path := os.path.join(state_dir, "latents.pgrd"))
    if latents.shape != (len(records), arch.latent_dim):
        raise CheckpointFormatError(f"{path}: holds a {latents.shape} grid, not one latent "
                                    f"of size {arch.latent_dim} per tuple of state.json")
    tuples, traces = [], {}
    for (tid, experiment_ids, step_count), z in zip(records, latents):
        x_dual, x = (read_portable_grid(os.path.join(state_dir, f"tuple_{tid:03d}_{n}.pgrd"))
                     for n in ("xdual", "x"))
        tuples.append(TrainTuple(tid, experiment_ids, BregmanState(x_dual, x, step_count), z))
        traces[tid] = parse(os.path.join(dirpath, f"trace_tuple_{tid:03d}.csv"), read_log,
                            TraceRecord, step_count)
    return (w, tuples, next_round,
            parse(os.path.join(dirpath, "rounds.csv"), read_log, RoundRecord, next_round),
            traces, window, stacks)
