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
(seed, tuple id), continued from the tuple's Bregman step count, and
Langevin noise from per-step streams (seed, tuple id, round, step). E-step
results are therefore independent of tuple scheduling, and a resume, which
restores the step counts, draws as the uninterrupted run does. `train`
alone writes a run directory, one copy per file: the weights and the logs,
which each round appends to, at its root; the per-tuple state, the ramp
window and the fingerprint of what a resume must share with the run in
`checkpoint/`. A resume reads the logs back, so it writes every file as an
uninterrupted run does. Checkpoint files use `breguq.stats` formats; a
malformed one raises `CheckpointFormatError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .bregman import (T_MAX_DEFAULT, BregmanState, TraceRecord, initial_state,
                      run_bregman)
from .errors import CheckpointFormatError, ConfigError, NumericalAbortError
from .net import NetArch, net_eval_and_backward, net_forward, net_init
from .projections import ConstraintStack
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
    "check_prior",
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
    new_tuples, traces = [], {}
    for t in tuples:
        center = net_forward(arch, w, t.z) if lam > 0 else None
        state, traces[t.id] = run_bregman(
            bank, stack, t.state, t.experiment_ids, config.bregman_steps_per_round,
            config.draw_seed, key=t.id, t_max=config.t_max, center=center, lam=lam)
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


def _fingerprint(bank, arch, config, stack, stack_final) -> dict:
    """What a resume must run on, as strings: `config` but for `rounds` and
    `lam_ramp_rounds` (see `train`), `arch`, both stacks, and a sha256 of
    the bank's grid shape, kernel taps, masks and data."""
    digest = hashlib.sha256(repr(tuple(bank.shape)).encode())
    for e in bank.experiments:
        for a in (e.op.inner.taps, e.op.outer.indices, e.y):
            digest.update(repr(a.shape).encode() + a.tobytes())
    return {**{f.name: repr(getattr(config, f.name)) for f in fields(config)
               if f.name not in ("rounds", "lam_ramp_rounds")},
            "net": repr(arch), "stack": repr(stack), "stack_final": repr(stack_final),
            "bank_sha256": digest.hexdigest()}


def train(bank, stack: ConstraintStack, arch: NetArch, config: TrainConfig,
          stack_final: ConstraintStack | None = None, run_dir=None,
          resume_from=None) -> TrainResult:
    """Run the full loop: rounds of (e_step; m_step) with lam and the stack
    following `round_schedule` from `stack` to `stack_final` (default
    `stack`; the same sets, in order); every Bregman step of every tuple
    goes through `run_bregman`. `run_dir` receives the run directory (see
    `save_checkpoint`), written whole first and extended after every
    round. `resume_from` is such a directory: the run restarts from it and
    reproduces the uninterrupted run exactly (streams are counter-keyed).
    A fingerprint (`_fingerprint`) other than this call's, more completed
    rounds than `config.rounds`, or a completed round's lam or stack that
    the ramp window may no longer give raises `ConfigError` before any
    write; `rounds` may grow, and the window may move where it moves no
    completed round. A round whose prior misfit is not finite raises
    `NumericalAbortError` before its checkpoint is written.
    """
    if arch.out_shape != tuple(bank.shape):
        raise ConfigError(f"[net] generator output {arch.out_shape} does not match the bank "
                          f"grid {tuple(bank.shape)}; adjust base shape or stages")
    stack_final = stack if stack_final is None else stack_final
    w = net_init(arch, config.init_seed, config.init_scale)
    start_round, window = 0, _ramp_window(config)
    tuples = init_tuples(bank, config.n_tuples, config.z_seed, arch.latent_dim)
    round_records, tuple_traces = [], {t.id: [] for t in tuples}
    fingerprint = (None if run_dir is None and resume_from is None
                   else _fingerprint(bank, arch, config, stack, stack_final))
    if resume_from is not None:
        w, tuples, start_round, round_records, tuple_traces, ran_window = load_checkpoint(
            resume_from, arch, fingerprint, tuples, config.bregman_steps_per_round)
        if start_round > config.rounds:
            raise ConfigError(f"[em] rounds: {resume_from} completed {start_round} rounds, "
                              f"more than the configured {config.rounds}")
        ran = replace(config, lam_ramp_rounds=ran_window)
        for rec in round_records:  # a logged lam round-trips through repr exactly
            lam, stack_r = round_schedule(config, stack, stack_final, rec.round)
            if (rec.lam, round_schedule(ran, stack, stack_final, rec.round)[1]) != (lam, stack_r):
                raise ConfigError(f"[em] lam_ramp_rounds: {resume_from} ran round {rec.round} "
                                  f"at lam {rec.lam!r} with the stack of a {ran_window}-round "
                                  f"ramp window, not at lam {lam!r} with the stack of the "
                                  f"configured {window}-round window")
    if run_dir is not None:
        save_checkpoint(run_dir, arch, w, tuples, start_round - 1, window, fingerprint,
                        round_records, tuple_traces)

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
            save_checkpoint(run_dir, arch, w, tuples, r, window, fingerprint,
                            round_records[-1:], traces, append=True)
    return TrainResult(w, tuples, round_records, tuple_traces)


def save_checkpoint(dirpath, arch: NetArch, w, tuples, round_completed: int,
                    ramp_rounds: int, fingerprint: dict, rounds, traces,
                    append: bool = False) -> None:
    """The run directory `dirpath` as of `round_completed`: the weights and
    logs at its root, the tuple state in `checkpoint/` (the latents as one
    grid, a row per tuple in `tuples` order). `rounds` and `traces` (tuple
    id -> rows) are the whole logs, or with `append` the rows the logs on
    disk gain. `state.json` goes last: the completed round, the ramp
    window, the resume `fingerprint`, and each tuple's id and experiments
    (for readers outside; `load_checkpoint` rebuilds them)."""
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
             "fingerprint": fingerprint,
             "tuples": [{"id": int(t.id), "experiment_ids": t.experiment_ids.tolist()}
                        for t in tuples]}
    with open(os.path.join(state_dir, "state.json"), "w", newline="") as f:
        json.dump(state, f, indent=2, sort_keys=True)
        f.write("\n")


def _parse(path, read, *args):
    try:
        return read(path, *args)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _read_state(path):
    with open(path) as f:
        state = json.load(f)
    if type(done := state["round_completed"]) is not int or done < -1:
        raise ValueError(f"round_completed must be an integer of at least -1, got {done!r}")
    if type(window := state["lam_ramp_rounds"]) is not int or window < 0:
        raise ValueError(f"lam_ramp_rounds must be a non-negative integer, got {window!r}")
    return done + 1, window, dict(state["fingerprint"])


def _check_fingerprint(flag, dirpath, ran: dict, fingerprint: dict, keys) -> None:
    for key in keys:
        if ran.get(key) != fingerprint.get(key):
            raise ConfigError(f"{flag}: {dirpath} ran with {key} = {ran.get(key)}, "
                              f"not {fingerprint.get(key)}")


def check_prior(dirpath, arch: NetArch, config: TrainConfig | None = None) -> None:
    """Raise `ConfigError` unless the run directory `dirpath` ran with the
    generator `arch` and, given `config`, its init_seed and init_scale, which
    fix the untrained weights (`net_init`); checked against its fingerprint."""
    _, _, ran = _parse(os.path.join(dirpath, "checkpoint", "state.json"), _read_state)
    prior = {} if config is None else {"init_seed": repr(config.init_seed),
                                       "init_scale": repr(config.init_scale)}
    prior["net"] = repr(arch)
    _check_fingerprint("--checkpoint", dirpath, ran, prior, prior)


def load_checkpoint(dirpath, arch: NetArch, fingerprint: dict, tuples, steps_per_round: int):
    """Reads the run directory `dirpath` into `tuples` as `init_tuples`
    makes them: (weights, tuples, next round index, round records,
    per-tuple traces, ramp window). A recorded fingerprint other than
    `fingerprint` raises `ConfigError` naming the part that differs, before
    any other file is read. Malformed content in any file, a log whose row
    count is not `steps_per_round` per completed round (one per round in
    `rounds.csv`), or a grid of another shape than the run's, raises
    `CheckpointFormatError` naming the file."""
    state_dir = os.path.join(dirpath, "checkpoint")

    def read_log(path, cls, rows):  # one trace row per step, one round row per round
        logged = read_records(path, cls)
        if len(logged) != rows:
            raise ValueError(f"holds {len(logged)} rows where state.json implies {rows}")
        return logged

    def read_grid(name, shape):
        if (grid := read_portable_grid(path := os.path.join(state_dir, name))).shape != shape:
            raise CheckpointFormatError(f"{path}: holds a {grid.shape} grid, not {shape}")
        return grid

    next_round, window, ran = _parse(os.path.join(state_dir, "state.json"), _read_state)
    _check_fingerprint("--resume", dirpath, ran, fingerprint, {**fingerprint, **ran})
    steps = next_round * steps_per_round
    w = load_weights(os.path.join(dirpath, "weights.dpnw"), arch)
    latents = read_grid("latents.pgrd", (len(tuples), arch.latent_dim))
    loaded, traces = [], {}
    for t, z in zip(tuples, latents):
        x_dual, x = (read_grid(f"tuple_{t.id:03d}_{n}.pgrd", t.state.x_primal.shape)
                     for n in ("xdual", "x"))
        loaded.append(replace(t, state=BregmanState(x_dual, x, steps), z=z))
        traces[t.id] = _parse(os.path.join(dirpath, f"trace_tuple_{t.id:03d}.csv"), read_log,
                             TraceRecord, steps)
    return (w, loaded, next_round,
            _parse(os.path.join(dirpath, "rounds.csv"), read_log, RoundRecord, next_round),
            traces, window)
