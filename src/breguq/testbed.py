"""Synthetic desk-scale problem generator.

Builds a bank of matrix-free experiments A_i = Restrict_i . Conv over a
piecewise-constant layered ground truth, then pollutes the clean data with
coherent error from a quadratic surrogate forward plus white noise scaled
to hit a target signal-to-noise ratio exactly.

The surrogate forward for experiment i is F_i(v) = A_i v + gamma (A_i v)^2,
which is A_i v + gamma R_i((C v)^2) for A_i = R_i C. Its linearization error
around any background is exactly gamma (A_i dm)^2, gamma times the clean
data squared: the coherent error added to the data.

Generation is deterministic given (shape, counts, seeds) and outputs are
treated as immutable afterwards. On disk a bank is a JSON manifest of
scalars and the kernel taps, and two portable grids, masks and data, with a
row per experiment (format version 2; `save_bank`, `load_bank`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError
from .linops import ComposeOp, ConvOp, RestrictOp
from .stats import read_portable_grid, write_portable_grid

__all__ = [
    "NoiseSpec",
    "LinearExperiment",
    "ExperimentBank",
    "gaussian_kernel",
    "make_ground_truth",
    "make_bank",
    "add_noise_to_snr",
    "snr_db",
    "save_bank",
    "load_bank",
]

@dataclass(frozen=True)
class NoiseSpec:
    """Target SNR in dB and the share of the perturbation energy that the
    coherent error carries; the surrogate's gamma is calibrated to that
    share. target_snr_db=inf means noise-free.
    """

    target_snr_db: float
    coherent_fraction: float = 0.3

    def __post_init__(self):
        if math.isnan(self.target_snr_db):
            raise ValueError("target SNR must not be NaN")
        if not 0.0 <= self.coherent_fraction < 1.0:
            raise ValueError("coherent fraction must lie in [0, 1)")


@dataclass(frozen=True)
class LinearExperiment:
    """One source experiment: matrix-free operator plus observed data."""

    op: object
    y: np.ndarray


@dataclass(frozen=True)
class ExperimentBank:
    experiments: tuple
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "experiments", tuple(self.experiments))
        object.__setattr__(self, "shape", tuple(self.shape))
        if not self.experiments:
            raise ValueError("experiment bank must be non-empty")

    @property
    def n(self) -> int:
        return len(self.experiments)


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized band-limited (low-pass) taps of side `size`."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    if sigma <= 0:
        raise ValueError(f"kernel sigma must be positive, got {sigma}")
    h = size // 2
    d = np.arange(-h, h + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # caught by the check below
        g = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma * sigma))
        taps = g / g.sum()
    if not np.all(np.isfinite(taps)):  # a NaN sigma, or one whose square underflows
        raise ValueError("kernel taps must be finite")
    return taps


def _check_grid(rows: int, cols: int) -> None:
    if rows < 16 or cols < 16:
        raise ValueError(f"ground-truth grid must be at least 16x16, got {rows}x{cols}")


def _check_layout(n_experiments: int, sampling_fraction: float) -> None:
    if n_experiments < 1:
        raise ValueError(f"need at least one experiment, got {n_experiments}")
    if not 0.0 < sampling_fraction <= 1.0:
        raise ValueError(f"sampling fraction must lie in (0, 1], got {sampling_fraction}")


def make_ground_truth(shape, seed: int) -> np.ndarray:
    """The perturbation grid: 3-6 horizontal layers with wiggly seeded
    interfaces and per-layer amplitudes in [-1, 1]."""
    rows, cols = int(shape[0]), int(shape[1])
    _check_grid(rows, cols)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    n_layers = int(rng.integers(3, 7))
    n_if = n_layers - 1

    base = (np.arange(1, n_layers) * rows) / n_layers
    jitter = rows / (4.0 * n_layers)
    base = base + rng.uniform(-jitter, jitter, n_if)
    amp = rng.uniform(0.5, 0.5 + rows / (6.0 * n_layers), n_if)
    freq = rng.integers(1, 4, n_if)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_if)

    t = np.arange(cols)
    depth = np.empty((n_if, cols), dtype=np.int64)
    for j in range(n_if):
        wave = base[j] + amp[j] * np.sin(2.0 * np.pi * (freq[j] * t / cols + phase[j]))
        depth[j] = np.round(wave).astype(np.int64)
    for j in range(n_if):
        depth[j] = np.clip(depth[j], 1 + j, rows - (n_if - j))
        if j > 0:
            depth[j] = np.maximum(depth[j], depth[j - 1] + 1)

    values = rng.uniform(-1.0, 1.0, n_layers)
    layer_idx = np.zeros((rows, cols), dtype=np.int64)
    r_idx = np.arange(rows)[:, None]
    for j in range(n_if):
        layer_idx += (r_idx >= depth[j][None, :])
    return values[layer_idx]


def make_bank(truth: np.ndarray, n_experiments: int, taps: np.ndarray,
              sampling_fraction: float, seed: int) -> ExperimentBank:
    """Noiseless bank: per-experiment seeded restriction masks over one
    shared convolution by `taps`. The truth is blurred once and each
    experiment's data restricts that grid, which is `op.apply(truth)` bit
    for bit. A restriction's adjoint is exact by construction; `breguq check`
    audits a bank built here (`dot_test:generated_bank`)."""
    _check_layout(n_experiments, sampling_fraction)
    shape = truth.shape
    size = shape[0] * shape[1]
    m_keep = max(1, int(round(sampling_fraction * size)))
    conv = ConvOp(taps, shape)
    blurred = conv.apply(truth)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    experiments = []
    for _ in range(n_experiments):
        idx = np.sort(rng.choice(size, size=m_keep, replace=False))
        restrict = RestrictOp(idx, shape)
        experiments.append(LinearExperiment(ComposeOp(restrict, conv),
                                            restrict.apply(blurred)))
    return ExperimentBank(tuple(experiments), shape)


def snr_db(signal_energy: float, perturbation_energy: float) -> float:
    """10*log10(signal / perturbation)."""
    if not (signal_energy > 0 and perturbation_energy > 0):
        raise ValueError("energies must be positive")
    return 10.0 * math.log10(signal_energy / perturbation_energy)


def add_noise_to_snr(bank: ExperimentBank, spec: NoiseSpec, seed: int):
    """Add coherent error gamma * y_i^2 (the surrogate's, with gamma set by
    `spec.coherent_fraction`) plus white noise to the noiseless `bank` so
    the survey-wide SNR hits the target.

    The white-noise amplitude solves the exact quadratic for the total
    perturbation energy, so the measured SNR matches the target to machine
    precision. Returns (noisy bank, report dict).
    """
    s_total = float(sum(float(np.dot(e.y.ravel(), e.y.ravel())) for e in bank.experiments))
    if s_total <= 0.0:
        raise ValueError("zero-signal bank: SNR is undefined")

    if spec.target_snr_db == math.inf:
        report = {"signal_energy": s_total, "perturbation_energy": 0.0,
                  "coherent_energy": 0.0, "noise_energy": 0.0, "gamma": 0.0,
                  "measured_snr_db": math.inf}
        return bank, report

    p_total = s_total * 10.0 ** (-spec.target_snr_db / 10.0)
    basis = [e.y * e.y for e in bank.experiments]
    b_total = float(sum(np.dot(b.ravel(), b.ravel()) for b in basis))
    target_coherent = spec.coherent_fraction * p_total
    if target_coherent > 0 and b_total <= 0:
        raise ValueError("coherent error basis is zero; cannot calibrate gamma")
    gamma = math.sqrt(target_coherent / b_total) if b_total > 0 else 0.0
    coherent = [gamma * b for b in basis]
    e_total = float(sum(np.dot(e.ravel(), e.ravel()) for e in coherent))
    if e_total > p_total:
        raise ValueError(
            f"coherent error energy {e_total:.6g} exceeds the perturbation "
            f"budget {p_total:.6g} implied by the target SNR")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    white = [rng.standard_normal(e.y.shape) for e in bank.experiments]
    cross = float(sum(np.dot(e.ravel(), h.ravel()) for e, h in zip(coherent, white)))
    h_total = float(sum(np.dot(h.ravel(), h.ravel()) for h in white))
    alpha = (-cross + math.sqrt(cross * cross + h_total * (p_total - e_total))) / h_total

    experiments = []
    noise_energy = 0.0
    for exp, e_i, h_i in zip(bank.experiments, coherent, white):
        noise_energy += float(alpha * alpha * np.dot(h_i.ravel(), h_i.ravel()))
        experiments.append(LinearExperiment(exp.op, exp.y + (e_i + alpha * h_i)))
    noisy = ExperimentBank(tuple(experiments), bank.shape)
    p_meas = float(sum(np.dot((n.y - o.y).ravel(), (n.y - o.y).ravel())
                       for n, o in zip(experiments, bank.experiments)))
    report = {
        "signal_energy": s_total,
        "perturbation_energy": p_meas,
        "coherent_energy": e_total,
        "noise_energy": noise_energy,
        "gamma": gamma,
        "measured_snr_db": snr_db(s_total, p_meas),
    }
    return noisy, report


def save_bank(dirpath, bank: ExperimentBank, manifest_extra: dict | None = None) -> None:
    """Write the bank as `manifest.json` (version 2: grid shape, kernel taps
    and `manifest_extra`; single-line JSON, keys sorted) and two portable
    grids with a row per experiment: `masks.pgrd`, its sorted kept indices
    (exact in float64), and `data.pgrd`, its data. So every experiment must
    keep the same count, as `make_bank` makes them. The manifest's `masks`
    lists experiment 0's alone, which `perfbench/run.py` reads for the count.

    The manifest goes out in one write through the C JSON encoder, which
    `json.dump` to a file or any `indent` would bypass. `load_bank` reads
    any layout of the same keys, indented manifests included."""
    os.makedirs(dirpath, exist_ok=True)
    taps = bank.experiments[0].op.inner.taps
    manifest = {
        "format": "breguq-bank",
        "version": 2,
        "rows": bank.shape[0],
        "cols": bank.shape[1],
        "kernel_size": taps.shape[0],
        "kernel_taps": taps.ravel().tolist(),
        "masks": [bank.experiments[0].op.outer.indices.tolist()],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(os.path.join(dirpath, "manifest.json"), "w", newline="") as f:
        f.write(json.dumps(manifest, sort_keys=True) + "\n")
    write_portable_grid([e.op.outer.indices for e in bank.experiments],
                        os.path.join(dirpath, "masks.pgrd"))
    write_portable_grid([e.y for e in bank.experiments], os.path.join(dirpath, "data.pgrd"))


def load_bank(dirpath):
    """Rebuild a bank from its manifest and grids; returns (bank, manifest).
    A malformed manifest or one of another version (the message names the
    `gen` that rebuilds a version-1 bank), data of another shape than the
    masks, or a mask entry that is not an integer grid index above the one
    before it, raises `InputFormatError` naming the file."""
    path = os.path.join(dirpath, "manifest.json")
    with open(path) as f:
        try:
            manifest = json.load(f)
            if not isinstance(manifest, dict) or manifest.get("format") != "breguq-bank":
                raise ValueError("not a bank manifest")
            if manifest.get("version") != 2:
                raise ValueError(f"a version-{manifest.get('version')} bank, not version 2; "
                                 f"regenerate it with `breguq gen --config "
                                 f"{os.path.join(dirpath, 'resolved.cfg')} --out <new bank>`")
            shape = (manifest["rows"], manifest["cols"])
            conv = ConvOp(np.array(manifest["kernel_taps"]).reshape(
                manifest["kernel_size"], manifest["kernel_size"]), shape)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputFormatError(f"{path}: {type(exc).__name__}: {exc}") from exc
    masks_path, data_path = (os.path.join(dirpath, name) for name in ("masks.pgrd", "data.pgrd"))
    masks, data = read_portable_grid(masks_path), read_portable_grid(data_path)
    if data.shape != masks.shape:
        raise InputFormatError(f"{data_path}: holds a {data.shape} grid where {masks_path} "
                               f"holds {masks.shape}")
    with np.errstate(invalid="ignore"):  # entries beyond int64 cast to garbage, caught below
        indices = masks.astype(np.int64)
    try:
        if (indices != masks).any():
            raise ValueError("mask entries must be integer grid indices")
        ops = [ComposeOp(RestrictOp(idx, shape), conv) for idx in indices]
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"{masks_path}: {type(exc).__name__}: {exc}") from exc
    return ExperimentBank(tuple(map(LinearExperiment, ops, data)), shape), manifest
