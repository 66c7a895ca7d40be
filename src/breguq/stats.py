"""Posterior sampling from the trained generator and summary statistics.

Realizations g(z, w) with fresh standard-normal latents are regenerated on
demand from counter-based streams keyed by (seed, index). `summarize` is
the one pass over them: it streams the mean and pointwise-standard-
deviation grids through a Welford accumulator and records the values of
the probe pixels, so the full sample set never has to sit in memory.
Pixel histograms of those probe values and model-quality metrics support
the reporting CLI, and this module also owns the portable grid file
format used everywhere for 2-D arrays.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridFormatError
from .net import NetArch, net_forward

__all__ = [
    "SampleSet",
    "PixelHistogram",
    "sample_generator",
    "SampleSummary",
    "summarize",
    "model_quality",
    "write_portable_grid",
    "read_portable_grid",
    "write_histograms_csv",
    "write_quality_csv",
    "GRID_MAGIC",
]

GRID_MAGIC = b"PGRD"
_GRID_VERSION = 1
_GRID_HEADER = struct.Struct("<4sHIIH")  # magic, version, rows, cols, pad


@dataclass(frozen=True)
class SampleSet:
    """Lazy view of M generator realizations with fresh seeded latents.

    Realization j uses the latent drawn from the stream keyed (seed, j);
    two sample sets with the same seed see the same latents regardless of
    the weights, which is what isolates training effects in before/after
    comparisons.
    """

    arch: NetArch
    weights: np.ndarray
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sample count must be at least 1, got {self.count}")

    @property
    def shape(self) -> tuple:
        return self.arch.out_shape

    def latent(self, j: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), int(j)]))
        return rng.standard_normal(self.arch.latent_dim)

    def realization(self, j: int) -> np.ndarray:
        return net_forward(self.arch, self.weights, self.latent(j))

    def realizations(self):
        for j in range(self.count):
            yield self.realization(j)


def sample_generator(arch: NetArch, w, count: int, seed: int) -> SampleSet:
    """M independent draws z ~ N(0, I) pushed through the generator."""
    return SampleSet(arch, np.asarray(w, dtype=np.float64), count, seed)


@dataclass
class _WelfordState:
    """Streaming first/second moments."""

    count: int
    mean: np.ndarray
    m2: np.ndarray


def _welford_update(state: _WelfordState | None, x: np.ndarray) -> _WelfordState:
    x = np.asarray(x, dtype=np.float64)
    if state is None:
        return _WelfordState(1, x.copy(), np.zeros_like(x))
    n = state.count + 1
    delta = x - state.mean
    mean = state.mean + delta / n
    m2 = state.m2 + delta * (x - mean)
    return _WelfordState(n, mean, m2)


@dataclass(frozen=True)
class PixelHistogram:
    pixel: tuple
    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("histogram edges must be strictly increasing")
        if np.any(self.counts < 0):
            raise ValueError("histogram counts must be non-negative")

    @classmethod
    def of(cls, pixel, values, bins: int) -> "PixelHistogram":
        """Equal-width histogram of one pixel's values across realizations
        (a `SampleSummary.probe_values` entry); bins are right-open except
        the last, which is closed."""
        counts, edges = np.histogram(values, bins=bins)
        return cls((int(pixel[0]), int(pixel[1])), edges, counts)


@dataclass(frozen=True)
class SampleSummary:
    mean: np.ndarray
    std: np.ndarray
    probe_values: dict


def summarize(samples: SampleSet, probe_pixels=(), mode: str = "population") -> SampleSummary:
    """Mean, pointwise std, and selected pixel traces in a single pass."""
    if samples.count < 2:
        raise ValueError("summaries need at least 2 realizations")
    if mode not in ("population", "sample"):
        raise ValueError(f"unknown std mode {mode!r}")
    probes = [(int(r), int(c)) for r, c in probe_pixels]
    rows, cols = samples.shape
    for r, c in probes:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"pixel ({r}, {c}) out of range for {rows}x{cols} grid")
    traces = {p: np.empty(samples.count) for p in probes}
    state = None
    for j, x in enumerate(samples.realizations()):
        state = _welford_update(state, x)
        for p in probes:
            traces[p][j] = x[p]
    denom = state.count if mode == "population" else state.count - 1
    return SampleSummary(state.mean, np.sqrt(state.m2 / denom), traces)


def model_quality(x, truth) -> dict:
    """Relative l2 error against the truth and the equivalent SNR in dB."""
    x = np.asarray(x, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if x.shape != truth.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {truth.shape}")
    tn = float(np.linalg.norm(truth.ravel()))
    if tn == 0.0:
        raise ValueError("truth grid is zero; relative error is undefined")
    rel = float(np.linalg.norm((x - truth).ravel())) / tn
    snr = math.inf if rel == 0.0 else -20.0 * math.log10(rel)
    return {"relative_l2": rel, "snr_db": snr}


def write_portable_grid(grid, path) -> None:
    """16-byte header (magic, version, rows, cols, pad) + little-endian
    float64 row-major payload. Only finite grids are writable."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ValueError(f"portable grids are 2-D and non-empty, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("portable grids must be finite")
    header = _GRID_HEADER.pack(GRID_MAGIC, _GRID_VERSION, grid.shape[0],
                               grid.shape[1], 0)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(grid).astype("<f8").tobytes())


def read_portable_grid(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _GRID_HEADER.size:
        raise GridFormatError(
            f"grid file truncated at byte {len(raw)}: header needs "
            f"{_GRID_HEADER.size} bytes", offset=len(raw))
    magic, version, rows, cols, _pad = _GRID_HEADER.unpack_from(raw, 0)
    if magic != GRID_MAGIC:
        raise GridFormatError(f"bad magic {magic!r} at byte 0", offset=0)
    if version != _GRID_VERSION:
        raise GridFormatError(f"unsupported version {version} at byte 4", offset=4)
    if rows < 1 or cols < 1:
        raise GridFormatError(f"invalid shape {rows}x{cols} at byte 6", offset=6)
    expected = _GRID_HEADER.size + 8 * rows * cols
    if len(raw) != expected:
        raise GridFormatError(
            f"grid payload truncated at byte {len(raw)}: expected {expected} bytes",
            offset=min(len(raw), expected))
    data = np.frombuffer(raw, dtype="<f8", offset=_GRID_HEADER.size)
    grid = data.astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(grid)):
        raise GridFormatError("grid payload contains non-finite values",
                              offset=_GRID_HEADER.size)
    return grid


def write_histograms_csv(histograms, path) -> None:
    """Rows: pixel_row, pixel_col, bin_lo, bin_hi, count."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["pixel_row", "pixel_col", "bin_lo", "bin_hi", "count"])
        for h in histograms:
            for b in range(len(h.counts)):
                writer.writerow([h.pixel[0], h.pixel[1], repr(float(h.edges[b])),
                                 repr(float(h.edges[b + 1])), int(h.counts[b])])


def write_quality_csv(metrics: dict, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["metric", "value"])
        for name, value in metrics.items():
            writer.writerow([name, repr(float(value))])
