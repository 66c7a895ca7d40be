"""Posterior sampling from the trained generator, summary statistics, and
every binary and CSV file format of the package.

Realizations g(z, w) are regenerated on demand from an array of latents,
drawn once from the standard-normal streams `keyed_rng(seed, index)` (the
package's one counter-keyed stream) and shared by every pass and weight
vector that reads them. `summarize` is the one pass over realizations: it
streams the mean and pointwise-standard-deviation grids through a Welford
accumulator, so the full sample set never has to sit in memory; a pass
whose sums are not finite is a numerical abort. The values of a few probe
pixels across all realizations come from `SampleSet.probe_values`, which
evaluates only the probes' receptive cone, a batch of latents at a time
(`net.net_pixels`), so probes chosen from a finished pass need no second
pass. Model-quality and calibration metrics and probe-pixel histograms
support the reporting CLI.
"""

from __future__ import annotations

import csv
import math
import struct
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import CheckpointFormatError, GridFormatError, NumericalAbortError
from .net import NetArch, net_forward, net_pixels

__all__ = [
    "keyed_rng",
    "draw_latents",
    "SampleSet",
    "SampleSummary",
    "summarize",
    "auto_probes",
    "model_quality",
    "calibration",
    "write_portable_grid",
    "read_portable_grid",
    "save_weights",
    "load_weights",
    "write_table",
    "read_table",
    "write_records",
    "read_records",
    "write_histograms_csv",
]


def keyed_rng(*key) -> np.random.Generator:
    """The counter-keyed stream: a fresh generator seeded by the ints `key`,
    so what it draws depends on the key alone, not on what ran before."""
    return np.random.default_rng(np.random.SeedSequence([int(v) for v in key]))


def draw_latents(latent_dim: int, count: int, seed: int) -> np.ndarray:
    """(count, latent_dim) standard-normal latents; row j is drawn from the
    stream keyed (seed, j), so it does not depend on `count`."""
    return np.array([keyed_rng(seed, j).standard_normal(latent_dim)
                     for j in range(count)]).reshape(count, latent_dim)


@dataclass(frozen=True)
class SampleSet:
    """Lazy view of the generator realizations g(z_j, w) of given latents.

    `latents` is a (count, latent_dim) array, usually from `draw_latents`:
    two sample sets over the same latents differ only by their weights,
    which is what isolates training effects in before/after comparisons.
    """

    arch: NetArch
    weights: np.ndarray
    latents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        latents = np.asarray(self.latents, dtype=np.float64)
        if latents.ndim != 2 or latents.shape[1] != self.arch.latent_dim:
            raise ValueError(f"latents must be a (count, {self.arch.latent_dim}) array, "
                             f"got shape {latents.shape}")
        if len(latents) < 1:
            raise ValueError(f"sample count must be at least 1, got {len(latents)}")
        object.__setattr__(self, "latents", latents)

    @property
    def count(self) -> int:
        return len(self.latents)

    def realization(self, j: int) -> np.ndarray:
        return net_forward(self.arch, self.weights, self.latents[j])

    def realizations(self):
        for j in range(self.count):
            yield self.realization(j)

    def probe_values(self, pixels) -> np.ndarray:
        """(count, len(pixels)): the value of each (row, col) of `pixels` in
        each realization, from batched evaluations of their receptive cone;
        equal to the realizations' pixels up to rounding."""
        return net_pixels(self.arch, self.weights, self.latents, pixels)


@dataclass(frozen=True)
class SampleSummary:
    mean: np.ndarray
    std: np.ndarray


def summarize(samples: SampleSet) -> SampleSummary:
    """Mean and pointwise population std (divided by the count) in a single
    pass over `samples`: a `SampleSet` or any object with its `count` and
    `realizations()`. Sums that end non-finite (a realization that is, or
    one that overflows the squares) raise `NumericalAbortError` naming the
    first such pixel; they are checked once, after the pass."""
    if samples.count < 2:
        raise ValueError("summaries need at least 2 realizations")
    for j, x in enumerate(samples.realizations()):
        if j == 0:  # a copy: a duck-typed sample set may yield its stored grids
            mean = np.array(x, dtype=np.float64)
            m2 = np.zeros_like(mean)
        else:  # Welford
            delta = x - mean
            mean += delta / (j + 1)
            m2 += delta * (x - mean)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(m2)))
    if bad.size:
        raise NumericalAbortError("non-finite realization sums", diagnostics={
            "pixel": divmod(int(bad[0]), mean.shape[1]),
            "non_finite_pixels": int(bad.size)})
    return SampleSummary(mean, np.sqrt(m2 / samples.count))


def auto_probes(std_grid) -> list:
    """The "auto" probe pixels: the max-std and the median-std pixel of a
    posterior std grid."""
    order = np.argsort(std_grid.ravel(), kind="stable")
    cols = std_grid.shape[1]
    return [divmod(int(order[-1]), cols), divmod(int(order[order.size // 2]), cols)]


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


def calibration(mean, std, truth) -> dict:
    """How well a posterior std grid accounts for the error of its mean:
    `coverage_95`, the share of pixels with |truth - mean| <= 1.96 std,
    and `error_std_corr`, the Pearson correlation over pixels of
    |truth - mean| and std, None where either is constant."""
    err = np.abs(np.asarray(truth, dtype=np.float64) - mean).ravel()
    std = np.asarray(std, dtype=np.float64).ravel()
    corr = None
    if np.ptp(err) > 0 and np.ptp(std) > 0:
        de, ds = err - err.mean(), std - std.mean()
        corr = float(de @ ds) / math.sqrt(float(de @ de) * float(ds @ ds))
    return {"coverage_95": float(np.mean(err <= 1.96 * std)), "error_std_corr": corr}


# Little-endian header: magic, version, then rows, cols, pad (grid) or latent
# size, stages, rows, cols (weights). A float64 payload follows.
_Binary = namedtuple("_Binary", "noun magic version layout error")
_GRID = _Binary("grid", b"PGRD", 1, struct.Struct("<4sHIIH"), GridFormatError)
_WEIGHTS = _Binary("checkpoint", b"DPNW", 1, struct.Struct("<4sIIIII"),
                   CheckpointFormatError)


def _write_f8(path, fmt: _Binary, header_fields, payload) -> None:
    with open(path, "wb") as f:
        f.write(fmt.layout.pack(fmt.magic, fmt.version, *header_fields))
        f.write(np.asarray(payload, dtype="<f8").tobytes())


def _read_f8(path, fmt: _Binary, payload_size):
    """Validate magic, version, payload length and finiteness, raising
    `fmt.error` with a message that names `path` and the byte offset where
    the file departs from the format; returns the header fields after the
    version and the payload. `payload_size(fields, fail)` checks those
    fields, raising `fail(message)` if they are bad, and returns the number
    of payload values they imply."""
    def fail(message):
        return fmt.error(f"{path}: {message}")

    with open(path, "rb") as f:
        raw = f.read()
    size = fmt.layout.size
    if len(raw) < size:
        raise fail(f"{fmt.noun} truncated at byte {len(raw)}: header needs {size} bytes")
    magic, version, *header_fields = fmt.layout.unpack_from(raw, 0)
    if magic != fmt.magic:
        raise fail(f"bad magic {magic!r} at byte 0")
    if version != fmt.version:
        raise fail(f"unsupported version {version} at byte 4")
    expected = size + 8 * payload_size(header_fields, fail)
    if len(raw) != expected:
        raise fail(f"{fmt.noun} payload {'truncated' if len(raw) < expected else 'overlong'} "
                   f"at byte {min(len(raw), expected)}: expected {expected} bytes, got "
                   f"{len(raw)}")
    payload = np.frombuffer(raw, dtype="<f8", offset=size).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(payload))
    if bad.size:
        raise fail(f"{fmt.noun} payload holds a non-finite value at byte "
                   f"{size + 8 * int(bad[0])}")
    return header_fields, payload


def write_portable_grid(grid, path) -> None:
    """16-byte header (magic, version, rows, cols, pad) + little-endian
    float64 row-major payload. Only finite grids are writable."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ValueError(f"portable grids are 2-D and non-empty, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("portable grids must be finite")
    _write_f8(path, _GRID, (grid.shape[0], grid.shape[1], 0), grid)


def read_portable_grid(path) -> np.ndarray:
    def payload_size(header_fields, fail):
        rows, cols, _pad = header_fields
        if rows < 1 or cols < 1:
            raise fail(f"invalid shape {rows}x{cols} at byte 6")
        return rows * cols

    (rows, cols, _pad), grid = _read_f8(path, _GRID, payload_size)
    return grid.reshape(rows, cols)


def _weights_header(arch: NetArch) -> tuple:
    rows, cols = arch.out_shape
    return (arch.latent_dim, len(arch.stages), rows, cols)


def save_weights(path, arch: NetArch, w) -> None:
    """Write a weight checkpoint: 24-byte header (magic, version, latent
    size, stage count, output rows and cols) + little-endian float64."""
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size != arch.n_params:
        raise ValueError(f"weight vector length {w.size} != expected {arch.n_params}")
    _write_f8(path, _WEIGHTS, _weights_header(arch), w)


def load_weights(path, arch: NetArch) -> np.ndarray:
    """Read a checkpoint, validating the header against `arch`."""
    def payload_size(header_fields, fail):
        if tuple(header_fields) != _weights_header(arch):
            raise fail(f"checkpoint header (latent, stages, rows, cols) "
                       f"{tuple(header_fields)} at byte 8 does not match the "
                       f"configured {_weights_header(arch)}")
        return arch.n_params

    return _read_f8(path, _WEIGHTS, payload_size)[1]


# Cell rule: `csv` writes None as an empty cell and a float as its `repr`;
# flags become 0/1 and numpy floats Python floats first (exact type match).
_CELL = {bool: int, np.bool_: int, np.float64: float}

# Column parsers, keyed by a record field's annotation as written.
_PARSE = {"int": int, "float": float, "bool": lambda s: bool(int(s)),
          "float | None": lambda s: None if s == "" else float(s)}


def write_table(path, header, rows, append: bool = False) -> None:
    """One CSV table: the header line, then one line per row, each ended by
    a newline; `append` adds only the rows to an existing table."""
    with open(path, "a" if append else "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        if not append:
            writer.writerow(header)
        writer.writerows([v if (fmt := _CELL.get(type(v))) is None else fmt(v) for v in row]
                         for row in rows)


def read_table(path, columns: dict) -> list:
    """Rows of a CSV table as tuples of the cells of `columns` (name ->
    parser), in that order. A missing column or a file cut short (no final
    newline) raises ValueError; a rejected cell raises its parser's error,
    TypeError for a cell a short row lacks."""
    with open(path, newline="") as f:
        text = f.read()
    if not text.endswith("\n"):
        raise ValueError("ends without a newline: the file was cut short")
    reader = csv.DictReader(text.splitlines())
    missing = [name for name in columns if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"lacks the column {missing[0]!r}")
    return [tuple(parse(row[name]) for name, parse in columns.items()) for row in reader]


def write_records(path, cls, records, append: bool = False) -> None:
    """A log of `cls` dataclass records, one column per field."""
    names = [f.name for f in fields(cls)]
    write_table(path, names, map(attrgetter(*names), records), append)


def read_records(path, cls) -> list:
    """Inverse of `write_records`; floats round-trip exactly through repr."""
    columns = {f.name: _PARSE[f.type] for f in fields(cls)}
    return [cls(*row) for row in read_table(path, columns)]


def write_histograms_csv(probe_values: dict, bins: int, path) -> None:
    """Equal-width histogram of each probe pixel's values (a dict from
    (row, col) to the pixel's values); bins are right-open except the last,
    which is closed. Rows: pixel_row, pixel_col, bin_lo, bin_hi, count."""
    rows = []
    for (r, c), values in probe_values.items():
        counts, edges = np.histogram(values, bins=bins)
        rows += [(r, c, lo, hi, n) for lo, hi, n in
                 zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())]
    write_table(path, ["pixel_row", "pixel_col", "bin_lo", "bin_hi", "count"], rows)
