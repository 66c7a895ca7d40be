"""Matrix-free linear operators on 2D grids.

Building blocks for the synthetic survey operators: circular (periodic)
convolution, index restriction (subsampling), and composition.
The convolution is a direct per-tap summation on the torus, evaluated in C
by `scipy.ndimage`; its adjoint is the circular correlation with the same
taps.
Every operator exposes an exact adjoint under the Euclidean inner product,
and `dot_test` measures the worst relative adjoint discrepancy over seeded
Gaussian probes.

All arithmetic is 64-bit. Operators are immutable after construction and
their apply/adjoint methods are pure: each call returns a fresh output
array, so shared operators are safe to use from concurrent evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "as_grid",
    "ConvKernel",
    "RestrictionMask",
    "LinearOp",
    "ConvOp",
    "RestrictOp",
    "ComposeOp",
    "dot_test",
]


def as_grid(x) -> np.ndarray:
    """Coerce `x` to a 2-D float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class ConvKernel:
    """Square convolution stencil with odd side length.

    `taps[u, v]` weights the displacement (u - k//2, v - k//2); the centered
    tap is `taps[k//2, k//2]`.
    """

    taps: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"kernel taps must be square, got shape {t.shape}")
        if t.shape[0] % 2 == 0 or t.shape[0] < 1:
            raise ValueError(f"kernel side must be odd and positive, got {t.shape[0]}")
        if not np.all(np.isfinite(t)):
            raise ValueError("kernel taps must be finite")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "taps", t)

    @property
    def size(self) -> int:
        return self.taps.shape[0]


@dataclass(frozen=True)
class RestrictionMask:
    """Strictly increasing linear grid indices to keep when subsampling."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
            raise ValueError("mask indices must be strictly increasing and non-negative")
        idx = idx.copy()
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return int(self.indices.size)


class LinearOp:
    """Matrix-free linear operator with an exact adjoint.

    Subclasses set `domain_shape`, `range_shape` and implement `apply` /
    `adjoint`. Shapes are tuples: 2-D for grids, 1-D for vectors.
    """

    domain_shape: tuple
    range_shape: tuple

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y) -> np.ndarray:
        raise NotImplementedError

    def _check_domain(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        if a.shape != self.domain_shape:
            raise ValueError(f"input shape {a.shape} does not match domain {self.domain_shape}")
        return a

    def _check_range(self, y) -> np.ndarray:
        a = np.asarray(y, dtype=np.float64)
        if a.shape != self.range_shape:
            raise ValueError(f"input shape {a.shape} does not match range {self.range_shape}")
        return a

    def __repr__(self):
        return f"<{type(self).__name__} {self.domain_shape}->{self.range_shape}>"


class ConvOp(LinearOp):
    """Circular 2-D convolution by direct per-tap summation,

    out[r, c] = sum_{u,v} taps[u, v] * x[(r - u + k//2) % rows, (c - v + k//2) % cols];

    the adjoint is the circular correlation with the same taps. Kernels
    wider than the grid wrap around it more than once.
    """

    def __init__(self, kernel: ConvKernel, shape):
        self.kernel = kernel
        self.domain_shape = tuple(shape)
        self.range_shape = tuple(shape)

    def apply(self, x):
        return ndimage.convolve(self._check_domain(x), self.kernel.taps, mode="wrap")

    def adjoint(self, y):
        return ndimage.correlate(self._check_range(y), self.kernel.taps, mode="wrap")


class RestrictOp(LinearOp):
    """Gather of the masked grid entries into a vector; the adjoint
    scatters a vector back onto a zero grid."""

    def __init__(self, mask: RestrictionMask, shape):
        rows, cols = shape
        if mask.n and int(mask.indices[-1]) >= rows * cols:
            raise ValueError(
                f"mask index {int(mask.indices[-1])} out of range for {rows}x{cols} grid"
            )
        self.mask = mask
        self.domain_shape = (int(rows), int(cols))
        self.range_shape = (mask.n,)

    def apply(self, x):
        return self._check_domain(x).ravel()[self.mask.indices]

    def adjoint(self, y):
        out = np.zeros(self.domain_shape[0] * self.domain_shape[1])
        out[self.mask.indices] = self._check_range(y)
        return out.reshape(self.domain_shape)


class ComposeOp(LinearOp):
    """outer∘inner, with adjoint inner^T∘outer^T. Shapes must chain."""

    def __init__(self, outer: LinearOp, inner: LinearOp):
        if inner.range_shape != outer.domain_shape:
            raise ValueError(
                f"cannot compose: inner range {inner.range_shape} "
                f"!= outer domain {outer.domain_shape}"
            )
        self.outer = outer
        self.inner = inner
        self.domain_shape = inner.domain_shape
        self.range_shape = outer.range_shape

    def apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def adjoint(self, y):
        return self.inner.adjoint(self.outer.adjoint(y))


def dot_test(op: LinearOp, seed: int = 0, trials: int = 20) -> float:
    """Worst relative adjoint discrepancy over seeded Gaussian probes.

    Returns max over trials of |<Ax, y> - <x, A^T y>| / (|<Ax, y>| + tiny).
    """
    rng = np.random.default_rng(seed)
    tiny = np.finfo(np.float64).tiny
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        lhs = float(np.dot(op.apply(x).ravel(), y.ravel()))
        rhs = float(np.dot(x.ravel(), op.adjoint(y).ravel()))
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + tiny))
    return worst
