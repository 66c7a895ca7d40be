"""Matrix-free linear operators on 2D grids.

Building blocks for the synthetic survey operators: circular (periodic)
convolution, index restriction (subsampling), and composition. Each
operator validates the arrays it is built from and keeps read-only copies
of them: a convolution its taps, a restriction its indices.
The convolution runs on the torus as one gather of the grid into column
blocks with a wrapped halo and one banded matrix product; its adjoint is the
circular correlation with the same taps, the same product with the
point-reflected taps.
Every operator exposes an exact adjoint under the Euclidean inner product,
and `dot_test` measures the worst relative adjoint discrepancy over seeded
Gaussian probes.

All arithmetic is 64-bit. Operators are immutable after construction and
their apply/adjoint methods are pure: each call returns a fresh output
array, so shared operators are safe to use from concurrent evaluations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_grid",
    "LinearOp",
    "ConvOp",
    "RestrictOp",
    "ComposeOp",
    "dot_test",
]

# Output columns per block of the convolution's matrix product; 16 ran faster
# than 32 and 64 on 64x64 and 256x256 grids.
_BLOCK = 16


def as_grid(x) -> np.ndarray:
    """Coerce `x` to a 2-D float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got ndim={a.ndim}")
    return a


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
    """Circular 2-D convolution,

    out[r, c] = sum_{u,v} taps[u, v] * x[(r - u + k//2) % rows, (c - v + k//2) % cols],

    with square, odd-sided, finite taps, kept as a read-only float64 copy.
    The adjoint is the circular correlation with the same taps. Kernels
    wider than the grid wrap around it more than once.

    The output is computed in column blocks of w = min(cols, 16). One flat
    `take` gathers, for each output row and block, the k input rows the
    taps reach, each over the block's w columns and a k//2 halo on either
    side. One matrix product against a banded Toeplitz table of shape
    (k·(w + 2·(k//2)), w) sums the taps; the columns past `cols` in the
    last block are cropped. The gather table and the two tap tables (the
    adjoint's from the point-reflected taps) are built once, here.
    """

    def __init__(self, taps, shape):
        t = np.array(taps, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] % 2 == 0:
            raise ValueError(f"kernel taps must be square with an odd side, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("kernel taps must be finite")
        t.flags.writeable = False
        self.taps = t
        self.domain_shape = self.range_shape = tuple(shape)
        rows, cols = self.domain_shape
        k, h = t.shape[0], t.shape[0] // 2
        w = min(cols, _BLOCK)
        blocks = -(-cols // w)
        span = w + 2 * h
        # gather[r, b, u, j] = flat index of x[(r - u + h) % rows, (b*w - h + j) % cols]
        row_base = (np.arange(rows)[:, None] - np.arange(k) + h) % rows * cols
        col = (np.arange(blocks)[:, None] * w - h + np.arange(span)) % cols
        self._gather = (row_base[:, None, :, None] + col[None, :, None, :]).reshape(
            rows * blocks, k * span)
        # table[u, j, i] = kernel[u, v] at j = i - v + 2h: output column i of
        # a block reads gathered column j through tap column v
        u, v, i = np.indices((k, k, w))

        def banded(kernel):
            table = np.zeros((k, span, w))
            table[u, i - v + 2 * h, i] = kernel[u, v]
            return table.reshape(k * span, w)

        self._apply_table, self._adjoint_table = banded(t), banded(t[::-1, ::-1])

    def _blocked(self, a, table):
        rows, cols = self.domain_shape
        out = (a.take(self._gather) @ table).reshape(rows, -1)
        return np.ascontiguousarray(out[:, :cols])

    def apply(self, x):
        return self._blocked(self._check_domain(x), self._apply_table)

    def adjoint(self, y):
        return self._blocked(self._check_range(y), self._adjoint_table)


class RestrictOp(LinearOp):
    """Gather of the grid entries at strictly increasing linear `indices`
    (kept as a read-only int64 copy) into a vector; the adjoint scatters a
    vector back onto a zero grid."""

    def __init__(self, indices, shape):
        rows, cols = int(shape[0]), int(shape[1])
        idx = np.array(indices, dtype=np.int64).ravel()
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= rows * cols):
            raise ValueError(f"mask indices must be strictly increasing and lie in "
                             f"[0, {rows * cols}) for a {rows}x{cols} grid")
        idx.flags.writeable = False
        self.indices = idx
        self.domain_shape = (rows, cols)
        self.range_shape = (idx.size,)

    def apply(self, x):
        return self._check_domain(x).ravel()[self.indices]

    def adjoint(self, y):
        out = np.zeros(self.domain_shape[0] * self.domain_shape[1])
        out[self.indices] = self._check_range(y)
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
