"""Small upsampling convolutional generator with exact hand-written gradients.

The generator maps a latent vector z through a dense layer onto a coarse
multi-channel base grid, then through stages of nearest-neighbor x2
upsampling, circular convolution and leaky-ReLU, and finally through a
linear circular convolution down to one output channel. Reverse-mode
gradients with respect to both the latent vector and the flat weight
vector are implemented directly (no autodiff framework) and are checked
against central finite differences in the test suite.

Layout. A map of c channels on an R x C grid is held as an array (P, c, n).
The dense layer's output is natural: P = 1 and n = R*C in raster order.
Every stage output is phase-major, the sub-pixel ("pixel-shuffle") layout of
Shi et al. (CVPR 2016), with a phase offset r in {0, 1}: P = 4,
n = R*C/4, and entry (2p + q, channel, y*C/2 + x) holds pixel
(2(y + r(1 - p)) + p, 2(x + r(1 - q)) + q), indices taken modulo (R, C).
So the rows and columns of phase 0 sit r coarse pixels ahead of phase 1's.
Maps stay in that layout from stage to stage; only the final layer writes
a natural grid.

Kernels. A stage runs polyphase: a k x k convolution of the x2 upsampled
map is four convolutions of the coarse map, one per output phase, whose
kernels are folded from the stage kernel by a fixed 0/1 matrix. Each
phase reads only its own w x w coarse window, w = k//2 + 1, and when k//2
is odd phase 0's window is phase 1's moved by one coarse pixel. The
stage's output offset r = (k//2) % 2 takes up that move: in the offset
layout all four phases read the same window, so one w x w shift-stack of
the coarse map serves them all, with no structural zeros. All four phases
run as one GEMM against that stack, and the GEMM's output (4*c_out, n)
already is the fine map in phase-major layout with offset r.

The final layer runs polyphase too. Output pixel (2y + s, 2x + t) reads,
through each tap, one input phase at one coarse shift of (y, x); the taps
of an output phase fall into (k//2 + 1)**2 groups of equal shift, each
group reading every input phase. A fixed 0/1 matrix folds the kernel onto
one (c_out, P*c_in) kernel per (output phase, group), and one GEMM of all
of them against the input map, reshaped to (P*c_in, n), writes one plane
per (output phase, group): 16 planes at k = 3, against 36 for one plane
per (input phase, tap). Each output pixel then gathers and sums the
(k//2 + 1)**2 planes it reads. A net without stages has a natural input
(P = 1): there every tap is its own group, and the same code runs.

Tables. Every neighbor access goes through cached, read-only np.intp
flat-index tables keyed by value: (kernel, channels, grid, layout and phase
offset). A stage's shift-stack is `h.take(table)`, read straight out of the
map in its own layout: the table is the layout rule evaluated at the shifted
pixels (`_positions`). Its adjoint is a gather-sum through the inverse
table, one row per read of a map entry, ordered by stack position so that
the sum adds in the order a scatter-add would; each inverse is built on the
first backward that reads it, so a process that only samples never holds
one. The final layer has two tables that invert each other: `inv` names the
G plane entries each output pixel sums (forward), and `table` the output
pixel each plane entry feeds, through which the backward gathers the
upstream gradient onto the planes. Its input and weight gradients are then
one GEMM each, the weight gradient folded back onto the taps by the same
0/1 matrix. A map's phase offset lives only in the tables that read it, so
no map is ever rolled or copied to undo it. `NetArch` resolves every other
table and fold of its layers once, on first use, into a plan that equal
archs share, so a forward looks nothing up.

Batches and pixel plans. Every map holds a batch of B latents: entry e of
a one-latent map becomes the B entries e*B + b, so each table reads rows
of B values (`take` along axis 0 of the map viewed as (entries, B)), and
a layer runs one GEMM for the whole batch. `net_forward` runs B = 1. An
output pixel reads a small receptive cone of each layer's map:
`net_pixels` walks back from the final layer's `inv` through each stage's
table, keeps at every layer only the map columns that the layer above
reads, and re-indexes the tables into those compact maps. No table depends
on B, so one pixel plan serves every batch of a call: the same layer loop
and the same kernels evaluate the requested pixels of a batch of latents at
once, in batches of at most `_PIXEL_BATCH`, so that memory does
not grow with the number of latents. The dense layer stays one `W @ z`
per latent. With every pixel and B = 1 the plan is the net's own, and the
output is bit for bit `net_forward`'s; a smaller cone differs from it only
by the order in which BLAS adds the GEMMs of other widths.

Weights live in a single flat float64 vector; `NetArch.param_layout`
describes the per-layer offsets and shapes. Forward and backward are pure
functions of (arch, weights, z), so shared read-only weights are safe to
evaluate concurrently. `net_eval_and_backward(..., weights=False)` skips
every weight gradient, for callers that need only the latent gradient.
The weight checkpoint format lives in `breguq.stats` with the other formats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "StageSpec",
    "NetArch",
    "ParamSpec",
    "net_init",
    "net_forward",
    "net_pixels",
    "net_eval_and_backward",
]


@dataclass(frozen=True)
class StageSpec:
    """One upsampling stage: x2 nearest-neighbor, conv, leaky ReLU."""

    channels: int
    kernel_size: int = 3

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("stage channels must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("stage kernel size must be odd and positive")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    offset: int
    shape: tuple
    fan_in: int

    @functools.cached_property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class NetArch:
    """Generator shape; a `leaky_slope` of 1.0 makes every stage linear."""

    latent_dim: int
    base_rows: int
    base_cols: int
    base_channels: int
    stages: tuple
    final_kernel_size: int = 3
    leaky_slope: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.latent_dim < 1 or self.base_rows < 1 or self.base_cols < 1:
            raise ValueError("latent dimension and base shape must be positive")
        if self.base_channels < 1:
            raise ValueError("base channels must be positive")
        if self.final_kernel_size < 1 or self.final_kernel_size % 2 == 0:
            raise ValueError("final kernel size must be odd and positive")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky slope must lie in [0, 1], got {self.leaky_slope}")

    @property
    def out_shape(self) -> tuple:
        f = 2 ** len(self.stages)
        return (self.base_rows * f, self.base_cols * f)

    def param_layout(self) -> tuple:
        return self._layout

    @functools.cached_property
    def n_params(self) -> int:
        last = self._layout[-1]
        return last.offset + last.size

    @functools.cached_property
    def _layout(self) -> tuple:
        base_size = self.base_rows * self.base_cols * self.base_channels
        layout = []
        offset = 0

        def add(name, shape, fan_in):
            nonlocal offset
            spec = ParamSpec(name, offset, tuple(shape), fan_in)
            layout.append(spec)
            offset += spec.size

        add("dense.W", (base_size, self.latent_dim), self.latent_dim)
        add("dense.b", (base_size,), self.latent_dim)
        ch_in = self.base_channels
        for i, st in enumerate(self.stages):
            fan = ch_in * st.kernel_size ** 2
            add(f"stage{i}.W", (st.channels, ch_in, st.kernel_size, st.kernel_size), fan)
            add(f"stage{i}.b", (st.channels,), fan)
            ch_in = st.channels
        fan = ch_in * self.final_kernel_size ** 2
        add("final.W", (1, ch_in, self.final_kernel_size, self.final_kernel_size), fan)
        add("final.b", (1,), fan)
        return tuple(layout)

    @functools.cached_property
    def _plan(self) -> "_Plan":
        return _arch_plan(self)


class _StagePlan(NamedTuple):
    M: np.ndarray      # fold of the stage kernel onto its phase kernels
    table: np.ndarray  # window-stack table into the input map
    key: tuple         # the table's `_stack_table` arguments (None: no backward)
    phases: int        # P of the input map

    @property
    def inv(self) -> np.ndarray:
        """Stack entries reading each map entry, one row per read: built on
        the first backward, so a process that runs none holds no copy."""
        return _stack_inverse(*self.key)


class _FinalPlan(NamedTuple):
    M: np.ndarray      # fold of the final kernel onto its group kernels
    table: np.ndarray  # output pixel fed by each plane entry
    inv: np.ndarray    # plane entries read by each output pixel, one row per group


class _Plan(NamedTuple):
    """The layers of a forward; a pixel plan (`_pixel_plan`) has no
    backward, and its `key` of each stage and `table` of the final layer
    are None."""
    base: np.ndarray   # dense-layer outputs the first layer reads
    stages: tuple      # one _StagePlan per stage
    final: _FinalPlan


def _params(arch: NetArch, w: np.ndarray) -> dict:
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size != arch.n_params:
        raise ValueError(f"weight vector length {w.size} != expected {arch.n_params}")
    return {p.name: w[p.offset:p.offset + p.size].reshape(p.shape)
            for p in arch.param_layout()}


def _positions(channels: int, rows: int, cols: int, phased: bool, offset: int):
    """Flat index (channels, rows, cols) of every pixel in the map layout.
    Phase-major, pixel (Y, X) sits at phase (Y % 2, X % 2) and coarse pixel
    (Y//2 - offset*(1 - Y % 2), X//2 - offset*(1 - X % 2)) modulo the coarse
    grid; natural is the same rule with 1 in place of 2 (and offset 0)."""
    Q = 2 if phased else 1
    Y, X = np.arange(rows)[:, None], np.arange(cols)
    y = (Y // Q - offset * (1 - Y % Q)) % (rows // Q)
    x = (X // Q - offset * (1 - X % Q)) % (cols // Q)
    plane = (Q * (Y % Q) + X % Q) * channels + np.arange(channels)[:, None, None]
    return (plane * (rows // Q) + y) * (cols // Q) + x


@functools.lru_cache(maxsize=None)
def _stack_table(m: int, channels: int, rows: int, cols: int,
                 phased: bool, offset: int) -> np.ndarray:
    """Flat indices (m*m*channels, rows*cols) into a (channels, rows, cols) map
    held natural or phase-major with phase offset `offset`: `h.take(table)`
    is the map's m x m shift-stack, one column per pixel in raster order:
    row (u*m + v)*channels + c is channel c rolled by (u - m//2, v - m//2)."""
    shift = np.arange(m)[:, None] - m // 2
    ys, xs = (np.arange(rows) - shift) % rows, (np.arange(cols) - shift) % cols
    table = _positions(channels, rows, cols, phased, offset)[
        np.arange(channels)[:, None, None], ys[:, None, None, :, None],
        xs[None, :, None, None, :]].reshape(m * m * channels, rows * cols)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _stack_inverse(m: int, channels: int, rows: int, cols: int,
                   phased: bool, offset: int) -> np.ndarray:
    """Inverse of `_stack_table`: (m*m, channels*rows*cols), where row r
    holds, for each map entry, the flat position of the r-th stack entry
    that reads it. Every entry is read once per shift, and the rows follow
    stack order, so adding the rows of `stack.ravel().take(inv)` in turn
    adds each entry's reads in the order of a scatter-add over the stack."""
    table = _stack_table(m, channels, rows, cols, phased, offset)
    inv = np.argsort(table.ravel(), kind="stable").reshape(-1, m * m).T.copy()
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=None)
def _fold(k: int) -> tuple:
    """Polyphase fold of a k x k kernel run on a nearest-x2 upsampled map.

    Output pixel (2y + p, 2x + q) reads coarse pixel
    (y + (p - u + k//2) // 2, x + (q - v + k//2) // 2) through tap (u, v),
    so each phase reads a w x w coarse window, w = k//2 + 1. Phase 1's
    window starts at offset (1 - k//2) // 2 and phase 0's r = (k//2) % 2
    pixels before it, so in the output layout with phase offset r, where
    phase 0's pixel (y, x) is fine pixel (2(y + r), 2(x + r)), every phase
    reads the same window of the w x w shift-stack: shift i reads
    coarse row y - i + w//2. Returns (M, w, r): column
    (2p + q)*w*w + i*w + j of the 0/1 matrix M (k*k, 4*w*w) gathers the
    taps of phase (p, q) that read shift i*w + j.
    """
    h = k // 2
    w, r = h + 1, h % 2
    F = np.zeros((2, k, w))
    p, u = np.ogrid[:2, :k]
    F[p, u, w // 2 - r * (1 - p) - (p - u + h) // 2] = 1.0
    M = np.einsum("pau,qbv->abpquv", F, F).reshape(k * k, -1)
    M.flags.writeable = False
    return M, w, r


@functools.lru_cache(maxsize=None)
def _final_plan(k: int, channels: int, rows: int, cols: int, phased: bool,
                offset: int) -> _FinalPlan:
    """Polyphase fold and index tables of a k x k circular convolution of a
    map held natural or phase-major with phase offset `offset` onto the
    natural (channels, rows, cols) grid.

    Output pixel Y = Q*y + s (Q = 2 phase-major, 1 natural) reads fine pixel
    Y - u + k//2 through tap u, which an input map holds at phase p and
    coarse row y + shift. For each output phase the taps' shifts fill a
    window of G1 consecutive values, G1 = k//2 + 1 phase-major (k natural),
    so the taps fall into G = G1*G1 groups per output phase, each reading
    every input phase at one coarse shift. With P = Q*Q phases in and out,
    returns M, the 0/1 matrix (k*k, P*G*P) whose column (q*G + g)*P + p
    gathers the tap that output phase q reads from input phase p through
    group g (each tap falls in exactly one group per output phase; the
    kernel enters turned by 180 degrees); `inv` (G, channels, rows, cols),
    the flat index into the planes (P, G, channels, n) that each output
    pixel reads through group g; and `table`, its inverse
    (P*G*channels, n), the output pixel each plane entry feeds.
    """
    h, Q = k // 2, 2 if phased else 1
    s, u = np.ogrid[:Q, :k]
    d = s - u + h
    if phased:
        p, shift = d % 2, d // 2 - offset * (1 - d % 2)
    else:
        p, shift = 0 * d, d
    lo = shift.min(axis=1)
    G1 = int(np.ptp(shift, axis=1).max()) + 1
    F = np.zeros((Q, k, G1, Q))
    F[s, u, shift - lo[:, None], p] = 1.0
    M = np.einsum("aucp,bvdq->uvabcdpq", F, F).reshape(k * k, -1)

    G, rc, cc = G1 * G1, rows // Q, cols // Q
    gy, gx = np.ogrid[:G1, :G1]
    y, x = np.arange(rows), np.arange(cols)
    ry = (y // Q + lo[y % Q] + gy) % rc  # coarse row read through row group gy
    rx = (x // Q + lo[x % Q] + gx.T) % cc
    phase = (y % Q)[:, None] * Q + x % Q
    plane = (phase * G + (gy * G1 + gx)[..., None, None])[:, :, None]
    pos = (ry[:, None, :, None] * cc + rx[None, :, None, :])[:, :, None]
    inv = (plane * channels + np.arange(channels)[:, None, None]) * rc * cc + pos
    inv = inv.reshape(G, channels, rows, cols)
    table = np.empty(inv.size, dtype=np.intp)
    table[inv.reshape(G, -1)] = np.arange(channels * rows * cols)
    for a in (M, table, inv):
        a.flags.writeable = False
    return _FinalPlan(M, table.reshape(-1, rc * cc), inv)


def _stage_plan(k: int, channels: int, grid: tuple, phased: bool,
                offset: int) -> _StagePlan:
    """Fold and window-stack table of a stage with k x k kernels reading a
    map of `channels` on the coarse `grid`, natural or phase-major with
    phase offset `offset`."""
    M, w, _ = _fold(k)
    key = (w, channels, *grid, phased, offset)
    return _StagePlan(M, _stack_table(*key), key, 4 if phased else 1)


@functools.lru_cache(maxsize=None)
def _arch_plan(arch: NetArch) -> _Plan:
    """Every fold and index table a forward or backward of `arch` reads,
    resolved once by value, so equal archs share one plan and its read-only
    arrays."""
    stages, ci, phased, offset = [], arch.base_channels, False, 0
    for i, st in enumerate(arch.stages):
        grid = (arch.base_rows << i, arch.base_cols << i)
        stages.append(_stage_plan(st.kernel_size, ci, grid, phased, offset))
        ci, phased, offset = st.channels, True, _fold(st.kernel_size)[2]
    base = np.arange(arch.base_channels * arch.base_rows * arch.base_cols)
    base.flags.writeable = False
    return _Plan(base, tuple(stages), _final_plan(
        arch.final_kernel_size, 1, *arch.out_shape, phased, offset))


def _compact(entries: np.ndarray, n: int) -> tuple:
    """The columns J of a map of n columns that the flat `entries` read, and
    the entries re-indexed into the map's copy that keeps only columns J."""
    column = entries % n
    kept = np.zeros(n, dtype=bool)
    kept[column] = True
    J = np.flatnonzero(kept)
    position = np.cumsum(kept) - 1
    return J, entries // n * len(J) + position[column]


def _pixel_plan(arch: NetArch, rows: np.ndarray, cols: np.ndarray) -> _Plan:
    """The plan of `arch` restricted to the receptive cone of the output
    pixels (rows[i], cols[i]), for a batch of any size B: every map keeps
    only the columns the layer above reads. The final output is
    (1, 1, pixels*B), pixel i of latent b at i*B + b."""
    plan = arch._plan
    # columns of the map each stage reads; the last entry, the final layer's
    widths = [arch.base_rows * arch.base_cols] + [s.table.shape[1] for s in plan.stages]
    J, inv = _compact(plan.final.inv[:, :, None, rows, cols], widths[-1])
    stages = []
    for stage, n in zip(plan.stages[::-1], widths[-2::-1]):
        J, table = _compact(stage.table[:, J], n)
        stages.append(_StagePlan(stage.M, table, None, stage.phases))
    base = np.arange(arch.base_channels)[:, None] * widths[0] + J
    return _Plan(base, tuple(stages[::-1]), _FinalPlan(plan.final.M, None, inv))


def _stage_forward(W: np.ndarray, b: np.ndarray, h: np.ndarray, plan: _StagePlan,
                   B: int):
    """Nearest-x2 upsampling then circular convolution of the map h (P, ci,
    n*B) of B latents (column j*B + b holds entry j of latent b) read
    through `plan`: one GEMM of the four phase kernels against the coarse
    window stack. Returns (output (4, co, rows*cols*B), phase-major with the
    offset of `_fold(k)`; stack; phase kernels)."""
    co, ci, k, _ = W.shape
    ww = plan.M.shape[1] // 4
    stack = h.reshape(-1, B).take(plan.table, axis=0).reshape(len(plan.table), -1)
    weff = ((W.reshape(co * ci, k * k) @ plan.M).reshape(co, ci, 4, ww)
            .transpose(2, 0, 3, 1).reshape(4 * co, ww * ci))
    out = (weff @ stack).reshape(4, co, -1)
    out += b[:, None]
    return out, stack, weff


def _stage_backward(W: np.ndarray, stack: np.ndarray, weff: np.ndarray,
                    g: np.ndarray, plan: _StagePlan, weights: bool = True):
    """Gradients of `_stage_forward` for the upstream g (4, co, n) in the
    output's layout: (grad W, grad b, grad input in the input's layout).
    Without `weights`, grad W and grad b are None."""
    co, ci, k, _ = W.shape
    g2 = g.reshape(4 * co, -1)
    gS = weff.T @ g2
    flat, inv = gS.ravel(), plan.inv
    gh = flat.take(inv[0])
    for row in inv[1:]:  # row by row: no (reads, map) array to allocate
        gh += flat.take(row)
    gh = gh.reshape(plan.phases, ci, -1)
    if not weights:
        return None, None, gh
    gW = ((g2 @ stack.T).reshape(4, co, -1, ci).transpose(1, 3, 0, 2)
          .reshape(co * ci, -1) @ plan.M.T).reshape(co, ci, k, k)
    return gW, g.sum(axis=(0, 2)), gh


def _final_forward(W: np.ndarray, b: np.ndarray, h: np.ndarray, plan: _FinalPlan,
                   B: int):
    """Circular convolution of the map h (P, ci, n*B) of B latents onto the
    natural output grid (co, rows, cols) of `plan`: one GEMM of the group
    kernels against all input phases writes a plane per (output phase,
    group), and each output pixel gathers and sums its G planes. Returns
    (output, group kernels); a pixel plan's output is (co, 1, pixels*B)."""
    co, ci, k, _ = W.shape
    weff = ((W.reshape(co * ci, k * k) @ plan.M).reshape(co, ci, -1, len(h))
            .transpose(2, 0, 3, 1).reshape(-1, len(h) * ci))
    planes = weff @ h.reshape(len(h) * ci, -1)
    out = (planes.reshape(-1, B).take(plan.inv, axis=0).sum(axis=0)
           .reshape(*plan.inv.shape[1:-1], -1))
    out += b[:, None, None]
    return out, weff


def _final_backward(W: np.ndarray, weff: np.ndarray, h: np.ndarray, g: np.ndarray,
                    plan: _FinalPlan, weights: bool = True):
    """Gradients of `_final_forward` for the natural upstream g (co, rows,
    cols), gathered onto the planes through the plan's table: (grad W,
    grad b, grad input in the layout of h). Without `weights`, grad W and
    grad b are None."""
    co, ci, k, _ = W.shape
    gplanes = g.ravel().take(plan.table)
    gh = (weff.T @ gplanes).reshape(h.shape)
    if not weights:
        return None, None, gh
    gW = ((gplanes @ h.reshape(len(h) * ci, -1).T).reshape(-1, co, len(h), ci)
          .transpose(1, 3, 0, 2)
          .reshape(co * ci, -1) @ plan.M.T).reshape(co, ci, k, k)
    return gW, g.sum(axis=(1, 2)), gh


def net_init(arch: NetArch, seed: int, scale: float = 1.0) -> np.ndarray:
    """White-noise weights: per layer i.i.d. N(0, (scale/sqrt(fan_in))^2)."""
    if not 0 < scale < math.inf:
        raise ValueError(f"init scale must be positive and finite, got {scale}")
    rng = np.random.default_rng(seed)
    w = np.empty(arch.n_params)
    for p in arch.param_layout():
        std = scale / np.sqrt(p.fan_in)
        w[p.offset:p.offset + p.size] = std * rng.standard_normal(p.size)
    return w


def _forward_trace(arch: NetArch, w, zs: np.ndarray, plan: _Plan, keep: bool = True):
    """Forward pass of the latents zs (B, latent_dim) through `plan`; with
    `keep` the trace holds what the backward reads. Returns the first output
    channel and the trace."""
    P = _params(arch, w)
    h = (np.array([P["dense.W"] @ z + P["dense.b"] for z in zs]).T
         .take(plan.base, axis=0).reshape(1, arch.base_channels, -1))
    trace = {"z": zs, "P": P, "stages": []}
    for i, stage in enumerate(plan.stages):
        pre, stack, weff = _stage_forward(P[f"stage{i}.W"], P[f"stage{i}.b"], h, stage,
                                          len(zs))
        if keep:
            trace["stages"].append((stack, weff, pre))
        del h, stack  # free what the trace does not hold before the next map
        h = arch.leaky_slope * pre
        np.maximum(pre, h, out=h)
        del pre
    out, weff = _final_forward(P["final.W"], P["final.b"], h, plan.final, len(zs))
    trace["final"] = (h, weff)
    return out[0], trace


def _one_latent(arch: NetArch, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size != arch.latent_dim:
        raise ValueError(f"latent length {z.size} != latent_dim {arch.latent_dim}")
    return z[None]


def net_forward(arch: NetArch, w, z) -> np.ndarray:
    """Evaluate the generator; output is a 2-D grid of `arch.out_shape`."""
    out, _ = _forward_trace(arch, w, _one_latent(arch, z), arch._plan, keep=False)
    return out


# Latents per batch of `net_pixels`. A desk cone of two pixels keeps 8
# columns per map, so 128 latents make maps no wider than a full forward's
# widest (1024 columns). Batches of a multiple of 8 latents matched
# `net_forward` bit for bit in every desk check; batches of 1 and 7 did not.
_PIXEL_BATCH = 128


def net_pixels(arch: NetArch, w, latents, pixels) -> np.ndarray:
    """Output pixels of the generator at many latents: the (count,
    len(pixels)) values of pixel (r, c) of `pixels` at each row of the
    (count, latent_dim) `latents`, evaluated over the pixels' receptive cone
    only, `_PIXEL_BATCH` latents at a time. Equal to `net_forward` up to
    rounding, and bit for bit when every pixel is asked for one latent."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != arch.latent_dim:
        raise ValueError(f"latents must be a (count, {arch.latent_dim}) array, "
                         f"got shape {latents.shape}")
    rows, cols = np.asarray(pixels, dtype=np.intp).reshape(-1, 2).T
    R, C = arch.out_shape
    for r, c in zip(rows, cols):
        if not (0 <= r < R and 0 <= c < C):
            raise ValueError(f"pixel ({r}, {c}) out of range for {R}x{C} grid")
    plan, values = _pixel_plan(arch, rows, cols), []
    for start in range(0, len(latents), _PIXEL_BATCH):
        batch = latents[start:start + _PIXEL_BATCH]
        out, _ = _forward_trace(arch, w, batch, plan, keep=False)
        values.append(out.reshape(len(rows), -1).T)
    return np.concatenate(values)


def net_eval_and_backward(arch: NetArch, w, z, upstream_fn, *, weights: bool = True):
    """Forward pass plus gradients of <upstream_fn(g), g> in one traversal.

    `upstream_fn` maps the forward output to the upstream grid (treated as
    constant); returns (output, grad_z, grad_w), grad_w flat in the layout
    of the weight vector. With `weights=False` no weight gradient is formed
    and grad_w is None; grad_z is the same."""
    out, tr = _forward_trace(arch, w, _one_latent(arch, z), arch._plan)
    grad_z, grad_w = _backward_from_trace(arch, tr, upstream_fn(out), weights)
    return out, grad_z, grad_w


def _backward_from_trace(arch: NetArch, tr, upstream, weights: bool = True):
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != arch.out_shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != output shape {arch.out_shape}")
    P, grads = tr["P"], {}
    stage_plans, final_plan = arch._plan[1:]
    grads["final.W"], grads["final.b"], g = _final_backward(
        P["final.W"], tr["final"][1], tr["final"][0], upstream[None, :, :], final_plan,
        weights)
    for i in range(len(arch.stages) - 1, -1, -1):
        stack, weff, pre = tr["stages"][i]
        g *= np.maximum(pre >= 0.0, arch.leaky_slope)
        grads[f"stage{i}.W"], grads[f"stage{i}.b"], g = _stage_backward(
            P[f"stage{i}.W"], stack, weff, g, stage_plans[i], weights)
    g0 = g.ravel()
    grad_z = P["dense.W"].T @ g0
    if not weights:
        return grad_z, None
    grads["dense.W"], grads["dense.b"] = np.outer(g0, tr["z"]), g0
    return grad_z, np.concatenate([grads[p.name].ravel() for p in arch.param_layout()])
