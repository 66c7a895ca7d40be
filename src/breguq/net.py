"""Small upsampling convolutional generator with exact hand-written gradients.

The generator maps a latent vector z through a dense layer onto a coarse
multi-channel base grid, then through stages of nearest-neighbor x2
upsampling, circular convolution and leaky-ReLU, and finally through a
linear circular convolution down to one output channel. Reverse-mode
gradients with respect to both the latent vector and the flat weight
vector are implemented directly (no autodiff framework) and are checked
against central finite differences in the test suite.

No upsampled map and no shift-stack of a full-resolution map is built. A
stage runs polyphase: a k x k convolution of the x2 upsampled map is four
convolutions of the coarse map, one per output phase, whose kernels are
folded from the stage kernel by a fixed 0/1 matrix; all four run as one
GEMM against the coarse shift-stack. The final layer runs kn2row: one GEMM
gives a plane per tap, and the shifted planes are summed; its backward
pass stacks the one-channel upstream gradient instead of the input.

Weights live in a single flat float64 vector; `NetArch.param_layout`
describes the per-layer offsets and shapes. Forward and backward are pure
functions of (arch, weights, z), so shared read-only weights are safe to
evaluate concurrently.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointFormatError

__all__ = [
    "StageSpec",
    "NetArch",
    "ParamSpec",
    "net_init",
    "net_forward",
    "net_backward",
    "net_eval_and_backward",
    "save_weights",
    "load_weights",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"DPNW"
_CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")  # magic, version, latent, stages, rows, cols


@dataclass(frozen=True)
class StageSpec:
    """One upsampling stage: x2 nearest-neighbor, conv, activation."""

    channels: int
    kernel_size: int = 3
    activation: str = "leaky_relu"

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("stage channels must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("stage kernel size must be odd and positive")
        if self.activation not in ("leaky_relu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    offset: int
    shape: tuple
    fan_in: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class NetArch:
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

    @property
    def out_shape(self) -> tuple:
        f = 2 ** len(self.stages)
        return (self.base_rows * f, self.base_cols * f)

    def param_layout(self) -> tuple:
        return _layout(self)

    @property
    def n_params(self) -> int:
        last = self.param_layout()[-1]
        return last.offset + last.size


@functools.lru_cache(maxsize=None)
def _layout(arch: NetArch) -> tuple:
    base_size = arch.base_rows * arch.base_cols * arch.base_channels
    layout = []
    offset = 0

    def add(name, shape, fan_in):
        nonlocal offset
        spec = ParamSpec(name, offset, tuple(shape), fan_in)
        layout.append(spec)
        offset += spec.size

    add("dense.W", (base_size, arch.latent_dim), arch.latent_dim)
    add("dense.b", (base_size,), arch.latent_dim)
    ch_in = arch.base_channels
    for i, st in enumerate(arch.stages):
        fan = ch_in * st.kernel_size ** 2
        add(f"stage{i}.W", (st.channels, ch_in, st.kernel_size, st.kernel_size), fan)
        add(f"stage{i}.b", (st.channels,), fan)
        ch_in = st.channels
    fan = ch_in * arch.final_kernel_size ** 2
    add("final.W", (1, ch_in, arch.final_kernel_size, arch.final_kernel_size), fan)
    add("final.b", (1,), fan)
    return tuple(layout)


def _params(arch: NetArch, w: np.ndarray) -> dict:
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size != arch.n_params:
        raise ValueError(f"weight vector length {w.size} != expected {arch.n_params}")
    return {p.name: w[p.offset:p.offset + p.size].reshape(p.shape)
            for p in arch.param_layout()}


@functools.lru_cache(maxsize=None)
def _wrap_blocks(k: int, rows: int, cols: int) -> tuple:
    """Slices (entry, dst, src) with entry[dst] = x[src] for the k*k circular
    shifts of a (c, rows, cols) grid, entry u*k + v shifted by
    (u - k//2, v - k//2). Each shift is up to four wrap-around blocks, which
    avoids np.roll's per-axis copies."""
    def pieces(d, n):
        return ([(slice(d, None), slice(None, n - d))]
                + [(slice(None, d), slice(n - d, None))] * (d > 0))
    return tuple((u * k + v, (slice(None), rd, cd), (slice(None), rs, cs))
                 for u in range(k) for v in range(k)
                 for rd, rs in pieces((u - k // 2) % rows, rows)
                 for cd, cs in pieces((v - k // 2) % cols, cols))


def _shift_stack(x: np.ndarray, k: int) -> np.ndarray:
    """All k*k circular shifts of x (c, R, C), stacked as (k*k, c, R, C)."""
    out = np.empty((k * k,) + x.shape)
    for t, dst, src in _wrap_blocks(k, *x.shape[1:]):
        out[t][dst] = x[src]
    return out


def _shift_stack_adjoint(planes: np.ndarray, k: int) -> np.ndarray:
    """Adjoint of `_shift_stack`: (k*k, c, R, C) -> (c, R, C)."""
    out = np.zeros(planes.shape[1:])
    for t, dst, src in _wrap_blocks(k, *planes.shape[2:]):
        out[src] += planes[t][dst]
    return out


@functools.lru_cache(maxsize=None)
def _fold(k: int) -> tuple:
    """Polyphase fold of a k x k kernel run on a nearest-x2 upsampled map.

    Output pixel (2y + p, 2x + q) reads coarse pixel
    (y + (p - u + k//2) // 2, x + (q - v + k//2) // 2) through tap (u, v),
    so each of the four phases is a convolution of the coarse map over
    m x m shifts, m = 2 * ((k//2 + 1) // 2) + 1. Returns (M, m): column
    (2p + q)*m*m + u'*m + v' of the 0/1 matrix M (k*k, 4*m*m) gathers the
    taps of phase (p, q) that read entry u'*m + v' of `_shift_stack(h, m)`.
    """
    hm = (k // 2 + 1) // 2
    F = np.zeros((2, k, 2 * hm + 1))
    p, u = np.ogrid[:2, :k]
    F[p, u, hm - (p - u + k // 2) // 2] = 1.0
    M = np.einsum("pau,qbv->abpquv", F, F).reshape(k * k, -1)
    M.flags.writeable = False
    return M, 2 * hm + 1


def _stage_forward(W: np.ndarray, b: np.ndarray, h: np.ndarray):
    """Nearest-x2 upsampling then circular convolution, (ci, r, c) ->
    (co, 2r, 2c): one GEMM of the four phase kernels against the coarse
    shift-stack, phases interleaved. Returns (output, stack, phase kernels)."""
    co, ci, k, _ = W.shape
    M, m = _fold(k)
    _, r, c = h.shape
    stack = _shift_stack(h, m).reshape(m * m * ci, r * c)
    weff = ((W.reshape(co * ci, k * k) @ M).reshape(co, ci, 4, m * m)
            .transpose(2, 0, 3, 1).reshape(4 * co, m * m * ci))
    out = np.empty((co, r, 2, c, 2))
    np.add((weff @ stack).reshape(2, 2, co, r, c).transpose(2, 3, 0, 4, 1),
           b[:, None, None, None, None], out=out)
    return out.reshape(co, 2 * r, 2 * c), stack, weff


def _stage_backward(W: np.ndarray, stack: np.ndarray, weff: np.ndarray,
                    g: np.ndarray):
    """Gradients of `_stage_forward` for the upstream g (co, 2r, 2c):
    (grad W, grad b, grad input on the coarse grid)."""
    co, ci, k, _ = W.shape
    M, m = _fold(k)
    r, c = g.shape[1] // 2, g.shape[2] // 2
    g4 = g.reshape(co, r, 2, c, 2).transpose(2, 4, 0, 1, 3).reshape(4 * co, r * c)
    gW = ((g4 @ stack.T).reshape(4, co, m * m, ci).transpose(1, 3, 0, 2)
          .reshape(co * ci, 4 * m * m) @ M.T).reshape(co, ci, k, k)
    gS = (weff.T @ g4).reshape(m * m, ci, r, c)
    return gW, g.sum(axis=(1, 2)), _shift_stack_adjoint(gS, m)


def _final_forward(W: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Circular convolution (ci, R, C) -> (co, R, C) by kn2row: one
    (k*k*co, ci) GEMM gives an output plane per tap, which
    `_shift_stack_adjoint` shifts and sums. It shifts plane t opposite to
    tap t, so the kernel enters turned by 180 degrees."""
    co, ci, k, _ = W.shape
    flipped = W[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * co, ci)
    planes = flipped @ h.reshape(ci, -1)
    out = _shift_stack_adjoint(planes.reshape((k * k, co) + h.shape[1:]), k)
    out += b[:, None, None]
    return out


def _final_backward(W: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Gradients of `_final_forward` for the upstream g (co, R, C), both from
    the shift-stack of g: (grad W, grad b, grad input)."""
    co, ci, k, _ = W.shape
    gstack = _shift_stack(g, k).reshape(k * k * co, -1)
    gW = (gstack @ h.reshape(ci, -1).T).reshape(k * k, co, ci)[::-1]
    flipped = W[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * co, ci)
    gh = (flipped.T @ gstack).reshape(h.shape)
    return gW.transpose(1, 2, 0).reshape(co, ci, k, k), g.sum(axis=(1, 2)), gh


def _activate(x: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "linear":
        return x.copy()
    return np.where(x >= 0.0, x, slope * x)


def _activate_grad(pre: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "linear":
        return np.ones_like(pre)
    return np.where(pre >= 0.0, 1.0, slope)


def net_init(arch: NetArch, seed: int, scale: float = 1.0) -> np.ndarray:
    """White-noise weights: per layer i.i.d. N(0, (scale/sqrt(fan_in))^2)."""
    if not scale > 0:
        raise ValueError(f"init scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    w = np.empty(arch.n_params)
    for p in arch.param_layout():
        std = scale / np.sqrt(p.fan_in)
        w[p.offset:p.offset + p.size] = std * rng.standard_normal(p.size)
    return w


def _forward_trace(arch: NetArch, w, z, keep: bool = True):
    """Forward pass; with `keep` the trace holds what the backward reads."""
    P = _params(arch, w)
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size != arch.latent_dim:
        raise ValueError(f"latent length {z.size} != latent_dim {arch.latent_dim}")
    h0 = P["dense.W"] @ z + P["dense.b"]
    h = h0.reshape(arch.base_channels, arch.base_rows, arch.base_cols)
    trace = {"z": z, "P": P, "stages": []}
    for i, st in enumerate(arch.stages):
        pre, stack, weff = _stage_forward(P[f"stage{i}.W"], P[f"stage{i}.b"], h)
        if keep:
            trace["stages"].append((stack, weff, pre))
        h = _activate(pre, st.activation, arch.leaky_slope)
    trace["final_in"] = h
    out = _final_forward(P["final.W"], P["final.b"], h)
    return out[0], trace


def net_forward(arch: NetArch, w, z) -> np.ndarray:
    """Evaluate the generator; output is a 2-D grid of `arch.out_shape`."""
    out, _ = _forward_trace(arch, w, z, keep=False)
    return out


def net_backward(arch: NetArch, w, z, upstream):
    """Exact gradients of <upstream, g(z, w)> with respect to z and w.

    Returns (grad_z, grad_w) where grad_w is flat with the same layout
    as the weight vector.
    """
    _, tr = _forward_trace(arch, w, z)
    return _backward_from_trace(arch, tr, upstream)


def net_eval_and_backward(arch: NetArch, w, z, upstream_fn):
    """Forward pass plus gradients of <upstream_fn(g), g> in one traversal.

    `upstream_fn` maps the forward output to the upstream grid (treated as
    constant); returns (output, grad_z, grad_w)."""
    out, tr = _forward_trace(arch, w, z)
    grad_z, grad_w = _backward_from_trace(arch, tr, upstream_fn(out))
    return out, grad_z, grad_w


def _backward_from_trace(arch: NetArch, tr, upstream):
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != arch.out_shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != output shape {arch.out_shape}")
    P, grads = tr["P"], {}
    grads["final.W"], grads["final.b"], g = _final_backward(
        P["final.W"], tr["final_in"], upstream[None, :, :])
    for i in range(len(arch.stages) - 1, -1, -1):
        st = arch.stages[i]
        stack, weff, pre = tr["stages"][i]
        g = g * _activate_grad(pre, st.activation, arch.leaky_slope)
        grads[f"stage{i}.W"], grads[f"stage{i}.b"], g = _stage_backward(
            P[f"stage{i}.W"], stack, weff, g)
    g0 = g.ravel()
    grads["dense.W"], grads["dense.b"] = np.outer(g0, tr["z"]), g0
    grad_w = np.concatenate([grads[p.name].ravel() for p in arch.param_layout()])
    return P["dense.W"].T @ g0, grad_w


def save_weights(path, arch: NetArch, w) -> None:
    """Write a weight checkpoint: 24-byte header + little-endian float64."""
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size != arch.n_params:
        raise ValueError(f"weight vector length {w.size} != expected {arch.n_params}")
    rows, cols = arch.out_shape
    header = _HEADER.pack(CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, arch.latent_dim,
                          len(arch.stages), rows, cols)
    with open(path, "wb") as f:
        f.write(header)
        f.write(w.astype("<f8").tobytes())


def load_weights(path, arch: NetArch) -> np.ndarray:
    """Read a checkpoint, validating the header against `arch`."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise CheckpointFormatError(f"checkpoint truncated at byte {len(raw)}: "
                                    f"header needs {_HEADER.size} bytes", offset=len(raw))
    magic, version, latent, n_stages, rows, cols = _HEADER.unpack_from(raw, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r} at byte 0", offset=0)
    if version != _CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version} at byte 4", offset=4)
    out_rows, out_cols = arch.out_shape
    if (latent, n_stages, rows, cols) != (arch.latent_dim, len(arch.stages),
                                          out_rows, out_cols):
        raise CheckpointFormatError(
            f"checkpoint header (latent={latent}, stages={n_stages}, "
            f"out={rows}x{cols}) does not match the configured architecture",
            offset=8)
    expected = _HEADER.size + 8 * arch.n_params
    if len(raw) != expected:
        raise CheckpointFormatError(
            f"checkpoint payload truncated at byte {len(raw)}: expected {expected} bytes",
            offset=len(raw))
    w = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(w)):
        raise CheckpointFormatError("checkpoint contains non-finite weights",
                                    offset=_HEADER.size)
    return w
