"""Small upsampling convolutional generator with exact hand-written gradients.

The generator maps a latent vector z through a dense layer onto a coarse
multi-channel base grid, then through stages of nearest-neighbor x2
upsampling, circular convolution and leaky-ReLU, and finally through a
linear circular convolution down to one output channel. Reverse-mode
gradients with respect to both the latent vector and the flat weight
vector are implemented directly (no autodiff framework) and are checked
against central finite differences in the test suite.

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


def _shift_stack(x: np.ndarray, k: int, sign: int = 1) -> np.ndarray:
    """All k*k circular shifts of x (c, R, C), stacked as (k*k, c, R, C).

    Entry u*k + v holds x shifted by sign*(u - k//2, v - k//2). Shifts are
    written as four wrap-around blocks to avoid np.roll's per-axis copies.
    """
    h = k // 2
    _, rows, cols = x.shape
    out = np.empty((k * k,) + x.shape)
    for u in range(k):
        dr = (sign * (u - h)) % rows
        for v in range(k):
            dc = (sign * (v - h)) % cols
            dst = out[u * k + v]
            dst[:, dr:, dc:] = x[:, :rows - dr, :cols - dc]
            if dr:
                dst[:, :dr, dc:] = x[:, rows - dr:, :cols - dc]
            if dc:
                dst[:, dr:, :dc] = x[:, :rows - dr, cols - dc:]
            if dr and dc:
                dst[:, :dr, :dc] = x[:, rows - dr:, cols - dc:]
    return out


def _conv_channels(W: np.ndarray, b, x: np.ndarray, stack=None) -> np.ndarray:
    """Circular multi-channel convolution: x (ci, R, C) -> (co, R, C).

    Pass a precomputed `_shift_stack(x, k)` to share rolls with the
    weight-gradient computation. Contractions run as matmuls over the
    contiguous (k*k*ci, R*C) view of the stack."""
    k = W.shape[-1]
    if stack is None:
        stack = _shift_stack(x, k)
    co, ci = W.shape[:2]
    n = stack.shape[2] * stack.shape[3]
    w2 = np.ascontiguousarray(W.reshape(co, ci, k * k).transpose(0, 2, 1)
                              ).reshape(co, k * k * ci)
    out = (w2 @ stack.reshape(k * k * ci, n)).reshape(co, stack.shape[2],
                                                      stack.shape[3])
    if b is not None:
        out += b[:, None, None]
    return out


def _conv_channels_input_grad(W: np.ndarray, gout: np.ndarray) -> np.ndarray:
    k = W.shape[-1]
    co, ci = W.shape[:2]
    gstack = _shift_stack(gout, k, sign=-1)
    n = gout.shape[1] * gout.shape[2]
    w2 = np.ascontiguousarray(W.reshape(co, ci, k * k).transpose(2, 0, 1)
                              ).reshape(k * k * co, ci)
    return (w2.T @ gstack.reshape(k * k * co, n)).reshape(ci, gout.shape[1],
                                                          gout.shape[2])


def _conv_channels_weight_grad(x_stack: np.ndarray, gout: np.ndarray, k: int):
    ci = x_stack.shape[1]
    co = gout.shape[0]
    n = gout.shape[1] * gout.shape[2]
    flat = gout.reshape(co, n) @ x_stack.reshape(k * k * ci, n).T  # (co, k*k*ci)
    gW = flat.reshape(co, k * k, ci).transpose(0, 2, 1).reshape(co, ci, k, k)
    gb = gout.sum(axis=(1, 2))
    return gW, gb


def _upsample2(x: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def _upsample2_adjoint(g: np.ndarray) -> np.ndarray:
    c, r, s = g.shape
    return g.reshape(c, r // 2, 2, s // 2, 2).sum(axis=(2, 4))


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


def _forward_trace(arch: NetArch, w, z):
    P = _params(arch, w)
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size != arch.latent_dim:
        raise ValueError(f"latent length {z.size} != latent_dim {arch.latent_dim}")
    h0 = P["dense.W"] @ z + P["dense.b"]
    h = h0.reshape(arch.base_channels, arch.base_rows, arch.base_cols)
    trace = {"z": z, "P": P, "stage_stacks": [], "stage_pre": []}
    for i, st in enumerate(arch.stages):
        stack = _shift_stack(_upsample2(h), st.kernel_size)
        pre = _conv_channels(P[f"stage{i}.W"], P[f"stage{i}.b"], None, stack)
        trace["stage_stacks"].append(stack)
        trace["stage_pre"].append(pre)
        h = _activate(pre, st.activation, arch.leaky_slope)
    final_stack = _shift_stack(h, arch.final_kernel_size)
    trace["final_stack"] = final_stack
    out = _conv_channels(P["final.W"], P["final.b"], None, final_stack)
    return out[0], trace


def net_forward(arch: NetArch, w, z) -> np.ndarray:
    """Evaluate the generator; output is a 2-D grid of `arch.out_shape`."""
    out, _ = _forward_trace(arch, w, z)
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
    P = tr["P"]
    grad_w = np.zeros(arch.n_params)
    layout = {p.name: p for p in arch.param_layout()}

    def put(name, g):
        p = layout[name]
        grad_w[p.offset:p.offset + p.size] = g.ravel()

    g = upstream[None, :, :]
    gW, gb = _conv_channels_weight_grad(tr["final_stack"], g, arch.final_kernel_size)
    put("final.W", gW)
    put("final.b", gb)
    g = _conv_channels_input_grad(P["final.W"], g)

    for i in range(len(arch.stages) - 1, -1, -1):
        st = arch.stages[i]
        g = g * _activate_grad(tr["stage_pre"][i], st.activation, arch.leaky_slope)
        gW, gb = _conv_channels_weight_grad(tr["stage_stacks"][i], g, st.kernel_size)
        put(f"stage{i}.W", gW)
        put(f"stage{i}.b", gb)
        g = _conv_channels_input_grad(P[f"stage{i}.W"], g)
        g = _upsample2_adjoint(g)

    g0 = g.ravel()
    put("dense.W", np.outer(g0, tr["z"]))
    put("dense.b", g0)
    grad_z = P["dense.W"].T @ g0
    return grad_z, grad_w


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
