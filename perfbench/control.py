"""Control kernels: fixed copies of the hot paths of the timed commands.

The host's speed drifts by up to 2x over minutes (README.md). A control
kernel does the same kinds of numpy work as a timed command, at desk
scale, and its code does not change when the program does. worker.py
runs the workload's control mix between the repetitions of a command,
for a tenth of the command's time, and run.py scales the command's wall
time by how much slower than nominal the control ran. That removes the
host's drift and keeps every change to the program.

Do not edit these kernels or NOMINAL_S: that would change what every
later measurement is scaled by.
"""

from __future__ import annotations

import time

import numpy as np

# About the mean time of each kernel on the 2-core host the benchmark was
# tuned on, when it ran fast. They set the scale of nominal seconds.
NOMINAL_S = {"projection": 2.5e-3, "generator": 5.0e-3}

# Kernels per workload, after where its command spends its time: invert
# is 95% projections and stats 94% generator forwards; train is 74%
# generator passes and 21% projections, and gets three generator forwards
# to one projection. Set-up (gen) is neither, and gets one of each.
MIXES = {
    "invert": {"projection": 1},
    "stats": {"generator": 1},
    "train": {"generator": 3, "projection": 1},
    "setup": {"generator": 1, "projection": 1},
}


def _l1_ball(v, radius):
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a.ravel())[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = int(np.nonzero(u * j > css - radius)[0][-1]) + 1
    theta = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(a - theta, 0.0)


def projection(x, sweeps=20, lo=-1.0, hi=1.0, radius=2100.0):
    """Dykstra's alternating projections onto the box and the l1 ball, as
    for `sets = box,l1`, for a fixed number of sweeps."""
    cur = x.copy()
    increments = [np.zeros_like(x), np.zeros_like(x)]
    for _ in range(sweeps):
        drift = 0.0
        for j in range(2):
            u = cur + increments[j]
            cur = np.clip(u, lo, hi) if j == 0 else _l1_ball(u, radius)
            new = u - cur
            drift = max(drift, float(np.max(np.abs(new - increments[j]))))
            increments[j] = new
        # The program's stopping test: per-set violations.
        max(np.max(cur - hi, initial=0.0), np.max(lo - cur, initial=0.0))
        float(np.abs(cur).sum())
    return cur


def _shift_stack(x):
    c, rows, cols = x.shape
    out = np.empty((9, c, rows, cols))
    for u in range(3):
        for v in range(3):
            out[3 * u + v] = np.roll(x, (u - 1, v - 1), axis=(1, 2))
    return out


def generator(h, weights, slope=0.2):
    """A generator forward at desk shapes: four stages of x2 upsampling, a
    3x3 convolution as a freshly allocated shift-stack and a GEMM, and a
    leaky ReLU, from 8x4x4 to 8x64x64; then a convolution to one channel."""
    stacks = []
    for i, w in enumerate(weights):
        last = i == len(weights) - 1
        if not last:
            h = np.repeat(np.repeat(h, 2, axis=1), 2, axis=2)
        stacks.append(_shift_stack(h))
        h = (w @ stacks[-1].reshape(w.shape[1], -1)).reshape((w.shape[0],) + h.shape[1:])
        if not last:
            h = np.where(h >= 0.0, h, slope * h)
    return h[0]


class Control:
    """Times one workload's control mix, in slices spread over a run."""

    def __init__(self, mix):
        rng = np.random.default_rng(0)
        x = 2.0 * rng.standard_normal((64, 64))
        h = rng.standard_normal((8, 4, 4))
        weights = [rng.standard_normal((8, 72)) / 8.5 for _ in range(4)]
        weights.append(rng.standard_normal((1, 72)) / 8.5)
        kernels = {"projection": lambda: projection(x), "generator": lambda: generator(h, weights)}
        self.mix = [(kernels[kind], count) for kind, count in MIXES[mix].items()]
        self.nominal_s = sum(count * NOMINAL_S[kind] for kind, count in MIXES[mix].items())
        self.runs = [0] * len(self.mix)
        self.total_s = [0.0] * len(self.mix)

    def run_for(self, seconds):
        """Run the mix's kernels in turn, at least once each, for about
        `seconds`."""
        end = time.perf_counter() + seconds
        while True:
            for k, (kernel, _) in enumerate(self.mix):
                t0 = time.perf_counter()
                kernel()
                self.total_s[k] += time.perf_counter() - t0
                self.runs[k] += 1
            if time.perf_counter() >= end:
                return

    def seconds(self) -> float:
        """The mix's time so far: per kernel, its mean time."""
        return sum(count * total / runs
                   for (_, count), total, runs in zip(self.mix, self.total_s, self.runs))
