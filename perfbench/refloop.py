"""Host-speed reference loop and the host-normalised clock built on it.

The loop belongs to the benchmark and imports nothing from volsplat, so a
change to the engine cannot move it. It mixes the two kinds of numpy work
the engine does: many calls on tiny (16 x 16) arrays, like the per-splat
compositing kernel, and a few gathers and reductions on mid-size
(96 x 96 x 12) arrays, like the plane sweep.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Wall time of one reference loop on the host the figures in README.md were
# taken on. Normalised seconds are wall seconds at this host speed.
NOMINAL_REF_S = 0.040

_TINY_CALLS = 640
_MID_CALLS = 12


class _Inputs:
    def __init__(self):
        rng = np.random.default_rng(12345)
        ys, xs = np.mgrid[0:16, 0:16]
        self.px = xs.astype(float)
        self.py = ys.astype(float)
        self.means = rng.uniform(0.0, 16.0, (_TINY_CALLS, 2))
        self.conics = rng.uniform(0.05, 0.3, (_TINY_CALLS, 3))
        self.ref = rng.standard_normal((96, 96, 12))
        self.src = rng.standard_normal((96, 96, 12))
        u = rng.uniform(-2.0, 98.0, (_MID_CALLS, 96, 96))
        v = rng.uniform(-2.0, 98.0, (_MID_CALLS, 96, 96))
        self.u, self.v = u, v


def _body(x: _Inputs) -> float:
    transmit = np.ones((16, 16))
    acc = np.zeros((16, 16))
    for i in range(_TINY_CALLS):
        dx = x.px - x.means[i, 0]
        dy = x.py - x.means[i, 1]
        c = x.conics[i]
        q = c[0] * dx * dx + 2.0 * c[1] * dx * dy + c[2] * dy * dy
        alpha = np.minimum(0.99, 0.9 * np.exp(-0.5 * q))
        a = np.where(transmit >= 1e-4, alpha, 0.0)
        acc += a * transmit
        transmit *= 1.0 - a
    total = float(acc.sum())
    h, w, _ = x.src.shape
    for j in range(_MID_CALLS):
        xi = np.floor(x.u[j]).astype(int)
        yi = np.floor(x.v[j]).astype(int)
        inb = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        warped = np.zeros_like(x.src)
        warped[inb] = x.src[yi[inb], xi[inb]]
        dot = np.einsum("hwc,hwc->hw", x.ref, warped)
        total += float(np.where(inb, dot, 0.0).sum())
    return total


class HostClock:
    """Times operations in wall seconds and in host-normalised seconds.

    Each operation is bracketed by the reference loop; its wall time is
    scaled by NOMINAL_REF_S over the mean of the loop times just before and
    just after it. The loop after one operation is the loop before the next.
    """

    def __init__(self):
        self._inputs = _Inputs()
        _body(self._inputs)  # warm numpy's dispatch caches
        self.ref_samples: list = []
        self._last = self.reference()

    def reference(self) -> float:
        t0 = time.perf_counter()
        _body(self._inputs)
        dt = time.perf_counter() - t0
        self.ref_samples.append(dt)
        return dt

    def time(self, fn, *args, **kwargs):
        """Run fn; return (result, wall_s, normalised_s, scale), where scale
        is NOMINAL_REF_S over the mean reference time around the call."""
        before = self._last
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._last = after = self.reference()
        scale = NOMINAL_REF_S / (0.5 * (before + after))
        return result, wall, wall * scale, scale

    def ref_median(self) -> float:
        return statistics.median(self.ref_samples)
