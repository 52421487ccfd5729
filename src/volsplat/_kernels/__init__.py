"""Compiled kernels and their numpy fallbacks.

`kernels.c` holds the engine's three compiled kernels: `composite_tile`, the
rasterizer's per-tile compositing loop, `plane_sweep`, one (reference,
neighbour) pair of the depth stage's cost volume, and `scatter_add_rows`,
the scatter-add of one kernel offset's rows in a sparse U-Net conv. On first
import it is built with `cc -O3 -ffp-contract=off -fPIC -shared` into the
per-user cache ($XDG_CACHE_HOME or ~/.cache, then volsplat/), under a file
name that carries a hash of the source and the flags, and loaded with
ctypes, which releases the GIL for the length of each call, so render
threads composite tiles in parallel. If the build or the load fails, or
VOLSPLAT_FORCE_NUMPY=1 is set, all three kernels fall back to numpy
together: `composite_tile` is then the numpy kernel in `_composite_np`,
`plane_sweep` is None, which makes `features.build_cost_volume` run its own
per-plane `warp_feature` loop, and `scatter_add_rows` is
`scatter_add_rows_np`, the line `out[rows] += src`.
BACKEND names the kernels in use: "c" or "numpy".

Both compositing kernels follow one recurrence, in which a splat adds
nothing at a pixel where its squared Mahalanobis distance q exceeds Q_SKIP
(80); the C kernel skips the exp there. The unskipped alpha would be at most
e^-40 < 2^-57, so 1 - alpha rounds to exactly 1: transmittance is
bit-identical to the recurrence without the rule, and colour differs by less
than 4.3e-18 per skipped (splat, pixel) pair.

Neither of the first two C kernels is bit-identical to its numpy
counterpart, though both do the same operations in the same order. The
compositing kernel agrees to about 1e-16: it calls libm `exp`, and numpy may
dispatch its own vectorised `exp`. The sweep agrees to about 1e-15: numpy's
`einsum` and matmul order the channel sum and the camera transforms in their
own way. `scatter_add_rows` is bit-identical to its fallback for distinct
rows: each output element takes exactly one IEEE addition, out + src, as in
`out[rows] += src`, and there is no sum whose order could differ.

The C sweep runs in three passes per reference pixel: it projects every
plane, sorts the planes into dropped, edge and interior ones, then samples
the interior planes over contiguous channels and takes their dot products
four at a time. Each (pixel, plane) keeps the operations and the order of
the one-plane-at-a-time scalar loop, which tests/plane_sweep_scalar.c keeps,
so acc and n_valid are byte-identical to that loop's. The wrapper allocates
the three passes' scratch arrays; the C file holds no buffer of its own.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _composite_np
from ._composite_np import ALPHA_MAX, T_CUTOFF

SOURCE = Path(__file__).with_name("kernels.c")
# Fixed, whatever CC and CFLAGS say: -ffp-contract=off keeps the compiler from
# fusing a * b + c into one rounding, so the C loops round like numpy does.
# -O3 because GCC vectorises the sweep's channel loops only there; with no
# fast-math each vector lane still rounds like the scalar code. No -march:
# a library tuned to one CPU could be loaded from the per-user cache by
# another host that shares it.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120


class Kernels(NamedTuple):
    composite_tile: Callable
    plane_sweep: Optional[Callable]  # None on the numpy backend
    scatter_add_rows: Callable


def scatter_add_rows_np(out: np.ndarray, rows: np.ndarray, src: np.ndarray) -> None:
    """out[rows[j]] += src[j] for every j; the rows are distinct."""
    out[rows] += src


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "volsplat"


def build(out_dir: Path, source: Path = SOURCE) -> Path:
    """Path of `source` compiled into `out_dir`, compiling it if no build of
    the same source and flags is there yet.

    The library is written to a temporary file in `out_dir` and moved into
    place, so a concurrent build or load never sees a partial file.
    """
    digest = hashlib.sha256(source.read_bytes() + "\0".join(FLAGS).encode()).hexdigest()
    lib = Path(out_dir) / f"{Path(source).stem}-{digest[:16]}.so"
    if lib.is_file():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.name + ".", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(["cc", *FLAGS, "-o", tmp, str(source), "-lm"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load(out_dir: Path | None = None, source: Path = SOURCE) -> Optional[Kernels]:
    """The checked C kernels, built into `out_dir` (the per-user cache by
    default), or None when they cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(build(cache_dir() if out_dir is None else out_dir, source)))
        composite, sweep, scatter = lib.composite_tile, lib.plane_sweep, lib.scatter_add_rows
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_long
    composite.argtypes = [ptr, ptr, ptr, ptr, size, size, size, size, size, ptr, ptr]
    sweep.argtypes = [ptr, ptr, size, size, size, ptr, ptr, ptr, size, ptr, ptr, ptr, ptr, ptr]
    scatter.argtypes = [ptr, ptr, ptr, size, size]
    composite.restype = sweep.restype = scatter.restype = None
    return Kernels(_checked(composite), _checked_sweep(sweep), _checked_scatter(scatter))


def _float64(kernel: str, name: str, a) -> np.ndarray:
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise TypeError(f"{kernel}: {name} must be a float64 ndarray, "
                        f"got {getattr(a, 'dtype', type(a).__name__)}")
    return a


def _checked(fn):
    """Wrap the raw C function in the numpy kernel's signature.

    Every dtype and shape is checked before a pointer is passed, so no call
    reaches memory outside the arrays. Inputs are made contiguous; rgb and
    transmit that are not are copied in and back out.
    """

    def composite_tile(means, conics, colors, opacities, x0, y0, rgb, transmit):
        arrays = {name: _float64("composite_tile", name, a) for name, a in (
            ("means", means), ("conics", conics), ("colors", colors),
            ("opacities", opacities), ("rgb", rgb), ("transmit", transmit))}
        n = means.shape[0] if means.ndim == 2 else -1
        th, tw = transmit.shape if transmit.ndim == 2 else (-1, -1)
        expected = {"means": (n, 2), "conics": (n, 3), "colors": (n, 3),
                    "opacities": (n,), "rgb": (th, tw, 3), "transmit": (th, tw)}
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(f"composite_tile: {name} has shape "
                                 f"{arrays[name].shape}, expected {shape} (n, th, tw)")
        if not (rgb.flags.writeable and transmit.flags.writeable):
            raise ValueError("composite_tile: rgb and transmit must be writeable")
        x0, y0 = operator.index(x0), operator.index(y0)
        inputs = [np.ascontiguousarray(a) for a in (means, conics, colors, opacities)]
        out_rgb, out_t = np.ascontiguousarray(rgb), np.ascontiguousarray(transmit)
        fn(*(a.ctypes.data for a in inputs), n, x0, y0, th, tw,
           out_rgb.ctypes.data, out_t.ctypes.data)
        if out_rgb is not rgb:
            rgb[...] = out_rgb
        if out_t is not transmit:
            transmit[...] = out_t

    return composite_tile


def _camera(name: str, cam) -> np.ndarray:
    """An (Intrinsics, Extrinsics) pair as the 16 doubles kernels.c reads:
    fx, fy, cx, cy, then R row by row, then T."""
    K, E = cam
    packed = np.concatenate(([K.fx, K.fy, K.cx, K.cy],
                             np.asarray(E.R, dtype=np.float64).ravel(),
                             np.asarray(E.T, dtype=np.float64).ravel()))
    if packed.shape != (16,):
        raise ValueError(f"plane_sweep: {name} must hold a 3x3 R and a 3-vector T")
    return packed


def _checked_sweep(fn):
    """Wrap the raw C plane sweep in a checked Python signature.

    Every array must already be a C-contiguous float64 array of the right
    shape; nothing is copied, and any mismatch raises before a pointer is
    passed. The kernel's scratch (projections and weights, interior-plane
    taps, channel samples) is allocated here from the checked shapes.
    """

    def plane_sweep(ref, nbr, ref_cam, nbr_cam, depths, acc, n_valid):
        """Add one neighbour's plane-sweep scores into acc and n_valid.

        ref and nbr are (h, w, c) feature grids, the cameras (Intrinsics,
        Extrinsics) pairs at feature resolution, depths the (d,) planes, and
        acc and n_valid (h, w, d) arrays that are updated in place.
        """
        arrays = {name: _float64("plane_sweep", name, a) for name, a in (
            ("ref", ref), ("nbr", nbr), ("depths", depths), ("acc", acc),
            ("n_valid", n_valid))}
        if ref.ndim != 3:
            raise ValueError(f"plane_sweep: ref has shape {ref.shape}, expected (h, w, c)")
        if depths.ndim != 1:
            raise ValueError(f"plane_sweep: depths has shape {depths.shape}, expected (d,)")
        h, w, c = ref.shape
        expected = {"nbr": (h, w, c), "acc": (h, w, depths.size),
                    "n_valid": (h, w, depths.size)}
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(f"plane_sweep: {name} has shape "
                                 f"{arrays[name].shape}, expected {shape}")
        for name, a in arrays.items():
            if not a.flags.c_contiguous:
                raise ValueError(f"plane_sweep: {name} must be C-contiguous")
        if not (acc.flags.writeable and n_valid.flags.writeable):
            raise ValueError("plane_sweep: acc and n_valid must be writeable")
        cams = [_camera("ref_cam", ref_cam), _camera("nbr_cam", nbr_cam)]
        d = depths.size
        proj, taps, samples = np.empty(7 * d), np.empty(2 * d, np.int64), np.empty(d * c)
        fn(ref.ctypes.data, nbr.ctypes.data, h, w, c, cams[0].ctypes.data,
           cams[1].ctypes.data, depths.ctypes.data, d, acc.ctypes.data, n_valid.ctypes.data,
           proj.ctypes.data, taps.ctypes.data, samples.ctypes.data)

    return plane_sweep


def _checked_scatter(fn):
    """Wrap the raw C scatter-add in the signature of scatter_add_rows_np.

    Every array must already be C-contiguous and of the right dtype and
    shape, and every row inside `out`; nothing is copied, and any mismatch
    raises before a pointer is passed.
    """

    def scatter_add_rows(out, rows, src):
        """out[rows[j]] += src[j] for every j in order; the rows are distinct."""
        _float64("scatter_add_rows", "out", out)
        _float64("scatter_add_rows", "src", src)
        if not isinstance(rows, np.ndarray) or rows.dtype != np.int64:
            raise TypeError("scatter_add_rows: rows must be an int64 ndarray, "
                            f"got {getattr(rows, 'dtype', type(rows).__name__)}")
        if out.ndim != 2 or rows.ndim != 1 or src.shape != (rows.size, out.shape[1]):
            raise ValueError(f"scatter_add_rows: out {out.shape}, rows {rows.shape} and src "
                             f"{src.shape} must be (n, c), (m,) and (m, c)")
        if not (out.flags.c_contiguous and rows.flags.c_contiguous and src.flags.c_contiguous):
            raise ValueError("scatter_add_rows: out, rows and src must be C-contiguous")
        if not out.flags.writeable:
            raise ValueError("scatter_add_rows: out must be writeable")
        if rows.size and not (0 <= rows.min() and rows.max() < out.shape[0]):
            raise IndexError(f"scatter_add_rows: rows must lie in [0, {out.shape[0]})")
        fn(out.ctypes.data, rows.ctypes.data, src.ctypes.data, rows.size, out.shape[1])

    return scatter_add_rows


def select():
    """(Kernels, backend name) for this process."""
    if os.environ.get("VOLSPLAT_FORCE_NUMPY") != "1":
        compiled = load()
        if compiled is not None:
            return compiled, "c"
    return Kernels(_composite_np.composite_tile, None, scatter_add_rows_np), "numpy"


(composite_tile, plane_sweep, scatter_add_rows), BACKEND = select()

__all__ = ["composite_tile", "plane_sweep", "scatter_add_rows", "scatter_add_rows_np", "BACKEND",
           "Kernels", "ALPHA_MAX", "T_CUTOFF", "build", "load", "select"]
