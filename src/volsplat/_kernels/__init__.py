"""The engine's five kernels, and the one place that picks their backend.

`project_splats` is the renderer's per-splat EWA projection, `bin_tiles`
sorts the splats into the 16x16 tiles they overlap, `composite_tile` is the
per-tile compositing loop, `plane_sweep` adds one (reference, neighbour) pair
into the depth stage's cost volume, and `scatter_add_rows` is the
scatter-add of one kernel offset's rows in a sparse U-Net conv. Each kernel
has one signature and two implementations: a C function in `kernels.c`
behind a checked ctypes wrapper, and a numpy twin (`project_splats_np`,
`bin_tiles_np`, `_composite_np.composite_tile`, `plane_sweep_np`,
`scatter_add_rows_np`), so callers import the names below and never ask
which backend runs. A kernel returns the arrays it creates: on both
backends `project_splats`, `bin_tiles` and `composite_tile` allocate their
outputs and return them. Only `plane_sweep` and `scatter_add_rows` take
output arrays, because they add into them across calls.

On first import `kernels.c` is built with `cc -O3 -ffp-contract=off -fPIC
-shared` and one -DNAME=value per constant the C code shares with Python
(ALPHA_MAX, T_CUTOFF, EXTENT, SNAP_TOL, BLOCK = COMPOSITE_BLOCK, CELL =
COMPOSITE_CELL and COV2D_DILATION, each written once on the Python side,
none in C), into the per-user cache ($XDG_CACHE_HOME or ~/.cache, then
volsplat/), under a file name that carries a hash of the source and the
flags, and loaded with ctypes, which releases the GIL for the length of
each call, so render threads composite tiles in parallel. If the build or the
load fails, or VOLSPLAT_FORCE_NUMPY=1 is set, the five kernels are the
numpy twins together (`NUMPY`). BACKEND names the kernels in use: "c" or
"numpy". Every C wrapper checks the arrays it is given with one checker,
`_check`: the kernel's dtype and shapes, C-contiguous, and writeable where
the kernel adds into them. It copies nothing, and any mismatch raises before
a pointer is passed. The wrappers of the kernels that write by index also
check the indices: `scatter_add_rows` its rows, and `bin_tiles` that every
tile rectangle lies inside the grid. Each wrapper reads every array's
address once per call, and the renderer calls `project_splats` and
`bin_tiles` once per frame.

`project_splats` takes the splats in front of the near plane, in the camera
frame, with their quaternions and scales, and returns each one's pixel mean,
the conic of its dilated 2D covariance, its radius EXTENT sqrt(lambda_max)
and whether that footprint meets the image. The C loop uses only + - * /
and sqrt, in numpy's order, and lets a NaN through each max(., 0) as numpy
does, so every output is byte-identical to the twin's. `bin_tiles`
takes each splat's inclusive tile rectangle, a (4, n) int64 array of rows
tx0, tx1, ty0, ty1, and returns (rows, bounds): the splats of tile t are
rows[bounds[t] : bounds[t + 1]] in ascending order, from a counting sort in
C and a stable argsort of the (tile, splat) pairs in numpy, with
byte-identical rows and bounds.

Both compositing kernels composite a fresh tile, every pixel from rgb 0 and
T = 1, and follow one recurrence, in which a splat adds nothing at a pixel
outside its pixel rectangle, an (n, 4) int32 array of x0, x1, y0, y1, nor
where its squared Mahalanobis distance q exceeds EXTENT^2; the C kernel
skips the exp there. One constant, EXTENT (3), sets both that cut and the
projected radius. The renderer's rectangle holds the pixels of the disc of
that radius, and so of the ellipse q <= EXTENT^2: the rectangle cut drops no
pixel the ellipse reaches. The tiles a splat is binned into are that
rectangle in tiles, so a render does not depend on the tile size.

The C compositing kernel splits the tile into COMPOSITE_CELL x
COMPOSITE_CELL pixel cells and, in one pass over the splats in order, hands
each splat to the cells its rectangle meets, in batches of five columns
(mean x and y, the three conic entries) with one bit per cell pixel the
rectangle holds; a cell whose pixels have all left takes no more. A pixel
tests its cell's splats COMPOSITE_BLOCK per step: their q values and a mask
of both cuts with no branch, then the recurrence on the splats that pass,
in order, leaving the pixel as soon as T < T_CUTOFF. Each q is the
one-splat-at-a-time loop's expression, rounded the same way in each vector
lane, and a NaN q is not cut there either, so rgb and transmit are
byte-identical to that loop, which tests/composite_scalar.c keeps, whenever
the rectangles hold the ellipses, as the renderer's do. Colours
are (n, k) and rgb (th, tw, k) for any k: each channel is its own sum,
rgb += alpha T color, with the same weight, so a channel's bytes do not
depend on the channels beside it. The C loop is one inline body, compiled at k = 3,
the renderer's colour, and for any other k: without the k = 3 body,
`render_s` rose 1.8, 2.4 and 2.9 % on perfbench's `dense`, `sweep` and
`garden` (10 alternating `--seconds 8` pairs each, on a 2-vCPU host).

Neither the compositing kernel nor the sweep is bit-identical to its numpy
twin, though both do the same operations in the same order. The compositing
kernel agrees to about 1e-16: it calls libm `exp`, and numpy may dispatch its
own vectorised `exp`. The sweep agrees to about 1e-15: numpy's `einsum` and
matmul order the channel sum and the camera transforms in their own way.
`scatter_add_rows` is bit-identical to its twin for distinct rows: each
output element takes exactly one IEEE addition, out + src, as in
`out[rows] += src`, and there is no sum whose order could differ. The C
scatter stays because with numpy's `out[rows] += src` in its place,
perfbench's `dense` `reconstruct_s` rose 8 % (10 alternating pairs).

The C sweep samples the neighbour inside a zero border, as
`geometry.bilinear_sample` does, in three passes per reference pixel: it
projects every plane, drops those behind the neighbour or off its grid, then
samples the rest over contiguous channels and takes their dot products four
at a time. Each (pixel, plane) keeps the operations and the order of the
one-plane-at-a-time scalar loop, which tests/plane_sweep_scalar.c keeps, so
acc and n_valid are byte-identical to that loop's (kernels.c shows why a
border tap cannot move them). The wrappers allocate the bordered
neighbour, every array a kernel returns and every kernel's scratch but the
compositing kernel's cell batches, which live on its stack; the C file
holds no buffer of its own.
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

from ..geometry import SNAP_TOL, quat_to_rotmat, warp_feature
from . import _composite_np
from ._composite_np import ALPHA_MAX, EXTENT, T_CUTOFF

SOURCE = Path(__file__).with_name("kernels.c")
COMPOSITE_BLOCK = 8  # passed to C as BLOCK: splats composite_tile tests per step
# passed to C as CELL: side in pixels of the cells composite_tile splits a tile
# into; at 8 it composited perfbench's dense and garden tiles 15-20 % slower
COMPOSITE_CELL = 4
COV2D_DILATION = 0.3  # px^2 added to each 2D variance, in C and in project_splats_np
# Fixed, whatever CC and CFLAGS say: -ffp-contract=off keeps the compiler from
# fusing a * b + c into one rounding, so the C loops round like numpy does.
# -O3 because GCC vectorises the sweep's channel loops only there; with no
# fast-math each vector lane still rounds like the scalar code. No -march:
# a library tuned to one CPU could be loaded from the per-user cache by
# another host that shares it. Each constant the C sources share with Python
# is a -D macro of its repr, which C parses to the same value, so no C file
# defines one, and the build digest covers its value.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared") + tuple(f"-D{k}={v!r}" for k, v in (
    ("ALPHA_MAX", ALPHA_MAX), ("T_CUTOFF", T_CUTOFF), ("EXTENT", EXTENT), ("SNAP_TOL", SNAP_TOL),
    ("BLOCK", COMPOSITE_BLOCK), ("CELL", COMPOSITE_CELL), ("COV2D_DILATION", COV2D_DILATION)))
BUILD_TIMEOUT_S = 120


class Kernels(NamedTuple):
    """One backend's kernels; a field has the same signature on every backend."""
    project_splats: Callable
    bin_tiles: Callable
    composite_tile: Callable
    plane_sweep: Callable
    scatter_add_rows: Callable


def plane_sweep_np(ref, nbr, ref_cam, nbr_cam, depths, acc, n_valid):
    """Add one neighbour's plane-sweep scores into acc and n_valid.

    ref and nbr are (h, w, c) feature grids, the cameras (Intrinsics,
    Extrinsics) pairs at feature resolution, depths the (d,) planes, and acc
    and n_valid (h, w, d) arrays updated in place. At plane m, nbr is warped
    onto the reference view (`warp_feature`); where the warp is valid, the
    channel mean of ref * warped is added to acc[:, :, m] and 1 to
    n_valid[:, :, m].
    """
    c = ref.shape[2]
    for m, depth in enumerate(depths):
        warped, valid = warp_feature(nbr, nbr_cam, ref_cam, depth)
        acc[:, :, m] += np.where(valid, np.einsum("hwc,hwc->hw", ref, warped) / c, 0.0)
        n_valid[:, :, m] += valid


def scatter_add_rows_np(out, rows, src):
    """out[rows[j]] += src[j] for every j; the rows are distinct."""
    out[rows] += src


def project_splats_np(p_cam, rotations, scales, cam):
    """EWA projection of splats in front of the near plane.

    p_cam (n, 3) are the centres in the camera frame, rotations (n, 4)
    quaternions (w, x, y, z), scales (n, 3) and cam an (Intrinsics,
    Extrinsics) pair. Returns each splat's pixel mean, mean2d (n, 2), the
    conic of its dilated 2D covariance, conics (n, 3), its radius
    EXTENT sqrt(lambda_max), radius (n), and whether that footprint meets the
    image, the boolean inside (n).
    """
    K, E = cam
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    mean2d = np.stack([K.fx * x / z + K.cx, K.fy * y / z + K.cy], axis=1)

    # cov2d = J W Sigma W^T J^T = (J W Rq S)(J W Rq S)^T, with J the 2x3
    # perspective Jacobian at the mean, W the world -> camera rotation and
    # Sigma = Rq S^2 Rq^T. Every entry of J, J W and J W Rq S is one (n,)
    # array; J's entries j01 and j10 are 0.
    W = E.R.T
    j00, j02 = K.fx / z, -K.fx * x / (z * z)
    j11, j12 = K.fy / z, -K.fy * y / (z * z)
    jw = ([j00 * W[0, k] + j02 * W[2, k] for k in range(3)],
          [j11 * W[1, k] + j12 * W[2, k] for k in range(3)])
    Rq = quat_to_rotmat(rotations)
    u, v = ([(r[0] * Rq[:, 0, k] + r[1] * Rq[:, 1, k] + r[2] * Rq[:, 2, k]) * scales[:, k]
             for k in range(3)] for r in jw)
    a = u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + COV2D_DILATION
    b = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    c = v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + COV2D_DILATION
    # a c - b^2 by Lagrange's identity, |u x v|^2 + d (a + c - d) with d the
    # dilation: terms that cannot cancel, as a c - b^2 does for a needle splat
    w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    det = w[0] * w[0] + w[1] * w[1] + w[2] * w[2] + COV2D_DILATION * (a + c - COV2D_DILATION)
    mid = 0.5 * (a + c)
    radius = EXTENT * np.sqrt(mid + np.sqrt(np.maximum(mid * mid - det, 0.0)))
    conics = np.stack([c, -b, a], axis=1) / det[:, None]
    mx, my = mean2d[:, 0], mean2d[:, 1]
    inside = ((mx + radius >= -0.5) & (mx - radius <= K.width - 0.5)
              & (my + radius >= -0.5) & (my - radius <= K.height - 0.5))
    return mean2d, conics, radius, inside


def bin_tiles_np(rects, nx, ny):
    """Splat rows per tile from each splat's inclusive tile rectangle.

    rects (4, n) holds rows tx0, tx1, ty0 and ty1 in an nx x ny tile grid,
    tile t = ty nx + tx. The 3DGS scheme (Kerbl et al. 2023): every splat is
    repeated once per tile it overlaps, the (tile, row) pairs are stably
    sorted by tile, and tile t's splats are rows[bounds[t] : bounds[t + 1]],
    in ascending order. Returns (rows, bounds), int64: rows holds one entry
    per (tile, splat) pair and bounds nx ny + 1.
    """
    tx0, tx1, ty0, ty1 = rects
    span_x = tx1 - tx0 + 1
    counts = span_x * (ty1 - ty0 + 1)
    pair_rows = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(pair_rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    span_x = span_x[pair_rows]
    tile = (ty0[pair_rows] + offset // span_x) * nx + tx0[pair_rows] + offset % span_x
    by_tile = np.argsort(tile, kind="stable")
    return pair_rows[by_tile], np.searchsorted(tile[by_tile], np.arange(nx * ny + 1))


NUMPY = Kernels(project_splats_np, bin_tiles_np, _composite_np.composite_tile, plane_sweep_np,
                scatter_add_rows_np)


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
        project, binner = lib.project_splats, lib.bin_tiles
        composite, sweep, scatter = lib.composite_tile, lib.plane_sweep, lib.scatter_add_rows
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_long
    project.argtypes = [ptr, ptr, ptr, ptr, size, size, size, ptr, ptr, ptr, ptr]
    binner.argtypes = [ptr, size, size, size, ptr, ptr]
    composite.argtypes = [ptr, ptr, ptr, ptr, ptr, size, size, size, size, size, size, ptr, ptr]
    sweep.argtypes = [ptr, ptr, size, size, size, ptr, ptr, ptr, size, ptr, ptr, ptr, ptr, ptr]
    scatter.argtypes = [ptr, ptr, ptr, size, size]
    project.restype = binner.restype = None
    composite.restype = sweep.restype = scatter.restype = None
    return Kernels(_checked_project(project), _checked_bin(binner), _checked_composite(composite),
                   _checked_sweep(sweep), _checked_scatter(scatter))


_F64, _I64, _U64 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint64)
_I32 = np.dtype(np.int32)


def _check(kernel: str, args, outputs=()) -> dict:
    """Check one C kernel's array arguments before any pointer is passed.

    `args` holds (name, array, dtype, dims) for each array. The array must be
    a C-contiguous ndarray of that dtype whose shape matches dims, a dim being
    a size or a letter that stands for one size wherever it appears; the
    arrays named in `outputs` must also be writeable. Nothing is copied: the
    first mismatch raises TypeError (no ndarray, or another dtype) or
    ValueError. Returns the size of each letter.
    """
    sizes = {}
    for name, a, dtype, dims in args:
        if not isinstance(a, np.ndarray) or a.dtype != dtype:
            raise TypeError(f"{kernel}: {name} must be a {dtype} ndarray, "
                            f"got {getattr(a, 'dtype', type(a).__name__)}")
        shape = a.shape
        if len(shape) != len(dims):
            raise ValueError(f"{kernel}: {name} has shape {shape}, expected {dims}")
        for d, n in zip(dims, shape):  # a plain loop: this runs on every kernel call
            if (sizes.setdefault(d, n) if d.__class__ is str else d) != n:
                expected = tuple(sizes.get(d, d) for d in dims)
                raise ValueError(f"{kernel}: {name} has shape {shape}, expected {expected}")
        flags = a.flags
        if not flags.c_contiguous:
            raise ValueError(f"{kernel}: {name} must be C-contiguous")
        if name in outputs and not flags.writeable:
            raise ValueError(f"{kernel}: {name} must be writeable")
    return sizes


def _checked_composite(fn):
    """Wrap the raw C compositing kernel in the signature of the numpy one.
    The tile's rgb and transmit are allocated here from the checked sizes;
    the kernel writes every entry of both."""

    def composite_tile(means, conics, colors, opacities, rects, x0, y0, th, tw):
        x0, y0, th, tw = map(operator.index, (x0, y0, th, tw))
        size = _check("composite_tile", (
            ("means", means, _F64, ("n", 2)), ("conics", conics, _F64, ("n", 3)),
            ("colors", colors, _F64, ("n", "k")), ("opacities", opacities, _F64, ("n",)),
            ("rects", rects, _I32, ("n", 4)),
        ))
        k = size["k"]
        rgb, transmit = np.empty((th, tw, k)), np.empty((th, tw))
        fn(means.ctypes.data, conics.ctypes.data, colors.ctypes.data, opacities.ctypes.data,
           rects.ctypes.data, size["n"], k, x0, y0, th, tw, rgb.ctypes.data,
           transmit.ctypes.data)
        return rgb, transmit

    return composite_tile


def _camera(name: str, cam) -> np.ndarray:
    """An (Intrinsics, Extrinsics) pair as the 16 doubles kernels.c reads:
    fx, fy, cx, cy, then R row by row, then T."""
    K, E = cam
    packed = np.concatenate(([K.fx, K.fy, K.cx, K.cy],
                             np.asarray(E.R, dtype=np.float64).ravel(),
                             np.asarray(E.T, dtype=np.float64).ravel()))
    if packed.shape != (16,):
        raise ValueError(f"{name} must hold a 3x3 R and a 3-vector T")
    return packed


def _checked_project(fn):
    """Wrap the raw C projection in the signature of project_splats_np."""

    def project_splats(p_cam, rotations, scales, cam):
        n = _check("project_splats", (
            ("p_cam", p_cam, _F64, ("n", 3)), ("rotations", rotations, _F64, ("n", 4)),
            ("scales", scales, _F64, ("n", 3)),
        ))["n"]
        packed = _camera("project_splats: cam", cam)
        width, height = operator.index(cam[0].width), operator.index(cam[0].height)
        mean2d, conics, radius = np.empty((n, 2)), np.empty((n, 3)), np.empty(n)
        inside = np.empty(n, np.bool_)
        fn(p_cam.ctypes.data, rotations.ctypes.data, scales.ctypes.data, packed.ctypes.data,
           n, width, height, mean2d.ctypes.data, conics.ctypes.data, radius.ctypes.data,
           inside.ctypes.data)
        return mean2d, conics, radius, inside

    return project_splats


def _checked_bin(fn):
    """Wrap the raw C binning in the signature of bin_tiles_np. The kernel
    writes by tile index, so every rectangle must also lie inside the tile
    grid, with tx0 <= tx1 and ty0 <= ty1; rows is allocated with one entry
    per (tile, splat) pair of those rectangles."""

    def bin_tiles(rects, nx, ny):
        nx, ny = operator.index(nx), operator.index(ny)
        n = _check("bin_tiles", (("rects", rects, _I64, (4, "n")),))["n"]
        tx0, tx1, ty0, ty1 = rects
        if n and not (tx0.min() >= 0 and ty0.min() >= 0 and (tx0 <= tx1).all()
                      and (ty0 <= ty1).all() and tx1.max() < nx and ty1.max() < ny):
            raise IndexError(f"bin_tiles: rects must satisfy 0 <= tx0 <= tx1 < {nx} "
                             f"and 0 <= ty0 <= ty1 < {ny}")
        rows = np.empty(int((tx1 - tx0 + 1) @ (ty1 - ty0 + 1)), np.int64)
        bounds = np.empty(nx * ny + 1, np.int64)
        fn(rects.ctypes.data, n, nx, ny, rows.ctypes.data, bounds.ctypes.data)
        return rows, bounds

    return bin_tiles


def _checked_sweep(fn):
    """Wrap the raw C plane sweep in the signature of plane_sweep_np.

    The kernel's scratch (projections and weights, plane taps, channel
    samples) and nbr inside a zero border, a zeroed (h + 1, w + 1, c) copy,
    are allocated here from the checked shapes.
    """

    def plane_sweep(ref, nbr, ref_cam, nbr_cam, depths, acc, n_valid):
        size = _check("plane_sweep", (
            ("ref", ref, _F64, ("h", "w", "c")), ("nbr", nbr, _F64, ("h", "w", "c")),
            ("depths", depths, _F64, ("d",)), ("acc", acc, _F64, ("h", "w", "d")),
            ("n_valid", n_valid, _F64, ("h", "w", "d")),
        ), ("acc", "n_valid"))
        cams = [_camera("plane_sweep: ref_cam", ref_cam),
                _camera("plane_sweep: nbr_cam", nbr_cam)]
        h, w, c, d = size["h"], size["w"], size["c"], size["d"]
        padded = np.zeros((h + 1, w + 1, c))
        padded[:h, :w] = nbr
        proj, taps, samples = np.empty(7 * d), np.empty(2 * d, np.int64), np.empty(d * c)
        fn(ref.ctypes.data, padded.ctypes.data, h, w, c, cams[0].ctypes.data,
           cams[1].ctypes.data, depths.ctypes.data, d, acc.ctypes.data, n_valid.ctypes.data,
           proj.ctypes.data, taps.ctypes.data, samples.ctypes.data)

    return plane_sweep


def _checked_scatter(fn):
    """Wrap the raw C scatter-add in the signature of scatter_add_rows_np;
    every row must also lie inside `out`."""

    def scatter_add_rows(out, rows, src):
        size = _check("scatter_add_rows", (
            ("out", out, _F64, ("n", "c")), ("rows", rows, _I64, ("m",)),
            ("src", src, _F64, ("m", "c")),
        ), ("out",))
        # as uint64 a negative row is past the end, so one max bounds both sides
        if size["m"] and np.maximum.reduce(rows.view(_U64)) >= size["n"]:
            raise IndexError(f"scatter_add_rows: rows must lie in [0, {size['n']})")
        fn(out.ctypes.data, rows.ctypes.data, src.ctypes.data, size["m"], size["c"])

    return scatter_add_rows


def select():
    """(Kernels, backend name) for this process."""
    if os.environ.get("VOLSPLAT_FORCE_NUMPY") != "1":
        compiled = load()
        if compiled is not None:
            return compiled, "c"
    return NUMPY, "numpy"


(project_splats, bin_tiles, composite_tile, plane_sweep, scatter_add_rows), BACKEND = select()

__all__ = ["project_splats", "bin_tiles", "composite_tile", "plane_sweep", "scatter_add_rows",
           "project_splats_np", "bin_tiles_np", "plane_sweep_np", "scatter_add_rows_np",
           "NUMPY", "BACKEND", "Kernels", "EXTENT", "COV2D_DILATION", "build", "load", "select"]
