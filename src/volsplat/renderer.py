"""Deterministic CPU tile-based splatting rasterizer plus image metrics.

EWA projection: each 3D Gaussian is mapped to a 2D Gaussian through the
local projection Jacobian, then alpha-composited front to back in 16x16
tiles. Tiles are independent, so the worker count never changes output, and
a splat reaches only pixels inside its tiles, so neither does the tile size.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import bin_tiles, composite_tile, project_splats, tile_pairs
from .errors import InvalidInputError
from .gaussians import SH_C0, GaussianSet
from .geometry import Extrinsics, Intrinsics
from .sceneio import finite_number

TILE = 16
NEAR_PLANE = 0.01
PSNR_CAP = 99.0
MAX_THREADS = 64  # render workers; 0 asks for one per CPU

SH_C1 = 0.4886025119029199
SH_C2 = (1.0925484305920792, -1.0925484305920792, 0.31539156525252005,
         -1.0925484305920792, 0.5462742152960396)
SH_C3 = (-0.5900435899266435, 2.890611442640554, -0.4570457994644658,
         0.3731763325901154, -0.4570457994644658, 1.445305721320277,
         -0.5900435899266435)


@dataclass
class RenderedImage:
    rgb: np.ndarray  # H x W x 3 in [0, 1]
    alpha: np.ndarray  # H x W accumulated opacity


def eval_sh(sh: np.ndarray, degree: int, dirs: np.ndarray) -> np.ndarray:
    """View-dependent RGB from SH coefficients, clipped to [0, 1].

    sh is (N, 3 (L+1)^2) laid out channel-fastest per coefficient;
    dirs are unit view directions (N, 3), unread at degree 0.
    """
    coeff = sh.reshape(sh.shape[0], sh.shape[1] // 3, 3).astype(float)
    c = 0.5 + SH_C0 * coeff[:, 0]
    if degree >= 1:
        x, y, z = dirs[:, 0:1], dirs[:, 1:2], dirs[:, 2:3]
        c = c - SH_C1 * y * coeff[:, 1] + SH_C1 * z * coeff[:, 2] - SH_C1 * x * coeff[:, 3]
    if degree >= 2:
        xx, yy, zz = x * x, y * y, z * z
        xy, yz, xz = x * y, y * z, x * z
        c = (c + SH_C2[0] * xy * coeff[:, 4] + SH_C2[1] * yz * coeff[:, 5]
             + SH_C2[2] * (2 * zz - xx - yy) * coeff[:, 6]
             + SH_C2[3] * xz * coeff[:, 7] + SH_C2[4] * (xx - yy) * coeff[:, 8])
    if degree >= 3:
        c = (c + SH_C3[0] * y * (3 * xx - yy) * coeff[:, 9]
             + SH_C3[1] * xy * z * coeff[:, 10]
             + SH_C3[2] * y * (4 * zz - xx - yy) * coeff[:, 11]
             + SH_C3[3] * z * (2 * zz - 3 * xx - 3 * yy) * coeff[:, 12]
             + SH_C3[4] * x * (4 * zz - xx - yy) * coeff[:, 13]
             + SH_C3[5] * z * (xx - yy) * coeff[:, 14]
             + SH_C3[6] * x * (xx - 3 * yy) * coeff[:, 15])
    return np.clip(c, 0.0, 1.0)


def _project_all(gset: GaussianSet, K: Intrinsics, E: Extrinsics):
    """Vectorized EWA projection of a whole set: (mean2d, conics, z, colors,
    opacities, radius, idx) of the splats in front of the near plane whose
    3-sigma footprint touches the image, in front-to-back order with the
    index in the set, idx, as the tiebreak.

    Per-splat inputs are gathered only when some splat is behind the near
    plane, `project_splats` projects the rest, and each output is gathered
    once, by the one index that both culls and sorts. Colours are evaluated
    for the kept splats only, and view directions only at SH degree 1 and
    up: degree 0 does not depend on the view.
    """
    centers = gset.centers.astype(float)
    p_cam = E.world_to_cam(centers)
    near = np.flatnonzero(p_cam[:, 2] > NEAR_PLANE)
    rotations, scales = gset.rotations, gset.scales
    if near.size < len(gset):
        p_cam, rotations, scales = (np.take(a, near, axis=0) for a in (p_cam, rotations, scales))
    p_cam, rotations, scales = (np.ascontiguousarray(a, dtype=np.float64)
                                for a in (p_cam, rotations, scales))
    n = near.size
    mean2d, conics, radius = np.empty((n, 2)), np.empty((n, 3)), np.empty(n)
    inside = np.empty(n, dtype=bool)
    project_splats(p_cam, rotations, scales, (K, E), mean2d, conics, radius, inside)

    # keep splats whose 3-sigma footprint meets the image, then sort them by
    # depth; near is ascending, so a stable sort breaks ties by set index
    z = p_cam[:, 2]
    rows = np.flatnonzero(inside)
    rows = rows[np.argsort(z[rows], kind="stable")]
    idx = near[rows]
    dirs = None
    if gset.sh_degree >= 1:
        dirs = np.take(centers, idx, axis=0) - E.T
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = np.divide(dirs, norms, out=np.zeros_like(dirs), where=norms > 0)
    colors = eval_sh(np.take(gset.sh, idx, axis=0), gset.sh_degree, dirs)
    return (*(np.take(a, rows, axis=0) for a in (mean2d, conics, z)), colors,
            np.take(gset.opacities, idx), np.take(radius, rows), idx)


def rasterize(mean2d, conics, colors, ops, radius, h: int, w: int, threads: int = 1):
    """Composite depth-sorted 2D splats front to back into an h x w image.

    Each splat goes to every tile its radius touches, and each non-empty tile
    is one `composite_tile` call over its splats in input order, on `threads`
    workers (0 = one per CPU). colors are (n, k), any k. Returns (rgb,
    transmit): the accumulated k-channel colour, (h, w, k), and the
    remaining transmittance.
    """
    k = colors.shape[1]
    rgb = np.zeros((h, w, k))
    transmit = np.ones((h, w))
    nx = -(-w // TILE)
    ny = -(-h // TILE)
    # The ellipse q <= EXTENT^2 lies inside the radius only up to rounding:
    # the float conic's ellipse can reach past the float radius by about eps
    # times the 2D covariance's condition number, below radius^2 with the
    # 0.3 px^2 dilation (measured: under 2^-53 (1 + radius^2) of the radius).
    # So the rectangle reaches 2^-40 (1 + radius^2) of the radius further.
    with np.errstate(over="ignore"):  # an overflowing reach is infinite and covers the grid
        reach = radius * (1.0 + 2.0**-40 * (1.0 + radius * radius))
    # each splat's inclusive tile rectangle, rows tx0, tx1, ty0 and ty1: its
    # pixel bounds in tiles (exact, as TILE is a power of two), clipped to the
    # grid before the cast, which then floors, so a footprint past the int64
    # range, or an infinite one, still reaches the last tile
    mx, my = mean2d.T
    rects = np.stack([mx - reach, mx + reach, my - reach, my + reach])
    rects *= 1.0 / TILE
    np.clip(rects, 0.0, [[nx - 1], [nx - 1], [ny - 1], [ny - 1]], out=rects)
    rects = rects.astype(np.int64)
    rows, bounds = np.empty(tile_pairs(rects), np.int64), np.empty(nx * ny + 1, np.int64)
    bin_tiles(rects, nx, ny, rows, bounds)
    # every tile's splats in one gather per array; a tile takes a slice
    splats = [np.take(a, rows, axis=0) for a in (mean2d, conics, colors, ops)]
    tiles = np.flatnonzero(np.diff(bounds)).tolist()
    bounds = bounds.tolist()

    def do_tile(t):
        ty, tx = divmod(t, nx)
        part = slice(bounds[t], bounds[t + 1])
        x0, y0 = tx * TILE, ty * TILE
        tw = min(TILE, w - x0)
        th = min(TILE, h - y0)
        tile_rgb = np.zeros((th, tw, k))
        tile_T = np.ones((th, tw))
        composite_tile(*(a[part] for a in splats), x0, y0, tile_rgb, tile_T)
        rgb[y0 : y0 + th, x0 : x0 + tw] = tile_rgb
        transmit[y0 : y0 + th, x0 : x0 + tw] = tile_T

    workers = min(threads or os.cpu_count() or 1, len(tiles))
    _on_threads(do_tile, tiles, workers)
    return rgb, transmit


_DONE = object()


def _on_threads(fn, items: list, workers: int) -> None:
    """Call fn on every item: the caller and workers - 1 threads take items
    in turn from one shared iterator, and the first exception is re-raised
    once all have stopped."""
    shared, lock, errors = iter(items), threading.Lock(), []

    def work():
        try:
            while True:
                with lock:
                    item = next(shared, _DONE)
                if item is _DONE:
                    return
                fn(item)
        except BaseException as e:  # re-raised in the caller below
            errors.append(e)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for h in helpers:
        h.start()
    work()
    for h in helpers:
        h.join()
    if errors:
        raise errors[0]


def check_threads(threads: int) -> None:
    """Raise InvalidInputError unless `threads` is 0 (auto) to MAX_THREADS."""
    if not 0 <= threads <= MAX_THREADS:
        raise InvalidInputError(f"threads must be 0 (auto) to {MAX_THREADS}, got {threads}")


def check_bg(bg) -> None:
    """Raise InvalidInputError unless `bg` is 3 finite numbers."""
    if len(bg) != 3 or not all(map(finite_number, bg)):
        raise InvalidInputError(f"render.bg must be 3 finite numbers, got {bg!r}")


def render(
    gset: GaussianSet,
    K: Intrinsics,
    E: Extrinsics,
    bg=(0.0, 0.0, 0.0),
    threads: int = 1,
) -> RenderedImage:
    """Rasterize a Gaussian set into an RGB + alpha image on `threads`
    workers, the calling thread among them (0 = os.cpu_count()); no more
    workers start than there are non-empty tiles."""
    check_threads(threads)
    check_bg(bg)
    mean2d, conics, _, colors, ops, radius, _ = _project_all(gset, K, E)
    rgb, transmit = rasterize(mean2d, conics, colors, ops, radius, K.height, K.width, threads)
    rgb = rgb + transmit[..., None] * np.asarray(bg, dtype=float)
    return RenderedImage(rgb=np.clip(rgb, 0.0, 1.0), alpha=1.0 - transmit)


# --- image metrics -----------------------------------------------------------

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _ssim_window() -> np.ndarray:
    """Normalised 1-D Gaussian; the 2-D window is its outer product."""
    r = _SSIM_WINDOW // 2
    g = np.exp(-0.5 * (np.arange(-r, r + 1) / _SSIM_SIGMA) ** 2)
    return g / g.sum()


def _blur(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable blur of a 2-D image, one pass along each axis. The edge is
    mirrored with the edge sample repeated, as often as the window needs."""
    h, w = x.shape
    p = np.pad(x, g.size // 2, mode="symmetric")
    rows = sum(g[i] * p[i : i + h] for i in range(g.size))
    return sum(g[j] * rows[:, j : j + w] for j in range(g.size))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM with an 11x11 Gaussian window, reflect-padded, per channel."""
    if a.shape != b.shape:
        raise InvalidInputError("SSIM inputs must share shape")
    if a.ndim == 2:
        a, b = a[..., None], b[..., None]
    g = _ssim_window()
    c1 = _SSIM_K1**2
    c2 = _SSIM_K2**2
    vals = []
    for ch in range(a.shape[2]):
        x, y = a[..., ch].astype(float), b[..., ch].astype(float)
        mx = _blur(x, g)
        my = _blur(y, g)
        sxx = _blur(x * x, g) - mx * mx
        syy = _blur(y * y, g) - my * my
        sxy = _blur(x * y, g) - mx * my
        num = (2 * mx * my + c1) * (2 * sxy + c2)
        den = (mx * mx + my * my + c1) * (sxx + syy + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def compute_image_metrics(a: np.ndarray, b: np.ndarray) -> dict:
    """MSE / PSNR (capped at 99 dB) / SSIM for images in [0, 1]; a non-finite
    value in either image raises InvalidInputError, as it has no score."""
    if a.shape != b.shape:
        raise InvalidInputError("metric inputs must share shape")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("metric inputs must be finite: the render or the target "
                                "holds NaN or infinite values")
    mse = float(np.mean((a.astype(float) - b.astype(float)) ** 2))
    psnr = PSNR_CAP if mse == 0 else min(PSNR_CAP, -10.0 * np.log10(mse))
    return {"mse": mse, "psnr": float(psnr), "ssim": ssim(a, b)}


def combined_loss(renders: Sequence[np.ndarray], refs: Sequence[np.ndarray]) -> float:
    """Summed MSE over view pairs."""
    if len(renders) != len(refs):
        raise InvalidInputError("render/reference list length mismatch")
    total = 0.0
    for r, t in zip(renders, refs):
        if r.shape != t.shape:
            raise InvalidInputError("render/reference shape mismatch")
        total += float(np.mean((r.astype(float) - t.astype(float)) ** 2))
    return total
