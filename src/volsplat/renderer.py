"""Deterministic CPU tile-based splatting rasterizer plus image metrics.

EWA projection: each 3D Gaussian is mapped to a 2D Gaussian through the
local projection Jacobian, then alpha-composited front to back in 16x16
tiles. Tiles are independent, so the worker count never changes output.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import composite_tile
from .errors import InvalidInputError
from .gaussians import SH_C0, GaussianSet, quat_to_rotmat
from .geometry import Extrinsics, Intrinsics

TILE = 16
NEAR_PLANE = 0.01
COV2D_DILATION = 0.3
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
    dirs are unit view directions (N, 3).
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
    plane, and each output is gathered once, by the one index that both
    culls and sorts.
    """
    centers = gset.centers.astype(float)
    p_cam = E.world_to_cam(centers)
    near = np.flatnonzero(p_cam[:, 2] > NEAR_PLANE)
    rotations, scales, sh, opacities = gset.rotations, gset.scales, gset.sh, gset.opacities
    if near.size < len(gset):
        centers, p_cam, rotations, scales, sh, opacities = (
            np.take(a, near, axis=0) for a in (centers, p_cam, rotations, scales, sh, opacities))
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    mean2d = np.stack([K.fx * x / z + K.cx, K.fy * y / z + K.cy], axis=1)

    # cov2d = J W Sigma W^T J^T = (J W Rq S)(J W Rq S)^T, with J the 2x3
    # perspective Jacobian at the mean, W the world -> camera rotation and
    # Sigma = Rq S^2 Rq^T. Every entry of J, J W and J W Rq S is one (N,)
    # array; J's entries j01 and j10 are 0.
    W = E.R.T
    j00, j02 = K.fx / z, -K.fx * x / (z * z)
    j11, j12 = K.fy / z, -K.fy * y / (z * z)
    jw = ([j00 * W[0, k] + j02 * W[2, k] for k in range(3)],
          [j11 * W[1, k] + j12 * W[2, k] for k in range(3)])
    Rq = quat_to_rotmat(rotations.astype(float))
    u, v = ([(r[0] * Rq[:, 0, k] + r[1] * Rq[:, 1, k] + r[2] * Rq[:, 2, k]) * scales[:, k]
             for k in range(3)] for r in jw)
    a = u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + COV2D_DILATION
    b = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    c = v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + COV2D_DILATION
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(mid * mid - (a * c - b * b), 0.0))
    radius = 3.0 * np.sqrt(np.maximum(mid + disc, 0.0))

    dirs = centers - E.T
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.divide(dirs, norms, out=np.zeros_like(dirs), where=norms > 0)
    colors = eval_sh(sh, gset.sh_degree, dirs)
    conics = np.stack([c, -b, a], axis=1) / (a * c - b * b)[:, None]

    # keep splats whose 3-sigma footprint meets the image, then sort them by
    # depth; near is ascending, so a stable sort breaks ties by set index
    rows = np.flatnonzero(
        (mean2d[:, 0] + radius >= -0.5) & (mean2d[:, 0] - radius <= K.width - 0.5)
        & (mean2d[:, 1] + radius >= -0.5) & (mean2d[:, 1] - radius <= K.height - 0.5))
    rows = rows[np.argsort(z[rows], kind="stable")]
    return tuple(np.take(a, rows, axis=0) for a in (mean2d, conics, z, colors, opacities,
                                                    radius, near))


def bin_tiles(tx0, tx1, ty0, ty1, nx: int, ny: int):
    """Splat rows per tile from each splat's inclusive tile rectangle.

    The 3DGS scheme (Kerbl et al. 2023): every splat is repeated once per
    tile it overlaps, the (tile, row) pairs are stably sorted by tile, and
    tile t holds rows[bounds[t] : bounds[t + 1]], in ascending row order.
    """
    span_x = tx1 - tx0 + 1
    counts = span_x * (ty1 - ty0 + 1)
    rows = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    span_x = span_x[rows]
    tile = (ty0[rows] + offset // span_x) * nx + tx0[rows] + offset % span_x
    by_tile = np.argsort(tile, kind="stable")
    bounds = np.searchsorted(tile[by_tile], np.arange(nx * ny + 1))
    return rows[by_tile], bounds


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
    tx0 = np.clip(((mean2d[:, 0] - radius) // TILE).astype(int), 0, nx - 1)
    tx1 = np.clip(((mean2d[:, 0] + radius) // TILE).astype(int), 0, nx - 1)
    ty0 = np.clip(((mean2d[:, 1] - radius) // TILE).astype(int), 0, ny - 1)
    ty1 = np.clip(((mean2d[:, 1] + radius) // TILE).astype(int), 0, ny - 1)
    rows, bounds = bin_tiles(tx0, tx1, ty0, ty1, nx, ny)

    def do_tile(t):
        ty, tx = divmod(t, nx)
        sel = rows[bounds[t] : bounds[t + 1]]
        x0, y0 = tx * TILE, ty * TILE
        tw = min(TILE, w - x0)
        th = min(TILE, h - y0)
        tile_rgb = np.zeros((th, tw, k))
        tile_T = np.ones((th, tw))
        composite_tile(mean2d[sel], conics[sel], colors[sel], ops[sel],
                       x0, y0, tile_rgb, tile_T)
        rgb[y0 : y0 + th, x0 : x0 + tw] = tile_rgb
        transmit[y0 : y0 + th, x0 : x0 + tw] = tile_T

    tiles = np.flatnonzero(np.diff(bounds)).tolist()
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
    """MSE / PSNR (capped at 99 dB) / SSIM for images in [0, 1]."""
    if a.shape != b.shape:
        raise InvalidInputError("metric inputs must share shape")
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
