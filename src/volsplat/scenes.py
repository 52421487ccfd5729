"""Analytic multi-view test scenes with exact ground-truth depth.

Each scene kind stresses a different stage: textured-wall (depth
regression), two-planes (occlusion), sphere (curvature), gaussian-garden
(renderer roundtrip, also returns the ground-truth Gaussian set).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .gaussians import SH_C0, GaussianSet
from .geometry import CameraView, Extrinsics, Intrinsics
from .renderer import _project_all, rasterize, render
from .sceneio import read_json

DEFAULT_UP = (0.0, -1.0, 0.0)  # image-up in world coordinates (y points down)

_KINDS = ("textured-wall", "two-planes", "sphere", "gaussian-garden")


@dataclass
class CameraPose:
    position: Tuple[float, float, float]
    look_at: Tuple[float, float, float]
    up: Tuple[float, float, float] = DEFAULT_UP

    def __post_init__(self):
        for name in ("position", "look_at", "up"):
            v = getattr(self, name)
            if len(v) != 3 or not all(isinstance(c, numbers.Real) and not isinstance(c, bool)
                                      and math.isfinite(c) for c in v):
                raise InvalidInputError(f"camera {name} must be 3 finite numbers, got {v!r}")


@dataclass
class SceneSpec:
    kind: str
    cameras: List[CameraPose]
    image_size: Tuple[int, int] = (64, 64)  # (W, H)
    seed: int = 0
    near: float = 0.5
    far: float = 10.0
    fov_deg: float = 60.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown scene kind {self.kind!r}")
        if len(self.cameras) < 2:
            raise InvalidInputError("a scene needs at least two cameras")
        if not 0 < self.near < self.far:
            raise InvalidInputError("need 0 < near < far")
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")
        if len(self.image_size) != 2 or not all(type(v) is int and v > 0 for v in self.image_size):
            raise InvalidInputError(f"image_size must be 2 positive integers, got {self.image_size}")
        if not isinstance(self.params, dict):
            raise InvalidInputError(f"params must be an object, got {self.params!r}")

    @staticmethod
    def from_json(path_or_dict) -> "SceneSpec":
        d = path_or_dict
        if not isinstance(d, dict):
            d = read_json(path_or_dict, "scene spec")
        try:
            cams = [
                CameraPose(tuple(c["position"]), tuple(c["look_at"]),
                           tuple(c.get("up", DEFAULT_UP)))
                for c in d["cameras"]
            ]
            return SceneSpec(
                kind=d["kind"], cameras=cams,
                image_size=tuple(d.get("image_size", (64, 64))),
                seed=d.get("seed", 0),
                near=float(d.get("near", 0.5)), far=float(d.get("far", 10.0)),
                fov_deg=float(d.get("fov_deg", 60.0)),
                params=d.get("params", {}),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidInputError(f"bad scene spec: {e}") from e


def _param(spec: SceneSpec, key: str, default):
    """`spec.params[key]` (or `default`) as finite floats shaped like `default`."""
    value = spec.params.get(key, default)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.array(np.nan)  # not numbers: rejected below
    if arr.shape != np.shape(default) or not np.all(np.isfinite(arr)):
        raise InvalidInputError(
            f"scene param {key!r} must be finite and shaped like {default}, got {value!r}")
    return arr if arr.ndim else float(arr)


def look_at_extrinsics(position, target, up=DEFAULT_UP) -> Extrinsics:
    """Camera->world pose for a camera at `position` looking at `target`."""
    pos = np.asarray(position, float)
    fwd = np.asarray(target, float) - pos
    n = np.linalg.norm(fwd)
    if n == 0:
        raise InvalidInputError("look-at target coincides with camera position")
    z = fwd / n
    x = np.cross(z, np.asarray(up, float))
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise InvalidInputError("up vector is parallel to the view direction")
    x /= nx
    y = np.cross(z, x)
    return Extrinsics(np.stack([x, y, z], axis=1), pos)


def _intrinsics(spec: SceneSpec) -> Intrinsics:
    w, h = spec.image_size
    f = 0.5 * w / np.tan(np.radians(spec.fov_deg) / 2)
    return Intrinsics(fx=f, fy=f, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)


def _value_noise(rng_seed: int, shape=(16, 16, 3)):
    grid = np.random.default_rng(rng_seed).uniform(0.1, 0.9, size=shape)

    def sample(x, y):
        """Smooth periodic color field over world coordinates."""
        gx = np.mod(np.asarray(x, float), 1.0) * shape[1]
        gy = np.mod(np.asarray(y, float), 1.0) * shape[0]
        x0 = np.floor(gx).astype(int)
        y0 = np.floor(gy).astype(int)
        fx = (gx - x0)[..., None]
        fy = (gy - y0)[..., None]
        x0 %= shape[1]
        y0 %= shape[0]
        x1 = (x0 + 1) % shape[1]
        y1 = (y0 + 1) % shape[0]
        return ((grid[y0, x0] * (1 - fx) + grid[y0, x1] * fx) * (1 - fy)
                + (grid[y1, x0] * (1 - fx) + grid[y1, x1] * fx) * fy)

    return sample


def _ray_grid(K: Intrinsics, E: Extrinsics):
    """World-space direction R @ K^-1 [u, v, 1] for every pixel."""
    vs, us = np.meshgrid(np.arange(K.height, dtype=float), np.arange(K.width, dtype=float), indexing="ij")
    m = np.stack([(us - K.cx) / K.fx, (vs - K.cy) / K.fy, np.ones_like(us)], axis=-1)
    return m @ E.R.T


def _plane_depth(E: Extrinsics, dirs: np.ndarray, plane_z: float):
    """Per-pixel z-depth lambda with origin + lambda * dirs hitting z = plane_z."""
    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (plane_z - E.T[2]) / dz
    return lam


def _shade_wall(spec: SceneSpec, E: Extrinsics, dirs, lam, tex, tex_scale):
    hit = E.T + lam[..., None] * dirs
    return tex(hit[..., 0] / tex_scale, hit[..., 1] / tex_scale)


def synthesize(spec: SceneSpec):
    """Render the scene for every camera.

    Returns (views, gt_gaussians); gt_gaussians is None except for
    gaussian-garden.
    """
    K = _intrinsics(spec)
    tex = _value_noise(spec.seed)
    views: List[CameraView] = []
    gt_set: Optional[GaussianSet] = None

    if spec.kind == "gaussian-garden":
        gt_set = _garden_gaussians(spec)

    for pose in spec.cameras:
        E = look_at_extrinsics(pose.position, pose.look_at, pose.up)
        dirs = _ray_grid(K, E)
        if spec.kind == "textured-wall":
            wall_z = _param(spec, "wall_z", 2.0)
            scale = _param(spec, "texture_scale", 2.0)
            lam = _plane_depth(E, dirs, wall_z)
            if np.any(lam <= 0):
                raise InvalidInputError("wall is not fully in front of a camera")
            img = _shade_wall(spec, E, dirs, lam, tex, scale)
            depth, mask = lam, np.ones(lam.shape, bool)
        elif spec.kind == "two-planes":
            z1 = _param(spec, "near_z", 1.5)
            z2 = _param(spec, "far_z", 3.0)
            half = _param(spec, "half_extent", 0.5)
            scale = _param(spec, "texture_scale", 2.0)
            lam2 = _plane_depth(E, dirs, z2)
            if np.any(lam2 <= 0):
                raise InvalidInputError("far plane is not fully in front of a camera")
            img = _shade_wall(spec, E, dirs, lam2, tex, scale)
            depth = lam2.copy()
            lam1 = _plane_depth(E, dirs, z1)
            hit1 = E.T + lam1[..., None] * dirs
            on_sq = (lam1 > 0) & (np.abs(hit1[..., 0]) <= half) & (np.abs(hit1[..., 1]) <= half)
            front = tex(hit1[..., 0] / scale + 0.5, hit1[..., 1] / scale + 0.5)
            img = np.where(on_sq[..., None], front, img)
            depth = np.where(on_sq, lam1, depth)
            mask = np.ones(depth.shape, bool)
        elif spec.kind == "sphere":
            center = _param(spec, "center", (0.0, 0.0, 2.0))
            radius = _param(spec, "radius", 0.6)
            z2 = _param(spec, "far_z", 4.0)
            scale = _param(spec, "texture_scale", 2.0)
            lam2 = _plane_depth(E, dirs, z2)
            if np.any(lam2 <= 0):
                raise InvalidInputError("backdrop is not fully in front of a camera")
            img = _shade_wall(spec, E, dirs, lam2, tex, scale)
            depth = lam2.copy()
            # |o + lam d - c|^2 = r^2 with non-unit d: solve the quadratic
            oc = E.T - center
            a = np.sum(dirs * dirs, axis=-1)
            b = 2 * np.sum(dirs * oc, axis=-1)
            c = float(oc @ oc) - radius * radius
            disc = b * b - 4 * a * c
            hit = disc > 0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            lam_s = (-b - sq) / (2 * a)
            hit &= lam_s > 0
            p = E.T + lam_s[..., None] * dirs
            n = (p - center) / radius
            light = np.asarray((0.4, -0.5, -0.75))
            light = light / np.linalg.norm(light)
            lambert = np.clip(np.sum(n * -light, axis=-1), 0.0, 1.0)
            albedo = tex(np.arctan2(n[..., 1], n[..., 0]) / (2 * np.pi),
                         np.arccos(np.clip(n[..., 2], -1, 1)) / np.pi)
            sph = albedo * (0.25 + 0.75 * lambert[..., None])
            img = np.where(hit[..., None], sph, img)
            depth = np.where(hit, lam_s, depth)
            mask = np.ones(depth.shape, bool)
        else:  # gaussian-garden
            out = render(gt_set, K, E, bg=(0.0, 0.0, 0.0))
            img = out.rgb
            depth, mask = _expected_depth(gt_set, K, E)
        views.append(
            CameraView(image=np.clip(img, 0.0, 1.0), intrinsics=K, extrinsics=E,
                       gt_depth=np.where(mask, depth, 1.0), gt_depth_mask=mask)
        )
    return views, gt_set


def _garden_gaussians(spec: SceneSpec) -> GaussianSet:
    """Jittered grid of opaque splats on a smooth height field.

    The surface fully covers the camera frustums, so accumulated alpha
    saturates and the expected-depth map is well defined everywhere.
    """
    rng = np.random.default_rng(spec.seed)
    n_side = spec.params.get("side", 48)
    if type(n_side) is not int or n_side < 2:
        raise InvalidInputError(f"scene param 'side' must be an integer >= 2, got {n_side!r}")
    ext = _param(spec, "half_extent", 1.6)
    z0 = _param(spec, "z_base", 2.0)
    amp = _param(spec, "z_amp", 0.15)
    size = _param(spec, "splat_scale", 0.07)
    tex = _value_noise(spec.seed + 1)
    height = _value_noise(spec.seed + 2)
    xs = np.linspace(-ext, ext, n_side)
    gx, gy = np.meshgrid(xs, xs)
    jitter = rng.uniform(-0.5, 0.5, (2,) + gx.shape) * (2 * ext / (n_side - 1))
    px = (gx + jitter[0]).ravel()
    py = (gy + jitter[1]).ravel()
    pz = z0 + amp * (height(px / (2 * ext) + 0.5, py / (2 * ext) + 0.5)[..., 0] * 2 - 1)
    centers = np.stack([px, py, pz], axis=1)
    colors = tex(px / (4 * ext) + 0.5, py / (4 * ext) + 0.5)
    n = centers.shape[0]
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    return GaussianSet(
        centers=centers,
        opacity_logits=np.full(n, 6.0),  # opacity ~ 0.9975
        log_scales=np.full((n, 3), np.log(size)),
        rotations=quats,
        sh=(colors - 0.5) / SH_C0,
        sh_degree=0,
    )


def _expected_depth(gset: GaussianSet, K: Intrinsics, E: Extrinsics):
    """Alpha-weighted mean splat depth per pixel; valid where alpha > 0.5.

    The splats are composited through the renderer's tile path with colour
    [z, 1, 0]: channel 0 accumulates sum(alpha T z) and channel 1 sum(alpha T).
    """
    mean2d, conics, z, _, ops, radius, _ = _project_all(gset, K, E)
    colors = np.stack([z, np.ones_like(z), np.zeros_like(z)], axis=1)
    rgb, _ = rasterize(mean2d, conics, colors, ops, radius, K.height, K.width)
    acc_d, acc_a = rgb[..., 0], rgb[..., 1]
    depth = np.divide(acc_d, acc_a, out=np.ones(acc_a.shape), where=acc_a > 0)
    return depth, acc_a > 0.5


def hold_out(views: Sequence, m: int):
    """Deterministic split: the last m views become render targets."""
    if m < 0:
        raise InvalidInputError(f"cannot hold out a negative number of views, got {m}")
    if m >= len(views):
        raise InvalidInputError("cannot hold out every view")
    return list(views[:len(views) - m]), list(views[len(views) - m:])
