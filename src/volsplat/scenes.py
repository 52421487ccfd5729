"""Analytic multi-view test scenes with exact ground-truth depth.

Each scene kind stresses a different stage: textured-wall (depth
regression), two-planes (occlusion), sphere (curvature), gaussian-garden
(renderer roundtrip, also returns the ground-truth Gaussian set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .gaussians import SH_C0, GaussianSet
from .geometry import CameraView, Extrinsics, Intrinsics
from .renderer import _project_all, rasterize
from .sceneio import finite_number, read_json

DEFAULT_UP = (0.0, -1.0, 0.0)  # image-up in world coordinates (y points down)

# The parameters each scene kind reads, with their defaults: a float, a tuple
# of floats for a point, or the garden's int `side` (splats per grid row).
_PARAMS = {
    "textured-wall": {"wall_z": 2.0, "texture_scale": 2.0},
    "two-planes": {"near_z": 1.5, "far_z": 3.0, "half_extent": 0.5, "texture_scale": 2.0},
    "sphere": {"center": (0.0, 0.0, 2.0), "radius": 0.6, "far_z": 4.0, "texture_scale": 2.0},
    "gaussian-garden": {"side": 48, "half_extent": 1.6, "z_base": 2.0, "z_amp": 0.15,
                        "splat_scale": 0.07},
}
# Every view holds several (H, W, 3) float arrays (rays, hits, texture taps),
# about 100 MB each at 2048 x 2048; a larger image side is a spec error.
MAX_IMAGE_SIDE = 2048
# A garden of side n holds n^2 splats, each projected and composited once per
# camera: 512 (262,144 splats) draws two 64 x 64 views in about 2.1 s and
# 185 MB on a 2-vCPU host, while 10^7 would ask numpy for hundreds of TiB.
MAX_GARDEN_SIDE = 512
# Every scene number lies within +-MAX_SCENE_NUMBER, each of _LENGTHS is at least
# MIN_LENGTH: at these limits every kind synthesizes with no numpy RuntimeWarning,
# while a radius of 1e200 overflows and a length of 0 or below draws nothing.
MAX_SCENE_NUMBER = 1e6
MIN_LENGTH = 1e-6
_LENGTHS = ("texture_scale", "radius", "half_extent", "splat_scale")


@dataclass
class CameraPose:
    position: Tuple[float, float, float]
    look_at: Tuple[float, float, float]
    up: Tuple[float, float, float] = DEFAULT_UP

    def __post_init__(self):
        for name in ("position", "look_at", "up"):
            v = getattr(self, name)
            if not _like(v, DEFAULT_UP):
                raise InvalidInputError(f"camera {name} must be 3 numbers within "
                                        f"+-{MAX_SCENE_NUMBER:g}, got {v!r}")
            setattr(self, name, tuple(v))


@dataclass
class SceneSpec:
    kind: str
    cameras: List[CameraPose]
    image_size: Tuple[int, int] = (64, 64)  # (W, H)
    seed: int = 0
    fov_deg: float = 60.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise InvalidInputError(f"unknown scene kind {self.kind!r}")
        if len(self.cameras) < 2:
            raise InvalidInputError("a scene needs at least two cameras")
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")
        self.image_size = tuple(self.image_size)
        if len(self.image_size) != 2 or not all(
                type(v) is int and 0 < v <= MAX_IMAGE_SIDE for v in self.image_size):
            raise InvalidInputError(f"image_size must be 2 integers from 1 to {MAX_IMAGE_SIDE}, "
                                    f"got {self.image_size}")
        if not (finite_number(self.fov_deg) and 0 < self.fov_deg < 180):
            raise InvalidInputError(f"fov_deg must be a number in (0, 180), got {self.fov_deg!r}")
        if not isinstance(self.params, dict):
            raise InvalidInputError(f"params must be an object, got {self.params!r}")
        table = _PARAMS[self.kind]
        for key, value in self.params.items():
            low = MIN_LENGTH if key in _LENGTHS else -MAX_SCENE_NUMBER
            if key not in table:
                raise InvalidInputError(f"unknown {self.kind} scene param {key!r}; "
                                        f"it takes {', '.join(table)}")
            if isinstance(table[key], int):  # the garden's `side`
                if type(value) is not int or not 2 <= value <= MAX_GARDEN_SIDE:
                    raise InvalidInputError(f"scene param {key!r} must be an integer from 2 to "
                                            f"{MAX_GARDEN_SIDE}, got {value!r}")
            elif not _like(value, table[key], low):
                raise InvalidInputError(f"scene param {key!r} must be shaped like {table[key]} and "
                                        f"within [{low:g}, {MAX_SCENE_NUMBER:g}], got {value!r}")

    @staticmethod
    def from_json(path_or_dict) -> "SceneSpec":
        """A spec from a dict or a JSON file of one; an unknown key is a spec error."""
        d = path_or_dict
        if not isinstance(d, dict):
            d = read_json(path_or_dict, "scene spec")
        try:
            cameras = [CameraPose(**c) for c in d["cameras"]]
            return SceneSpec(**{**d, "cameras": cameras})
        except (KeyError, TypeError) as e:
            raise InvalidInputError(f"bad scene spec: {e}") from e


def _like(value, default, low=-MAX_SCENE_NUMBER) -> bool:
    """Whether `value` has `default`'s shape, its numbers in [low, MAX_SCENE_NUMBER]."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(_like(v, 0.0, low) for v in value))
    return finite_number(value) and low <= value <= MAX_SCENE_NUMBER


def _params(spec: SceneSpec) -> dict:
    """Every parameter of the spec's kind, its default where the spec sets
    none, in its default's type; points as float arrays."""
    table = _PARAMS[spec.kind]
    return {k: np.asarray(v, float) if isinstance(table[k], tuple) else type(table[k])(v)
            for k, v in {**table, **spec.params}.items()}


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


def _plane_hit(E: Extrinsics, dirs: np.ndarray, plane_z: float):
    """Per-pixel z-depth lambda with origin + lambda * dirs on z = plane_z, and those points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (plane_z - E.T[2]) / dirs[..., 2]
        return lam, E.T + lam[..., None] * dirs


def synthesize(spec: SceneSpec):
    """Render the scene for every camera.

    Returns (views, gt_gaussians); gt_gaussians is None except for
    gaussian-garden.
    """
    K = _intrinsics(spec)
    tex = _value_noise(spec.seed)
    p = _params(spec)
    gt_set = _garden_gaussians(spec) if spec.kind == "gaussian-garden" else None
    views: List[CameraView] = []
    for pose in spec.cameras:
        E = look_at_extrinsics(pose.position, pose.look_at, pose.up)
        if gt_set is not None:
            img, depth, mask = _garden_view(gt_set, K, E)
        else:
            img, depth = _draw(spec.kind, p, tex, E, _ray_grid(K, E))
            mask = np.ones(depth.shape, bool)
        views.append(
            CameraView(image=np.clip(img, 0.0, 1.0), intrinsics=K, extrinsics=E,
                       gt_depth=np.where(mask, depth, 1.0), gt_depth_mask=mask)
        )
    return views, gt_set


def _draw(kind: str, p: dict, tex, E: Extrinsics, dirs):
    """(image, depth) of an analytic kind: its occluder over a textured backdrop plane."""
    depth, hit = _plane_hit(E, dirs, p["wall_z"] if kind == "textured-wall" else p["far_z"])
    if np.any(depth <= 0):
        raise InvalidInputError(f"the {kind} backdrop is not fully in front of a camera")
    scale = p["texture_scale"]
    img = tex(hit[..., 0] / scale, hit[..., 1] / scale)
    if kind == "two-planes":
        lam, hit = _plane_hit(E, dirs, p["near_z"])
        half = p["half_extent"]
        on_sq = (lam > 0) & (np.abs(hit[..., 0]) <= half) & (np.abs(hit[..., 1]) <= half)
        front = tex(hit[..., 0] / scale + 0.5, hit[..., 1] / scale + 0.5)
        return np.where(on_sq[..., None], front, img), np.where(on_sq, lam, depth)
    if kind == "sphere":
        center, radius = p["center"], p["radius"]
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
        n = (E.T + lam_s[..., None] * dirs - center) / radius
        light = np.asarray((0.4, -0.5, -0.75))
        light = light / np.linalg.norm(light)
        lambert = np.clip(np.sum(n * -light, axis=-1), 0.0, 1.0)
        albedo = tex(np.arctan2(n[..., 1], n[..., 0]) / (2 * np.pi),
                     np.arccos(np.clip(n[..., 2], -1, 1)) / np.pi)
        sph = albedo * (0.25 + 0.75 * lambert[..., None])
        return np.where(hit[..., None], sph, img), np.where(hit, lam_s, depth)
    return img, depth


def _garden_gaussians(spec: SceneSpec) -> GaussianSet:
    """Jittered grid of opaque splats on a smooth height field.

    The surface fully covers the camera frustums, so accumulated alpha
    saturates and the expected-depth map is well defined everywhere.
    """
    p = _params(spec)
    rng = np.random.default_rng(spec.seed)
    n_side, ext = p["side"], p["half_extent"]
    z0, amp, size = p["z_base"], p["z_amp"], p["splat_scale"]
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


def _garden_view(gset: GaussianSet, K: Intrinsics, E: Extrinsics):
    """(image, depth, mask) of one camera from one projection and one
    composite: the image on a black background, the alpha-weighted mean
    splat depth per pixel, and where alpha > 0.5.

    Each splat's colour is [r, g, b, z, 1], so channels 3 and 4 accumulate
    sum(alpha T z) and sum(alpha T) with the weights that make the image.
    """
    mean2d, conics, z, colors, ops, radius, _ = _project_all(gset, K, E)
    colors = np.column_stack([colors, z, np.ones_like(z)])
    acc, _ = rasterize(mean2d, conics, colors, ops, radius, K.height, K.width)
    acc_d, acc_a = acc[..., 3], acc[..., 4]
    depth = np.divide(acc_d, acc_a, out=np.ones(acc_a.shape), where=acc_a > 0)
    return np.clip(acc[..., :3], 0.0, 1.0), depth, acc_a > 0.5


def hold_out(views: Sequence, m: int):
    """Deterministic split: the last m views become render targets."""
    if m < 0:
        raise InvalidInputError(f"cannot hold out a negative number of views, got {m}")
    if m >= len(views):
        raise InvalidInputError("cannot hold out every view")
    return list(views[:len(views) - m]), list(views[len(views) - m:])
