"""Pinhole camera models, pixel/world transforms and plane-sweep warping.

Conventions used throughout the engine:
  * integer pixel coordinates address pixel centers,
  * extrinsics are stored camera->world (p_world = R @ p_cam + T),
  * depth means z-depth in the camera frame, never ray length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BehindCameraError, InvalidInputError

_ORTHO_TOL = 1e-9
# `bilinear_sample` snaps a coordinate this close to an integer onto it, so a
# self-warp is an exact identity; the C plane sweep reads it as a -D macro
SNAP_TOL = 1e-9


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.fx, self.fy, self.cx, self.cy)):
            raise InvalidInputError(
                f"intrinsics must be finite, got fx={self.fx} fy={self.fy} "
                f"cx={self.cx} cy={self.cy}"
            )
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidInputError("principal point must lie inside the image")

    def scaled(self, s: int) -> "Intrinsics":
        """Intrinsics of the s-times downsampled feature grid.

        Feature cell (x, y) sits at full-res pixel ((x + 0.5) s - 0.5,
        (y + 0.5) s - 0.5); this is the matching intrinsic rescale.
        """
        return Intrinsics(
            fx=self.fx / s,
            fy=self.fy / s,
            cx=(self.cx + 0.5) / s - 0.5,
            cy=(self.cy + 0.5) / s - 0.5,
            width=self.width // s,
            height=self.height // s,
        )


@dataclass(frozen=True)
class Extrinsics:
    """Camera-to-world rigid transform."""

    R: np.ndarray  # 3x3 rotation, camera->world
    T: np.ndarray  # 3-vector, world units

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        T = np.asarray(self.T, dtype=float).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", T)
        if not np.all(np.isfinite(T)):
            raise InvalidInputError("translation must be finite")
        if not np.allclose(R.T @ R, np.eye(3), atol=_ORTHO_TOL):
            raise InvalidInputError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise InvalidInputError("rotation determinant must be +1")

    @staticmethod
    def identity() -> "Extrinsics":
        return Extrinsics(np.eye(3), np.zeros(3))

    def world_to_cam(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        p = np.asarray(points, dtype=float)
        return (p - self.T) @ self.R


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """(N, 4) unit quaternions (w, x, y, z) -> (N, 3, 3) rotations."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


@dataclass
class CameraView:
    """One input image with its calibrated camera and optional true depth.

    A true depth given without a mask is valid at every pixel: the view
    then stores an all-true mask."""

    image: np.ndarray  # H x W x 3, values in [0, 1]
    intrinsics: Intrinsics
    extrinsics: Extrinsics
    gt_depth: Optional[np.ndarray] = None
    gt_depth_mask: Optional[np.ndarray] = None  # H x W bool, where gt_depth is valid

    def __post_init__(self):
        h, w = self.image.shape[:2]
        if (w, h) != (self.intrinsics.width, self.intrinsics.height):
            raise InvalidInputError(
                f"image {w}x{h} does not match intrinsics "
                f"{self.intrinsics.width}x{self.intrinsics.height}"
            )
        if self.gt_depth is not None:
            if self.gt_depth.shape != (h, w):
                raise InvalidInputError("gt_depth shape mismatch")
            if self.gt_depth_mask is None:
                self.gt_depth_mask = np.ones((h, w), bool)
            mask = self.gt_depth_mask
            if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (h, w):
                raise InvalidInputError(
                    f"gt_depth_mask must be a boolean array of shape ({h}, {w})")
            depth = self.gt_depth[mask]
            if not np.all(np.isfinite(depth)) or np.any(depth <= 0):
                raise InvalidInputError("gt_depth must be finite and strictly positive where valid")


@dataclass
class DepthMap:
    values: np.ndarray  # H x W, world units
    valid_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.valid_mask is None:
            self.valid_mask = np.ones(self.values.shape, dtype=bool)
        if self.valid_mask.shape != self.values.shape:
            raise InvalidInputError("valid_mask shape mismatch")
        if np.any(self.values[self.valid_mask] <= 0):
            raise InvalidInputError("depths must be positive where valid")


def unproject_pixel(u, v, depth, K: Intrinsics, E: Extrinsics) -> np.ndarray:
    """Lift pixel (u, v) at z-depth `depth` to a world-space point.

    Broadcasts over array-valued u/v/depth.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0):
        raise InvalidInputError("depth must be positive")
    x = (u - K.cx) / K.fx * depth
    y = (v - K.cy) / K.fy * depth
    p_cam = np.stack(np.broadcast_arrays(x, y, depth), axis=-1)
    return p_cam @ E.R.T + E.T


def project_point(p, K: Intrinsics, E: Extrinsics, *, clip: bool = True):
    """Project world point(s) to (u, v, depth). Inverse of unproject_pixel.

    With clip=False points behind the camera are returned with their
    (negative) depth instead of raising; callers that cull do their own check.
    """
    p_cam = E.world_to_cam(p)
    z = p_cam[..., 2]
    if clip and np.any(z <= 0):
        raise BehindCameraError("point has non-positive camera depth")
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * p_cam[..., 0] / z + K.cx
        v = K.fy * p_cam[..., 1] / z + K.cy
    return u, v, z


def bilinear_sample(data: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Sample H x W x C float `data` at float coords with zero padding.

    Returns (samples, valid) where valid marks fully in-bounds footprints.
    Taps outside the grid read zero. Non-finite coordinates sample zero and
    are never valid.

    The four taps are gathered with `np.take` from a flat copy of `data`
    inside a two-cell zero border, with the base cell clipped into that
    border; taps that fall off the grid read +0.0 there. For finite data
    the result is bit-identical to masking each tap and gathering only the
    in-bounds ones: the sum starts from +0.0 and adds the taps in the same
    order, and a +0.0 or -0.0 term leaves any partial sum unchanged.
    """
    h, w = data.shape[:2]
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # snap near-integer coords so self-warps are exact identities
    ur = np.rint(u)
    vr = np.rint(v)
    u = np.where(np.abs(u - ur) < SNAP_TOL, ur, u)
    v = np.where(np.abs(v - vr) < SNAP_TOL, vr, v)
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    # a non-finite coordinate samples the border: all four taps read zero
    finite = np.isfinite(u) & np.isfinite(v)
    u = np.where(finite, u, -2.0)
    v = np.where(finite, v, -2.0)
    x0 = np.floor(u)
    y0 = np.floor(v)
    fx = u - x0
    fy = v - y0
    # With two border cells, a base clipped to -2 or to w keeps its +1 tap
    # off the grid as well.
    pw = w + 4
    base = (np.clip(y0, -2, h).astype(np.int64) + 2) * pw + np.clip(x0, -2, w).astype(np.int64) + 2

    # Taps are weighted in the precision of data * weight and only then
    # added into `out`, as a direct `out += data[...] * weight` would.
    padded = np.zeros((h + 4, pw) + data.shape[2:], dtype=np.result_type(data, fx))
    padded[2 : h + 2, 2 : w + 2] = data
    flat = padded.reshape((h + 4) * pw, -1)

    out = np.zeros(u.shape + flat.shape[1:], dtype=data.dtype)
    for offset, weight in (
        (0, (1 - fx) * (1 - fy)),
        (1, fx * (1 - fy)),
        (pw, (1 - fx) * fy),
        (pw + 1, fx * fy),
    ):
        tap = np.take(flat, base + offset, axis=0)
        tap *= weight[..., None]
        out += tap
    return out.reshape(u.shape + data.shape[2:]), valid


def warp_grid(
    ref_K: Intrinsics,
    ref_E: Extrinsics,
    src_K: Intrinsics,
    src_E: Extrinsics,
    depth_plane: float,
    shape: tuple,
):
    """Reprojection coords of each ref pixel at a fronto-parallel depth plane."""
    if depth_plane <= 0:
        raise InvalidInputError("depth_plane must be positive")
    h, w = shape
    vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    pts = unproject_pixel(us, vs, np.full((h, w), float(depth_plane)), ref_K, ref_E)
    u, v, z = project_point(pts, src_K, src_E, clip=False)
    u = np.where(z > 0, u, -1e9)
    v = np.where(z > 0, v, -1e9)
    return u, v


def warp_feature(
    src_data: np.ndarray,
    src_cam: tuple,
    ref_cam: tuple,
    depth_plane: float,
):
    """Warp a source feature grid onto the reference view at one depth plane.

    `src_cam` / `ref_cam` are (Intrinsics, Extrinsics) pairs *at feature
    resolution*. Returns (warped, valid).
    """
    src_K, src_E = src_cam
    ref_K, ref_E = ref_cam
    u, v = warp_grid(ref_K, ref_E, src_K, src_E, depth_plane, src_data.shape[:2])
    return bilinear_sample(src_data, u, v)
