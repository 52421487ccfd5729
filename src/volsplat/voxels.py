"""Lifting pixels to world points, the voxel key code and average-pooled voxelization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InvalidInputError
from .features import bilinear_upsample
from .geometry import CameraView, DepthMap, unproject_pixel
from .sceneio import finite_number


@dataclass
class FeaturedPointCloud:
    positions: np.ndarray  # M x 3
    features: np.ndarray  # M x C

    def __post_init__(self):
        if self.features.shape[0] != self.positions.shape[0]:
            raise InvalidInputError("point cloud arrays disagree on length")
        if not np.all(np.isfinite(self.positions)):
            raise InvalidInputError("positions must be finite")

    def __len__(self):
        return self.positions.shape[0]


@dataclass
class SparseVoxelGrid:
    voxel_size: float
    keys: np.ndarray  # V x 3 int64, in ascending code order
    features: np.ndarray  # V x C
    counts: np.ndarray  # V

    def __post_init__(self):
        if np.any(self.counts < 1):
            raise InvalidInputError("every voxel needs count >= 1")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("voxel features must be finite")

    def __len__(self):
        return self.keys.shape[0]


# A voxel key (z, y, x) packs into one int64 code, 21 bits per axis biased by
# _BIAS, and codes ascend in (z, y, x) order. The sparse U-Net encodes each key
# k's neighbours k +- 1 and its level-1 children 2 * (k >> 1) + (-1, 0, 1):
# all are in range for |k| <= _MAX_KEY.
_BITS = 21
_BIAS = 1 << (_BITS - 1)
_MAX_KEY = _BIAS - 2


def _encode(coords: np.ndarray) -> np.ndarray:
    c = coords.astype(np.int64) + _BIAS
    if np.any(c < 0) or np.any(c >= (1 << _BITS)):
        raise InvalidInputError("voxel coordinates out of supported range")
    return (c[:, 0] << (2 * _BITS)) | (c[:, 1] << _BITS) | c[:, 2]


def check_voxel_size(voxel_size: float) -> None:
    if not (finite_number(voxel_size) and voxel_size > 0):
        raise InvalidInputError(f"voxel.size must be a positive finite number, got {voxel_size!r}")


def voxel_index(p: np.ndarray, voxel_size: float) -> np.ndarray:
    """Nearest-integer voxel key of world point(s), (..., 3) -> int64.

    Rounding is half-away-from-zero. Quotients within a few ulps of an
    exact half-integer are snapped to it first so that tie handling does
    not depend on division rounding (e.g. 0.15/0.1 evaluating below 1.5).
    A key beyond +-_MAX_KEY on any axis, which the sparse U-Net could not
    encode, is an error.
    """
    check_voxel_size(voxel_size)
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("points must be finite")
    # an infinite quotient needs no warning: the range test below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        q = p / voxel_size
        doubled = 2.0 * q
        nearest = np.rint(doubled)
        snap = np.abs(doubled - nearest) <= 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(doubled))
        q = np.where(snap, nearest / 2.0, q)
        # the fraction q - trunc(q) is exact, where |q| + 0.5 rounds from 2^52 up
        whole = np.trunc(q)
        key = whole + np.copysign(np.abs(q - whole) >= 0.5, q)
    if not np.all(np.abs(key) <= _MAX_KEY):
        raise InvalidInputError(f"voxel keys outside [-{_MAX_KEY}, {_MAX_KEY}]: "
                                f"points too far for voxel size {voxel_size}")
    return key.astype(np.int64)


def voxel_center(key, voxel_size: float) -> np.ndarray:
    """World position whose voxel_index is exactly `key`."""
    check_voxel_size(voxel_size)
    return np.asarray(key, dtype=float) * voxel_size


def lift_views(
    views: Sequence[CameraView],
    features: Sequence[np.ndarray],
    depths: Sequence[DepthMap],
) -> FeaturedPointCloud:
    """Unproject every valid pixel of every view, carrying its feature.

    Each view's features are an (H/s, W/s, C) array; below full resolution
    they are bilinearly upsampled so each pixel owns a feature vector.
    """
    if not (len(views) == len(features) == len(depths)):
        raise InvalidInputError("views/features/depths lists must align")
    pos_chunks: List[np.ndarray] = []
    feat_chunks: List[np.ndarray] = []
    for view, feat, depth in zip(views, features, depths):
        h, w = view.image.shape[:2]
        if depth.values.shape != (h, w):
            raise InvalidInputError("depth map must be at full image resolution")
        if feat.shape[:2] != (h, w):
            feat = bilinear_upsample(feat, (h, w))
        mask = depth.valid_mask
        vs, us = np.nonzero(mask)
        if vs.size == 0:
            continue
        pts = unproject_pixel(
            us.astype(float), vs.astype(float), depth.values[vs, us],
            view.intrinsics, view.extrinsics,
        )
        pos_chunks.append(pts)
        feat_chunks.append(feat[vs, us])
    if not pos_chunks:
        c = features[0].shape[2] if features else 0
        return FeaturedPointCloud(np.zeros((0, 3)), np.zeros((0, c)))
    return FeaturedPointCloud(
        positions=np.concatenate(pos_chunks),
        features=np.concatenate(feat_chunks),
    )


def voxelize(cloud: FeaturedPointCloud, voxel_size: float) -> SparseVoxelGrid:
    """Average-pool point features into their voxels.

    Each voxel sums its points in list order (a stable sort by code), so the
    means depend on the order of the points. `run_pipeline` sorts its views
    before lifting them, which makes that order independent of the input
    order.
    """
    keys = voxel_index(cloud.positions, voxel_size)
    codes = _encode(keys)
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))  # codes are >= 0
    counts = np.diff(np.append(starts, len(keys)))
    sums = np.add.reduceat(cloud.features[order], starts, axis=0)
    return SparseVoxelGrid(
        voxel_size=voxel_size,
        keys=keys[order[starts]],
        features=sums / counts[:, None],
        counts=counts.astype(np.int64),
    )
