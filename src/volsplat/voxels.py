"""Lifting pixels to world points and average-pooled sparse voxelization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InvalidInputError
from .features import FeatureMap, bilinear_upsample
from .geometry import CameraView, DepthMap, unproject_pixel


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
    keys: np.ndarray  # V x 3 int64, sorted lexicographically
    features: np.ndarray  # V x C
    counts: np.ndarray  # V

    def __post_init__(self):
        if np.any(self.counts < 1):
            raise InvalidInputError("every voxel needs count >= 1")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("voxel features must be finite")

    def __len__(self):
        return self.keys.shape[0]


def voxel_index(p: np.ndarray, voxel_size: float) -> np.ndarray:
    """Nearest-integer voxel key of world point(s), (..., 3) -> int64.

    Rounding is half-away-from-zero. Quotients within a few ulps of an
    exact half-integer are snapped to it first so that tie handling does
    not depend on division rounding (e.g. 0.15/0.1 evaluating below 1.5).
    A key that does not fit in int64 is an error.
    """
    if voxel_size <= 0:
        raise InvalidInputError("voxel size must be positive")
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
    if not np.all((key >= -2.0**63) & (key < 2.0**63)):
        raise InvalidInputError(
            f"voxel keys do not fit in int64: points too far for voxel size {voxel_size}")
    return key.astype(np.int64)


def voxel_center(key, voxel_size: float) -> np.ndarray:
    """World position whose voxel_index is exactly `key`."""
    if voxel_size <= 0:
        raise InvalidInputError("voxel size must be positive")
    return np.asarray(key, dtype=float) * voxel_size


def lift_views(
    views: Sequence[CameraView],
    features: Sequence[FeatureMap],
    depths: Sequence[DepthMap],
) -> FeaturedPointCloud:
    """Unproject every valid pixel of every view, carrying its feature.

    Feature maps below full resolution are bilinearly upsampled so each
    pixel owns a feature vector.
    """
    if not (len(views) == len(features) == len(depths)):
        raise InvalidInputError("views/features/depths lists must align")
    pos_chunks: List[np.ndarray] = []
    feat_chunks: List[np.ndarray] = []
    for view, fmap, depth in zip(views, features, depths):
        h, w = view.image.shape[:2]
        if depth.values.shape != (h, w):
            raise InvalidInputError("depth map must be at full image resolution")
        feat = fmap.data
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
        c = features[0].channels if features else 0
        return FeaturedPointCloud(np.zeros((0, 3)), np.zeros((0, c)))
    return FeaturedPointCloud(
        positions=np.concatenate(pos_chunks),
        features=np.concatenate(feat_chunks),
    )


def voxelize(cloud: FeaturedPointCloud, voxel_size: float) -> SparseVoxelGrid:
    """Average-pool point features into their voxels.

    Each voxel sums its points in list order (a stable sort by key), so the
    means depend on the order of the points. `run_pipeline` sorts its views
    before lifting them, which makes that order independent of the input
    order.
    """
    if voxel_size <= 0:
        raise InvalidInputError("voxel size must be positive")
    m = len(cloud)
    c = cloud.features.shape[1] if cloud.features.ndim == 2 else 0
    if m == 0:
        return SparseVoxelGrid(voxel_size, np.zeros((0, 3), np.int64), np.zeros((0, c)), np.zeros(0, np.int64))
    keys = voxel_index(cloud.positions, voxel_size)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys = keys[order]
    feats = cloud.features[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.nonzero(new_group)[0]
    counts = np.diff(np.append(starts, m))
    sums = np.add.reduceat(feats, starts, axis=0)
    return SparseVoxelGrid(
        voxel_size=voxel_size,
        keys=keys[starts],
        features=sums / counts[:, None],
        counts=counts.astype(np.int64),
    )
