"""Per-view feature maps, plane-sweep cost volumes and depth regression.

The learned 2D backbone is replaced by a deterministic gradient descriptor
sized by FeatureExtractorSpec; everything downstream only assumes a per-view
feature grid at 1/s resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import plane_sweep
from .errors import InvalidInputError
from .geometry import CameraView, DepthMap, Intrinsics, bilinear_sample
# unused here, but perfbench/run.py:install_trace wraps features.warp_feature by name
from .geometry import warp_feature  # noqa: F401

_ALLOWED_SCALES = (1, 2, 4, 8)
DEPTH_SPACINGS = ("linear", "inverse")
# Upper bounds that keep every per-pixel feature and cost-volume array to a
# size that can be allocated; larger values are config errors.
MAX_FEATURE_CHANNELS = 128
MAX_DEPTH_HYPOTHESES = 256


@dataclass
class FeatureMap:
    data: np.ndarray  # (H/s) x (W/s) x C
    scale_factor: int
    channels: int

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[2] != self.channels:
            raise InvalidInputError("feature data must be (H/s, W/s, C)")
        if self.scale_factor < 1:
            raise InvalidInputError("scale factor must be positive")


@dataclass
class CostVolume:
    scores: np.ndarray  # (H/s) x (W/s) x D
    depth_hypotheses: np.ndarray  # finite, strictly increasing, length D
    # (pixel, plane) cells with at least one valid neighbour; None if not counted
    valid_cells: Optional[int] = None

    def __post_init__(self):
        d = np.asarray(self.depth_hypotheses, dtype=float)
        if not np.all(np.isfinite(d)):
            raise InvalidInputError("depth hypotheses must be finite")
        if d.size < 2 or np.any(np.diff(d) <= 0):
            raise InvalidInputError("need >= 2 strictly increasing depth hypotheses")
        if self.scores.shape[-1] != d.size:
            raise InvalidInputError("score depth axis does not match hypotheses")
        if not np.all(np.isfinite(self.scores)):
            raise InvalidInputError("scores must be finite")
        self.depth_hypotheses = d


@dataclass(frozen=True)
class FeatureExtractorSpec:
    channels: int = 32
    scale: int = 4

    def __post_init__(self):
        if not 1 <= self.channels <= MAX_FEATURE_CHANNELS:
            raise InvalidInputError(
                f"feature.channels must be 1 to {MAX_FEATURE_CHANNELS}, got {self.channels}")
        if self.scale not in _ALLOWED_SCALES:
            raise InvalidInputError(f"feature.scale must be one of {_ALLOWED_SCALES}, "
                                    f"got {self.scale}")


def _luma(img: np.ndarray) -> np.ndarray:
    return img @ np.array([0.299, 0.587, 0.114])


def _block_mean(a: np.ndarray, s: int) -> np.ndarray:
    h, w = a.shape[:2]
    return a.reshape(h // s, s, w // s, s, *a.shape[2:]).mean(axis=(1, 3))


def _gradient_descriptor(img: np.ndarray, spec: FeatureExtractorSpec) -> np.ndarray:
    # Forward differences so a period-2 pattern still registers edges;
    # the trailing row/column is replicated (zero gradient there).
    y = _luma(img)
    gx = np.zeros_like(y)
    gy = np.zeros_like(y)
    gx[:, :-1] = y[:, 1:] - y[:, :-1]
    gy[:-1, :] = y[1:, :] - y[:-1, :]
    # RGB first so downstream color-copy decoding can read channels 0..2.
    # Color and luma are centered at 0.5: zero-mean descriptors make the
    # plane-sweep dot product behave like a correlation, so misaligned
    # warps score near zero instead of rewarding bright regions.
    base = np.stack([img[..., 0] - 0.5, img[..., 1] - 0.5, img[..., 2] - 0.5,
                     y - 0.5, gx, gy], axis=-1)
    reps = -(-spec.channels // base.shape[-1])
    feat = np.tile(base, (1, 1, reps))[..., : spec.channels]
    return _block_mean(feat, spec.scale)


def extract_features(view: CameraView, spec: FeatureExtractorSpec) -> FeatureMap:
    """Turn a view into its deterministic (H/s, W/s, C) feature grid."""
    img = np.asarray(view.image, dtype=float)
    h, w = img.shape[:2]
    if h % spec.scale or w % spec.scale:
        raise InvalidInputError("image size must be divisible by the feature scale")
    return FeatureMap(data=_gradient_descriptor(img, spec), scale_factor=spec.scale,
                      channels=spec.channels)


def sample_depth_hypotheses(near: float, far: float, count: int, spacing: str = "inverse"):
    """D candidate depths between near and far, endpoints included exactly."""
    if not (0 < near < far and np.isfinite(far)):
        raise InvalidInputError(f"need 0 < near < far < inf, got ({near}, {far})")
    if count < 2:
        raise InvalidInputError("need at least 2 hypotheses")
    if spacing == "linear":
        d = np.linspace(near, far, count)
    elif spacing == "inverse":
        d = 1.0 / np.linspace(1.0 / near, 1.0 / far, count)
        d[0], d[-1] = near, far
    else:
        raise InvalidInputError(f"unknown spacing {spacing!r}")
    if not np.all(np.isfinite(d)):  # 1 / near overflows for a subnormal near
        raise InvalidInputError(f"depth hypotheses over ({near}, {far}) are not finite")
    return d


def build_cost_volume(
    ref: FeatureMap,
    neighbors: Sequence[Tuple[FeatureMap, tuple]],
    ref_cam: tuple,
    hypotheses,
) -> CostVolume:
    """Plane-sweep dot-product matching volume for one reference view.

    Cameras are (Intrinsics, Extrinsics) at feature resolution. Each
    neighbor is one `plane_sweep` call that adds its scores and valid counts
    into the volume, in the order the neighbors are given; scores are then
    the channel-normalized means over the neighbors with valid warps, and
    `valid_cells` counts the (pixel, plane) cells with at least one.
    """
    if len(neighbors) == 0:
        raise InvalidInputError("need at least one neighbor view")
    hyp = np.asarray(hypotheses, dtype=float)
    if not np.all((hyp > 0) & np.isfinite(hyp)):
        raise InvalidInputError("depth hypotheses must be positive and finite")
    if any(nb_feat.data.shape != ref.data.shape for nb_feat, _ in neighbors):
        raise InvalidInputError("all feature maps must share shape")
    h, w, _ = ref.data.shape
    acc = np.zeros((h, w, hyp.size))
    n_valid = np.zeros((h, w, hyp.size))
    ref_data = np.ascontiguousarray(ref.data, dtype=np.float64)
    for nb_feat, nb_cam in neighbors:
        plane_sweep(ref_data, np.ascontiguousarray(nb_feat.data, dtype=np.float64),
                    ref_cam, nb_cam, hyp, acc, n_valid)
    scores = np.divide(acc, n_valid, out=np.zeros_like(acc), where=n_valid > 0)
    return CostVolume(scores=scores, depth_hypotheses=hyp,
                      valid_cells=int(np.count_nonzero(n_valid)))


def regress_depth(cv: CostVolume, temperature: float = 0.05) -> DepthMap:
    """Softargmax over the depth axis of a cost volume."""
    if temperature <= 0:
        raise InvalidInputError("temperature must be positive")
    s = cv.scores / temperature
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    w /= w.sum(axis=-1, keepdims=True)
    depth = w @ cv.depth_hypotheses
    return DepthMap(values=depth)


def _upsample_coords(n_dst: int, ratio: int) -> np.ndarray:
    # Pixel-center mapping; endpoints extrapolate by edge clamping.
    return (np.arange(n_dst) + 0.5) / ratio - 0.5


def bilinear_upsample(src: np.ndarray, target: tuple) -> np.ndarray:
    """Upsample an H x W (or H x W x C) array by an integer factor."""
    h, w = src.shape[:2]
    th, tw = target
    if th % h or tw % w or th // h != tw // w:
        raise InvalidInputError(f"target {target} is not an integer multiple of {(h, w)}")
    ratio = th // h
    if ratio == 1:
        return src.copy()
    xs = np.clip(_upsample_coords(tw, ratio), 0, w - 1)
    ys = np.clip(_upsample_coords(th, ratio), 0, h - 1)
    u, v = np.meshgrid(xs, ys)
    if src.ndim == 2:
        out, _ = bilinear_sample(src[..., None], u, v)
        return out[..., 0]
    out, _ = bilinear_sample(src, u, v)
    return out


def upsample_depth(d: DepthMap, target: tuple) -> DepthMap:
    """Bilinear depth upsampling with conservative validity propagation."""
    values = bilinear_upsample(d.values, target)
    # A target pixel stays valid only if every contributing source pixel is.
    inv = bilinear_upsample((~d.valid_mask).astype(float), target)
    mask = inv == 0.0
    values = np.where(mask, values, 1.0)  # placeholder on invalid cells
    return DepthMap(values=values, valid_mask=mask)
