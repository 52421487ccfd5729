"""Per-voxel Gaussian decoding, activation transforms and PLY export.

GaussianSet stores the same float32 payload the PLY format does (centers,
pre-activation opacity, log scales, quaternions, SH), so export/import is a
verbatim roundtrip; activated opacity/scale are derived properties.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormatError, InvalidInputError, WeightLoadError
from .geometry import quat_to_rotmat
from .sceneio import Payload, read_bytes
from .sparse_unet import SparseTensor, WeightBlob
from .voxels import voxel_center

SH_C0 = 0.28209479177387814
MAX_SH_DEGREE = 3  # renderer.eval_sh implements SH bands 0-3

_LOG_SCALE_MIN = -10.0
_LOG_SCALE_MAX = 3.0


def param_length(sh_degree: int) -> int:
    """offset(3) + opacity(1) + log-scale(3) + quaternion(4) + SH."""
    if not 0 <= sh_degree <= MAX_SH_DEGREE:
        raise InvalidInputError(
            f"SH degree must be 0 to {MAX_SH_DEGREE} (head.sh_degree), got {sh_degree}")
    return 11 + 3 * (sh_degree + 1) ** 2


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class RawGaussianParams:
    """Pre-activation per-voxel parameter vectors, (V, 11 + 3(L+1)^2)."""

    values: np.ndarray
    sh_degree: int = 0

    def __post_init__(self):
        expect = param_length(self.sh_degree)
        if self.values.ndim != 2 or self.values.shape[1] != expect:
            raise InvalidInputError(
                f"raw params must be (V, {expect}) for SH degree {self.sh_degree}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("raw params must be finite")

    @property
    def offset(self):
        return self.values[:, 0:3]

    @property
    def opacity(self):
        return self.values[:, 3]

    @property
    def log_scale(self):
        return self.values[:, 4:7]

    @property
    def quaternion(self):
        return self.values[:, 7:11]

    @property
    def sh(self):
        return self.values[:, 11:]


@dataclass
class Gaussian3D:
    center: np.ndarray
    opacity: float
    scale: np.ndarray
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    sh: np.ndarray

    def covariance(self) -> np.ndarray:
        R = quat_to_rotmat(self.rotation[None])[0]
        return R @ np.diag(self.scale**2) @ R.T


@dataclass
class GaussianSet:
    centers: np.ndarray  # N x 3 f32
    opacity_logits: np.ndarray  # N f32
    log_scales: np.ndarray  # N x 3 f32, log of world-unit scale
    rotations: np.ndarray  # N x 4 f32, unit quaternions
    sh: np.ndarray  # N x (3 (L+1)^2) f32
    sh_degree: int = 0
    voxel_keys: Optional[np.ndarray] = None  # provenance, N x 3

    def __post_init__(self):
        param_length(self.sh_degree)  # rejects a degree the renderer lacks
        n = self.centers.shape[0]
        for name in ("centers", "opacity_logits", "log_scales", "rotations", "sh"):
            with np.errstate(over="ignore"):  # a value past float32's range fails below
                arr = np.asarray(getattr(self, name), dtype=np.float32)
            if arr.shape[0] != n:
                raise InvalidInputError(f"{name} length mismatch")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} holds non-finite values")
            setattr(self, name, arr)
        if self.sh.shape[1] != 3 * (self.sh_degree + 1) ** 2:
            raise InvalidInputError("SH coefficient count does not match degree")

    def __len__(self):
        return self.centers.shape[0]

    @property
    def opacities(self) -> np.ndarray:
        return sigmoid(self.opacity_logits)

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales.astype(float))


def check_head_weights(head_weights: WeightBlob, channels: int, sh_degree: int = 0) -> None:
    """Raise WeightLoadError unless the head maps `channels` features to raw params."""
    w = head_weights["head.weight"]
    b = head_weights["head.bias"]
    expect = param_length(sh_degree)
    if w.shape != (channels, expect) or b.shape != (expect,):
        raise WeightLoadError(
            f"head weights {w.shape}/{b.shape} do not match C={channels}, P={expect}"
        )


def decode_raw(grid: SparseTensor, head_weights: WeightBlob, sh_degree: int = 0) -> RawGaussianParams:
    """1x1x1 linear head mapping voxel features to raw Gaussian parameters."""
    check_head_weights(head_weights, grid.feats.shape[1], sh_degree)
    values = grid.feats @ head_weights["head.weight"] + head_weights["head.bias"]
    return RawGaussianParams(values=values, sh_degree=sh_degree)


def random_head_weights(channels: int, sh_degree: int = 0, seed: int = 0) -> WeightBlob:
    rng = np.random.default_rng(seed)
    p = param_length(sh_degree)
    bound = np.sqrt(6.0 / channels)
    blob = WeightBlob()
    blob.tensors["head.weight"] = rng.uniform(-bound, bound, size=(channels, p))
    blob.tensors["head.bias"] = np.zeros(p)
    return blob


def _normalized_quats(q: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(q, axis=1)
    out = np.zeros_like(q)
    out[:, 0] = 1.0  # zero quaternion maps to identity
    nz = norm > 0
    out[nz] = q[nz] / norm[nz, None]
    return out


def activate_set(
    raw: RawGaussianParams,
    keys: np.ndarray,
    voxel_size: float,
    offset_radius: float,
) -> GaussianSet:
    """Apply the activation transforms to every voxel's raw parameters: the
    center is the voxel center plus offset_radius * sigmoid(raw offset)."""
    if offset_radius <= 0:
        raise InvalidInputError("offset radius must be positive")
    if raw.values.shape[0] != keys.shape[0]:
        raise InvalidInputError("raw params / keys length mismatch")
    centers = voxel_center(keys, voxel_size) + offset_radius * sigmoid(raw.offset)
    log_scales = np.clip(raw.log_scale, _LOG_SCALE_MIN, _LOG_SCALE_MAX) + np.log(voxel_size)
    return GaussianSet(
        centers=centers,
        opacity_logits=raw.opacity,
        log_scales=log_scales,
        rotations=_normalized_quats(raw.quaternion),
        sh=raw.sh,
        sh_degree=raw.sh_degree,
        voxel_keys=keys.copy(),
    )


def activate(
    raw_vector: np.ndarray,
    key,
    voxel_size: float,
    offset_radius: float,
    sh_degree: int = 0,
) -> Gaussian3D:
    """Single-voxel form of activate_set."""
    raw = RawGaussianParams(np.asarray(raw_vector, float)[None, :], sh_degree)
    gs = activate_set(raw, np.asarray(key, np.int64)[None, :], voxel_size, offset_radius)
    return Gaussian3D(
        center=gs.centers[0].astype(float),
        opacity=float(gs.opacities[0]),
        scale=gs.scales[0],
        rotation=gs.rotations[0].astype(float),
        sh=gs.sh[0].astype(float),
    )


# --- PLY export / import (3DGS field layout) ---------------------------------

def _ply_property_names(sh_degree: int):
    names = ["x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2"]
    n_rest = 3 * ((sh_degree + 1) ** 2 - 1)
    names += [f"f_rest_{i}" for i in range(n_rest)]
    names += ["opacity", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3"]
    return names


def _ply_header(count: int, sh_degree: int) -> bytes:
    """The one header export_ply writes and import_ply accepts."""
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {count}",
             *(f"property float {n}" for n in _ply_property_names(sh_degree)), "end_header", ""]
    return "\n".join(lines).encode("ascii")


def _sh_file_order(sh_degree: int) -> np.ndarray:
    """The sh column of each f_dc/f_rest property: f_rest is channel-major, as in 3DGS."""
    rest = 3 * np.arange(1, (sh_degree + 1) ** 2) + np.arange(3)[:, None]
    return np.r_[0:3, rest.ravel()]


def export_ply(gset: GaussianSet, path) -> None:
    if len(gset) == 0:
        raise InvalidInputError("refusing to export an empty Gaussian set")
    payload = np.concatenate(
        [gset.centers, gset.sh[:, _sh_file_order(gset.sh_degree)], gset.opacity_logits[:, None],
         gset.log_scales, gset.rotations],
        axis=1,
    ).astype("<f4")
    with open(path, "wb") as f:
        f.write(_ply_header(len(gset), gset.sh_degree))
        f.write(payload.tobytes())


def import_ply(path) -> GaussianSet:
    raw = read_bytes(path, "PLY file")
    start = re.match(rb"ply\nformat binary_little_endian 1\.0\nelement vertex (\d{1,18})\n", raw)
    count = int(start[1]) if start else 0  # 18 digits at most keep int() within its limit
    degrees = [d for d in range(MAX_SH_DEGREE + 1) if raw.startswith(_ply_header(count, d))]
    if not degrees:
        raise FormatError(f"{path}: not a volsplat PLY of SH degree 0 to {MAX_SH_DEGREE}")
    if count == 0:  # export_ply writes no empty set
        raise FormatError(f"{path}: the PLY holds no vertices")
    order = _sh_file_order(degrees[0])
    payload = Payload(raw, path, "PLY file", len(_ply_header(count, degrees[0])))
    off = 3 + len(order)  # the opacity column; scale and rot follow
    data = payload.array("<f4", (count, off + 8), f"the payload of {count} vertices")
    payload.end()
    return GaussianSet(
        centers=data[:, 0:3].copy(),
        opacity_logits=data[:, off].copy(),
        log_scales=data[:, off + 1 : off + 4].copy(),
        rotations=data[:, off + 4 : off + 8].copy(),
        sh=data.take(3 + np.argsort(order), axis=1),
        sh_degree=degrees[0],
    )


def summarize(gset: GaussianSet) -> dict:
    """JSON-ready summary: count, bbox, opacity histogram deciles."""
    ops = gset.opacities
    return {
        "count": len(gset),
        "bbox": {
            "min": [float(v) for v in gset.centers.min(axis=0)],
            "max": [float(v) for v in gset.centers.max(axis=0)],
        },
        "opacity_deciles": [float(np.quantile(ops, q / 10)) for q in range(11)],
    }


def write_summary(gset: GaussianSet, path) -> None:
    with open(path, "w") as f:
        json.dump(summarize(gset), f, indent=2)
