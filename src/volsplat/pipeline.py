"""End-to-end forward pass: images -> features -> depth -> voxels ->
refinement -> Gaussians, plus evaluation against held-out views."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, StageError
from .features import (
    FeatureExtractorSpec,
    bilinear_upsample,
    build_cost_volume,
    check_temperature,
    extract_features,
    regress_depth,
    sample_depth_hypotheses,
)
from .gaussians import (
    GaussianSet,
    SH_C0,
    RawGaussianParams,
    activate_set,
    check_head_weights,
    check_offset_radius,
    decode_raw,
    param_length,
    random_head_weights,
)
from .geometry import CameraView, DepthMap
from .renderer import check_bg, compute_image_metrics, render
from .sceneio import finite_number, read_json
from .sparse_unet import (
    SparseTensor,
    UNetSpec,
    check_weights,
    layer_plan,
    load_weights,
    random_weights,
    residual_refine,
    unet_forward,
)
from .voxels import check_voxel_size, lift_views, voxelize


@dataclass
class FeatureConfig:
    channels: int = 12
    scale: int = 1


@dataclass
class DepthConfig:
    num_hypotheses: int = 32
    spacing: str = "inverse"
    temperature: float = 0.05
    near: float = 0.5
    far: float = 10.0
    use_gt: bool = False


@dataclass
class VoxelConfig:
    size: float = 0.1


@dataclass
class UNetConfig:
    enabled: bool = True
    levels: Tuple[int, ...] = ()
    blocks: int = 2
    weights_path: str = ""
    seed: int = 0


HEAD_KINDS = ("linear", "color-copy")


@dataclass
class HeadConfig:
    kind: str = "linear"  # one of HEAD_KINDS
    sh_degree: int = 0
    offset_radius_multiplier: float = 3.0
    weights_path: str = ""
    seed: int = 0


@dataclass
class LossConfig:
    lam: float = 0.05


@dataclass
class RenderConfig:
    bg: Tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass
class PipelineConfig:
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    depth: DepthConfig = field(default_factory=DepthConfig)
    voxel: VoxelConfig = field(default_factory=VoxelConfig)
    unet: UNetConfig = field(default_factory=UNetConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    render: RenderConfig = field(default_factory=RenderConfig)

    @staticmethod
    def from_json(path_or_dict) -> "PipelineConfig":
        """A config from `{section: {key: value}}` or a JSON file of one; lists
        become tuples. Field types are checked by `validate()`."""
        d = path_or_dict
        if isinstance(path_or_dict, (str, os.PathLike)):
            d = read_json(path_or_dict, "config")
        if not isinstance(d, dict):
            raise InvalidInputError(f"config must be a JSON object, got {type(d).__name__}")
        cfg = PipelineConfig()
        for sec_name, sec_val in d.items():
            cfg._resolve(sec_name)
            if not isinstance(sec_val, dict):
                raise InvalidInputError(
                    f"config section {sec_name!r} must be an object, got {type(sec_val).__name__}")
            for key, value in sec_val.items():
                section, attr = cfg._resolve(sec_name, key)
                setattr(section, attr, tuple(value) if isinstance(value, list) else value)
        return cfg

    def apply_override(self, dotted_key: str, value: str) -> None:
        """Set `section.key` from its text form (CLI overrides), parsed by the
        type of the field's default."""
        sec_name, dot, key = dotted_key.partition(".")
        if not dot:
            raise InvalidInputError(f"override key must be section.key, got {dotted_key!r}")
        section, attr = self._resolve(sec_name, key)
        kind = _FIELD_TYPES[sec_name][attr]
        try:
            if kind is bool:
                parsed = _BOOL_WORDS[value.lower()]
            elif kind is tuple:
                parsed = tuple(json.loads(value))
            else:
                parsed = kind(value)
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidInputError(
                f"cannot parse {value!r} for {dotted_key} ({_KIND_NAMES[kind]})") from e
        setattr(section, attr, parsed)

    def _resolve(self, sec_name: str, key: Optional[str] = None):
        """(section, attribute) named by `section.key`; an unknown section or
        key is a config error."""
        if sec_name not in _FIELD_TYPES:
            raise InvalidInputError(f"unknown config section {sec_name!r}")
        if key is not None and key not in _FIELD_TYPES[sec_name]:
            raise InvalidInputError(f"unknown config key {sec_name}.{key}")
        return getattr(self, sec_name), key

    def validate(self) -> None:
        """Reject settings that no stage can run with: first any field whose
        type is not its default's, then out-of-range and conflicting values.
        A value's range is checked by the function that reads it."""
        for sec_name, types in _FIELD_TYPES.items():
            section = getattr(self, sec_name)
            for attr, kind in types.items():
                value = getattr(section, attr)
                if not _fits(value, kind):
                    raise InvalidInputError(
                        f"{sec_name}.{attr} must be {_KIND_NAMES[kind]}, got {value!r}")
        d, f, u, h = self.depth, self.feature, self.unet, self.head
        check_temperature(d.temperature)
        sample_depth_hypotheses(d.near, d.far, d.num_hypotheses, d.spacing)
        check_voxel_size(self.voxel.size)
        # an int too large for a float would overflow the product: check it as it is
        m = h.offset_radius_multiplier
        check_offset_radius(m * self.voxel.size if finite_number(m) else m)
        FeatureExtractorSpec(f.channels, f.scale)
        UNetSpec(tuple(u.levels), u.blocks)
        param_length(h.sh_degree)
        for name, value in (("unet.seed", u.seed), ("head.seed", h.seed)):
            if value < 0:
                raise InvalidInputError(f"{name} must be >= 0, got {value}")
        if h.kind not in HEAD_KINDS:
            raise InvalidInputError(f"head.kind must be one of {HEAD_KINDS}, got {h.kind!r}")
        if h.kind == "color-copy" and f.channels < 3:
            raise InvalidInputError(
                f"head.kind=color-copy needs feature.channels >= 3, got {f.channels}")
        check_bg(self.render.bg)


# Each field's type is its default's: a float field also takes an int, a tuple
# field a list, and only a bool field takes a bool.
_FIELD_TYPES = {sec: {attr: type(value) for attr, value in vars(defaults).items()}
                for sec, defaults in vars(PipelineConfig()).items()}
_ACCEPTED = {bool: bool, int: int, float: (int, float), str: str, tuple: (list, tuple)}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               tuple: "a list"}
_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}


def _fits(value, kind: type) -> bool:
    """Whether `value` may stand in a field whose default is a `kind`."""
    return isinstance(value, bool) == (kind is bool) and isinstance(value, _ACCEPTED[kind])


def _stage(name: str, timings: dict, fn, *args):
    """`fn(*args)` as the stage `name`: its seconds go to `timings[name]`,
    and any error it raises becomes a `StageError` naming the stage."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except StageError:
        raise
    except Exception as e:  # noqa: BLE001 - every stage error gets tagged
        raise StageError(name, e) from e
    timings[name] = time.perf_counter() - t0
    return result


def _features(views: Sequence[CameraView], spec: FeatureExtractorSpec) -> List[np.ndarray]:
    return [extract_features(v, spec) for v in views]


def _depths(
    views: Sequence[CameraView],
    fmaps: Sequence[np.ndarray],
    cfg: PipelineConfig,
) -> Tuple[List[DepthMap], Optional[float]]:
    """Depth per view, and the share of (view, pixel, plane) cells with at
    least one valid neighbour (None with ground-truth depth).

    Estimated depth comes from each view's plane-sweep cost volume. The cost
    volume sums neighbour scores in floating point, in list order, so the
    depths depend on the order of `views`; `run_pipeline` passes them
    sorted. The share is a ratio of integer counts, so no view order or
    thread count moves it."""
    if cfg.depth.use_gt:
        return [DepthMap(v.gt_depth, v.gt_depth_mask) for v in views], None
    hyp = sample_depth_hypotheses(cfg.depth.near, cfg.depth.far,
                                  cfg.depth.num_hypotheses, cfg.depth.spacing)
    s = cfg.feature.scale
    cams = [(v.intrinsics.scaled(s), v.extrinsics) for v in views]
    depths = []
    valid_cells = cells = 0
    for i, view in enumerate(views):
        neighbors = [(fmaps[j], cams[j]) for j in range(len(views)) if j != i]
        cv = build_cost_volume(fmaps[i], neighbors, cams[i], hyp)
        valid_cells += cv.valid_cells
        cells += cv.scores.size
        d = regress_depth(cv, cfg.depth.temperature)
        if s > 1:
            d = DepthMap(bilinear_upsample(d.values, view.image.shape[:2]))
        depths.append(d)
    return depths, valid_cells / cells


def _refine(x: SparseTensor, spec: UNetSpec, weights, seed: int) -> SparseTensor:
    """The U-Net's residual refinement of `x`, with random weights drawn
    from `seed` when `weights` is None."""
    if weights is None:
        weights = random_weights(spec, x.feats.shape[1], seed)
    return residual_refine(x, unet_forward(x, spec, weights))


def _decode(x: SparseTensor, keys: np.ndarray, cfg: HeadConfig, head_weights,
            voxel_size: float) -> GaussianSet:
    """One Gaussian per voxel from its features, through the `cfg.kind`
    head; a linear head without weights draws them from `cfg.seed`."""
    if cfg.kind == "color-copy":
        raw = RawGaussianParams(_color_copy_raw(x.feats, cfg), cfg.sh_degree)
    else:  # "linear"; validate() admits only HEAD_KINDS
        if head_weights is None:
            head_weights = random_head_weights(x.feats.shape[1], cfg.sh_degree, cfg.seed)
        raw = decode_raw(x, head_weights, cfg.sh_degree)
    return activate_set(raw, keys, voxel_size, cfg.offset_radius_multiplier * voxel_size)


def _color_copy_raw(grid_feats: np.ndarray, cfg: HeadConfig) -> np.ndarray:
    """Raw params whose activation yields a voxel-centered opaque splat
    colored by the first three feature channels (taken as RGB)."""
    n = grid_feats.shape[0]
    p = param_length(cfg.sh_degree)
    raw = np.zeros((n, p))
    raw[:, 0:3] = -40.0  # sigmoid -> 0: center stays at the voxel center
    raw[:, 3] = 8.0  # opacity ~ 0.99966
    raw[:, 4:7] = np.log(0.7)  # scale = 0.7 * voxel size
    raw[:, 7] = 1.0  # identity quaternion
    # feature channels 0..2 hold colors centered at 0.5
    raw[:, 11:14] = np.clip(grid_feats[:, 0:3], -0.5, 0.5) / SH_C0
    return raw


def _view_key(v: CameraView) -> Tuple[bytes, ...]:
    """The bytes of a view's pose, image and ground-truth depth and mask;
    intrinsics are shared by every view."""
    key = (v.extrinsics.R.tobytes() + v.extrinsics.T.tobytes(),
           np.asarray(v.image, dtype=float).tobytes())
    if v.gt_depth is None:
        return key
    return key + (np.asarray(v.gt_depth, dtype=float).tobytes(), v.gt_depth_mask.tobytes())


def run_pipeline(views: Sequence[CameraView], config: PipelineConfig):
    """Full forward pass; returns (GaussianSet, diagnostics dict).

    `diagnostics["stages"]` holds the seconds of each stage that ran."""
    config.validate()
    use_gt = config.depth.use_gt
    if use_gt and any(v.gt_depth is None for v in views):
        raise InvalidInputError("depth.use_gt=true needs a depth file for every view")
    if len(views) < (1 if use_gt else 2):
        raise InvalidInputError("need >= 2 views (>= 1 with ground-truth depth)")
    k0 = views[0].intrinsics
    if any(v.intrinsics != k0 for v in views):
        raise InvalidInputError("all views must share intrinsics")
    if k0.width % config.feature.scale or k0.height % config.feature.scale:
        raise InvalidInputError("the image size must be divisible by feature.scale")
    # Every stage sums over views in floating point, in list order. Sorting the
    # views by their content fixes that order, so no output depends on the
    # order the views came in.
    views = sorted(views, key=_view_key)

    fspec = FeatureExtractorSpec(channels=config.feature.channels, scale=config.feature.scale)

    # Weight blobs are inputs: a missing, malformed or mis-shaped blob is a
    # format error reported before any stage runs, not a stage failure.
    channels = fspec.channels
    spec = UNetSpec(levels=tuple(config.unet.levels), blocks_per_level=config.unet.blocks)
    unet_weights = head_weights = None
    if config.unet.enabled and config.unet.weights_path:
        unet_weights = load_weights(config.unet.weights_path)
        check_weights(unet_weights, layer_plan(spec, channels))
    if config.head.kind == "linear" and config.head.weights_path:
        head_weights = load_weights(config.head.weights_path)
        check_head_weights(head_weights, channels, config.head.sh_degree)

    timings: dict = {}
    fmaps = _stage("features", timings, _features, views, fspec)
    depths, valid_fraction = _stage("depth", timings, _depths, views, fmaps, config)
    cloud = _stage("lift", timings, lift_views, views, fmaps, depths)
    grid = _stage("voxelize", timings, voxelize, cloud, config.voxel.size)
    x = SparseTensor(coords=grid.keys.copy(), feats=grid.features.copy(), stride=1)
    if config.unet.enabled:
        x = _stage("refine", timings, _refine, x, spec, unet_weights, config.unet.seed)
    gset = _stage("decode", timings, _decode, x, grid.keys, config.head, head_weights,
                  config.voxel.size)

    n = len(views)
    diagnostics = {
        "stages": timings,
        "num_views": n,
        "point_count": len(cloud),
        "occupied_voxels": len(grid),
        "gaussian_count": len(gset),
        "pgs": len(gset) / n,
        "voxel_size": config.voxel.size,
        "unet_enabled": bool(config.unet.enabled),
        "cost_volume_valid_fraction": valid_fraction,
    }
    return gset, diagnostics


def evaluate(gset: GaussianSet, targets: Sequence[CameraView], threads: int = 1) -> dict:
    """Render each target camera on black and report PSNR/SSIM/MSE per view + means."""
    if len(targets) == 0:
        raise InvalidInputError("need at least one target view")
    per_view = []
    for v in targets:
        out = render(gset, v.intrinsics, v.extrinsics, threads=threads)
        per_view.append(compute_image_metrics(out.rgb, np.asarray(v.image, float)))
    mean = {k: float(np.mean([m[k] for m in per_view])) for k in ("mse", "psnr", "ssim")}
    return {
        "per_view": per_view,
        "mean": mean,
        "pgs": len(gset) / len(targets),
        "gaussian_count": len(gset),
    }
