"""End-to-end forward pass: images -> features -> depth -> voxels ->
refinement -> Gaussians, plus evaluation against held-out views."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, StageError
from .features import (
    DEPTH_SPACINGS,
    MAX_DEPTH_HYPOTHESES,
    FeatureExtractorSpec,
    FeatureMap,
    build_cost_volume,
    extract_features,
    regress_depth,
    sample_depth_hypotheses,
    upsample_depth,
)
from .gaussians import (
    MAX_SH_DEGREE,
    GaussianSet,
    SH_C0,
    RawGaussianParams,
    activate_set,
    check_head_weights,
    decode_raw,
    param_length,
    random_head_weights,
)
from .geometry import CameraView, DepthMap
from .renderer import compute_image_metrics, render
from .sceneio import read_json
from .sparse_unet import (
    MAX_UNET_BLOCKS,
    MAX_UNET_WIDTH,
    SparseTensor,
    UNetSpec,
    check_weights,
    layer_plan,
    load_weights,
    random_weights,
    residual_refine,
    unet_forward,
)
from .voxels import lift_views, voxelize


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
        type is not its default's, then out-of-range and conflicting values."""
        for sec_name, types in _FIELD_TYPES.items():
            section = getattr(self, sec_name)
            for attr, kind in types.items():
                value = getattr(section, attr)
                if not _fits(value, kind):
                    raise InvalidInputError(
                        f"{sec_name}.{attr} must be {_KIND_NAMES[kind]}, got {value!r}")
        d, f, u, h = self.depth, self.feature, self.unet, self.head
        for name, value in (("depth.near", d.near), ("depth.far", d.far),
                            ("depth.temperature", d.temperature),
                            ("voxel.size", self.voxel.size),
                            ("head.offset_radius_multiplier", h.offset_radius_multiplier)):
            if not 0 < value < math.inf:
                raise InvalidInputError(f"{name} must be a positive finite number, got {value!r}")
        if not d.near < d.far:
            raise InvalidInputError(f"need depth.near < depth.far, got ({d.near}, {d.far})")
        if not 2 <= d.num_hypotheses <= MAX_DEPTH_HYPOTHESES:
            raise InvalidInputError(
                f"depth.num_hypotheses must be 2 to {MAX_DEPTH_HYPOTHESES}, got {d.num_hypotheses}")
        if d.spacing not in DEPTH_SPACINGS:
            raise InvalidInputError(
                f"depth.spacing must be one of {DEPTH_SPACINGS}, got {d.spacing!r}")
        FeatureExtractorSpec(f.channels, f.scale)  # channels, scale
        for name, value in (("unet.seed", u.seed), ("head.seed", h.seed)):
            if value < 0:
                raise InvalidInputError(f"{name} must be >= 0, got {value}")
        if not 0 <= u.blocks <= MAX_UNET_BLOCKS:
            raise InvalidInputError(f"unet.blocks must be 0 to {MAX_UNET_BLOCKS}, got {u.blocks}")
        if not 0 <= h.sh_degree <= MAX_SH_DEGREE:
            raise InvalidInputError(
                f"head.sh_degree must be 0 to {MAX_SH_DEGREE}, got {h.sh_degree}")
        if u.levels and (len(u.levels) < 2 or not all(
                _fits(c, int) and 1 <= c <= MAX_UNET_WIDTH for c in u.levels)):
            raise InvalidInputError(f"unet.levels must be empty or >= 2 integers "
                                    f"from 1 to {MAX_UNET_WIDTH}, got {u.levels!r}")
        if h.kind not in HEAD_KINDS:
            raise InvalidInputError(f"head.kind must be one of {HEAD_KINDS}, got {h.kind!r}")
        if h.kind == "color-copy" and f.channels < 3:
            raise InvalidInputError(
                f"head.kind=color-copy needs feature.channels >= 3, got {f.channels}")
        bg = self.render.bg
        if len(bg) != 3 or not all(_fits(c, float) and -math.inf < c < math.inf for c in bg):
            raise InvalidInputError(f"render.bg must be 3 finite numbers, got {bg!r}")


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


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as e:  # noqa: BLE001 - every stage error gets tagged
        raise StageError(name, e) from e


def _estimate_depths(
    views: Sequence[CameraView],
    fmaps: Sequence[FeatureMap],
    cfg: PipelineConfig,
) -> Tuple[List[DepthMap], float]:
    """Depth per view from its plane-sweep cost volume, and the share of
    (view, pixel, plane) cells with at least one valid neighbour.

    The cost volume sums neighbour scores in floating point, in list order, so
    the depths depend on the order of `views`; `run_pipeline` passes them
    sorted. The share is a ratio of integer counts, so no view order or thread
    count moves it."""
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
        h, w = view.image.shape[:2]
        depths.append(upsample_depth(d, (h, w)) if s > 1 else d)
    return depths, valid_cells / cells


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
    """The bytes of a view's pose, image and ground-truth depth and mask (a
    missing mask is all-true); intrinsics are shared by every view."""
    key = (v.extrinsics.R.tobytes() + v.extrinsics.T.tobytes(),
           np.asarray(v.image, dtype=float).tobytes())
    if v.gt_depth is None:
        return key
    mask = np.ones(v.gt_depth.shape, bool) if v.gt_depth_mask is None else v.gt_depth_mask
    return key + (np.asarray(v.gt_depth, dtype=float).tobytes(), mask.tobytes())


def run_pipeline(views: Sequence[CameraView], config: PipelineConfig):
    """Full forward pass; returns (GaussianSet, diagnostics dict)."""
    config.validate()
    use_gt = config.depth.use_gt
    if use_gt and any(v.gt_depth is None for v in views):
        raise InvalidInputError("depth.use_gt=true needs a depth file for every view")
    if len(views) < (1 if use_gt else 2):
        raise InvalidInputError("need >= 2 views (>= 1 with ground-truth depth)")
    k0 = views[0].intrinsics
    if any(v.intrinsics != k0 for v in views):
        raise InvalidInputError("all views must share intrinsics")
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

    diagnostics: dict = {"stages": {}}
    t0 = time.perf_counter()

    def tick(name):
        nonlocal t0
        t1 = time.perf_counter()
        diagnostics["stages"][name] = t1 - t0
        t0 = t1

    fmaps = _stage("features", lambda: [extract_features(v, fspec) for v in views])
    tick("features")

    if use_gt:
        depths = [DepthMap(values=v.gt_depth if v.gt_depth_mask is None
                           else np.where(v.gt_depth_mask, v.gt_depth, 1.0),
                           valid_mask=v.gt_depth_mask)  # None: every pixel valid
                  for v in views]
        valid_fraction = None
    else:
        depths, valid_fraction = _stage("depth", _estimate_depths, views, fmaps, config)
    tick("depth")

    cloud = _stage("lift", lift_views, views, fmaps, depths)
    tick("lift")
    grid = _stage("voxelize", voxelize, cloud, config.voxel.size)
    tick("voxelize")

    v_tensor = SparseTensor(coords=grid.keys.copy(), feats=grid.features.copy(), stride=1)
    if config.unet.enabled:
        def refine():
            weights = unet_weights
            if weights is None:
                weights = random_weights(spec, v_tensor.feats.shape[1], config.unet.seed)
            r = unet_forward(v_tensor, spec, weights)
            return residual_refine(v_tensor, r)

        refined = _stage("refine", refine)
    else:
        refined = v_tensor
    tick("refine")

    def decode():
        if config.head.kind == "color-copy":
            raw = RawGaussianParams(_color_copy_raw(refined.feats, config.head),
                                    config.head.sh_degree)
        else:  # "linear"; validate() admits only HEAD_KINDS
            head_w = head_weights
            if head_w is None:
                head_w = random_head_weights(refined.feats.shape[1],
                                             config.head.sh_degree, config.head.seed)
            raw = decode_raw(refined, head_w, config.head.sh_degree)
        radius = config.head.offset_radius_multiplier * config.voxel.size
        return activate_set(raw, grid.keys, config.voxel.size, radius)

    gset = _stage("decode", decode)
    tick("decode")

    n = len(views)
    diagnostics.update(
        {
            "num_views": n,
            "point_count": len(cloud),
            "occupied_voxels": len(grid),
            "gaussian_count": len(gset),
            "pgs": len(gset) / n,
            "voxel_size": config.voxel.size,
            "unet_enabled": bool(config.unet.enabled),
            "cost_volume_valid_fraction": valid_fraction,
        }
    )
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
        "pgs": len(gset) / max(1, len(targets)),
        "gaussian_count": len(gset),
    }
