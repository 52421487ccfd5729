"""On-disk scene layout: per-view PPM image + camera JSON + binary depth."""

from __future__ import annotations

import os
import struct
from typing import List, Optional, Tuple

import numpy as np

from .errors import FormatError, InvalidInputError
from .geometry import CameraView, load_camera_json, save_camera_json
from .renderer import read_ppm, write_ppm

DEPTH_MAGIC = b"VSDP"


def write_depth(path, depth: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
    h, w = depth.shape
    if mask is None:
        mask = np.ones((h, w), bool)
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC + struct.pack("<II", h, w))
        depth.astype("<f4").tofile(f)
        mask.astype(np.uint8).tofile(f)


def read_depth(path) -> Tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, "rb") as f:
            header = f.read(12)
            if len(header) != 12 or header[:4] != DEPTH_MAGIC:
                raise FormatError(f"{path}: bad depth header")
            h, w = struct.unpack("<II", header[4:])
            depth = np.fromfile(f, dtype="<f4", count=h * w)
            mask = np.fromfile(f, dtype=np.uint8, count=h * w)
            trailing = f.read(1)
    except OSError as e:
        raise FormatError(f"{path}: cannot read depth file: {e.strerror}") from e
    if depth.size != h * w or mask.size != h * w:
        raise FormatError(f"{path}: truncated depth payload")
    if trailing:
        raise FormatError(f"{path}: depth payload is longer than its {h}x{w} header")
    return depth.reshape(h, w).astype(float), mask.reshape(h, w).astype(bool)


def save_scene(views: List[CameraView], out_dir) -> List[str]:
    """Write view_###.{ppm,json,depth} files; returns the file manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for i, v in enumerate(views):
        stem = f"view_{i:03d}"
        img_path = os.path.join(out_dir, stem + ".ppm")
        cam_path = os.path.join(out_dir, stem + ".json")
        write_ppm(img_path, v.image)
        save_camera_json(cam_path, v.intrinsics, v.extrinsics)
        manifest += [img_path, cam_path]
        if v.gt_depth is not None:
            depth_path = os.path.join(out_dir, stem + ".depth")
            write_depth(depth_path, v.gt_depth, v.gt_depth_mask)
            manifest.append(depth_path)
    return manifest


def load_scene(scene_dir) -> List[CameraView]:
    """Load every view_###.* triple from a scene directory."""
    if not os.path.isdir(scene_dir):
        raise InvalidInputError(f"{scene_dir} is not a directory")
    stems = sorted(
        f[:-5] for f in os.listdir(scene_dir)
        if f.startswith("view_") and f.endswith(".json")
    )
    if not stems:
        raise InvalidInputError(f"{scene_dir} contains no view_###.json cameras")
    views = []
    for stem in stems:
        K, E = load_camera_json(os.path.join(scene_dir, stem + ".json"))
        img = read_ppm(os.path.join(scene_dir, stem + ".ppm"))
        depth_path = os.path.join(scene_dir, stem + ".depth")
        depth = mask = None
        if os.path.exists(depth_path):
            depth, mask = read_depth(depth_path)
        views.append(CameraView(image=img, intrinsics=K, extrinsics=E,
                                gt_depth=depth, gt_depth_mask=mask))
    return views
