"""The input boundary: every file is read here, whole, length-checked and finite.

Scene directories (per-view PPM image, camera JSON, optional depth file) are
read and written here; the PLY and weight-blob codecs read through the same
`read_bytes` and `Payload`, so every format fails the same way: `FormatError`.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import asdict
from typing import List, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidInputError
from .geometry import CameraView, Extrinsics, Intrinsics

DEPTH_MAGIC = b"VSDP"


def finite_number(value) -> bool:
    """Whether `value` is a number, not a bool, that converts to a finite float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number; an int too large for a float
        return False


def read_bytes(path, what: str) -> bytes:
    """The whole file; FormatError when it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"{path}: cannot read {what}: {e.strerror or e}") from None


def read_json(path, what: str):
    """The file's UTF-8 JSON value; FormatError when it is unreadable or invalid."""
    try:
        return json.loads(read_bytes(path, what).decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON; nesting too deep
        raise FormatError(f"{path}: {what} is not valid JSON: {e}") from None


class Payload:
    """A cursor over a file's bytes, from `offset` to the end."""

    def __init__(self, raw: bytes, path, what: str, offset: int = 0):
        self.raw, self.path, self.what, self.off = raw, path, what, offset

    def _take(self, size: int, name: str) -> int:
        start, left = self.off, len(self.raw) - self.off
        if not 0 <= size <= left:  # a size below 0 comes from a negative count
            raise FormatError(f"{self.path}: malformed {self.what}: {name} needs {size} bytes, "
                              f"{left} payload bytes remain")
        self.off += size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt), repr(fmt)))

    def array(self, dtype, shape: Sequence[int], name: str) -> np.ndarray:
        """The next `shape` elements, read-only; non-finite floats are rejected."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._take(count * dtype.itemsize, name)
        data = np.frombuffer(self.raw, dtype, count, start).reshape(shape)
        if dtype.kind == "f" and not np.isfinite(data).all():
            raise FormatError(f"{self.path}: {name} has non-finite values")
        return data

    def end(self) -> None:
        if self.off != len(self.raw):
            raise FormatError(f"{self.path}: malformed {self.what}: "
                              f"{len(self.raw) - self.off} trailing bytes")


def write_ppm(path, rgb: np.ndarray) -> None:
    """P6, maxval 255, rounding half-up from [0, 1]."""
    h, w = rgb.shape[:2]
    data = np.floor(np.clip(rgb, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Returns H x W x 3 floats in [0, 1]."""
    raw = read_bytes(path, "image")
    # The single whitespace byte after maxval ends the header (the payload may
    # start with whitespace); 18 digits at most keep int() within its limit.
    header = re.match(rb"P6\s+(\d{1,18})\s+(\d{1,18})\s+255\s", raw)
    if header is None:
        raise InvalidInputError(f"{path}: expected binary P6 maxval-255 PPM")
    w, h = int(header[1]), int(header[2])
    payload = Payload(raw, path, "image", header.end())
    data = payload.array(np.uint8, (h, w, 3), f"a {w}x{h} image")
    payload.end()
    return data.astype(float) / 255.0


def load_camera_json(path) -> tuple:
    """Read an (Intrinsics, Extrinsics) pair from the camera JSON format."""
    d = read_json(path, "camera JSON")
    try:
        if not all(type(d[k]) is int for k in ("width", "height")):
            raise FormatError(f"{path}: camera width and height must be integers")
        K = Intrinsics(d["fx"], d["fy"], d["cx"], d["cy"], d["width"], d["height"])
        E = Extrinsics(np.array(d["R"], dtype=float).reshape(3, 3), np.array(d["T"], dtype=float))
    except KeyError as e:
        raise InvalidInputError(f"camera JSON missing field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an int beyond float
        raise FormatError(f"{path}: malformed camera field: {e}") from e
    return K, E


def save_camera_json(path, K: Intrinsics, E: Extrinsics) -> None:
    camera = {**asdict(K), "R": [float(x) for x in E.R.reshape(-1)], "T": [float(x) for x in E.T]}
    with open(path, "w") as f:
        json.dump(camera, f, indent=2)


def write_depth(path, depth: np.ndarray, mask: np.ndarray) -> None:
    """Stores 1.0 for a non-finite depth where `mask` is false, so `read_depth` takes it."""
    h, w = depth.shape
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC + struct.pack("<II", h, w))
        np.where(mask | np.isfinite(depth), depth, 1.0).astype("<f4").tofile(f)
        mask.astype(np.uint8).tofile(f)


def read_depth(path) -> Tuple[np.ndarray, np.ndarray]:
    payload = Payload(read_bytes(path, "depth file"), path, "depth file")
    magic, h, w = payload.unpack("<4sII")
    if magic != DEPTH_MAGIC:
        raise FormatError(f"{path}: bad depth header")
    depth = payload.array("<f4", (h, w), "depth")
    mask = payload.array(np.uint8, (h, w), "depth mask")
    payload.end()
    return depth.astype(float), mask.astype(bool)


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
