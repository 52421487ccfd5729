"""The three workloads and the cold set-up every run starts with.

Each workload loads a different stage of the engine (see README.md):
`sweep` the plane sweep, `dense` the sparse U-Net and a many-splat render,
`garden` voxel pooling and an opaque-surface render. The scene, camera rig
and engine configuration are fixed per workload; the seed permutes the
order of the input views handed to the engine and the order in which the
held-out frames are rendered. The engine's output does not depend on input
order, so every seed does the same work and every count repeats exactly.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HELD_OUT = 2
# Six cameras on a ring, listed in sixths of a turn. hold_out() takes the
# last two as render targets, so each target sits between two input views.
RING_ORDER = (0, 1, 3, 4, 2, 5)
RENDER_THREADS = 2
# Scales the U-Net's output layer so the residual stays small next to the
# pooled colours the colour-copy head reads (see README.md).
UNET_HEAD_SCALE = 0.05
UNET_WEIGHT_SEED = 0
SCENE_SEED = 0  # texture (and garden jitter and height field) of every scene


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str
    size: int  # image width and height in pixels
    ring_radius: float
    voxel: float
    gt_depth: bool
    unet: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "sphere", 64, 0.3, 0.1, gt_depth=False, unet=True),
        Workload("dense", "sphere", 64, 0.3, 0.02, gt_depth=True, unet=True),
        Workload("garden", "gaussian-garden", 64, 0.25, 0.025, gt_depth=True, unet=False),
    )
}


def bootstrap() -> None:
    """Put the checkout's `src` first on the import path, or exit 2."""
    if not (SRC / "volsplat" / "__init__.py").is_file():
        print(f"error: no volsplat package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)


def _import_volsplat() -> SimpleNamespace:
    names = ("pipeline", "renderer", "scenes", "sparse_unet", "features")
    mods = SimpleNamespace(**{n: importlib.import_module(f"volsplat.{n}") for n in names})
    mods.backend = importlib.import_module("volsplat").KERNEL_BACKEND
    return mods


def _scene_spec(scenes, w: Workload):
    cams = []
    for k in RING_ORDER:
        a = 2.0 * np.pi * k / 6
        cams.append(scenes.CameraPose((w.ring_radius * np.cos(a), w.ring_radius * np.sin(a), 0.0),
                                      (0.0, 0.0, 2.0)))
    return scenes.SceneSpec(kind=w.scene, cameras=cams, image_size=(w.size, w.size),
                            seed=SCENE_SEED)


def _write_unet_weights(sparse_unet, path: Path, channels: int) -> str:
    blob = sparse_unet.random_weights(sparse_unet.UNetSpec(), channels, UNET_WEIGHT_SEED)
    blob.tensors["head.weight"] = blob.tensors["head.weight"] * UNET_HEAD_SCALE
    sparse_unet.save_weights(path, blob)
    return str(path)


def config(pipeline, w: Workload, weights_path: str):
    cfg = pipeline.PipelineConfig()
    cfg.voxel.size = w.voxel
    cfg.depth.use_gt = w.gt_depth
    cfg.unet.enabled = w.unet
    cfg.unet.weights_path = weights_path
    cfg.head.kind = "color-copy"
    return cfg


def cold_setup(w: Workload, seed: int, clock, on_import=None) -> SimpleNamespace:
    """Import volsplat, synthesise the scene, write the U-Net weight file and
    run the first reconstruction and render, timing each step on `clock`.

    `on_import(modules)` runs between the import and the rest, untimed.
    The caller removes the returned `weights_path` when done.
    """
    steps = {}

    def step(name, fn, *args, **kwargs):
        result, wall, norm, _ = clock.time(fn, *args, **kwargs)
        steps[name] = {"wall_s": wall, "norm_s": norm}
        return result

    m = step("import", _import_volsplat)
    if on_import is not None:
        on_import(m)
    views, _ = step("synthesize", lambda: m.scenes.synthesize(_scene_spec(m.scenes, w)))
    inputs, held = m.scenes.hold_out(views, HELD_OUT)
    rng = np.random.default_rng(seed)
    inputs = [inputs[i] for i in rng.permutation(len(inputs))]
    held = [held[i] for i in rng.permutation(len(held))]
    weights_path = ""
    if w.unet:
        path = OUT / f"unet-{w.name}-{os.getpid()}.bin"
        channels = m.pipeline.PipelineConfig().feature.channels
        weights_path = step("weights", _write_unet_weights, m.sparse_unet, path, channels)
    cfg = config(m.pipeline, w, weights_path)
    gset, _ = step("reconstruct", m.pipeline.run_pipeline, inputs, cfg)
    first = step("render", m.renderer.render, gset, held[0].intrinsics, held[0].extrinsics,
                 bg=cfg.render.bg, threads=1)
    return SimpleNamespace(
        modules=m, inputs=inputs, held=held, cfg=cfg, gset=gset, first_render=first,
        weights_path=weights_path, steps=steps,
        norm_s=sum(s["norm_s"] for s in steps.values()),
        wall_s=sum(s["wall_s"] for s in steps.values()),
    )
