"""Shows that every output check in the benchmark can fail.

    python3 perfbench/selftest.py

Runs a small sphere scene through the same cold set-up and verification as
a benchmark run, requires every check to pass on the true outputs, then
feeds each check a deliberately corrupted copy and requires it to report
the failure. Exits 0 when every check behaved, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import checks
import run
import workloads
from refloop import HostClock
from spans import Capture

TINY = workloads.Workload("tiny", "sphere", 32, 0.3, 0.05, gt_depth=False, unet=True)


def _swap_tiles(rgb: np.ndarray) -> np.ndarray:
    """Swap the first two 16 x 16 tiles that differ."""
    out = rgb.copy()
    tiles = [(y, x) for y in range(0, rgb.shape[0] - 15, 16) for x in range(0, rgb.shape[1] - 15, 16)]
    for i, (ya, xa) in enumerate(tiles):
        for yb, xb in tiles[i + 1:]:
            a, b = rgb[ya:ya + 16, xa:xa + 16], rgb[yb:yb + 16, xb:xb + 16]
            if not np.array_equal(a, b):
                out[ya:ya + 16, xa:xa + 16], out[yb:yb + 16, xb:xb + 16] = b, a
                return out
    raise AssertionError("render has no two differing tiles")


def _drop_neighbour(coords, feats, w, out):
    """Remove one neighbour's contribution at the first site that has one."""
    rows = {tuple(c): i for i, c in enumerate(coords.tolist())}
    for s, c in enumerate(coords.tolist()):
        for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            n = rows.get((c[0] + d[0], c[1] + d[1], c[2] + d[2]))
            if n is not None:
                bad = out.copy()
                bad[s] -= feats[n] @ w[d[0] + 1, d[1] + 1, d[2] + 1]
                return bad, [s]
    raise AssertionError("no site has a face neighbour")


def main() -> int:
    workloads.bootstrap()
    clock = HostClock()
    capture = Capture()
    s = workloads.cold_setup(TINY, 0, clock, lambda m: run.watch_stages(capture, m))
    capture.remove()
    try:
        verified = run.verify(s, capture, TINY)
        held = s.held[0]
        rgb1 = s.first_render.rgb
        rgb2 = s.modules.renderer.render(s.gset, held.intrinsics, held.extrinsics,
                                         bg=s.cfg.render.bg, threads=workloads.RENDER_THREADS).rgb
    finally:
        if s.weights_path:
            os.remove(s.weights_path)
    cfg, gset = s.cfg, s.gset
    (views, _, depths), _, _ = capture.calls["lift"]
    (cloud, voxel_size), _, grid = capture.calls["voxelize"]
    (x, w, b), _, conv_out = capture.calls["submanifold"]
    pool = checks.dict_pool(cloud.positions, cloud.features, voxel_size)
    radius = cfg.head.offset_radius_multiplier * voxel_size
    depth_values = [d.values[d.valid_mask] for d in depths]
    sites = np.arange(min(run.CHECK_SITES, x.coords.shape[0]))
    bg = cfg.render.bg

    def shifted(centers):
        out = centers.copy()
        out[0, 2] += 1.5 * radius
        return out

    def perturbed(means):
        out = means.copy()
        out[len(out) // 2, 0] += 1e-3
        return out

    def with_sh_changed(g):
        changed = s.modules.pipeline.GaussianSet(
            centers=g.centers, opacity_logits=g.opacity_logits, log_scales=g.log_scales,
            rotations=g.rotations, sh=g.sh.copy(), sh_degree=g.sh_degree, voxel_keys=g.voxel_keys)
        changed.sh[0, 0] += 1e-3
        return changed

    bad_conv, bad_sites = _drop_neighbour(x.coords, x.feats, w, conv_out)
    ok = not verified["errors"]
    print(f"{'ok  ' if ok else 'FAIL'} the true outputs pass every check"
          + "".join(f"\n     {e}" for e in verified["errors"]))
    cases = [
        # (what, errors on the true output, errors on the corrupted output)
        ("perturbed voxel mean", checks.check_voxel_pool(pool, grid.keys, grid.features),
         checks.check_voxel_pool(pool, grid.keys, perturbed(grid.features))),
        ("dropped voxel", checks.check_voxel_pool(pool, grid.keys, grid.features),
         checks.check_voxel_pool(pool, grid.keys[1:], grid.features[1:])),
        ("dropped neighbour", checks.check_submanifold(x.coords, x.feats, w, b, conv_out, sites),
         checks.check_submanifold(x.coords, x.feats, w, b, bad_conv, bad_sites)),
        ("shifted centre",
         checks.check_gaussians(gset.centers, gset.voxel_keys, voxel_size, radius, pool[0]),
         checks.check_gaussians(shifted(gset.centers), gset.voxel_keys, voxel_size, radius, pool[0])),
        ("missing Gaussian",
         checks.check_gaussians(gset.centers, gset.voxel_keys, voxel_size, radius, pool[0]),
         checks.check_gaussians(gset.centers[1:], gset.voxel_keys[1:], voxel_size, radius, pool[0])),
        ("depth beyond far", checks.check_depths(depth_values, cfg.depth.near, cfg.depth.far),
         checks.check_depths([np.append(depth_values[0], 2 * cfg.depth.far)],
                             cfg.depth.near, cfg.depth.far)),
        ("non-finite depth", [],
         checks.check_depths([np.append(depth_values[0], np.nan)], cfg.depth.near, cfg.depth.far)),
        ("render above 1", checks.check_render(rgb1, held.image, bg),
         checks.check_render(np.where(rgb1 == rgb1.max(), 1.5, rgb1), held.image, bg)),
        ("background-only render", [],
         checks.check_render(np.broadcast_to(np.asarray(bg, float), rgb1.shape), held.image, bg)),
        ("swapped tile", checks.check_identical(rgb2, rgb1, "renders"),
         checks.check_identical(_swap_tiles(rgb2), rgb1, "renders")),
        ("changed reconstruction", run.same_set(gset, gset), run.same_set(with_sh_changed(gset), gset)),
        ("input view below 30 dB", checks.check_min_psnr([30.0, 41.0], 30.0, "input view"),
         checks.check_min_psnr([30.0, 29.99], 30.0, "input view")),
    ]
    for what, clean, corrupted in cases:
        good = not clean and bool(corrupted)
        ok &= good
        detail = clean[0] if clean else (corrupted[0] if corrupted else "corruption not reported")
        print(f"{'ok  ' if good else 'FAIL'} {what}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
