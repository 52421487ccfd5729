"""Acceptance gate: one test per release criterion.

Each test records a single PASS/FAIL line (echoed in the terminal summary
by conftest.py) and asserts the same condition.
"""

import time

import numpy as np
import pytest

import conftest

from volsplat.gaussians import GaussianSet, SH_C0, activate, activate_set, RawGaussianParams
from volsplat.geometry import Extrinsics, Intrinsics, project_point, unproject_pixel
from volsplat.pipeline import PipelineConfig, evaluate, run_pipeline
from volsplat.renderer import combined_loss, render
from volsplat.scenes import CameraPose, SceneSpec, synthesize
from volsplat.sparse_unet import (
    SparseTensor,
    UNetSpec,
    strided_down,
    submanifold_conv,
    transposed_up,
    unet_forward,
    zero_weights,
)
from volsplat.voxels import FeaturedPointCloud, voxel_index, voxelize


def gate(num, ok, desc):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    conftest.GATE_LINES.append(line)
    assert ok, line


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def wall_views(n_cams=3, size=24):
    cams = [CameraPose((0.15 * i, 0.0, 0.0), (0.0, 0.0, 2.0)) for i in range(n_cams)]
    spec = SceneSpec(kind="textured-wall", cameras=cams, image_size=(size, size), seed=1)
    return synthesize(spec)[0]


def gt_config(**kw):
    cfg = PipelineConfig()
    cfg.depth.use_gt = True
    cfg.feature.channels = 6
    for dotted, v in kw.items():
        sec, key = dotted.split("__")
        setattr(getattr(cfg, sec), key, v)
    return cfg


def test_01_geometry_roundtrip():
    rng = np.random.default_rng(0)
    K = Intrinsics(fx=120, fy=110, cx=63.5, cy=47.5, width=128, height=96)
    E = Extrinsics(rot_y(0.37), np.array([0.4, -0.6, 0.25]))
    t0 = time.perf_counter()
    u = rng.uniform(0, 127, 10_000)
    v = rng.uniform(0, 95, 10_000)
    d = rng.uniform(0.05, 80, 10_000)
    pts = unproject_pixel(u, v, d, K, E)
    u2, v2, d2 = project_point(pts, K, E)
    err = max(np.max(np.abs(u2 - u)), np.max(np.abs(v2 - v)), np.max(np.abs(d2 - d)))
    dt = time.perf_counter() - t0
    gate(1, err < 1e-6 and dt < 1.0,
         f"project/unproject roundtrip on 1e4 samples: max err {err:.2e}, {dt:.2f}s")


def test_02_voxelize_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    cloud = FeaturedPointCloud(
        positions=rng.uniform(-1, 1, (10_000, 3)),
        features=rng.normal(size=(10_000, 8)),
    )
    grid = voxelize(cloud, 0.1)
    groups = {}
    for p, f in zip(cloud.positions, cloud.features):
        groups.setdefault(tuple(voxel_index(p, 0.1)), []).append(f)
    ok = len(grid) == len(groups) and int(grid.counts.sum()) == len(cloud)
    max_rel = 0.0
    for i in range(len(grid)):
        mean = np.mean(groups[tuple(grid.keys[i])], axis=0)
        rel = np.max(np.abs(grid.features[i] - mean) / np.maximum(1e-12, np.abs(mean)))
        max_rel = max(max_rel, rel)
        ok = ok and grid.counts[i] == len(groups[tuple(grid.keys[i])])
    dt = time.perf_counter() - t0
    gate(2, ok and max_rel < 1e-6 and dt < 5.0,
         f"avg-pool voxelization vs brute force on 1e4 points: rel err {max_rel:.2e}, "
         f"counts conserved, {dt:.2f}s")


def test_03_sparse_conv_oracle():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    offsets = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    worst_conv = worst_adj = 0.0
    for _ in range(20):
        coords = np.unique(rng.integers(0, 16, (rng.integers(20, 120), 3)), axis=0)
        cin, cout = rng.integers(2, 5), rng.integers(2, 5)
        x = SparseTensor(coords, rng.normal(size=(coords.shape[0], cin)))
        w = rng.normal(size=(3, 3, 3, cin, cout))
        dense = np.zeros((18, 18, 18, cin))
        dense[coords[:, 0] + 1, coords[:, 1] + 1, coords[:, 2] + 1] = x.feats
        y = submanifold_conv(x, w)
        for row, c in enumerate(coords):
            i, j, k = c + 1
            expect = sum(dense[i + a, j + b, k + cc] @ w[a + 1, b + 1, cc + 1]
                         for a, b, cc in offsets)
            worst_conv = max(worst_conv, np.max(np.abs(y.feats[row] - expect)))
        down = strided_down(x, w)
        ycoarse = rng.normal(size=down.feats.shape)
        up = transposed_up(SparseTensor(down.coords, ycoarse, stride=2), coords,
                           np.transpose(w, (0, 1, 2, 4, 3)))
        adj_gap = abs(float(np.sum(down.feats * ycoarse)) - float(np.sum(x.feats * up.feats)))
        worst_adj = max(worst_adj, adj_gap)
    dt = time.perf_counter() - t0
    gate(3, worst_conv < 1e-5 and worst_adj < 1e-5 and dt < 30.0,
         f"20 grids <= 16^3: conv vs dense oracle {worst_conv:.2e}, "
         f"adjoint identity gap {worst_adj:.2e}, {dt:.1f}s")


def test_04_zero_weight_identity():
    rng = np.random.default_rng(3)
    coords = np.unique(rng.integers(-6, 6, (80, 3)), axis=0)
    v = SparseTensor(coords, rng.normal(size=(coords.shape[0], 6)))
    r = unet_forward(v, UNetSpec(), zero_weights(UNetSpec(), 6))
    identity_ok = np.array_equal(v.feats + r.feats, v.feats)

    import tempfile, os
    from volsplat.sparse_unet import save_weights

    views = wall_views()
    with tempfile.TemporaryDirectory() as td:
        wpath = os.path.join(td, "zero.vswt")
        save_weights(wpath, zero_weights(UNetSpec(), 6))
        a, _ = run_pipeline(views, gt_config(unet__weights_path=wpath))
        b, _ = run_pipeline(views, gt_config(unet__enabled=False))
    fields = ("centers", "opacity_logits", "log_scales", "rotations", "sh")
    mode_ok = all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)
    gate(4, identity_ok and mode_ok,
         "zero-weight refinement leaves features bit-equal; no-decoder mode "
         "bit-equal to zero-weight mode")


def test_05_activation():
    g = activate(np.zeros(14), (0, 0, 0), 0.1, 0.3)
    exact_ok = (np.all(g.center == np.float32(0.15)) and g.opacity == 0.5)

    rng = np.random.default_rng(4)
    raws = rng.normal(scale=10, size=(1000, 14))
    keys = rng.integers(-20, 20, (1000, 3))
    gset = activate_set(RawGaussianParams(raws), keys, 0.1, 0.3)
    delta = gset.centers - keys * np.float32(0.1)
    box_ok = np.all(delta >= -1e-5) and np.all(delta <= 0.3 + 1e-5)
    gate(5, exact_ok and box_ok,
         "zero raw params decode to voxel_center + (0.15,0.15,0.15) with opacity "
         "0.5; 1e3 random raws stay inside the offset box")


def test_06_voxel_aligned_density():
    views = wall_views(n_cams=2, size=24)
    dup = [views[0], views[0]]
    hw = 24 * 24
    gset, diag = run_pipeline(dup, gt_config())
    coincident_ok = len(gset) < 2 * hw and diag["pgs"] <= hw

    counts = []
    pgs_ok = True
    for size in (0.05, 0.1, 0.5, 1.0):
        _, d = run_pipeline(wall_views(), gt_config(voxel__size=size))
        counts.append(d["occupied_voxels"])
        pgs_ok = pgs_ok and d["pgs"] <= hw
    monotone_ok = all(a >= b for a, b in zip(counts, counts[1:]))
    gate(6, coincident_ok and pgs_ok and monotone_ok,
         f"coincident views dedupe into {len(gset)} < {2 * hw} splats; PGS <= H*W; "
         f"occupied voxels non-increasing over sizes: {counts}")


def test_07_renderer_conservation():
    rng = np.random.default_rng(5)
    K = Intrinsics(fx=50, fy=50, cx=23.5, cy=23.5, width=48, height=48)
    E = Extrinsics.identity()
    worst = 0.0
    order_ok = True
    for _ in range(10):
        n = rng.integers(10, 60)
        gset = GaussianSet(
            centers=np.c_[rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.0, 5.0, n)],
            opacity_logits=rng.uniform(-2, 4, n),
            log_scales=np.log(rng.uniform(0.02, 0.12, (n, 3))),
            rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
            sh=np.tile((1.0 - 0.5) / SH_C0, (n, 3)),  # pure white splats
        )
        out = render(gset, K, E)
        # white colors make each channel equal sum(alpha * T); +T_final == 1
        conservation = out.rgb[..., 0] + (1.0 - out.alpha)
        worst = max(worst, float(np.max(np.abs(conservation - 1.0))))
        perm = rng.permutation(n)
        shuf = GaussianSet(gset.centers[perm], gset.opacity_logits[perm],
                           gset.log_scales[perm], gset.rotations[perm], gset.sh[perm])
        out2 = render(shuf, K, E)
        order_ok = order_ok and np.array_equal(out.rgb, out2.rgb)

    def logit(p):
        return float(np.log(p / (1 - p)))

    pair = GaussianSet(
        centers=np.array([[0, 0, 2.0], [0, 0, 4.0]]),
        opacity_logits=np.array([logit(0.6), logit(0.6)]),
        log_scales=np.log([[0.05] * 3, [0.1] * 3]),
        rotations=np.tile([1.0, 0, 0, 0], (2, 1)),
        sh=(np.array([[1, 0, 0], [0, 0, 1.0]]) - 0.5) / SH_C0,
    )
    Kc = Intrinsics(fx=60, fy=60, cx=32, cy=32, width=64, height=64)
    center_px = render(pair, Kc, E).rgb[32, 32]
    hand = np.array([0.6, 0.0, (1 - 0.6) * 0.6])
    two_ok = np.max(np.abs(center_px - hand)) < 1e-6
    gate(7, worst < 1e-6 and order_ok and two_ok,
         f"sum(alpha T) + T_final = 1 within {worst:.2e} on 10 scenes; input order "
         "invariance bit-exact; two-splat recurrence within 1e-6")


def test_08_garden_self_consistency():
    t0 = time.perf_counter()
    cams = [CameraPose((0.25 * np.cos(a), 0.25 * np.sin(a), 0.0), (0.0, 0.0, 2.0))
            for a in (0.0, 1.6, 3.2, 4.8)]
    spec = SceneSpec(kind="gaussian-garden", cameras=cams, image_size=(64, 64), seed=0)
    views, _ = synthesize(spec)
    cfg = gt_config(unet__enabled=False, head__kind="color-copy", voxel__size=0.025)
    gset, _ = run_pipeline(views, cfg)
    psnr = evaluate(gset, views)["mean"]["psnr"]
    dt = time.perf_counter() - t0
    gate(8, psnr >= 30.0 and dt < 60.0,
         f"garden roundtrip (gt depth + color-copy head, 4 views @ 64x64): "
         f"{psnr:.2f} dB >= 30 dB, {dt:.1f}s")


def test_09_depth_regression():
    from volsplat.features import (
        CostVolume, FeatureExtractorSpec, extract_features,
        build_cost_volume, regress_depth, sample_depth_hypotheses,
    )

    cams_spec = [CameraPose((0.3 * i, 0.0, 0.0), (0.0, 0.0, 2.0)) for i in range(3)]
    spec = SceneSpec(kind="textured-wall", cameras=cams_spec, image_size=(64, 64),
                     seed=1, params={"texture_scale": 1.0})
    views, _ = synthesize(spec)
    fspec = FeatureExtractorSpec(channels=6, scale=1)
    fmaps = [extract_features(v, fspec) for v in views]
    hyp = sample_depth_hypotheses(1.0, 4.0, 32, "inverse")
    cams = [(v.intrinsics, v.extrinsics) for v in views]
    cv = build_cost_volume(fmaps[0], [(fmaps[j], cams[j]) for j in (1, 2)], cams[0], hyp)
    d = regress_depth(cv, temperature=0.05)
    spacing = float(np.max(np.diff(hyp)))  # coarsest resolution of the sampler
    err = float(np.mean(np.abs(d.values - views[0].gt_depth)))

    one_hot = np.full((4, 4, 32), -20.0)
    one_hot[..., 13] = 20.0
    d1 = regress_depth(CostVolume(one_hot, hyp), temperature=0.05)
    one_hot_err = float(np.max(np.abs(d1.values - hyp[13])))
    gate(9, err < spacing and one_hot_err < 1e-3,
         f"wall depth error {err:.4f} < hypothesis spacing {spacing:.4f}; one-hot "
         f"volume recovers d_m within {one_hot_err:.1e}")


def test_10_loss_config():
    default_ok = PipelineConfig().loss.lam == 0.05
    imgs = [np.random.default_rng(6).uniform(size=(8, 8, 3)) for _ in range(3)]
    zero_ok = combined_loss(imgs, [i.copy() for i in imgs]) == 0.0
    gate(10, default_ok and zero_ok,
         "loss weighting defaults to 0.05; identical render/target pairs give loss 0")


def test_11_thread_determinism(tmp_path):
    from click.testing import CliRunner
    from volsplat.cli import main
    from volsplat.sceneio import save_scene

    save_scene(wall_views(), tmp_path / "scene")
    runner = CliRunner()
    outs = {}
    for t in (1, 8):
        out = tmp_path / f"t{t}"
        res = runner.invoke(main, [
            "run", "--scene", str(tmp_path / "scene"), "--out", str(out),
            "--threads", str(t), "-o", "depth.use_gt=true", "-o", "feature.channels=6",
        ])
        assert res.exit_code == 0, res.output
        files = {}
        for p in sorted(out.rglob("*")):
            if p.is_file() and p.name != "timings.json":
                files[str(p.relative_to(out))] = p.read_bytes()
        outs[t] = files
    same = set(outs[1]) == set(outs[8]) and all(outs[1][k] == outs[8][k] for k in outs[1])
    gate(11, same,
         "--threads 1 and --threads 8 produce byte-identical PLY, diagnostics "
         "and PPM renders")
