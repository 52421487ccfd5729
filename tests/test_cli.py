import hashlib
import json
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from click.testing import CliRunner

import volsplat
from volsplat import KERNEL_BACKEND, __version__
from volsplat.cli import main
from volsplat.gaussians import (GaussianSet, _ply_header, _ply_property_names, export_ply,
                                import_ply)
from volsplat.renderer import MAX_THREADS
from volsplat.sceneio import load_scene, read_depth, save_scene, write_depth
from volsplat.scenes import CameraPose, SceneSpec, synthesize
from volsplat.sparse_unet import UNetSpec, random_weights, save_weights


@pytest.fixture
def runner():
    return CliRunner()


def wall_spec_dict(size=24, n_cams=3):
    return {
        "kind": "textured-wall",
        "cameras": [
            {"position": [0.15 * i, 0.0, 0.0], "look_at": [0.0, 0.0, 2.0]}
            for i in range(n_cams)
        ],
        "image_size": [size, size],
        "seed": 1,
    }


@pytest.fixture
def scene_dir(tmp_path):
    spec = SceneSpec.from_json(wall_spec_dict())
    views, _ = synthesize(spec)
    d = tmp_path / "scene"
    save_scene(views, d)
    return d


def run_args(scene_dir, out_dir, *extra):
    return ["run", "--scene", str(scene_dir), "--out", str(out_dir),
            "-o", "depth.use_gt=true", "-o", "feature.channels=6", *extra]


def file_hashes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return out


class TestVersion:
    def test_version_flag(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert __version__ in res.output
        assert res.output.strip().endswith(f", kernel {KERNEL_BACKEND})")
        assert KERNEL_BACKEND in ("c", "numpy")


class TestSynth:
    def test_writes_manifest(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(wall_spec_dict()))
        out = tmp_path / "scene"
        res = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        listed = res.output.split()
        assert len(listed) == 9  # 3 views x (ppm, json, depth)
        for p in listed:
            assert os.path.exists(p)
        views = load_scene(out)
        assert len(views) == 3
        assert views[0].gt_depth is not None

    def test_garden_exports_gt_ply(self, runner, tmp_path):
        spec = {
            "kind": "gaussian-garden",
            "cameras": [
                {"position": [0.0, 0.0, 0.0], "look_at": [0.0, 0.0, 2.0]},
                {"position": [0.2, 0.0, 0.0], "look_at": [0.0, 0.0, 2.0]},
            ],
            "image_size": [16, 16],
            "params": {"side": 16},
        }
        spec_path = tmp_path / "g.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "garden"
        res = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "gt_gaussians.ply").exists()

    def test_bad_spec_exits_2(self, runner, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"kind": "nope", "cameras": []}))
        res = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_missing_spec_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["synth", "--spec", str(tmp_path / "none.json"),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


class TestRun:
    def test_produces_outputs(self, runner, scene_dir, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, run_args(scene_dir, out))
        assert res.exit_code == 0, res.output
        assert (out / "gaussians.ply").exists()
        assert (out / "summary.json").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["gaussian_count"] > 0
        renders = sorted(os.listdir(out / "renders"))
        assert renders == ["render_000.ppm", "render_001.ppm", "render_002.ppm"]

    def test_idempotent_outputs(self, runner, scene_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, run_args(scene_dir, out_a)).exit_code == 0
        assert runner.invoke(main, run_args(scene_dir, out_b)).exit_code == 0
        ha, hb = file_hashes(out_a), file_hashes(out_b)
        # stage timings differ run to run; everything else is bit-identical
        del ha["timings.json"], hb["timings.json"]
        assert ha == hb

    def test_thread_count_does_not_change_outputs(self, runner, scene_dir, tmp_path):
        out_a, out_b = tmp_path / "t1", tmp_path / "t8"
        assert runner.invoke(main, run_args(scene_dir, out_a, "--threads", "1")).exit_code == 0
        assert runner.invoke(main, run_args(scene_dir, out_b, "--threads", "8")).exit_code == 0
        ha, hb = file_hashes(out_a), file_hashes(out_b)
        del ha["timings.json"], hb["timings.json"]
        assert ha == hb

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("threads", [-1, MAX_THREADS + 1])
    def test_threads_out_of_range_exit_2_before_any_file_is_read(self, runner, tmp_path,
                                                                  command, threads):
        # neither the scene nor the PLY exists: the threads check comes first
        missing = str(tmp_path / "missing")
        args = (["run", "--scene", missing, "--out", str(tmp_path / "x")] if command == "run"
                else ["eval", "--gaussians", missing + ".ply", "--targets", missing,
                      "--out", str(tmp_path / "x.json")])
        res = runner.invoke(main, [*args, "--threads", str(threads)])
        assert_one_error_line(res, 2)
        assert f"threads must be 0 (auto) to {MAX_THREADS}, got {threads}" in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_ablate_no_decoder(self, runner, scene_dir, tmp_path):
        # the no-decoder ablation is an ordinary override
        out = tmp_path / "abl"
        res = runner.invoke(main, run_args(scene_dir, out, "-o", "unet.enabled=false"))
        assert res.exit_code == 0, res.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["unet_enabled"] is False

    def test_voxel_size_flag(self, runner, scene_dir, tmp_path):
        big = tmp_path / "big"
        small = tmp_path / "small"
        for out, size in ((big, "0.4"), (small, "0.05")):
            res = runner.invoke(main, run_args(scene_dir, out, "-o", f"voxel.size={size}"))
            assert res.exit_code == 0, res.output
        nb = json.loads((big / "diagnostics.json").read_text())["gaussian_count"]
        ns = json.loads((small / "diagnostics.json").read_text())["gaussian_count"]
        assert ns > nb

    def test_bad_override_exits_2(self, runner, scene_dir, tmp_path):
        res = runner.invoke(main, ["run", "--scene", str(scene_dir),
                                   "--out", str(tmp_path / "x"), "-o", "bogus.key=1"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flag", [["--ablate", "no-decoder"], ["--voxel-size", "0.4"]])
    def test_removed_flags_exit_2(self, runner, scene_dir, tmp_path, flag):
        # -o unet.enabled=false and -o voxel.size=... set these
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x", *flag))
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", ["render.tile=3", "loss.perceptual=true",
                                          "feature.kind=random-projection", "feature.seed=1",
                                          "head.symmetric_offset=true"])
    def test_removed_config_keys_exit_2(self, runner, scene_dir, tmp_path, override):
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x", "-o", override))
        assert_one_error_line(res, 2)
        assert "unknown config key" in res.stderr

    # explicit ids, so that a case inserted anywhere renames no other; these
    # keep the index ids pytest first gave them
    @pytest.mark.parametrize("overrides", [
        pytest.param(["depth.near=5", "depth.far=1"], id="overrides0"),
        pytest.param(["depth.num_hypotheses=1"], id="overrides1"),
        pytest.param(["depth.num_hypotheses=100000000000000000000"], id="overrides2"),
        pytest.param(["depth.num_hypotheses=257"], id="overrides3"),
        pytest.param(["feature.channels=100000000000"], id="overrides4"),
        pytest.param(["feature.channels=129"], id="overrides5"),
        pytest.param(["depth.temperature=0"], id="overrides6"),
        pytest.param(["voxel.size=-1"], id="overrides7"),
        pytest.param(["voxel.size=abc"], id="overrides8"),
        pytest.param(["head.offset_radius_multiplier=nan"], id="overrides9"),
        pytest.param(["unet.blocks=-1"], id="overrides10"),
        pytest.param(["unet.levels=[0]"], id="overrides11"),
        pytest.param(["unet.levels=[4]"], id="overrides12"),
        pytest.param(["unet.levels=[4, 0]"], id="overrides13"),
        pytest.param(["unet.levels=[4, 8.5]"], id="overrides14"),
        pytest.param(["unet.levels=[100000000, 2]"], id="overrides15"),
        pytest.param(["unet.levels=[4, 513]"], id="overrides16"),
        pytest.param(["render.bg=[1]"], id="overrides17"),
        pytest.param(["render.bg=[0, 0, NaN]"], id="overrides18"),
        pytest.param(["head.sh_degree=-1"], id="overrides19"),
        pytest.param(["head.kind=telepathic"], id="overrides20"),
        pytest.param(["head.kind=color-copy", "feature.channels=2"], id="overrides21"),
        pytest.param(["head.sh_degree=4"], id="overrides22"),
        pytest.param(["unet.blocks=9"], id="overrides23"),
        pytest.param(["depth.near=5e-309"], id="overrides24"),
        pytest.param(["depth.temperature=nan"], id="overrides25"),
        pytest.param(["render.bg=[0,0]"], id="overrides26"),
        # times voxel.size rounds to 0
        pytest.param(["head.offset_radius_multiplier=5e-324"], id="overrides27"),
        # centres past float32's range
        pytest.param(["head.offset_radius_multiplier=1e300"], id="overrides28"),
    ])
    def test_bad_config_value_exits_2(self, runner, scene_dir, tmp_path, overrides):
        extra = [arg for item in overrides for arg in ("-o", item)]
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x", *extra))
        assert_one_error_line(res, 2)
        assert "stage" not in res.stderr

    @pytest.mark.parametrize("content", [None, b"", b"VSFT", b"nope" + bytes(12)])
    def test_bad_external_feature_file_exits_2(self, runner, scene_dir, tmp_path, content):
        # feature.kind and feature.path are gone: the first key is rejected
        # before any file is opened, whatever the file holds
        path = tmp_path / "features.bin"
        if content is not None:
            path.write_bytes(content)
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x", "-o",
                                           "feature.kind=external-file", "-o",
                                           f"feature.path={path}"))
        assert_one_error_line(res, 2)
        assert "unknown config key feature.kind" in res.stderr

    def test_stage_failure_exits_1(self, runner, scene_dir, tmp_path):
        # voxel keys of a wall 2 units away at 1e-6 units are outside the supported range
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x", "-o", "voxel.size=1e-6"))
        assert_one_error_line(res, 1)
        assert "stage 'voxelize' failed" in res.stderr

    def test_feature_scale_not_dividing_the_image_exits_2(self, runner, tmp_path):
        scene = tmp_path / "scene"
        save_scene(synthesize(SceneSpec.from_json(wall_spec_dict(size=20)))[0], scene)
        res = runner.invoke(main, run_args(scene, tmp_path / "x", "-o", "feature.scale=8"))
        assert_one_error_line(res, 2)
        assert "image size must be divisible by feature.scale" in res.stderr
        assert "stage" not in res.stderr

    @staticmethod
    def wall_with_one_depth(tmp_path, value):
        """The 3-view 16x16 wall with view 0's first depth set to `value`."""
        scene = tmp_path / "scene"
        save_scene(synthesize(SceneSpec.from_json(wall_spec_dict(size=16)))[0], scene)
        path = scene / "view_000.depth"
        depth, mask = read_depth(path)
        depth[0, 0] = value
        write_depth(path, depth, mask)
        return scene

    @pytest.mark.parametrize("unet", ["false", "true"])
    def test_far_gt_depth_fails_in_voxelize(self, runner, tmp_path, unet):
        # a 1e30 depth at voxel 0.05 puts a key beyond int64, which the cast
        # to int64 once turned into INT64_MIN on all three axes
        scene = self.wall_with_one_depth(tmp_path, 1e30)
        res = runner.invoke(main, run_args(scene, tmp_path / "x", "-o", f"unet.enabled={unet}",
                                           "-o", "voxel.size=0.05"))
        assert_one_error_line(res, 1)
        assert ("stage 'voxelize' failed: voxel keys outside [-1048574, 1048574]: "
                "points too far for voxel size 0.05") in res.stderr

    @pytest.mark.parametrize("unet", ["false", "true"])
    @pytest.mark.parametrize("depth", [131072.0, 104857.5])
    def test_depth_past_the_key_range_fails_in_voxelize_with_or_without_the_unet(
            self, runner, tmp_path, unet, depth):
        # at voxel 0.1 the point's z key is 1310720 or 1048575, which the U-Net
        # could not encode, so voxelize rejects it whether or not the U-Net runs
        scene = self.wall_with_one_depth(tmp_path, depth)
        res = runner.invoke(main, run_args(scene, tmp_path / "x", "-o", f"unet.enabled={unet}"))
        assert_one_error_line(res, 1)
        assert "stage 'voxelize' failed: voxel keys outside [-1048574, 1048574]" in res.stderr

    def test_depth_at_the_key_range_edge_runs_with_the_unet(self, runner, tmp_path):
        # float32 104857.4 puts the point's z key at 1048574, the last one in range
        scene = self.wall_with_one_depth(tmp_path, 104857.4)
        res = runner.invoke(main, run_args(scene, tmp_path / "x"))
        assert res.exit_code == 0, res.output
        assert import_ply(tmp_path / "x" / "gaussians.ply").centers[:, 2].max() > 104857

    def test_empty_scene_dir_exits_2(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        res = runner.invoke(main, ["run", "--scene", str(empty), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


class TestDeterminism:
    def test_outputs_identical_across_threads_and_view_order(
            self, runner, scene_dir, tmp_path, kernel_backend):
        assert_outputs_identical_across_threads_and_view_order(runner, scene_dir, tmp_path)

    def test_estimated_depth_outputs_identical_across_threads_and_view_order(
            self, runner, scene_dir, tmp_path, kernel_backend):
        # the plane sweep runs, on the backend under test
        assert_outputs_identical_across_threads_and_view_order(
            runner, scene_dir, tmp_path, "-o", "depth.use_gt=false")


def assert_outputs_identical_across_threads_and_view_order(runner, scene_dir, tmp_path, *extra):
    # the same views, listed in reverse order
    reverse = tmp_path / "reverse"
    reverse.mkdir()
    n = len(list(scene_dir.glob("view_*.json")))
    for src in scene_dir.iterdir():
        i = int(src.name[5:8])
        (reverse / f"view_{n - 1 - i:03d}{src.suffix}").write_bytes(src.read_bytes())
    runs = {}
    for name, scene, threads in (("t1", scene_dir, 1), ("t2", scene_dir, 2),
                                 ("t8", scene_dir, 8), ("rev", reverse, 2)):
        res = runner.invoke(main, run_args(scene, tmp_path / name, "--threads", str(threads),
                                           *extra))
        assert res.exit_code == 0, res.output
        runs[name] = file_hashes(tmp_path / name)
        del runs[name]["timings.json"]
    # render i of the reversed scene is of input view n - 1 - i
    runs["rev"] = {
        (f"renders/render_{n - 1 - int(k[-7:-4]):03d}.ppm" if k.startswith("renders") else k): v
        for k, v in runs["rev"].items()}
    assert len(runs["t1"]) == 3 + n
    assert runs["t2"] == runs["t1"] and runs["t8"] == runs["t1"] and runs["rev"] == runs["t1"]
    # the byte-equal diagnostics hold the sweep's valid-cell share, null without a sweep
    fraction = json.loads((tmp_path / "t1" / "diagnostics.json").read_text())[
        "cost_volume_valid_fraction"]
    if "depth.use_gt=false" in extra:
        assert 0 < fraction <= 1
    else:
        assert fraction is None


def assert_one_error_line(res, code):
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def small_ply(path, n=30):
    rng = np.random.default_rng(0)
    gset = GaussianSet(
        centers=np.c_[rng.uniform(-0.3, 0.3, (n, 2)), rng.uniform(1.5, 2.5, n)],
        opacity_logits=rng.uniform(-1, 3, n),
        log_scales=np.log(rng.uniform(0.02, 0.08, (n, 3))),
        rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
        sh=rng.uniform(-1, 1, (n, 3)),
    )
    export_ply(gset, path)
    return path.read_bytes()


class TestEval:
    def test_report_validates_and_prints_table(self, runner, scene_dir, tmp_path):
        out = tmp_path / "out"
        assert runner.invoke(main, run_args(scene_dir, out)).exit_code == 0
        report_path = tmp_path / "report.json"
        res = runner.invoke(main, [
            "eval", "--gaussians", str(out / "gaussians.ply"),
            "--targets", str(scene_dir), "--out", str(report_path),
        ])
        assert res.exit_code == 0, res.output
        assert "psnr" in res.output and "PGS" in res.output
        report = json.loads(report_path.read_text())
        assert set(report) == {"schema_version", "per_view", "mean", "pgs", "gaussian_count"}
        assert report["schema_version"] == 1
        assert len(report["per_view"]) == 3
        for m in report["per_view"] + [report["mean"]]:
            assert set(m) == {"mse", "psnr", "ssim"}
            assert all(type(v) is float for v in m.values())
            assert m["mse"] >= 0
            assert m["psnr"] <= 99.0
            assert -1 <= m["ssim"] <= 1
        count = report["gaussian_count"]
        assert type(count) is int
        assert count == json.loads((out / "diagnostics.json").read_text())["gaussian_count"] > 0
        assert report["pgs"] == count / 3

    def test_missing_ply_exits_2(self, runner, scene_dir, tmp_path):
        res = runner.invoke(main, [
            "eval", "--gaussians", str(tmp_path / "nope.ply"),
            "--targets", str(scene_dir), "--out", str(tmp_path / "r.json"),
        ])
        assert res.exit_code == 2

    def eval_args(self, ply, scene_dir, tmp_path):
        return ["eval", "--gaussians", str(ply), "--targets", str(scene_dir),
                "--out", str(tmp_path / "r.json")]

    def test_truncated_ply_exits_2(self, runner, scene_dir, tmp_path):
        ply = tmp_path / "cut.ply"
        raw = small_ply(ply)
        assert raw.find(b"end_header\n") < 400 < len(raw)
        ply.write_bytes(raw[:400])
        res = runner.invoke(main, self.eval_args(ply, scene_dir, tmp_path))
        assert_one_error_line(res, 2)

    def test_nan_centre_ply_exits_2(self, runner, scene_dir, tmp_path):
        ply = tmp_path / "nan.ply"
        raw = bytearray(small_ply(ply))
        start = raw.find(b"end_header\n") + len(b"end_header\n")
        raw[start : start + 4] = np.float32("nan").tobytes()
        ply.write_bytes(bytes(raw))
        res = runner.invoke(main, self.eval_args(ply, scene_dir, tmp_path))
        assert_one_error_line(res, 2)
        assert "non-finite" in res.stderr

    @pytest.mark.parametrize("field,value", [("opacity", np.inf), ("scale_1", -np.inf),
                                             ("rot_3", np.nan), ("f_dc_2", np.inf)])
    def test_non_finite_field_ply_exits_2(self, runner, scene_dir, tmp_path, field, value):
        ply = tmp_path / "bad.ply"
        raw = bytearray(small_ply(ply))
        start = raw.find(b"end_header\n") + len(b"end_header\n")
        names = [ln.split()[-1] for ln in raw[:start].decode().splitlines()
                 if ln.startswith("property")]
        at = start + 4 * (2 * len(names) + names.index(field))  # third splat
        raw[at : at + 4] = np.float32(value).tobytes()
        ply.write_bytes(bytes(raw))
        res = runner.invoke(main, self.eval_args(ply, scene_dir, tmp_path))
        assert_one_error_line(res, 2)
        assert "non-finite" in res.stderr

    def test_needle_ply_evaluates_to_finite_numbers(self, runner, scene_dir, tmp_path,
                                                    each_backend):
        # a c - b^2 of this needle splat's 2D covariance cancels to zero or
        # below, which rendered NaN over half the first view; the determinant
        # as a sum of non-negative terms scores it like any other set
        ply = tmp_path / "needle.ply"
        export_ply(GaussianSet(centers=np.array([[0.1, 0.0, 2.0]]), opacity_logits=np.zeros(1),
                               log_scales=np.array([[80.0, -7.0, -7.0]]),
                               rotations=np.array([[0.9, 0.3, 0.2, 0.1]]),
                               sh=np.zeros((1, 3))), ply)
        for _ in each_backend():
            res = runner.invoke(main, self.eval_args(ply, scene_dir, tmp_path))
            assert res.exit_code == 0, res.output
            text = (tmp_path / "r.json").read_text()
            assert "NaN" not in text and "nan" not in res.output
            report = json.loads(text)
            for m in report["per_view"] + [report["mean"]]:
                assert all(np.isfinite(v) for v in m.values())
                assert m["psnr"] < 99.0  # a score, not the cap

    def test_empty_ply_exits_2(self, runner, scene_dir, tmp_path):
        ply = tmp_path / "empty.ply"
        ply.write_bytes(_ply_header(0, 0))
        res = runner.invoke(main, self.eval_args(ply, scene_dir, tmp_path))
        assert_one_error_line(res, 2)
        assert "no vertices" in res.stderr
        assert not (tmp_path / "r.json").exists()

    def test_corrupt_ply_exits_2(self, runner, scene_dir, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_bytes(b"garbage")
        res = runner.invoke(main, [
            "eval", "--gaussians", str(bad),
            "--targets", str(scene_dir), "--out", str(tmp_path / "r.json"),
        ])
        assert res.exit_code == 2


class TestBadSceneFiles:
    """A malformed scene file is a format error: exit 2, one `error:` line."""

    def run_on(self, runner, scene_dir, tmp_path):
        return runner.invoke(main, run_args(scene_dir, tmp_path / "x"))

    def test_truncated_ppm(self, runner, scene_dir, tmp_path):
        ppm = scene_dir / "view_001.ppm"
        ppm.write_bytes(ppm.read_bytes()[:300])
        assert_one_error_line(self.run_on(runner, scene_dir, tmp_path), 2)

    def test_invalid_camera_json(self, runner, scene_dir, tmp_path):
        (scene_dir / "view_001.json").write_text('{"fx": 30.0, "fy": ')
        assert_one_error_line(self.run_on(runner, scene_dir, tmp_path), 2)

    def test_missing_view_image(self, runner, scene_dir, tmp_path):
        (scene_dir / "view_002.ppm").unlink()
        res = self.run_on(runner, scene_dir, tmp_path)
        assert_one_error_line(res, 2)
        assert "view_002.ppm" in res.stderr

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_non_finite_intrinsics(self, runner, scene_dir, tmp_path, field):
        cam_path = scene_dir / "view_000.json"
        cam = json.loads(cam_path.read_text())
        cam[field] = float("nan")
        cam_path.write_text(json.dumps(cam))
        res = self.run_on(runner, scene_dir, tmp_path)
        assert_one_error_line(res, 2)
        assert "finite" in res.stderr

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gt_depth(self, runner, scene_dir, tmp_path, value):
        path = scene_dir / "view_000.depth"
        depth, mask = read_depth(path)
        assert mask[0, 0]
        depth[0, 0] = value
        write_depth(path, depth, mask)
        res = self.run_on(runner, scene_dir, tmp_path)
        assert_one_error_line(res, 2)
        assert "depth has non-finite values" in res.stderr

    def test_truncated_target_ppm_in_eval(self, runner, scene_dir, tmp_path):
        ply = tmp_path / "g.ply"
        small_ply(ply)
        ppm = scene_dir / "view_000.ppm"
        ppm.write_bytes(ppm.read_bytes()[:300])
        res = runner.invoke(main, ["eval", "--gaussians", str(ply), "--targets", str(scene_dir),
                                   "--out", str(tmp_path / "r.json")])
        assert_one_error_line(res, 2)


def config_file(content):
    """Case setup: `--config` naming a file that holds `content` (bytes
    as they are, anything else as JSON)."""
    def setup(scene_dir, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        return ["--config", str(path)]
    return setup


def depth_file(change):
    """Case setup: `change(path)` applied to the scene's `view_000.depth`."""
    def setup(scene_dir, tmp_path):
        change(scene_dir / "view_000.depth")
        return []
    return setup


def depth_as_directory(path):
    path.unlink()
    path.mkdir()


def with_trailing_byte(path):
    path.write_bytes(path.read_bytes() + b"\0")
    return path


def depth_header(h, w):
    """A depth file change: the header declares h x w, the payload stays 24 x 24."""
    def change(path):
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<II", h, w) + raw[12:])
    return change


BAD_INPUTS = {
    "use_gt-text": config_file({"depth": {"use_gt": "false"}}),
    "enabled-text": config_file({"unet": {"enabled": "no"}}),
    "symmetric_offset-text": config_file({"head": {"symmetric_offset": "false"}}),
    "voxel-size-bool": config_file({"voxel": {"size": True}}),
    "channels-text": config_file({"feature": {"channels": "12"}}),
    "scale-float": config_file({"feature": {"scale": 2.0}}),
    "unet-seed-text": config_file({"unet": {"seed": "x"}}),
    "top-level-list": config_file([]),
    "top-level-number": config_file(3),
    "section-list": config_file({"depth": ["x"]}),
    "empty-unknown-section": config_file({"nope": {}}),
    "invalid-json": config_file(b'{"depth": '),
    "not-utf8": config_file(b"\xff\xfe{}"),
    "config-missing": lambda scene_dir, tmp_path: ["--config", str(tmp_path / "none.json")],
    "config-directory": lambda scene_dir, tmp_path: ["--config", str(tmp_path)],
    "use_gt-misspelt": lambda scene_dir, tmp_path: ["-o", "depth.use_gt=flase"],
    "negative-seed": lambda scene_dir, tmp_path: ["-o", "unet.seed=-1"],
    "feature-kind-external-file": lambda scene_dir, tmp_path: ["-o", "feature.kind=external-file"],
    "feature-path": lambda scene_dir, tmp_path: ["-o", "feature.path=x"],
    "depth-directory": depth_file(depth_as_directory),
    "depth-trailing-bytes": depth_file(with_trailing_byte),
    # h * w * 4 bytes would not fit in memory; h * w overflows np.fromfile's count
    "depth-header-huge": depth_file(depth_header(0x18000010, 24)),
    "depth-header-overflow": depth_file(depth_header(2**32 - 1, 2**32 - 1)),
}


@pytest.mark.parametrize("setup", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_error_line(runner, scene_dir, tmp_path, setup):
    extra = setup(scene_dir, tmp_path)
    res = runner.invoke(main, ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "x"),
                               *extra])
    assert_one_error_line(res, 2)
    assert "stage" not in res.stderr
    assert not (tmp_path / "x").exists()


def spec_file(content):
    """Case setup: `synth` on a spec file holding `content` (bytes as they
    are, a dict as the 3-view wall spec updated with it)."""
    def setup(scene_dir, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps({**wall_spec_dict(), **content}).encode())
        return synth_args(path, tmp_path)
    return setup


def synth_args(spec_path, tmp_path):
    return ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]


def eval_args(ply, scene_dir, tmp_path):
    return ["eval", "--gaussians", str(ply), "--targets", str(scene_dir),
            "--out", str(tmp_path / "x")]


def ply_of_sh_degree_4(scene_dir, tmp_path):
    names = _ply_property_names(4)
    header = ["ply", "format binary_little_endian 1.0", "element vertex 2",
              *(f"property float {n}" for n in names), "end_header"]
    path = tmp_path / "deg4.ply"
    payload = np.zeros((2, len(names)), "<f4").tobytes()  # finite: only the degree is wrong
    path.write_bytes(("\n".join(header) + "\n").encode() + payload)
    return eval_args(path, scene_dir, tmp_path)


def eval_on_missing_targets(scene_dir, tmp_path):
    small_ply(tmp_path / "g.ply")
    return eval_args(tmp_path / "g.ply", tmp_path / "none", tmp_path)


def camera_field(**fields):
    """Case setup: `run` on the scene with `view_000.json` updated."""
    def setup(scene_dir, tmp_path):
        path = scene_dir / "view_000.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
        return run_args(scene_dir, tmp_path / "x")
    return setup


def first_camera(**fields):
    """Case setup: `synth` on the wall spec with its first camera updated."""
    cams = wall_spec_dict()["cameras"]
    cams[0] = {**cams[0], **fields}
    return spec_file({"cameras": cams})


def eval_on_ply_with_trailing_byte(scene_dir, tmp_path):
    args = eval_on_small_ply(scene_dir, tmp_path)
    with_trailing_byte(tmp_path / "g.ply")
    return args


def run_on_ppm_with_trailing_byte(scene_dir, tmp_path):
    with_trailing_byte(scene_dir / "view_001.ppm")
    return run_args(scene_dir, tmp_path / "x")


def run_on_ppm_of_5000_digit_width(scene_dir, tmp_path):
    path = scene_dir / "view_001.ppm"
    path.write_bytes(path.read_bytes().replace(b"P6\n24", b"P6\n" + b"1" * 5000, 1))
    return run_args(scene_dir, tmp_path / "x")


def eval_on_big_endian_ply(scene_dir, tmp_path):
    args = eval_on_small_ply(scene_dir, tmp_path)
    path = tmp_path / "g.ply"
    path.write_bytes(path.read_bytes().replace(b"binary_little_endian", b"binary_big_endian", 1))
    return args


def out_under_a_file(args_of):
    """Case setup: the arguments `args_of` gives, with `--out` under a regular file."""
    def setup(scene_dir, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        args = args_of(scene_dir, tmp_path)
        args[args.index("--out") + 1] = str(tmp_path / "file" / "x")
        return args
    return setup


def eval_on_small_ply(scene_dir, tmp_path):
    small_ply(tmp_path / "g.ply")
    return eval_args(tmp_path / "g.ply", scene_dir, tmp_path)


def without_depth_files(scene_dir, tmp_path):
    for p in scene_dir.glob("view_*.depth"):
        p.unlink()
    return ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "x"),
            "-o", "depth.use_gt=true"]


MALFORMED_INPUTS = {
    "synth-invalid-json": spec_file(b'{"kind": '),
    "synth-not-utf8": spec_file(b"\xff\xfe{}"),
    "synth-seed-text": spec_file({"seed": "x"}),
    "synth-seed-negative": spec_file({"seed": -1}),
    "synth-seed-float": spec_file({"seed": 1.5}),
    "synth-camera-position-two-numbers": first_camera(position=[0.0, 0.0]),
    "synth-camera-position-text": first_camera(position="abc"),
    "synth-camera-look-at-text": first_camera(look_at=["0", "0", "2"]),
    "synth-camera-up-two-numbers": first_camera(up=[0.0, -1.0]),
    "synth-image-size-one-value": spec_file({"image_size": [32]}),
    "synth-image-size-float": spec_file({"image_size": [24.0, 24]}),
    "synth-param-text": spec_file({"kind": "sphere", "params": {"radius": "x"}}),
    "synth-param-nan": spec_file({"kind": "sphere", "params": {"radius": float("nan")}}),
    "synth-param-short-vector": spec_file({"kind": "sphere", "params": {"center": [0, 0]}}),
    "synth-params-not-object": spec_file({"params": 3}),
    "synth-garden-side-one": spec_file({"kind": "gaussian-garden", "params": {"side": 1}}),
    "synth-garden-side-negative": spec_file({"kind": "gaussian-garden", "params": {"side": -1}}),
    "synth-garden-side-float": spec_file({"kind": "gaussian-garden", "params": {"side": 8.5}}),
    # 10^7 splats per row would need hundreds of TiB; 300000^2 pixels hundreds of GiB
    "synth-garden-side-huge": spec_file({"kind": "gaussian-garden", "params": {"side": 10**7}}),
    "synth-image-size-huge": spec_file({"image_size": [300000, 300000]}),
    "synth-unknown-key": spec_file({"fov": 20}),
    "synth-near-far": spec_file({"near": 0.5, "far": 10.0}),
    "synth-camera-unknown-key": first_camera(upp=[0.0, -1.0, 0.0]),
    "synth-camera-not-object": spec_file({"cameras": [[0, 0, 0], [0.2, 0, 0]]}),
    "synth-param-unknown": spec_file({"kind": "sphere", "params": {"radiuss": 0.5}}),
    "synth-param-of-other-kind": spec_file({"kind": "sphere", "params": {"wall_z": 2.0}}),
    "synth-param-bool": spec_file({"params": {"wall_z": True}}),
    "synth-param-int-too-large-for-float": spec_file({"params": {"wall_z": 10**400}}),
    # huge, zero or negative lengths and far-off cameras made numpy warn or drew a wrong scene
    "synth-camera-position-far": first_camera(position=[1e300, 0.0, 0.0]),
    "synth-camera-look-at-past-bound": first_camera(look_at=[0.0, 0.0, 1.000001e6]),
    "synth-param-radius-huge": spec_file({"kind": "sphere", "params": {"radius": 1e200}}),
    "synth-param-radius-zero": spec_file({"kind": "sphere", "params": {"radius": 0}}),
    "synth-param-radius-negative": spec_file({"kind": "sphere", "params": {"radius": -0.6}}),
    "synth-param-texture-scale-zero": spec_file({"params": {"texture_scale": 0}}),
    "synth-param-half-extent-negative": spec_file({"kind": "two-planes",
                                                   "params": {"half_extent": -0.5}}),
    "synth-param-splat-scale-huge": spec_file({"kind": "gaussian-garden",
                                               "params": {"splat_scale": 1e300}}),
    "synth-param-wall-z-past-bound": spec_file({"params": {"wall_z": 2e6}}),
    "synth-fov-text": spec_file({"fov_deg": "60"}),
    "synth-fov-zero": spec_file({"fov_deg": 0}),
    "synth-fov-180": spec_file({"fov_deg": 180}),
    "synth-spec-missing": lambda scene_dir, tmp_path: synth_args(tmp_path / "none.json", tmp_path),
    "synth-spec-directory": lambda scene_dir, tmp_path: synth_args(scene_dir, tmp_path),
    "run-scene-missing": lambda scene_dir, tmp_path: [
        "run", "--scene", str(tmp_path / "none"), "--out", str(tmp_path / "x")],
    "run-use-gt-without-depth-files": without_depth_files,
    "run-camera-width-infinity": camera_field(width=float("inf")),
    "run-camera-width-fraction": camera_field(width=24.5),  # int() would make it the true 24
    "run-camera-fx-int-too-large-for-float": camera_field(fx=10**400),
    "run-sh-degree-4": lambda scene_dir, tmp_path: run_args(scene_dir, tmp_path / "x",
                                                            "-o", "head.sh_degree=4"),
    "eval-gaussians-missing": lambda scene_dir, tmp_path: eval_args(
        tmp_path / "none.ply", scene_dir, tmp_path),
    "eval-gaussians-directory": lambda scene_dir, tmp_path: eval_args(
        scene_dir, scene_dir, tmp_path),
    "eval-targets-missing": eval_on_missing_targets,
    "eval-sh-degree-4-ply": ply_of_sh_degree_4,
    "eval-ply-trailing-byte": eval_on_ply_with_trailing_byte,
    "run-ppm-trailing-byte": run_on_ppm_with_trailing_byte,
    "run-ppm-width-of-5000-digits": run_on_ppm_of_5000_digit_width,
    "eval-ply-big-endian": eval_on_big_endian_ply,
    "synth-out-under-file": out_under_a_file(spec_file({})),
    "run-out-under-file": out_under_a_file(lambda scene_dir, tmp_path: run_args(scene_dir,
                                                                                tmp_path / "x")),
    "eval-out-under-file": out_under_a_file(eval_on_small_ply),
}


@pytest.mark.parametrize("setup", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_2_with_one_error_line(runner, scene_dir, tmp_path, setup):
    res = runner.invoke(main, setup(scene_dir, tmp_path))
    assert_one_error_line(res, 2)
    assert not (tmp_path / "x").exists()


class TestBadWeightFiles:
    """A bad weight blob is a format error found before any stage runs."""

    def blob(self, tmp_path, channels=6):
        path = tmp_path / "w.vswt"
        save_weights(path, random_weights(UNetSpec(), channels, seed=1))
        return path

    def run_with(self, runner, scene_dir, tmp_path, path, key="unet.weights_path"):
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x", "-o", f"{key}={path}"))
        assert_one_error_line(res, 2)
        assert "stage" not in res.stderr
        return res

    def test_good_blob_runs(self, runner, scene_dir, tmp_path):
        res = runner.invoke(main, run_args(scene_dir, tmp_path / "x",
                                           "-o", f"unet.weights_path={self.blob(tmp_path)}"))
        assert res.exit_code == 0, res.output

    def test_missing_blob(self, runner, scene_dir, tmp_path):
        res = self.run_with(runner, scene_dir, tmp_path, tmp_path / "missing.vswt")
        assert "cannot read weight blob" in res.stderr

    def test_truncated_blob(self, runner, scene_dir, tmp_path):
        path = self.blob(tmp_path)
        path.write_bytes(path.read_bytes()[:200])
        assert "checksum mismatch" in self.run_with(runner, scene_dir, tmp_path, path).stderr

    def test_non_finite_weight(self, runner, scene_dir, tmp_path):
        blob = random_weights(UNetSpec(), 6, seed=1)
        blob.tensors["enc1.block0.weight"][0, 1, 2, 3, 4] = np.nan
        path = tmp_path / "nan.vswt"
        save_weights(path, blob)
        res = self.run_with(runner, scene_dir, tmp_path, path)
        assert "'enc1.block0.weight' has non-finite values" in res.stderr

    def test_blob_for_other_channel_count(self, runner, scene_dir, tmp_path):
        res = self.run_with(runner, scene_dir, tmp_path, self.blob(tmp_path, channels=4))
        assert "expected" in res.stderr

    def test_missing_head_blob(self, runner, scene_dir, tmp_path):
        res = self.run_with(runner, scene_dir, tmp_path, tmp_path / "missing.vswt",
                            key="head.weights_path")
        assert "cannot read weight blob" in res.stderr


class TestSceneIO:
    def test_depth_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.5, 5.0, (7, 9))
        mask = rng.uniform(size=(7, 9)) > 0.3
        path = tmp_path / "d.depth"
        write_depth(path, depth, mask)
        d, m = read_depth(path)
        np.testing.assert_array_equal(d, depth.astype(np.float32).astype(float))
        np.testing.assert_array_equal(m, mask)

    def test_scene_roundtrip_preserves_cameras(self, tmp_path):
        spec = SceneSpec.from_json(wall_spec_dict(size=16, n_cams=2))
        views, _ = synthesize(spec)
        d = tmp_path / "s"
        save_scene(views, d)
        back = load_scene(d)
        assert len(back) == 2
        for a, b in zip(views, back):
            assert a.intrinsics == b.intrinsics
            np.testing.assert_array_equal(a.extrinsics.R, b.extrinsics.R)
            # images survive 8-bit quantization within half a step
            assert np.max(np.abs(a.image - b.image)) <= 0.5 / 255 + 1e-12


def test_cli_and_eval_import_neither_scipy_nor_jsonschema():
    """The runtime dependencies are numpy and click: a fresh interpreter that
    loads the CLI and evaluates a scene has imported neither scipy nor
    jsonschema."""
    code = textwrap.dedent("""
        import sys
        import volsplat.cli
        from volsplat.pipeline import evaluate
        from volsplat.scenes import CameraPose, SceneSpec, synthesize

        cams = [CameraPose((0.1 * i, 0.0, 0.0), (0.0, 0.0, 2.0)) for i in range(2)]
        spec = SceneSpec("gaussian-garden", cams, image_size=(16, 16), params={"side": 8})
        views, gset = synthesize(spec)
        report = evaluate(gset, views)
        assert len(report["per_view"]) == 2
        print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema")))
    """)
    src = os.path.dirname(os.path.dirname(volsplat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
