import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat import _kernels, features, pipeline, sparse_unet
from volsplat.errors import InvalidInputError, StageError
from volsplat.features import MAX_DEPTH_HYPOTHESES, MAX_FEATURE_CHANNELS
from volsplat.pipeline import PipelineConfig, evaluate, run_pipeline
from volsplat.scenes import CameraPose, SceneSpec, hold_out, synthesize
from volsplat.sparse_unet import MAX_UNET_BLOCKS, MAX_UNET_WIDTH, UNetSpec


def wall_views(n_cams=3, size=24, use_gt=True):
    cams = [CameraPose((0.15 * i, 0.0, 0.0), (0.0, 0.0, 2.0)) for i in range(n_cams)]
    spec = SceneSpec(kind="textured-wall", cameras=cams, image_size=(size, size), seed=1)
    views, _ = synthesize(spec)
    return views


def base_config(**sections):
    cfg = PipelineConfig()
    cfg.depth.use_gt = True
    cfg.feature.channels = 6
    for sec, kv in sections.items():
        for k, v in kv.items():
            setattr(getattr(cfg, sec), k, v)
    return cfg


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.loss.lam == 0.05
        assert cfg.voxel.size == 0.1
        assert cfg.head.offset_radius_multiplier == 3.0
        assert cfg.depth.num_hypotheses == 32
        assert cfg.depth.temperature == 0.05

    def test_readme_config_table_lists_every_field(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| key | type | default | allowed |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        keys = {k for row in rows for k in re.findall(r"`(\w+\.\w+)`", row.split("|")[1])}
        assert keys == {f"{sec}.{attr}" for sec, types in pipeline._FIELD_TYPES.items()
                        for attr in types}

    def test_from_json_sets_fields(self):
        cfg = PipelineConfig.from_json({"loss": {"lam": 0.2}, "voxel": {"size": 0.05}})
        assert cfg.loss.lam == 0.2
        assert cfg.voxel.size == 0.05

    def test_rejects_unknown_section_and_key(self):
        with pytest.raises(InvalidInputError):
            PipelineConfig.from_json({"nope": {}})
        with pytest.raises(InvalidInputError):
            PipelineConfig.from_json({"voxel": {"sizes": 0.1}})
        with pytest.raises(InvalidInputError, match="unknown config key loss.lambda"):
            PipelineConfig.from_json({"loss": {"lambda": 0.2}})
        with pytest.raises(InvalidInputError, match="unknown config key feature.path"):
            PipelineConfig.from_json({"feature": {"path": "f.bin"}})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"unet": {"enabled": False, "levels": [4, 8]}}))
        cfg = PipelineConfig.from_json(path)
        assert cfg.unet.enabled is False
        assert cfg.unet.levels == (4, 8)

    def test_overrides(self):
        cfg = PipelineConfig()
        cfg.apply_override("voxel.size", "0.25")
        assert cfg.voxel.size == 0.25
        cfg.apply_override("unet.enabled", "false")
        assert cfg.unet.enabled is False
        cfg.apply_override("depth.num_hypotheses", "16")
        assert cfg.depth.num_hypotheses == 16
        cfg.apply_override("loss.lam", "0.3")
        assert cfg.loss.lam == 0.3

    def test_override_bad_key(self):
        cfg = PipelineConfig()
        with pytest.raises(InvalidInputError):
            cfg.apply_override("novoxel.size", "1")
        with pytest.raises(InvalidInputError):
            cfg.apply_override("plainkey", "1")
        for key in ("feature.path", "feature.kind", "feature.seed", "head.symmetric_offset",
                    "validate.x", "voxel."):
            with pytest.raises(InvalidInputError, match="unknown config"):
                cfg.apply_override(key, "1")

    @pytest.mark.parametrize("key,value", [
        ("voxel.size", "abc"), ("depth.num_hypotheses", "1.5"), ("unet.levels", "[4"),
        ("unet.levels", "5"), ("depth.use_gt", "flase"), ("unet.enabled", ""),
        ("unet.enabled", "2"), ("depth.use_gt", " true"),
    ])
    def test_override_unparsable_value(self, key, value):
        with pytest.raises(InvalidInputError, match="cannot parse"):
            PipelineConfig().apply_override(key, value)

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("False", False), ("no", False), ("OFF", False),
    ])
    def test_override_boolean_spellings(self, value, expected):
        cfg = PipelineConfig()
        cfg.apply_override("depth.use_gt", value)
        assert cfg.depth.use_gt is expected

    @pytest.mark.parametrize("config", [
        [], 3, {"depth": ["x"]}, {"depth": None},
    ])
    def test_from_json_rejects_malformed(self, config):
        with pytest.raises(InvalidInputError):
            PipelineConfig.from_json(config)

    def test_validate_accepts_ints_for_floats(self):
        cfg = PipelineConfig.from_json({"depth": {"near": 1, "far": 5, "temperature": 1},
                                        "voxel": {"size": 1}, "render": {"bg": [0, 1, 0]}})
        cfg.validate()
        assert cfg.render.bg == (0, 1, 0)

    def test_validate_accepts_defaults(self):
        PipelineConfig().validate()

    def test_validate_accepts_the_upper_bounds(self):
        cfg = base_config(feature={"channels": MAX_FEATURE_CHANNELS},
                          depth={"num_hypotheses": MAX_DEPTH_HYPOTHESES},
                          unet={"levels": (MAX_UNET_WIDTH, 1), "blocks": MAX_UNET_BLOCKS})
        cfg.validate()
        # the default level widths (C, 2C, 4C) never exceed the bound
        assert max(UNetSpec().widths(MAX_FEATURE_CHANNELS)) <= MAX_UNET_WIDTH

    def test_validate_accepts_unet_head_render_values(self):
        base_config(unet={"blocks": 0, "levels": [4, 8, 16]}, head={"sh_degree": 2},
                    render={"bg": [0, 0.5, 1]}).validate()

    @pytest.mark.parametrize("section,values", [
        ("depth", {"near": 5.0, "far": 1.0}),
        ("depth", {"near": 0.0}),
        ("depth", {"far": float("inf")}),
        ("depth", {"near": float("nan")}),
        ("depth", {"near": "1"}),
        ("depth", {"num_hypotheses": 1}),
        ("depth", {"num_hypotheses": 2.5}),
        ("depth", {"spacing": "log"}),
        ("depth", {"temperature": 0.0}),
        ("voxel", {"size": -1.0}),
        ("voxel", {"size": float("nan")}),
        ("head", {"offset_radius_multiplier": float("nan")}),
        ("unet", {"blocks": -1}),
        ("unet", {"blocks": 1.0}),
        ("unet", {"blocks": True}),
        ("unet", {"levels": (4,)}),
        ("unet", {"levels": (4, 0)}),
        ("unet", {"levels": (4, 8.0)}),
        ("unet", {"levels": 4}),
        ("head", {"sh_degree": -1}),
        ("head", {"sh_degree": 0.0}),
        ("render", {"bg": (1.0,)}),
        ("render", {"bg": (0.0, 0.0, 0.0, 0.0)}),
        ("render", {"bg": (0.0, float("inf"), 0.0)}),
        ("render", {"bg": (0.0, "0", 0.0)}),
        ("head", {"kind": "telepathic"}),
        ("feature", {"scale": 3}),
        ("depth", {"use_gt": "false"}),
        ("unet", {"enabled": 1}),
        ("head", {"sh_degree": 4}),
        ("voxel", {"size": True}),
        ("feature", {"channels": "12"}),
        ("feature", {"scale": 2.0}),
        ("feature", {"channels": 0}),
        ("unet", {"seed": "x"}),
        ("feature", {"channels": True}),
        ("unet", {"seed": -1}),
        ("head", {"seed": -1}),
        ("head", {"weights_path": None}),
        ("loss", {"lam": "0.05"}),
        ("render", {"bg": (0.0, True, 0.0)}),
        ("unet", {"blocks": MAX_UNET_BLOCKS + 1}),
        ("voxel", {"size": 10**400}),  # an int too large for a float
        ("render", {"bg": (0.0, 10**400, 0.0)}),
        ("depth", {"near": 5e-309}),  # 1 / near overflows: non-finite planes
        ("depth", {"temperature": float("nan")}),
        ("depth", {"temperature": float("inf")}),
    ])
    def test_validate_rejects(self, section, values):
        cfg = base_config(**{section: values})
        with pytest.raises(InvalidInputError):
            cfg.validate()
        # run_pipeline validates before its first stage: no StageError
        with pytest.raises(InvalidInputError):
            run_pipeline(wall_views(n_cams=2, size=8), cfg)


FIELDS = sorted((sec, key) for sec, defaults in vars(PipelineConfig()).items()
                for key in vars(defaults))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=4))
def test_json_values_are_rejected_or_typed(assignments):
    config = {}
    for (sec, key), value in assignments.items():
        config.setdefault(sec, {})[key] = value
    try:
        cfg = PipelineConfig.from_json(config)
        cfg.validate()
    except InvalidInputError:
        return
    for sec, defaults in vars(PipelineConfig()).items():
        for key, default in vars(defaults).items():
            value = getattr(getattr(cfg, sec), key)
            if isinstance(default, float) and type(value) is int:
                continue  # a float field takes an int
            assert type(value) is type(default), (sec, key, value)


class TestRunPipeline:
    def test_gt_depth_path_produces_gaussians(self):
        views = wall_views()
        gset, diag = run_pipeline(views, base_config())
        assert len(gset) > 0
        assert diag["gaussian_count"] == len(gset)
        assert diag["point_count"] == 3 * 24 * 24
        assert diag["occupied_voxels"] == len(gset)
        assert diag["pgs"] == pytest.approx(len(gset) / 3)
        assert set(diag["stages"]) == {"features", "depth", "lift", "voxelize", "refine", "decode"}
        assert all(t >= 0 for t in diag["stages"].values())

    def test_no_refine_time_without_the_unet(self):
        _, diag = run_pipeline(wall_views(), base_config(unet={"enabled": False}))
        assert set(diag["stages"]) == {"features", "depth", "lift", "voxelize", "decode"}

    def test_gt_depth_path_needs_depth_for_every_view(self):
        views = wall_views()
        views[1] = dataclasses.replace(views[1], gt_depth=None, gt_depth_mask=None)
        with pytest.raises(InvalidInputError, match="needs a depth file for every view"):
            run_pipeline(views, base_config())

    def test_estimated_depth_path_runs(self):
        views = wall_views()
        cfg = base_config(depth={"use_gt": False, "num_hypotheses": 8,
                                 "near": 1.0, "far": 4.0})
        gset, diag = run_pipeline(views, cfg)
        assert len(gset) > 0

    def test_determinism_bit_exact(self):
        views = wall_views()
        a, _ = run_pipeline(views, base_config())
        b, _ = run_pipeline(views, base_config())
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.sh, b.sh)
        np.testing.assert_array_equal(a.opacity_logits, b.opacity_logits)

    def test_duplicate_views_do_not_grow_the_set(self):
        views = wall_views(n_cams=2)
        dup = list(views) + [views[0], views[1]]
        a, _ = run_pipeline(views, base_config())
        b, _ = run_pipeline(dup, base_config())
        assert len(b) == len(a)  # coincident points fall into the same voxels

    def test_no_decoder_mode(self):
        views = wall_views()
        on = base_config()
        off = base_config(unet={"enabled": False})
        _, diag_on = run_pipeline(views, on)
        _, diag_off = run_pipeline(views, off)
        assert diag_on["unet_enabled"] and not diag_off["unet_enabled"]

    def test_zero_unet_weights_match_disabled_unet(self, tmp_path):
        from volsplat.sparse_unet import UNetSpec, save_weights, zero_weights

        views = wall_views()
        wpath = tmp_path / "zero.vswt"
        save_weights(wpath, zero_weights(UNetSpec(), 6))
        with_zero = base_config(unet={"weights_path": str(wpath)})
        without = base_config(unet={"enabled": False})
        a, _ = run_pipeline(views, with_zero)
        b, _ = run_pipeline(views, without)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.sh, b.sh)

    def test_smaller_voxels_give_more_gaussians(self):
        views = wall_views()
        counts = []
        for size in (0.4, 0.2, 0.1, 0.05):
            cfg = base_config(voxel={"size": size})
            _, diag = run_pipeline(views, cfg)
            counts.append(diag["gaussian_count"])
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_gaussian_count_bounded_by_pixel_budget(self):
        views = wall_views()
        _, diag = run_pipeline(views, base_config())
        assert diag["gaussian_count"] <= 3 * 24 * 24

    def test_color_copy_head(self):
        views = wall_views()
        cfg = base_config(head={"kind": "color-copy"})
        gset, _ = run_pipeline(views, cfg)
        # dc coefficients encode colors inside [0, 1]
        from volsplat.gaussians import SH_C0

        colors = 0.5 + SH_C0 * gset.sh
        assert np.all(colors >= -1e-6) and np.all(colors <= 1 + 1e-6)
        assert np.all(gset.opacities > 0.99)

    def test_stage_errors_are_tagged(self, tmp_path):
        views = wall_views()
        # voxel keys outside the supported range
        cfg = base_config(voxel={"size": 1e-6})
        with pytest.raises(StageError) as exc_info:
            run_pipeline(views, cfg)
        assert exc_info.value.stage == "voxelize"

    def test_bad_head_kind_rejected_before_any_stage(self):
        views = wall_views()
        cfg = base_config(head={"kind": "telepathic"})
        with pytest.raises(InvalidInputError, match="head.kind") as exc_info:
            run_pipeline(views, cfg)
        assert not isinstance(exc_info.value, StageError)

    def test_rejects_too_few_views(self):
        views = wall_views(n_cams=2)
        cfg = base_config(depth={"use_gt": False})
        with pytest.raises(InvalidInputError):
            run_pipeline(views[:1], cfg)


def twin_ring_views():
    """Four 32x32 views of the sphere scene from a ring around it. View 3 is
    moved onto view 0's camera and depth but keeps its own image: every point
    of view 0 has a twin at the same position with other features, so only
    the order of the views orders the pair's addition."""
    cams = [CameraPose((0.3 * np.cos(a), 0.1 * i, 0.3 * np.sin(a)), (0.0, 0.0, 2.0))
            for i, a in enumerate(np.linspace(0, 1.5 * np.pi, 4))]
    views = synthesize(SceneSpec(kind="sphere", cameras=cams, image_size=(32, 32), seed=2))[0]
    views[3] = dataclasses.replace(views[0], image=views[3].image)
    return views


def assert_stages_independent_of_view_order(monkeypatch, c_kernels, cfg):
    """Run the pipeline on all 24 orders of the 4 twin-ring views, on each
    backend, and compare the bytes of the float64 depths, the pooled grid, the
    refined features and the Gaussian set with those of the first order.
    Returns the cost-volume valid fractions seen."""
    got = {}

    def capture(name, fn, keep):
        def wrapper(*args):
            out = fn(*args)
            got[name] = keep(args, out)
            return out
        monkeypatch.setattr(pipeline, name, wrapper)

    capture("lift_views", pipeline.lift_views,
            lambda args, out: b"".join(d.values.tobytes() for d in args[2]))
    capture("voxelize", pipeline.voxelize,
            lambda args, out: out.keys.tobytes() + out.counts.tobytes() + out.features.tobytes())
    capture("residual_refine", pipeline.residual_refine, lambda args, out: out.feats.tobytes())
    views = twin_ring_views()
    fractions = set()
    for kernels in (_kernels.NUMPY, c_kernels):
        monkeypatch.setattr(features, "plane_sweep", kernels.plane_sweep)
        monkeypatch.setattr(sparse_unet, "scatter_add_rows", kernels.scatter_add_rows)
        want = None
        for order in itertools.permutations(range(4)):
            gset, diag = run_pipeline([views[i] for i in order], cfg)
            fractions.add(diag["cost_volume_valid_fraction"])
            got["gaussians"] = b"".join(getattr(gset, name).tobytes() for name in (
                "centers", "opacity_logits", "log_scales", "rotations", "sh", "voxel_keys"))
            want = want or dict(got)
            assert got == want, (kernels, order)
    return fractions


def test_estimated_depths_independent_of_view_order(monkeypatch, c_kernels):
    cfg = base_config(depth={"use_gt": False, "num_hypotheses": 6})
    fractions = assert_stages_independent_of_view_order(monkeypatch, c_kernels, cfg)
    # counts of cells with a valid neighbour: the same on both backends, in any order
    assert len(fractions) == 1 and 0 < fractions.pop() < 1


def test_grid_and_refined_features_independent_of_view_order(monkeypatch, c_kernels):
    """Voxel means sum in float64, and a voxel sums its points in the order of
    the views they were lifted from."""
    fractions = assert_stages_independent_of_view_order(monkeypatch, c_kernels, base_config())
    assert fractions == {None}


def ring_gaussian_counts(n_views: int, use_gt: bool) -> int:
    """Gaussians from a sphere seen by n_views cameras on a ring of radius 0.3
    around the optical axis, 64x64, voxel 0.05, U-Net off."""
    cams = [CameraPose((0.3 * np.cos(a), 0.3 * np.sin(a), 0.0), (0.0, 0.0, 2.0))
            for a in 2 * np.pi * np.arange(n_views) / n_views]
    views, _ = synthesize(SceneSpec(kind="sphere", cameras=cams, image_size=(64, 64)))
    cfg = PipelineConfig()
    cfg.depth.use_gt = use_gt
    cfg.voxel.size = 0.05
    cfg.unet.enabled = False
    return len(run_pipeline(views, cfg)[0])


def test_voxel_aligned_gaussians_grow_slower_than_the_view_count():
    """VolSplat's view-count property: pixel-aligned Gaussians would grow x4
    from 4 to 16 views (8192 -> 65536 here); voxel-aligned ones merge where
    views agree. Ground-truth depth pins the merging exactly (x1.43). With
    estimated depth the growth may not exceed the 10502 -> 21367 (x2.035)
    measured when this test was written, so a depth change cannot make it
    worse unnoticed."""
    assert [ring_gaussian_counts(n, True) for n in (2, 4, 8, 16)] == [6085, 8669, 10873, 12363]
    four, sixteen = (ring_gaussian_counts(n, False) for n in (4, 16))
    assert sixteen * 10502 <= 21367 * four, (four, sixteen)


class TestEvaluate:
    def test_report_shape(self):
        views = wall_views(n_cams=4)
        train, targets = hold_out(views, 1)
        cfg = base_config(head={"kind": "color-copy"}, voxel={"size": 0.05})
        gset, _ = run_pipeline(train, cfg)
        report = evaluate(gset, targets)
        assert len(report["per_view"]) == 1
        for key in ("mse", "psnr", "ssim"):
            assert key in report["mean"]
        assert report["gaussian_count"] == len(gset)

    def test_rejects_empty_targets(self):
        views = wall_views()
        gset, _ = run_pipeline(views, base_config())
        with pytest.raises(InvalidInputError):
            evaluate(gset, [])
