import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from volsplat import renderer, scenes
from volsplat._kernels import EXTENT
from volsplat._kernels._composite_np import libm_exp
from volsplat.errors import InvalidInputError
from volsplat.geometry import project_point
from volsplat.renderer import _project_all, rasterize, render
from volsplat.scenes import (
    MAX_GARDEN_SIDE,
    MAX_IMAGE_SIDE,
    MAX_SCENE_NUMBER,
    MIN_LENGTH,
    CameraPose,
    SceneSpec,
    _garden_gaussians,
    _garden_view,
    _intrinsics,
    hold_out,
    look_at_extrinsics,
    synthesize,
)


def two_cam_spec(kind, **params):
    return SceneSpec(
        kind=kind,
        cameras=[
            CameraPose((0.0, 0.0, 0.0), (0.0, 0.0, 2.0)),
            CameraPose((0.3, 0.0, 0.0), (0.0, 0.0, 2.0)),
        ],
        image_size=(32, 32),
        seed=3,
        params=params,
    )


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        E = look_at_extrinsics((1.0, 2.0, 3.0), (1.0, 2.0, 7.0))
        np.testing.assert_allclose(E.R[:, 2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(E.T, [1, 2, 3])

    def test_rotation_is_valid(self):
        E = look_at_extrinsics((0.5, -0.2, 0.1), (0.0, 0.0, 2.0))
        np.testing.assert_allclose(E.R.T @ E.R, np.eye(3), atol=1e-12)
        assert np.linalg.det(E.R) == pytest.approx(1.0)

    def test_target_projects_to_image_center_ray(self):
        E = look_at_extrinsics((0.4, 0.3, -0.5), (0.0, 0.0, 2.0))
        p_cam = E.world_to_cam(np.array([0.0, 0.0, 2.0]))
        np.testing.assert_allclose(p_cam[:2], 0.0, atol=1e-12)
        assert p_cam[2] > 0

    def test_degenerate_inputs(self):
        with pytest.raises(InvalidInputError):
            look_at_extrinsics((0, 0, 0), (0, 0, 0))
        with pytest.raises(InvalidInputError):
            look_at_extrinsics((0, 0, 0), (0, 0, 1), up=(0, 0, 1))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            two_cam_spec("mystery-box")

    def test_needs_two_cameras(self):
        with pytest.raises(InvalidInputError):
            SceneSpec(kind="textured-wall", cameras=[CameraPose((0, 0, 0), (0, 0, 2))])

    def test_from_json_dict(self):
        spec = SceneSpec.from_json({
            "kind": "sphere",
            "cameras": [
                {"position": [0, 0, 0], "look_at": [0, 0, 2]},
                {"position": [0.2, 0, 0], "look_at": [0, 0, 2]},
            ],
            "image_size": [16, 16],
        })
        assert spec.kind == "sphere"
        assert spec.image_size == (16, 16)

    def test_from_json_missing_field(self):
        with pytest.raises(InvalidInputError):
            SceneSpec.from_json({"kind": "sphere"})

    @pytest.mark.parametrize("change", [
        {"fov": 20},
        {"near": 0.5},
        {"far": 10.0},
        {"cameras": [{"position": [0, 0, 0], "look_at": [0, 0, 2], "upp": [0, -1, 0]},
                     {"position": [0.2, 0, 0], "look_at": [0, 0, 2]}]},
        {"cameras": [[0, 0, 0], [0.2, 0, 0]]},
        {"params": {"radiuss": 0.5}},
        {"params": {"wall_z": 2.0}},
        {"params": {"radius": True}},
        {"params": {"radius": 10**400}},
        {"params": {"center": [0, 0, 10**400]}},
        {"params": {"center": (0, 0)}},
        {"fov_deg": "60"},
        {"fov_deg": 0},
        {"fov_deg": 180},
        {"fov_deg": True},
        {"image_size": [MAX_IMAGE_SIDE + 1, 16]},
        {"params": {"radius": 1e200}},
        {"params": {"radius": 0}},
        {"params": {"radius": -0.6}},
        {"params": {"radius": MIN_LENGTH / 2}},
        {"params": {"texture_scale": 0}},
        {"params": {"far_z": MAX_SCENE_NUMBER * 1.5}},
        {"params": {"center": [0, 0, -MAX_SCENE_NUMBER * 1.5]}},
        {"cameras": [{"position": [1e300, 0, 0], "look_at": [0, 0, 2]},
                     {"position": [0.2, 0, 0], "look_at": [0, 0, 2]}]},
        {"cameras": [{"position": [0, 0, 0], "look_at": [0, 0, 2], "up": [0, -2e6, 0]},
                     {"position": [0.2, 0, 0], "look_at": [0, 0, 2]}]},
    ], ids=repr)
    def test_from_json_rejects(self, change):
        with pytest.raises(InvalidInputError):
            SceneSpec.from_json({**SPHERE_SPEC, **change})

    @pytest.mark.parametrize("value", [1, 8.5, 2.0, True, MAX_GARDEN_SIDE + 1])
    def test_garden_side_must_be_an_integer_in_range(self, value):
        with pytest.raises(InvalidInputError, match="'side' must be an integer from 2"):
            two_cam_spec("gaussian-garden", side=value)

    @pytest.mark.parametrize("kind", scenes._PARAMS)
    def test_numbers_at_their_bounds_synthesize_without_warnings(self, kind):
        # tier-1 turns a RuntimeWarning into an error: every length at its lower
        # bound seen from nearby, then every number at the upper bound from far off
        m, eps, table = MAX_SCENE_NUMBER, MIN_LENGTH, scenes._PARAMS[kind]
        small = {k: eps for k in table if k in scenes._LENGTHS}
        near = [CameraPose((0, 0, 0), (0, 0, 2)), CameraPose((eps, 0, 0), (0, 0, 2), (0, -eps, 0))]
        large = {k: (m,) * 3 if isinstance(d, tuple) else m
                 for k, d in table.items() if k != "side"}
        far = [CameraPose((0, 0, -m), (0, 0, m), (0, -m, 0)), CameraPose((-m, -m, -m), (0, 0, m))]
        for params, cameras in ((small, near), (large, far)):
            synthesize(SceneSpec(kind, cameras, image_size=(8, 8), params=params))

    def test_size_bounds_are_inclusive(self):
        spec = SceneSpec.from_json({**SPHERE_SPEC, "image_size": [MAX_IMAGE_SIDE, 1]})
        assert spec.image_size == (MAX_IMAGE_SIDE, 1)
        assert two_cam_spec("gaussian-garden", side=MAX_GARDEN_SIDE).params["side"] == 512

    def test_from_json_turns_lists_into_tuples(self):
        spec = SceneSpec.from_json({**SPHERE_SPEC, "fov_deg": 45})
        assert spec.image_size == (16, 16) and spec.fov_deg == 45
        assert spec.cameras[0] == CameraPose((0, 0, 0), (0, 0, 2))
        assert spec.cameras[0].up == scenes.DEFAULT_UP


SPHERE_SPEC = {
    "kind": "sphere",
    "cameras": [
        {"position": [0, 0, 0], "look_at": [0, 0, 2]},
        {"position": [0.2, 0, 0], "look_at": [0, 0, 2]},
    ],
    "image_size": [16, 16],
}

# Each kind's parameters at the defaults the scenes were first drawn with.
DEFAULT_PARAMS = {
    "textured-wall": {"wall_z": 2.0, "texture_scale": 2.0},
    "two-planes": {"near_z": 1.5, "far_z": 3.0, "half_extent": 0.5, "texture_scale": 2.0},
    "sphere": {"center": (0.0, 0.0, 2.0), "radius": 0.6, "far_z": 4.0, "texture_scale": 2.0},
    "gaussian-garden": {"side": 48, "half_extent": 1.6, "z_base": 2.0, "z_amp": 0.15,
                        "splat_scale": 0.07},
}


def views_bytes(spec):
    views, gt = synthesize(spec)
    return ([(v.image.tobytes(), v.gt_depth.tobytes(), v.gt_depth_mask.tobytes()) for v in views],
            None if gt is None else gt.centers.tobytes())


class TestParamTable:
    @pytest.mark.parametrize("kind", DEFAULT_PARAMS)
    def test_explicit_defaults_give_the_same_views(self, kind):
        assert scenes._PARAMS[kind].keys() == DEFAULT_PARAMS[kind].keys()
        assert views_bytes(two_cam_spec(kind)) == views_bytes(
            two_cam_spec(kind, **DEFAULT_PARAMS[kind]))

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind, table in DEFAULT_PARAMS.items()
                                           for key in table])
    def test_every_param_is_read(self, kind, key):
        default = DEFAULT_PARAMS[kind][key]
        if isinstance(default, tuple):
            value = tuple(c + 0.05 for c in default)
        else:
            value = default + (2 if isinstance(default, int) else 0.1 * default)
        assert views_bytes(two_cam_spec(kind)) != views_bytes(two_cam_spec(kind, **{key: value}))

    def test_readme_lists_every_param_and_default(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        lines = [line.strip() for line in text.splitlines()]
        start = lines.index("| kind | param | default |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        table = {}
        for row in rows:
            kind, key, default = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
            table[kind, key] = json.loads(default)
        assert table == {(kind, key): list(d) if isinstance(d, tuple) else d
                         for kind, params in scenes._PARAMS.items() for key, d in params.items()}


class TestSynthesize:
    def test_wall_depth_is_constant_for_fronto_camera(self):
        views, gt = synthesize(two_cam_spec("textured-wall", wall_z=2.0))
        assert gt is None
        np.testing.assert_allclose(views[0].gt_depth, 2.0, atol=1e-12)
        assert views[0].image.shape == (32, 32, 3)
        assert views[0].gt_depth_mask.all()

    def test_determinism(self):
        a, _ = synthesize(two_cam_spec("two-planes"))
        b, _ = synthesize(two_cam_spec("two-planes"))
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va.image, vb.image)
            np.testing.assert_array_equal(va.gt_depth, vb.gt_depth)

    def test_seed_changes_texture(self):
        spec_a = two_cam_spec("textured-wall")
        spec_b = two_cam_spec("textured-wall")
        spec_b.seed = 99
        a, _ = synthesize(spec_a)
        b, _ = synthesize(spec_b)
        assert not np.array_equal(a[0].image, b[0].image)

    def test_two_planes_depth_levels(self):
        views, _ = synthesize(two_cam_spec("two-planes", near_z=1.5, far_z=3.0))
        d = views[0].gt_depth
        assert d.min() == pytest.approx(1.5, abs=0.1)
        assert np.any(np.isclose(d, 3.0, atol=1e-9))

    def test_sphere_depth_range(self):
        views, _ = synthesize(
            two_cam_spec("sphere", center=(0.0, 0.0, 2.0), radius=0.6, far_z=4.0)
        )
        d = views[0].gt_depth
        assert d.min() == pytest.approx(1.4, abs=0.05)  # front of the sphere
        assert d.max() <= 4.0 + 1e-9

    @pytest.mark.parametrize("kind", ["textured-wall", "two-planes", "sphere"])
    def test_cross_view_color_consistency(self, kind):
        # reproject valid pixels of view 0 into view 1; where depth agrees the
        # surface point is co-visible and colors must match (Lambertian scenes)
        views, _ = synthesize(two_cam_spec(kind))
        v0, v1 = views
        h, w = v0.image.shape[:2]
        ys, xs = np.mgrid[0:h, 0:w]
        from volsplat.geometry import unproject_pixel

        pts = unproject_pixel(xs.astype(float), ys.astype(float), v0.gt_depth,
                              v0.intrinsics, v0.extrinsics)
        u, v, z = project_point(pts.reshape(-1, 3), v1.intrinsics, v1.extrinsics, clip=False)
        from volsplat.geometry import bilinear_sample

        d1, in_bounds = bilinear_sample(v1.gt_depth[..., None], u, v)
        ok = (z > 0) & in_bounds
        # co-visible where the interpolated depth agrees (excludes occlusions
        # and depth-discontinuity pixels where interpolation is meaningless)
        ok &= np.abs(d1[..., 0] - z) < 0.01
        assert ok.sum() > 100  # enough co-visible samples to be meaningful
        c1, _ = bilinear_sample(v1.image, u, v)
        c0 = v0.image.reshape(-1, 3)
        assert np.median(np.abs(c0[ok] - c1[ok])) < 0.03

    def test_garden_returns_gaussians_and_renders_consistently(self):
        spec = two_cam_spec("gaussian-garden")
        views, gt = synthesize(spec)
        assert gt is not None and len(gt) > 0
        # most of the frame is covered by the splat surface
        assert views[0].gt_depth_mask.mean() > 0.9
        d = views[0].gt_depth[views[0].gt_depth_mask]
        assert np.all((d > 1.0) & (d < 3.5))

    def test_camera_behind_wall_rejected(self):
        spec = SceneSpec(
            kind="textured-wall",
            cameras=[CameraPose((0, 0, 5.0), (0, 0, 7.0)),  # facing away
                     CameraPose((0, 0, 0), (0, 0, 2.0))],
            image_size=(16, 16),
        )
        with pytest.raises(InvalidInputError):
            synthesize(spec)


# The benchmark's garden rig: six cameras on a 0.25 ring around the surface.
GARDEN_RING = [CameraPose((0.25 * np.cos(a), 0.25 * np.sin(a), 0.0), (0.0, 0.0, 2.0))
               for a in 2 * np.pi * np.arange(6) / 6]


def expected_depth_per_splat(gset, K, E):
    """Expected depth and mask from a whole-image, one-splat-at-a-time loop,
    which knows no tiles: a splat reaches every pixel where q <= EXTENT^2.
    Its exp is libm's, as both compositing kernels' is."""
    h, w = K.height, K.width
    mean2d, conics, z, colors, ops, radius, idx = _project_all(gset, K, E)
    order = np.lexsort((idx, z))
    mean2d, conics, z, ops = mean2d[order], conics[order], z[order], ops[order]
    ys, xs = np.mgrid[0:h, 0:w]
    transmit = np.ones((h, w))
    acc_d = np.zeros((h, w))
    acc_a = np.zeros((h, w))
    for i in range(mean2d.shape[0]):
        dx = xs - mean2d[i, 0]
        dy = ys - mean2d[i, 1]
        q = conics[i, 0] * dx * dx + 2 * conics[i, 1] * dx * dy + conics[i, 2] * dy * dy
        keep = (transmit >= 1e-4) & ~(q > EXTENT * EXTENT)
        a = np.zeros((h, w))
        a[keep] = np.minimum(0.99, ops[i] * libm_exp(-0.5 * q[keep]))
        acc_d += a * transmit * z[i]
        acc_a += a * transmit
        transmit *= 1.0 - a
    mask = acc_a > 0.5
    depth = np.divide(acc_d, acc_a, out=np.ones((h, w)), where=acc_a > 0)
    return depth, mask


def test_garden_view_depth_matches_per_splat_loop(each_backend):
    spec = SceneSpec(kind="gaussian-garden", cameras=GARDEN_RING, image_size=(64, 64), seed=0)
    gset, K = _garden_gaussians(spec), _intrinsics(spec)
    for _ in each_backend():
        for cam in GARDEN_RING:
            E = look_at_extrinsics(cam.position, cam.look_at, cam.up)
            _, depth, mask = _garden_view(gset, K, E)
            want_depth, want_mask = expected_depth_per_splat(gset, K, E)
            assert np.array_equal(mask, want_mask)
            assert mask.mean() > 0.9
            assert depth.tobytes() == want_depth.tobytes()


def test_garden_view_mask_on_translucent_splats(each_backend):
    # partial coverage, so the alpha > 0.5 mask has an edge to get right
    from test_renderer import E0, K, make_set

    rng = np.random.default_rng(15)
    n = 300
    gset = make_set(np.c_[rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(1.5, 4.0, n)],
                    rng.uniform(0, 1, (n, 3)), rng.uniform(0.1, 0.5, n),
                    rng.uniform(0.03, 0.1, (n, 3)))
    for _ in each_backend():
        _, depth, mask = _garden_view(gset, K, E0)
        want_depth, want_mask = expected_depth_per_splat(gset, K, E0)
        assert 0.1 < mask.mean() < 0.9
        assert np.array_equal(mask, want_mask)
        assert depth.tobytes() == want_depth.tobytes()


def two_pass_view(gset, K, E):
    """The garden view as two projections and two composites: `render` on a
    black background for the image, then the colour [z, 1, 0] for depth."""
    image = np.clip(render(gset, K, E, bg=(0.0, 0.0, 0.0)).rgb, 0.0, 1.0)
    mean2d, conics, z, _, ops, radius, _ = _project_all(gset, K, E)
    colors = np.stack([z, np.ones_like(z), np.zeros_like(z)], axis=1)
    acc, _ = rasterize(mean2d, conics, colors, ops, radius, K.height, K.width)
    depth = np.divide(acc[..., 0], acc[..., 1], out=np.ones(acc.shape[:2]), where=acc[..., 1] > 0)
    mask = acc[..., 1] > 0.5
    return image, np.where(mask, depth, 1.0), mask


@pytest.mark.parametrize("image_size,params", [
    ((64, 64), {}),  # the benchmark's garden
    ((37, 29), {"side": 20, "half_extent": 0.8}),  # partial tiles, bare background
])
def test_garden_synthesis_matches_two_pass_path(kernel_backend, image_size, params):
    spec = SceneSpec(kind="gaussian-garden", cameras=GARDEN_RING, image_size=image_size,
                     seed=4, params=params)
    views, gset = synthesize(spec)
    K = _intrinsics(spec)
    for view in views:
        want = two_pass_view(gset, K, view.extrinsics)
        got = (view.image, view.gt_depth, view.gt_depth_mask)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if params:
        assert 0.05 < views[0].gt_depth_mask.mean() < 0.95


@pytest.mark.parametrize("kind", DEFAULT_PARAMS)
def test_garden_projects_and_composites_once_per_camera(monkeypatch, kind):
    calls = {"_project_all": 0, "rasterize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:  # both the renderer's names and the ones scenes imported
        wrapper = counted(name, getattr(renderer, name))
        for module in (renderer, scenes):
            monkeypatch.setattr(module, name, wrapper)
    spec = SceneSpec(kind=kind, cameras=GARDEN_RING[:3], image_size=(16, 16))
    synthesize(spec)
    n = len(spec.cameras) if kind == "gaussian-garden" else 0
    assert calls == {"_project_all": n, "rasterize": n}


class TestHoldOut:
    def test_split(self):
        views = list(range(5))
        train, targets = hold_out(views, 2)
        assert train == [0, 1, 2] and targets == [3, 4]

    def test_zero_targets(self):
        train, targets = hold_out([1, 2, 3], 0)
        assert train == [1, 2, 3] and targets == []

    def test_cannot_hold_out_everything(self):
        with pytest.raises(InvalidInputError):
            hold_out([1, 2], 2)

    def test_negative_count_raises(self):
        with pytest.raises(InvalidInputError, match="negative"):
            hold_out(list(range(6)), -1)
