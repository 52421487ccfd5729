import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat import geometry
from volsplat.errors import BehindCameraError, InvalidInputError
from volsplat.geometry import (
    CameraView,
    Extrinsics,
    Intrinsics,
    bilinear_sample,
    project_point,
    unproject_pixel,
    warp_feature,
)
from volsplat.sceneio import load_camera_json, save_camera_json


def rot_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


K = Intrinsics(fx=100, fy=100, cx=64, cy=64, width=128, height=128)


class TestUnproject:
    def test_principal_ray(self):
        p = unproject_pixel(64, 64, 2.0, K, Extrinsics.identity())
        np.testing.assert_allclose(p, [0, 0, 2])

    def test_pure_translation(self):
        E = Extrinsics(np.eye(3), np.array([1.0, 0, 0]))
        np.testing.assert_allclose(unproject_pixel(64, 64, 2.0, K, E), [1, 0, 2])

    def test_off_axis(self):
        # K^-1 [164, 64, 1] * 2 = (2, 0, 2), by symbolic matrix arithmetic
        np.testing.assert_allclose(
            unproject_pixel(164, 64, 2.0, K, Extrinsics.identity()), [2, 0, 2]
        )

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(InvalidInputError):
            unproject_pixel(64, 64, 0.0, K, Extrinsics.identity())


class TestProject:
    def test_on_axis(self):
        u, v, d = project_point(np.array([0.0, 0, 2]), K, Extrinsics.identity())
        assert (u, v, d) == (64, 64, 2)

    def test_off_axis(self):
        u, v, d = project_point(np.array([2.0, 0, 2]), K, Extrinsics.identity())
        np.testing.assert_allclose([u, v, d], [164, 64, 2])

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project_point(np.array([0.0, 0, -1]), K, Extrinsics.identity())

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        E = Extrinsics(rot_y(0.4), np.array([0.3, -0.2, 0.1]))
        u = rng.uniform(0, 127, 10_000)
        v = rng.uniform(0, 127, 10_000)
        d = rng.uniform(0.1, 50, 10_000)
        pts = unproject_pixel(u, v, d, K, E)
        u2, v2, d2 = project_point(pts, K, E)
        assert np.max(np.abs(u2 - u)) < 1e-6
        assert np.max(np.abs(v2 - v)) < 1e-6
        assert np.max(np.abs(d2 - d)) < 1e-6


def test_rigidity_distance_invariant_to_extrinsics():
    rng = np.random.default_rng(1)
    for _ in range(20):
        axis_angle = rng.uniform(-1, 1)
        E = Extrinsics(rot_y(axis_angle), rng.normal(size=3))
        a = unproject_pixel(10, 20, 1.5, K, E)
        b = unproject_pixel(90, 110, 3.0, K, E)
        a0 = unproject_pixel(10, 20, 1.5, K, Extrinsics.identity())
        b0 = unproject_pixel(90, 110, 3.0, K, Extrinsics.identity())
        assert np.linalg.norm(a - b) == pytest.approx(np.linalg.norm(a0 - b0), abs=1e-9)


class TestExtrinsicsValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError):
            Extrinsics(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            Extrinsics(R, np.zeros(3))

    def test_rejects_non_finite_translation(self):
        with pytest.raises(InvalidInputError):
            Extrinsics(np.eye(3), np.array([0.0, np.nan, 0.0]))


class TestIntrinsicsValidation:
    @pytest.mark.parametrize("fx,fy,cx,cy", [
        (-1, 100, 64, 64), (100, 100, 200, 64), (np.nan, 100, 64, 64),
        (100, np.inf, 64, 64), (100, 100, np.nan, 64), (100, 100, 64, np.nan),
    ])
    def test_rejects_bad_values(self, fx, fy, cx, cy):
        with pytest.raises(InvalidInputError):
            Intrinsics(fx, fy, cx, cy, 128, 128)


class TestWarp:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.feat = rng.normal(size=(32, 32, 4))
        self.K = Intrinsics(fx=40, fy=40, cx=16, cy=16, width=32, height=32)

    def test_identity_warp(self):
        cam = (self.K, Extrinsics.identity())
        for depth in (0.7, 2.0, 11.0):
            warped, valid = warp_feature(self.feat, cam, cam, depth)
            np.testing.assert_array_equal(warped, self.feat)
            assert valid.all()

    def test_out_of_bounds_zero_and_flagged(self):
        ref = (self.K, Extrinsics.identity())
        src = (self.K, Extrinsics(np.eye(3), np.array([5.0, 0, 0])))
        warped, valid = warp_feature(self.feat, src, ref, 1.0)
        assert not valid.all()
        assert np.all(warped[~valid] == 0)

    def test_rejects_bad_depth(self):
        cam = (self.K, Extrinsics.identity())
        with pytest.raises(InvalidInputError):
            warp_feature(self.feat, cam, cam, -1.0)

    def test_translation_pair_matches_direct_reprojection(self):
        # stereo pair with baseline along x, plane at depth 2: disparity fx*b/d
        ref = (self.K, Extrinsics.identity())
        src = (self.K, Extrinsics(np.eye(3), np.array([0.1, 0.0, 0.0])))
        depth = 2.0
        warped, valid = warp_feature(self.feat, src, ref, depth)
        disparity = self.K.fx * 0.1 / depth  # ref pixel u maps to src u - fx*b/d
        for y in (5, 16, 30):
            for x in (5, 16, 25):
                if not valid[y, x]:
                    continue
                us = x - disparity
                x0 = int(np.floor(us))
                f = us - x0
                expect = self.feat[y, x0] * (1 - f) + self.feat[y, x0 + 1] * f
                np.testing.assert_allclose(warped[y, x], expect, atol=1e-12)


def masked_bilinear_sample(data, u, v):
    """Reference sampler: gathers each bilinear tap only where it is in bounds
    and has positive weight (the engine's implementation before the padded
    gather)."""
    h, w = data.shape[:2]
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ur = np.rint(u)
    vr = np.rint(v)
    u = np.where(np.abs(u - ur) < geometry.SNAP_TOL, ur, u)
    v = np.where(np.abs(v - vr) < geometry.SNAP_TOL, vr, v)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fx = u - x0
    fy = v - y0
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)

    out = np.zeros(u.shape + data.shape[2:], dtype=data.dtype)

    def gather(xi, yi, weight):
        inb = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h) & (weight > 0)
        if not np.any(inb):
            return
        vals = data[yi[inb], xi[inb]]
        wgt = weight[inb]
        out[inb] += vals * wgt.reshape(wgt.shape + (1,) * (data.ndim - 2))

    gather(x0, y0, (1 - fx) * (1 - fy))
    gather(x0 + 1, y0, fx * (1 - fy))
    gather(x0, y0 + 1, (1 - fx) * fy)
    gather(x0 + 1, y0 + 1, fx * fy)
    return out, valid


def assert_matches_reference(data, u, v):
    with np.errstate(invalid="ignore", over="ignore"):
        want = masked_bilinear_sample(data, u, v)
        got = bilinear_sample(data, u, v)
    assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


EXTREMES = (1e9, -1e9, np.inf, -np.inf, np.nan)


def coordinate(size):
    """One coordinate along an axis of `size` cells: anywhere around the
    grid, in the border bands, on integers and half-integers, or extreme."""
    return st.one_of(
        st.floats(-4.0, size + 3.0),
        st.floats(-2.0, -1.0, exclude_min=True, exclude_max=True),
        st.floats(size - 1.0, size + 1.0, exclude_min=True, exclude_max=True),
        st.integers(-4, size + 3).map(float),
        st.integers(-8, 2 * size + 6).map(lambda k: k / 2),
        st.sampled_from(EXTREMES),
    )


@st.composite
def sampling_case(draw):
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    tail = draw(st.sampled_from([(), (1,), (2,), (5,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(h, w) + tail).astype(dtype)
    data[rng.uniform(size=data.shape) < 0.25] = -0.0
    n = draw(st.integers(1, 24))
    u = np.array(draw(st.lists(coordinate(w), min_size=n, max_size=n)))
    v = np.array(draw(st.lists(coordinate(h), min_size=n, max_size=n)))
    return data, u, v


class TestBilinearSampleOracle:
    """The padded gather returns the reference sampler's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(sampling_case())
    def test_random_grids(self, case):
        assert_matches_reference(*case)

    def test_two_dimensional_data_through_channel_axis(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(5, 6))
        u = rng.uniform(-3, 8, (4, 7))
        v = rng.uniform(-3, 7, (4, 7))
        assert_matches_reference(data[..., None], u, v)
        assert_matches_reference(data, u, v)

    def test_border_bands(self):
        rng = np.random.default_rng(4)
        h, w = 6, 9
        data = rng.normal(size=(h, w, 3))

        def bands(size):
            return np.r_[rng.uniform(-2, -1, 40), rng.uniform(size - 1, size + 1, 40)]

        u, v = bands(w), bands(h)
        assert_matches_reference(data, u, rng.uniform(0, h - 1, 80))
        assert_matches_reference(data, rng.uniform(0, w - 1, 80), v)
        assert_matches_reference(data, u, v)

    def test_integers_and_half_integers(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 5, 2))
        grid = np.arange(-6, 14) / 2
        u, v = np.meshgrid(grid, grid)
        assert_matches_reference(data, u, v)
        # within the snapping distance of an integer
        assert_matches_reference(data, u + 4e-10, v - 4e-10)

    @pytest.mark.parametrize("value", EXTREMES)
    def test_extreme_coordinates(self, value):
        data = np.random.default_rng(6).normal(size=(4, 4, 2))
        inside = np.array([0.0, 1.5, 3.0])
        far = np.full(3, value)
        assert_matches_reference(data, far, inside)
        assert_matches_reference(data, inside, far)
        with np.errstate(invalid="ignore"):
            samples, valid = bilinear_sample(data, far, inside)
        assert not valid.any()
        assert samples.tobytes() == np.zeros_like(samples).tobytes()

    def test_negative_zero_data(self):
        data = np.full((3, 4, 2), -0.0)
        data[1, 2] = [-1.5, 2.0]
        u, v = np.meshgrid(np.linspace(-2.5, 4.5, 29), np.linspace(-2.5, 3.5, 25))
        assert_matches_reference(data, u, v)
        samples, _ = bilinear_sample(data, u, v)
        # an all -0.0 footprint samples +0.0, as the reference does
        assert not np.signbit(samples[0, 0]).any()


def test_cost_volume_matches_reference_sampler(monkeypatch):
    """The acceptance-09 wall scene gives a byte-identical cost volume through
    the padded gather and through the reference sampler. Both run on the numpy
    backend: the compiled sweep calls neither sampler (test_plane_sweep.py
    compares it with this one)."""
    from volsplat import _kernels, features
    from volsplat.features import (
        FeatureExtractorSpec, build_cost_volume, extract_features, sample_depth_hypotheses,
    )
    from volsplat.scenes import CameraPose, SceneSpec, synthesize

    monkeypatch.setattr(features, "plane_sweep", _kernels.plane_sweep_np)

    cams_spec = [CameraPose((0.3 * i, 0.0, 0.0), (0.0, 0.0, 2.0)) for i in range(3)]
    spec = SceneSpec(kind="textured-wall", cameras=cams_spec, image_size=(64, 64),
                     seed=1, params={"texture_scale": 1.0})
    views, _ = synthesize(spec)
    fspec = FeatureExtractorSpec(channels=6, scale=1)
    fmaps = [extract_features(v, fspec) for v in views]
    hyp = sample_depth_hypotheses(1.0, 4.0, 32, "inverse")
    cams = [(v.intrinsics, v.extrinsics) for v in views]

    def build():
        nbrs = [(fmaps[j], cams[j]) for j in (1, 2)]
        return build_cost_volume(fmaps[0], nbrs, cams[0], hyp).scores

    got = build()
    monkeypatch.setattr(geometry, "bilinear_sample", masked_bilinear_sample)
    want = build()
    assert got.tobytes() == want.tobytes()


def test_camera_json_roundtrip(tmp_path):
    E = Extrinsics(rot_y(0.3), np.array([1.0, 2.0, 3.0]))
    path = tmp_path / "cam.json"
    save_camera_json(path, K, E)
    K2, E2 = load_camera_json(path)
    assert K2 == K
    np.testing.assert_array_equal(E2.R, E.R)
    np.testing.assert_array_equal(E2.T, E.T)


def test_camera_view_validation():
    img = np.zeros((4, 4, 3))
    with pytest.raises(InvalidInputError):
        CameraView(image=img, intrinsics=K, extrinsics=Extrinsics.identity())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_camera_view_rejects_bad_gt_depth_where_valid(value):
    K4 = Intrinsics(fx=4, fy=4, cx=2, cy=2, width=4, height=4)
    depth = np.full((4, 4), 2.0)
    depth[1, 2] = value
    with pytest.raises(InvalidInputError, match="finite and strictly positive"):
        CameraView(np.zeros((4, 4, 3)), K4, Extrinsics.identity(), gt_depth=depth)
    mask = np.ones((4, 4), bool)
    mask[1, 2] = False  # an invalid pixel may hold anything
    CameraView(np.zeros((4, 4, 3)), K4, Extrinsics.identity(), gt_depth=depth, gt_depth_mask=mask)


def test_camera_view_depth_without_mask_is_valid_everywhere():
    K4 = Intrinsics(fx=4, fy=4, cx=2, cy=2, width=4, height=4)
    v = CameraView(np.zeros((4, 4, 3)), K4, Extrinsics.identity(), gt_depth=np.full((4, 4), 2.0))
    assert v.gt_depth_mask.dtype == bool and v.gt_depth_mask.shape == (4, 4)
    assert v.gt_depth_mask.all()


@pytest.mark.parametrize("mask", [np.ones((8, 9), bool), np.ones((8, 8))],
                         ids=["wrong-shape", "float"])
def test_camera_view_rejects_a_mask_it_cannot_index_with(mask):
    K8 = Intrinsics(fx=8, fy=8, cx=4, cy=4, width=8, height=8)
    with pytest.raises(InvalidInputError, match=r"must be a boolean array of shape \(8, 8\)"):
        CameraView(np.zeros((8, 8, 3)), K8, Extrinsics.identity(),
                   gt_depth=np.full((8, 8), 2.0), gt_depth_mask=mask)
