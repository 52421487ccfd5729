import numpy as np
import pytest

from volsplat.errors import InvalidInputError
from volsplat.features import (
    CostVolume,
    FeatureExtractorSpec,
    bilinear_upsample,
    build_cost_volume,
    extract_features,
    regress_depth,
    sample_depth_hypotheses,
)
from volsplat.geometry import CameraView, Extrinsics, Intrinsics


def make_view(img):
    h, w = img.shape[:2]
    K = Intrinsics(fx=w, fy=w, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    return CameraView(image=img, intrinsics=K, extrinsics=Extrinsics.identity())


class TestExtractors:
    def test_constant_gray_has_zero_gradients(self):
        view = make_view(np.full((16, 16, 3), 0.5))
        fm = extract_features(view, FeatureExtractorSpec(channels=6, scale=1))
        # channels: R G B luma (all centered at 0.5) then gx gy
        assert np.all(fm[..., 4:6] == 0)
        assert np.all(fm[..., 0:3] == 0.0)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(16, 16, 3))
        spec = FeatureExtractorSpec(channels=8, scale=2)
        a = extract_features(make_view(img), spec)
        b = extract_features(make_view(img), spec)
        np.testing.assert_array_equal(a, b)

    def test_checkerboard_gradients_on_boundaries(self):
        # 8x8 board of 2px squares; forward differences fire exactly on edges
        tile = np.kron(np.indices((8, 8)).sum(axis=0) % 2, np.ones((2, 2)))
        img = np.repeat(tile[..., None], 3, axis=2).astype(float)
        fm = extract_features(make_view(img), FeatureExtractorSpec(channels=6, scale=1))
        gx = fm[..., 4]
        expect_gx = np.zeros((16, 16))
        expect_gx[:, :-1] = tile[:, 1:] - tile[:, :-1]
        np.testing.assert_allclose(np.abs(gx) > 0, np.abs(expect_gx) > 0)

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            FeatureExtractorSpec(channels=0, scale=1)
        with pytest.raises(InvalidInputError):
            FeatureExtractorSpec(channels=12, scale=3)


class TestHypotheses:
    def test_linear(self):
        np.testing.assert_allclose(sample_depth_hypotheses(1, 3, 3, "linear"), [1, 2, 3])

    def test_inverse(self):
        np.testing.assert_allclose(sample_depth_hypotheses(1, 3, 3, "inverse"), [1, 1.5, 3])

    @pytest.mark.parametrize("spacing", ["linear", "inverse"])
    def test_two_planes_are_endpoints(self, spacing):
        np.testing.assert_allclose(sample_depth_hypotheses(0.5, 9.0, 2, spacing), [0.5, 9.0])

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidInputError):
            sample_depth_hypotheses(3, 1, 4, "inverse")

    @pytest.mark.parametrize("near,far,spacing", [
        (0.5, np.inf, "linear"), (0.5, np.inf, "inverse"), (np.nan, 2.0, "inverse"),
        (0.5, np.nan, "linear"),
        (5e-324, 1.0, "inverse"),  # 1 / near overflows: NaN planes between the ends
    ])
    def test_rejects_non_finite_planes(self, near, far, spacing):
        # an overflow on the way is no RuntimeWarning, only the error
        with pytest.raises(InvalidInputError):
            sample_depth_hypotheses(near, far, 4, spacing)

    @pytest.mark.parametrize("count", [1, 257, 100000])
    def test_rejects_plane_counts_outside_2_to_256(self, count):
        with pytest.raises(InvalidInputError, match="depth.num_hypotheses must be 2 to 256"):
            sample_depth_hypotheses(0.5, 10.0, count, "inverse")

    def test_rejects_unknown_spacing(self):
        with pytest.raises(InvalidInputError, match="depth.spacing must be one of"):
            sample_depth_hypotheses(0.5, 10.0, 4, "log")


def feature_cam(h, w):
    return (Intrinsics(fx=w, fy=w, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h),
            Extrinsics.identity())


class TestCostVolume:
    def test_identity_neighbor_gives_self_similarity(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(8, 8, 4))
        cam = feature_cam(8, 8)
        cv = build_cost_volume(data, [(data, cam)], cam, [1.0, 2.0, 4.0])
        expect = np.sum(data * data, axis=-1) / 4
        for m in range(3):
            np.testing.assert_allclose(cv.scores[:, :, m], expect, atol=1e-12)

    def test_zero_features_zero_scores(self):
        fm = np.zeros((8, 8, 4))
        cam = feature_cam(8, 8)
        cv = build_cost_volume(fm, [(fm, cam)], cam, [1.0, 2.0])
        assert np.all(cv.scores == 0)

    def test_rejects_empty_neighbors(self):
        fm = np.zeros((8, 8, 4))
        with pytest.raises(InvalidInputError):
            build_cost_volume(fm, [], feature_cam(8, 8), [1.0, 2.0])

    @pytest.mark.parametrize("hyp", [[1.0, np.inf], [1.0, 2.0, np.inf], [np.nan, 1.0]])
    def test_cost_volume_rejects_non_finite_hypotheses(self, hyp):
        with pytest.raises(InvalidInputError, match="finite"):
            CostVolume(np.zeros((2, 2, len(hyp))), np.array(hyp))

    def test_counts_cells_with_a_valid_neighbour(self, kernel_backend):
        # neighbours one pixel to the right at depth 1: there column 0 has no
        # valid warp; at depth 1e12 the shift snaps to 0 and every pixel has
        cam = feature_cam(8, 8)
        shifted = (cam[0], Extrinsics(np.eye(3), np.array([1.0 / 8, 0, 0])))
        fm = np.ones((8, 8, 2))
        cv = build_cost_volume(fm, [(fm, shifted), (fm, shifted)], cam, [1.0, 1e12])
        assert cv.valid_cells == 8 * 7 + 8 * 8
        assert CostVolume(np.zeros((2, 2, 2)), np.array([1.0, 2.0])).valid_cells is None

    def test_permutation_invariant_over_neighbors(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(8, 8, 3))
        cam = feature_cam(8, 8)
        n1 = (rng.normal(size=(8, 8, 3)),
              (cam[0], Extrinsics(np.eye(3), np.array([0.05, 0, 0]))))
        n2 = (rng.normal(size=(8, 8, 3)),
              (cam[0], Extrinsics(np.eye(3), np.array([-0.05, 0, 0]))))
        a = build_cost_volume(ref, [n1, n2], cam, [1.0, 2.0])
        b = build_cost_volume(ref, [n2, n1], cam, [1.0, 2.0])
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-15)


class TestRegressDepth:
    def test_one_hot(self):
        scores = np.full((4, 4, 3), -10.0)
        scores[:, :, 1] = 10.0
        cv = CostVolume(scores, np.array([1.0, 2.0, 3.0]))
        d = regress_depth(cv, temperature=0.05)
        np.testing.assert_allclose(d.values, 2.0, atol=1e-3)

    def test_uniform_scores_give_mean(self):
        cv = CostVolume(np.zeros((4, 4, 3)), np.array([1.0, 2.0, 3.0]))
        d = regress_depth(cv, temperature=1.0)
        np.testing.assert_allclose(d.values, 2.0)

    def test_output_in_hypothesis_range(self):
        rng = np.random.default_rng(10)
        hyp = np.array([0.5, 1.0, 2.0, 4.0])
        cv = CostVolume(rng.normal(size=(6, 6, 4)), hyp)
        d = regress_depth(cv, temperature=0.3)
        assert np.all(d.values >= hyp[0]) and np.all(d.values <= hyp[-1])

    def test_rejects_bad_temperature(self):
        cv = CostVolume(np.zeros((2, 2, 2)), np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            regress_depth(cv, temperature=0.0)

    @pytest.mark.parametrize("temperature", [float("inf"), float("nan"), -float("inf"), -1.0,
                                             True, "0.05"])
    def test_rejects_non_finite_or_non_positive_temperature(self, temperature):
        cv = CostVolume(np.zeros((2, 2, 4)), np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(InvalidInputError, match="depth.temperature must be a positive finite"):
            regress_depth(cv, temperature=temperature)


class TestUpsample:
    def test_same_size_identity(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(bilinear_upsample(src, (2, 2)), src)

    def test_constant_stays_constant(self):
        np.testing.assert_allclose(bilinear_upsample(np.full((4, 4), 2.5), (16, 16)), 2.5)

    def test_2x2_to_4x4_matches_bilinear_formula(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = bilinear_upsample(src, (4, 4))
        # oracle: sample at (i + .5)/2 - .5 with edge clamping
        coords = np.clip((np.arange(4) + 0.5) / 2 - 0.5, 0, 1)
        expect = np.empty((4, 4))
        for i, y in enumerate(coords):
            for j, x in enumerate(coords):
                y0, x0 = int(np.floor(y)), int(np.floor(x))
                y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
                fy, fx = y - y0, x - x0
                expect[i, j] = (src[y0, x0] * (1 - fy) * (1 - fx)
                                + src[y0, x1] * (1 - fy) * fx
                                + src[y1, x0] * fy * (1 - fx)
                                + src[y1, x1] * fy * fx)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_rejects_non_integer_ratio(self):
        with pytest.raises(InvalidInputError):
            bilinear_upsample(np.ones((2, 2)), (5, 5))
