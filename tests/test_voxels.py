import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat.errors import InvalidInputError
from volsplat.features import FeatureMap
from volsplat.geometry import CameraView, DepthMap, Extrinsics, Intrinsics
from volsplat.voxels import (
    FeaturedPointCloud,
    lift_views,
    voxel_center,
    voxel_index,
    voxelize,
)


def brute_force_voxelize(positions, features, v_s):
    """Naive group-by oracle."""
    groups = {}
    for p, f in zip(positions, features):
        key = tuple(int(k) for k in voxel_index(p, v_s))
        groups.setdefault(key, []).append(f)
    return {k: (np.mean(v, axis=0), len(v)) for k, v in groups.items()}


def assert_bit_equal_to_full_lexsort(cloud, v_s):
    """`voxelize` against one reference: each voxel's points summed with
    np.add.reduceat in list order. The reference lexsort takes the row index
    as its last key, so no tie is left to the stability of the sort."""
    keys = voxel_index(cloud.positions, v_s)
    order = np.lexsort((np.arange(len(keys)), keys[:, 2], keys[:, 1], keys[:, 0]))
    keys, feats = keys[order], cloud.features[order]
    starts = np.flatnonzero(np.append(True, np.any(keys[1:] != keys[:-1], axis=1)))
    counts = np.diff(np.append(starts, len(keys)))
    means = np.add.reduceat(feats, starts, axis=0) / counts[:, None]
    grid = voxelize(cloud, v_s)
    assert grid.keys.tobytes() == keys[starts].tobytes()
    assert grid.features.tobytes() == means.tobytes()
    assert grid.counts.tobytes() == counts.astype(np.int64).tobytes()


class TestVoxelIndex:
    def test_known_values(self):
        np.testing.assert_array_equal(voxel_index(np.array([0.26, -0.04, 1.01]), 0.1), [3, 0, 10])

    def test_origin(self):
        for v_s in (0.01, 0.1, 2.0):
            np.testing.assert_array_equal(voxel_index(np.zeros(3), v_s), [0, 0, 0])

    def test_half_away_from_zero_on_exact_halves(self):
        np.testing.assert_array_equal(voxel_index(np.array([0.05, -0.05, 0.15]), 0.1), [1, -1, 2])

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(100, 3))
        np.testing.assert_array_equal(voxel_index(-p, 0.07), -voxel_index(p, 0.07))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            voxel_index(np.zeros(3), 0.0)
        with pytest.raises(InvalidInputError):
            voxel_index(np.array([np.nan, 0, 0]), 0.1)

    @pytest.mark.parametrize("p,v_s", [(1e30, 1.0), (-1e30, 1.0), (2.0**63, 1.0),
                                       (-2.0**63 - 2048, 1.0), (1e300, 1e-10)],
                             ids=["1e30", "-1e30", "2^63", "below-2^63", "infinite-quotient"])
    def test_rejects_keys_beyond_int64(self, p, v_s):
        with pytest.raises(InvalidInputError, match="do not fit in int64"):
            voxel_index(np.array([0.0, p, 0.0]), v_s)

    def test_exact_above_2_to_the_52(self):
        # an odd integer quotient from 2^52 to 2^53 is its own key, not the next one
        p = np.array([2.0**52 + 1, -(2.0**52 + 3), 2.0**53 - 1])
        np.testing.assert_array_equal(voxel_index(p, 1.0), [2**52 + 1, -(2**52 + 3), 2**53 - 1])

    def test_largest_keys_that_fit(self):
        # the float64 just below 2^63 is 2^63 - 1024; -2^63 is INT64_MIN itself
        top = np.nextafter(2.0**63, 0)
        np.testing.assert_array_equal(voxel_index(np.array([top, -2.0**63, 0.0]), 1.0),
                                      [2**63 - 1024, -2**63, 0])


class TestVoxelCenter:
    def test_known_value(self):
        np.testing.assert_allclose(voxel_center(np.array([3, 0, 10]), 0.1), [0.3, 0.0, 1.0])

    def test_origin(self):
        np.testing.assert_array_equal(voxel_center(np.zeros(3, np.int64), 0.25), [0, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.integers(-1000, 1000)] * 3),
        st.floats(0.01, 10.0, allow_nan=False),
    )
    def test_roundtrip_property(self, key, v_s):
        key = np.array(key, np.int64)
        np.testing.assert_array_equal(voxel_index(voxel_center(key, v_s), v_s), key)


def flat_view(h=8, w=8, T=(0, 0, 0), depth=2.0):
    """A uniform grey view of a wall at `depth`, with ground-truth depth."""
    K = Intrinsics(fx=10, fy=10, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    E = Extrinsics(np.eye(3), np.array(T, float))
    img = np.full((h, w, 3), 0.5)
    return CameraView(image=img, intrinsics=K, extrinsics=E, gt_depth=np.full((h, w), depth))


def make_cloud(rng, m=1000, c=4):
    return FeaturedPointCloud(
        positions=rng.uniform(-1, 1, (m, 3)),
        features=rng.normal(size=(m, c)),
    )


class TestVoxelize:
    def test_two_points_one_voxel(self):
        cloud = FeaturedPointCloud(
            positions=np.array([[0.01, 0.0, 0.0], [-0.01, 0.0, 0.0]]),
            features=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        grid = voxelize(cloud, 0.1)
        assert len(grid) == 1
        np.testing.assert_allclose(grid.features[0], [2.0, 3.0])
        assert grid.counts[0] == 2

    def test_isolated_points_keep_features(self):
        positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        feats = np.arange(9.0).reshape(3, 3)
        cloud = FeaturedPointCloud(positions, feats)
        grid = voxelize(cloud, 0.1)
        assert len(grid) == 3
        assert np.all(grid.counts == 1)
        # grid sorts by key; match back by key lookup
        for p, f in zip(positions, feats):
            key = voxel_index(p, 0.1)
            row = np.nonzero(np.all(grid.keys == key, axis=1))[0][0]
            np.testing.assert_array_equal(grid.features[row], f)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        cloud = make_cloud(rng, m=10_000)
        grid = voxelize(cloud, 0.1)
        oracle = brute_force_voxelize(cloud.positions, cloud.features, 0.1)
        assert len(grid) == len(oracle)
        for i in range(len(grid)):
            mean, count = oracle[tuple(grid.keys[i])]
            np.testing.assert_allclose(grid.features[i], mean, rtol=1e-6)
            assert grid.counts[i] == count

    def test_count_conservation(self):
        rng = np.random.default_rng(2)
        cloud = make_cloud(rng, m=5000)
        grid = voxelize(cloud, 0.2)
        assert grid.counts.sum() == len(cloud)

    def test_mean_times_count_recovers_sums(self):
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng, m=3000)
        grid = voxelize(cloud, 0.15)
        keys = voxel_index(cloud.positions, 0.15)
        for i in rng.integers(0, len(grid), 20):
            member = np.all(keys == grid.keys[i], axis=1)
            direct = cloud.features[member].sum(axis=0)
            np.testing.assert_allclose(grid.features[i] * grid.counts[i], direct, atol=1e-6)

    def test_empty_cloud(self):
        cloud = FeaturedPointCloud(np.zeros((0, 3)), np.zeros((0, 4)))
        assert len(voxelize(cloud, 0.1)) == 0

    @pytest.mark.parametrize("seed,m,v_s", [(5, 2000, 0.1), (6, 10_000, 0.3), (7, 500, 2.0)])
    def test_bit_equal_to_full_lexsort_on_random_clouds(self, seed, m, v_s):
        assert_bit_equal_to_full_lexsort(make_cloud(np.random.default_rng(seed), m=m), v_s)

    def test_bit_equal_to_full_lexsort_with_coincident_points(self):
        # two views from one camera and depth: every position comes twice,
        # with different features, and the pair is summed in list order
        v = flat_view()
        d = DepthMap(v.gt_depth)
        rng = np.random.default_rng(8)
        fmaps = [FeatureMap(rng.normal(size=(8, 8, 3)), 1, 3) for _ in range(2)]
        cloud = lift_views([v, v], fmaps, [d, d])
        perm = rng.permutation(len(cloud))
        shuffled = FeaturedPointCloud(cloud.positions[perm], cloud.features[perm])
        assert len(np.unique(cloud.positions, axis=0)) == len(cloud) // 2
        for c in (cloud, shuffled):
            for v_s in (0.2, 0.5, 2.0):  # 1, 4 to 9 and all 64 positions per voxel
                assert_bit_equal_to_full_lexsort(c, v_s)

    def test_bit_equal_to_full_lexsort_with_signed_zeros(self):
        # -0.0 and +0.0 compare equal, so they share a voxel
        rng = np.random.default_rng(9)
        positions = rng.choice([-0.0, 0.0, 0.04, -0.04], size=(400, 3))
        assert np.any(np.signbit(positions) & (positions == 0))
        cloud = FeaturedPointCloud(positions, rng.normal(size=(400, 5)))
        assert_bit_equal_to_full_lexsort(cloud, 0.1)
        assert_bit_equal_to_full_lexsort(cloud, 0.05)


class TestLiftViews:
    def _fmap(self, h=8, w=8, c=3):
        return FeatureMap(np.random.default_rng(0).normal(size=(h, w, c)), 1, c)

    def test_single_view_point_count(self):
        v = flat_view()
        cloud = lift_views([v], [self._fmap()], [DepthMap(v.gt_depth)])
        assert len(cloud) == 64

    def test_duplicate_views_coincide(self):
        v = flat_view()
        d = DepthMap(v.gt_depth)
        cloud = lift_views([v, v], [self._fmap(), self._fmap()], [d, d])
        assert len(cloud) == 128
        np.testing.assert_array_equal(cloud.positions[:64], cloud.positions[64:])

    def test_wall_depth_lands_at_z(self):
        v = flat_view(depth=2.0)
        cloud = lift_views([v], [self._fmap()], [DepthMap(v.gt_depth)])
        np.testing.assert_allclose(cloud.positions[:, 2], 2.0, atol=1e-6)

    def test_invalid_pixels_skipped(self):
        v = flat_view()
        mask = np.ones((8, 8), bool)
        mask[0] = False
        cloud = lift_views([v], [self._fmap()], [DepthMap(v.gt_depth, mask)])
        assert len(cloud) == 56

    def test_rejects_mismatched_lists(self):
        v = flat_view()
        with pytest.raises(InvalidInputError):
            lift_views([v], [], [DepthMap(v.gt_depth)])

