import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat.errors import FormatError, InvalidInputError, WeightLoadError
from volsplat.gaussians import (
    GaussianSet,
    RawGaussianParams,
    SH_C0,
    _ply_header,
    activate,
    activate_set,
    decode_raw,
    export_ply,
    import_ply,
    param_length,
    quat_to_rotmat,
    random_head_weights,
    sigmoid,
    summarize,
)
from volsplat.sparse_unet import SparseTensor, WeightBlob


def test_param_length():
    assert param_length(0) == 14
    assert param_length(1) == 23
    assert param_length(3) == 59


class TestSigmoid:
    def test_values(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0])), [0.5])
        np.testing.assert_allclose(sigmoid(np.array([2.0])), [1 / (1 + np.exp(-2))])

    def test_saturation_is_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_symmetry(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


class TestActivate:
    V_S = 0.1
    R = 0.3  # 3 * voxel size

    def test_zero_raw_vector(self):
        g = activate(np.zeros(14), (0, 0, 0), self.V_S, self.R)
        # sigmoid(0) = 0.5 -> offset r/2 per axis; the arithmetic runs in f32
        np.testing.assert_allclose(g.center, np.float32(0.15), atol=1e-7)
        assert g.opacity == pytest.approx(0.5)
        np.testing.assert_allclose(g.scale, self.V_S, rtol=1e-6)
        np.testing.assert_allclose(g.rotation, [1, 0, 0, 0])

    def test_center_relative_to_voxel(self):
        g = activate(np.zeros(14), (3, 0, 10), self.V_S, self.R)
        np.testing.assert_allclose(g.center, [0.3 + 0.15, 0.15, 1.0 + 0.15], atol=1e-6)

    def test_offset_saturation(self):
        lo = activate(np.r_[-50.0, -50, -50, np.zeros(11)], (0, 0, 0), self.V_S, self.R)
        hi = activate(np.r_[50.0, 50, 50, np.zeros(11)], (0, 0, 0), self.V_S, self.R)
        np.testing.assert_allclose(lo.center, 0.0, atol=1e-6)
        np.testing.assert_allclose(hi.center, self.R, atol=1e-6)

    def test_scale_clamping(self):
        raw = np.zeros(14)
        raw[4:7] = [100.0, -100.0, 0.5]
        g = activate(raw, (0, 0, 0), self.V_S, self.R)
        np.testing.assert_allclose(
            g.scale, [np.exp(3.0) * self.V_S, np.exp(-10.0) * self.V_S, np.exp(0.5) * self.V_S],
            rtol=1e-6,
        )

    def test_quaternion_normalized(self):
        raw = np.zeros(14)
        raw[7:11] = [2.0, 0, 0, 0]
        g = activate(raw, (0, 0, 0), self.V_S, self.R)
        np.testing.assert_allclose(g.rotation, [1, 0, 0, 0], atol=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-30, 30, allow_nan=False), min_size=14, max_size=14))
    def test_center_stays_in_offset_box(self, vec):
        g = activate(np.array(vec), (1, -2, 5), self.V_S, self.R)
        base = np.array([0.1, -0.2, 0.5])
        d = g.center - base
        assert np.all(d >= -1e-6) and np.all(d <= self.R + 1e-6)

    def test_covariance_psd_and_identity_rotation(self):
        raw = np.zeros(14)
        raw[4:7] = [np.log(2.0), 0.0, np.log(0.5)]
        g = activate(raw, (0, 0, 0), self.V_S, self.R)
        cov = g.covariance()
        np.testing.assert_allclose(cov, np.diag((g.scale) ** 2), atol=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=14)
            cov = activate(v, (0, 0, 0), self.V_S, self.R).covariance()
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12

    def test_rejects_bad_radius(self):
        with pytest.raises(InvalidInputError):
            activate(np.zeros(14), (0, 0, 0), self.V_S, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            RawGaussianParams(np.full((1, 14), np.nan))


def test_quat_to_rotmat_known():
    # 90 degrees about z: (w, x, y, z) = (cos45, 0, 0, sin45)
    q = np.array([[np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)]])
    R = quat_to_rotmat(q)[0]
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(R @ [0, 1, 0], [-1, 0, 0], atol=1e-12)


class TestDecode:
    def test_linear_head_oracle(self):
        rng = np.random.default_rng(1)
        grid = SparseTensor(rng.integers(-5, 5, (20, 3)), rng.normal(size=(20, 6)))
        w = random_head_weights(6, sh_degree=0, seed=2)
        raw = decode_raw(grid, w)
        np.testing.assert_allclose(
            raw.values, grid.feats @ w["head.weight"] + w["head.bias"], atol=1e-12
        )

    def test_rejects_wrong_shapes(self):
        grid = SparseTensor(np.zeros((2, 3), np.int64), np.zeros((2, 6)))
        blob = WeightBlob({"head.weight": np.zeros((5, 14)), "head.bias": np.zeros(14)})
        with pytest.raises(WeightLoadError):
            decode_raw(grid, blob)


def random_set(rng, n=50, sh_degree=0):
    return GaussianSet(
        centers=rng.normal(size=(n, 3)).astype(np.float32),
        opacity_logits=rng.normal(size=n).astype(np.float32),
        log_scales=rng.normal(size=(n, 3)).astype(np.float32),
        rotations=rng.normal(size=(n, 4)).astype(np.float32),
        sh=rng.normal(size=(n, 3 * (sh_degree + 1) ** 2)).astype(np.float32),
        sh_degree=sh_degree,
    )


FIELDS = ("centers", "opacity_logits", "log_scales", "rotations", "sh")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])  # 1e39 overflows float32
def test_gaussian_set_rejects_non_finite_payload(field, value):
    arrays = {name: getattr(random_set(np.random.default_rng(12), n=4), name).astype(float)
              for name in FIELDS}
    arrays[field].flat[-1] = value
    with pytest.raises(InvalidInputError, match=f"{field} holds non-finite values"):
        GaussianSet(**arrays)


@pytest.mark.parametrize("deg", [-1, 4])
def test_gaussian_set_rejects_sh_degree_the_renderer_lacks(deg):
    # renderer.eval_sh implements SH bands 0-3 only
    arrays = {name: getattr(random_set(np.random.default_rng(12), n=4), name) for name in FIELDS}
    arrays["sh"] = np.zeros((4, 3 * (max(deg, 0) + 1) ** 2))
    with pytest.raises(InvalidInputError, match="SH degree must be 0 to 3"):
        GaussianSet(**arrays, sh_degree=deg)


class TestPly:
    @pytest.mark.parametrize("deg", [0, 1, 2, 3])
    def test_bit_exact_roundtrip(self, tmp_path, deg):
        gset = random_set(np.random.default_rng(3), n=37, sh_degree=deg)
        path = tmp_path / "g.ply"
        export_ply(gset, path)
        back = import_ply(path)
        assert back.sh_degree == deg
        for name in ("centers", "opacity_logits", "log_scales", "rotations", "sh"):
            np.testing.assert_array_equal(getattr(back, name), getattr(gset, name))

    def test_independent_parser_oracle(self, tmp_path):
        for deg in range(4):
            gset = random_set(np.random.default_rng(4), n=5, sh_degree=deg)
            path = tmp_path / "g.ply"
            export_ply(gset, path)
            raw = path.read_bytes()
            end = raw.index(b"end_header\n") + len(b"end_header\n")
            header = raw[:end].decode()
            assert "format binary_little_endian 1.0" in header
            assert "element vertex 5" in header
            props = [l.split()[-1] for l in header.splitlines() if l.startswith("property")]
            n_rest = 3 * ((deg + 1) ** 2 - 1)
            assert props[:6] == ["x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2"]
            assert props[6 : 6 + n_rest] == [f"f_rest_{i}" for i in range(n_rest)]
            assert props[6 + n_rest :] == ["opacity", "scale_0", "scale_1", "scale_2",
                                           "rot_0", "rot_1", "rot_2", "rot_3"]
            body = np.frombuffer(raw[end:], "<f4").reshape(5, 14 + n_rest)
            np.testing.assert_array_equal(body[:, 0:3], gset.centers)
            np.testing.assert_array_equal(body[:, 3:6], gset.sh[:, 0:3])
            # 3DGS writes f_rest channel-major: f_rest[c (K-1) + k-1] = sh[3k + c]
            k_rest = n_rest // 3
            for c in range(3):
                for k in range(1, k_rest + 1):
                    np.testing.assert_array_equal(body[:, 6 + c * k_rest + k - 1],
                                                  gset.sh[:, 3 * k + c])
            off = 6 + n_rest
            np.testing.assert_array_equal(body[:, off], gset.opacity_logits)
            np.testing.assert_array_equal(body[:, off + 1 : off + 4], gset.log_scales)
            np.testing.assert_array_equal(body[:, off + 4 : off + 8], gset.rotations)

    def test_empty_set_export_fails(self, tmp_path):
        empty = GaussianSet(
            np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3))
        )
        with pytest.raises(InvalidInputError):
            export_ply(empty, tmp_path / "e.ply")

    @pytest.mark.parametrize("sh_degree", [0, 3])
    def test_empty_file_raises(self, tmp_path, sh_degree):
        # the header export_ply would write for 0 vertices, and no payload
        path = tmp_path / "empty.ply"
        path.write_bytes(_ply_header(0, sh_degree))
        with pytest.raises(FormatError, match="no vertices"):
            import_ply(path)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"not a ply at all")
        with pytest.raises(FormatError):
            import_ply(path)

    @pytest.mark.parametrize("change", [
        (b"binary_little_endian", b"binary_big_endian"),
        (b"binary_little_endian", b"ascii"),
        (b"ply\n", b"ply\ncomment made elsewhere\n"),
        (b"element vertex 5\n", b"element vertex " + b"0" * 18 + b"5\n"),  # 19 digits
        (b"element vertex 5\n", b"element vertex " + b"0" * 4999 + b"5\n"),
        (b"element vertex 5\n", b"element vertex 05\n"),
        (b"property float x\nproperty float y\n", b"property float y\nproperty float x\n"),
        (b"property float x\n", b"property double x\n"),
        (b"property float rot_3\n", b""),
        (b"end_header\n", b"end_header\r\n"),
    ], ids=repr)
    def test_rejects_any_other_header(self, tmp_path, change):
        path = tmp_path / "g.ply"
        export_ply(random_set(np.random.default_rng(9), n=5, sh_degree=1), path)
        raw = path.read_bytes()
        assert change[0] in raw
        path.write_bytes(raw.replace(change[0], change[1], 1))
        with pytest.raises(FormatError, match="not a volsplat PLY"):
            import_ply(path)

    def test_imported_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "g.ply"
        export_ply(random_set(np.random.default_rng(6), n=8, sh_degree=1), path)
        back = import_ply(path)
        arrays = [getattr(back, name) for name in
                  ("centers", "opacity_logits", "log_scales", "rotations", "sh")]
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.owndata
        back.centers[0] = 7.0
        assert import_ply(path).centers[0, 0] != 7.0

    @pytest.mark.parametrize("keep", [0, 1, 4, 55])
    def test_short_payload_raises(self, tmp_path, keep):
        path = tmp_path / "g.ply"
        export_ply(random_set(np.random.default_rng(7), n=5), path)
        raw = path.read_bytes()
        start = raw.index(b"end_header\n") + len(b"end_header\n")
        path.write_bytes(raw[: start + keep])
        with pytest.raises(FormatError, match="payload"):
            import_ply(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_raises(self, tmp_path, value):
        path = tmp_path / "g.ply"
        export_ply(random_set(np.random.default_rng(8), n=5), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"end_header\n") + len(b"end_header\n") + 4 * 17
        raw[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            import_ply(path)


def test_activate_set_matches_single(tmp_path):
    rng = np.random.default_rng(5)
    raw = RawGaussianParams(rng.normal(size=(10, 14)))
    keys = rng.integers(-5, 5, (10, 3))
    gset = activate_set(raw, keys, 0.1, 0.3)
    for i in range(10):
        g = activate(raw.values[i], keys[i], 0.1, 0.3)
        np.testing.assert_allclose(gset.centers[i], g.center, atol=1e-6)
        assert float(gset.opacities[i]) == pytest.approx(g.opacity)


def test_summarize_fields():
    gset = random_set(np.random.default_rng(6), n=30)
    s = summarize(gset)
    assert s["count"] == 30
    assert len(s["opacity_deciles"]) == 11
    assert s["opacity_deciles"] == sorted(s["opacity_deciles"])
    assert all(m <= M for m, M in zip(s["bbox"]["min"], s["bbox"]["max"]))


def test_sh_dc_color_relation():
    # a gaussian whose dc coefficient encodes mid-gray: color = 0.5 + C0 * dc
    dc = (np.array([0.8, 0.5, 0.2]) - 0.5) / SH_C0
    raw = np.zeros(14)
    raw[11:] = dc
    g = activate(raw, (0, 0, 0), 0.1, 0.3)
    np.testing.assert_allclose(0.5 + SH_C0 * g.sh, [0.8, 0.5, 0.2], atol=1e-6)
