import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volsplat import _kernels, sparse_unet, voxels
from volsplat.errors import FormatError, InvalidInputError, WeightLoadError
from volsplat.sparse_unet import (
    WEIGHT_MAGIC,
    SparseTensor,
    UNetSpec,
    WeightBlob,
    down_map,
    downsample_coords,
    layer_plan,
    load_weights,
    pointwise_conv,
    random_weights,
    residual_refine,
    save_weights,
    strided_down,
    submanifold_conv,
    submanifold_map,
    transposed_up,
    unet_forward,
    zero_weights,
)

OFFSETS = [(di, dj, dk) for di in (-1, 0, 1) for dj in (-1, 0, 1) for dk in (-1, 0, 1)]


def random_sparse(rng, n=60, cin=3, extent=8):
    # np.unique sorts the rows, which puts them in code order
    coords = np.unique(rng.integers(-extent, extent, (n, 3)), axis=0)
    feats = rng.normal(size=(coords.shape[0], cin))
    return SparseTensor(coords=coords, feats=feats)


def dense_of(x, extent):
    """Zero-padded dense array indexed by coord + extent."""
    side = 2 * extent + 4
    d = np.zeros((side, side, side, x.feats.shape[1]))
    idx = x.coords + extent + 2
    d[idx[:, 0], idx[:, 1], idx[:, 2]] = x.feats
    return d


class TestSubmanifoldConv:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        x = random_sparse(rng, n=80, cin=3, extent=6)
        w = rng.normal(size=(3, 3, 3, 3, 5))
        b = rng.normal(size=5)
        y = submanifold_conv(x, w, b)
        dense = dense_of(x, 6)
        for row, c in enumerate(x.coords):
            i, j, k = c + 8
            expect = b.copy()
            for di, dj, dk in OFFSETS:
                expect = expect + dense[i + di, j + dj, k + dk] @ w[di + 1, dj + 1, dk + 1]
            np.testing.assert_allclose(y.feats[row], expect, atol=1e-10)

    def test_occupancy_preserved(self):
        rng = np.random.default_rng(1)
        x = random_sparse(rng)
        y = submanifold_conv(x, rng.normal(size=(3, 3, 3, 3, 2)))
        np.testing.assert_array_equal(y.coords, x.coords)
        assert y.stride == x.stride

    def test_isolated_voxel_sees_only_center_tap(self):
        rng = np.random.default_rng(2)
        x = SparseTensor(np.array([[5, -3, 2]]), rng.normal(size=(1, 4)))
        w = rng.normal(size=(3, 3, 3, 4, 4))
        y = submanifold_conv(x, w)
        np.testing.assert_allclose(y.feats[0], x.feats[0] @ w[1, 1, 1], atol=1e-12)

    def test_rejects_bad_kernel(self):
        x = SparseTensor(np.zeros((1, 3), np.int64), np.zeros((1, 4)))
        with pytest.raises(WeightLoadError):
            submanifold_conv(x, np.zeros((3, 3, 3, 5, 4)))


class TestStridedDown:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        x = random_sparse(rng, n=70, cin=2, extent=6)
        w = rng.normal(size=(3, 3, 3, 2, 3))
        y = strided_down(x, w)
        assert y.stride == 2
        np.testing.assert_array_equal(y.coords, downsample_coords(x.coords))
        dense = dense_of(x, 6)
        for row, o in enumerate(y.coords):
            i, j, k = 2 * o + 8
            expect = np.zeros(3)
            for di, dj, dk in OFFSETS:
                expect = expect + dense[i + di, j + dj, k + dk] @ w[di + 1, dj + 1, dk + 1]
            np.testing.assert_allclose(y.feats[row], expect, atol=1e-10)

    def test_downsample_coords_floor_division(self):
        coords = np.array([[0, 0, 0], [1, 1, 1], [-1, -1, -1], [-2, 3, 5]])
        np.testing.assert_array_equal(
            downsample_coords(coords), np.unique(np.array([[0, 0, 0], [-1, -1, -1], [-1, 1, 2]]), axis=0)
        )


class TestTransposedUp:
    def test_adjoint_identity(self):
        # <down(x; w), y> == <x, up(y; w^T)> for bias-free convs
        rng = np.random.default_rng(4)
        for trial in range(5):
            x = random_sparse(rng, n=50, cin=3, extent=5)
            w = rng.normal(size=(3, 3, 3, 3, 4))
            down = strided_down(x, w)
            y = SparseTensor(down.coords, rng.normal(size=down.feats.shape), stride=2)
            up = transposed_up(y, x.coords, np.transpose(w, (0, 1, 2, 4, 3)))
            lhs = float(np.sum(down.feats * y.feats))
            rhs = float(np.sum(x.feats * up.feats))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_outputs_on_target_coords_with_bias_floor(self):
        rng = np.random.default_rng(5)
        coarse = SparseTensor(np.array([[0, 0, 0]]), rng.normal(size=(1, 2)), stride=2)
        target = np.array([[0, 0, 0], [10, 10, 10]])  # second site unreachable
        w = rng.normal(size=(3, 3, 3, 2, 3))
        b = rng.normal(size=3)
        up = transposed_up(coarse, target, w, b)
        np.testing.assert_array_equal(up.coords, target)
        np.testing.assert_allclose(up.feats[1], b)
        np.testing.assert_allclose(up.feats[0], b + coarse.feats[0] @ w[1, 1, 1], atol=1e-12)


class TestPointwise:
    def test_linear_map(self):
        rng = np.random.default_rng(6)
        x = random_sparse(rng, cin=4)
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        y = pointwise_conv(x, w, b)
        np.testing.assert_allclose(y.feats, x.feats @ w + b, atol=1e-12)

    def test_rejects_bad_shape(self):
        x = SparseTensor(np.zeros((1, 3), np.int64), np.zeros((1, 4)))
        with pytest.raises(WeightLoadError):
            pointwise_conv(x, np.zeros((3, 2)))


class TestUNet:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.spec = UNetSpec()
        self.x = random_sparse(self.rng, n=90, cin=4, extent=6)

    def test_residual_on_input_coords(self):
        w = random_weights(self.spec, 4, seed=1)
        r = unet_forward(self.x, self.spec, w)
        np.testing.assert_array_equal(r.coords, self.x.coords)
        assert r.feats.shape == self.x.feats.shape

    def test_zero_weights_give_zero_residual(self):
        r = unet_forward(self.x, self.spec, zero_weights(self.spec, 4))
        assert np.all(r.feats == 0)
        refined = residual_refine(self.x, r)
        np.testing.assert_array_equal(refined.feats, self.x.feats)

    def test_determinism_bit_exact(self):
        w = random_weights(self.spec, 4, seed=2)
        a = unet_forward(self.x, self.spec, w)
        b = unet_forward(self.x, self.spec, w)
        np.testing.assert_array_equal(a.feats, b.feats)

    def test_explicit_levels(self):
        spec = UNetSpec(levels=(5, 7))
        w = random_weights(spec, 4, seed=5)
        r = unet_forward(self.x, spec, w)
        assert r.feats.shape == self.x.feats.shape

    def test_no_blocks_fuses_the_unprojected_level_0_skip(self):
        # without blocks nothing maps the 4 input channels to level 0's width 5
        spec = UNetSpec(levels=(5, 7), blocks_per_level=0)
        assert {l["name"]: l["cin"] for l in layer_plan(spec, 4)}["dec0.fuse"] == 5 + 4
        r = unet_forward(self.x, spec, random_weights(spec, 4, seed=5))
        assert r.feats.shape == self.x.feats.shape

    def test_residual_refine_rejects_mismatched_coords(self):
        r = SparseTensor(self.x.coords + 1, self.x.feats)
        with pytest.raises(InvalidInputError):
            residual_refine(self.x, r)

    def test_rejects_strided_input(self):
        x2 = SparseTensor(self.x.coords, self.x.feats, stride=2)
        with pytest.raises(InvalidInputError):
            unet_forward(x2, self.spec, random_weights(self.spec, 4))


class TestUNetSpec:
    @pytest.mark.parametrize("levels,blocks", [((), -1), ((), 9), ((), 2.0), ((), True),
                                               ((4, 513), 2), ((4, True), 2), ((4, 8.0), 2),
                                               ((4, 0), 2), ((4,), 2), ((100000000, 2), 2)])
    def test_rejects(self, levels, blocks):
        # a negative block count would build the no-block plan; a width past 512, kernels too large
        with pytest.raises(InvalidInputError, match=r"unet\.(levels|blocks) must be"):
            UNetSpec(levels=levels, blocks_per_level=blocks)


class TestLayerPlan:
    def test_default_widths_and_head(self):
        plan = layer_plan(UNetSpec(), 8)
        names = [l["name"] for l in plan]
        assert names[0] == "enc0.block0"
        assert "down1" in names and "down2" in names
        assert "up0" in names and "dec0.fuse" in names
        assert plan[-1]["name"] == "head"
        assert plan[-1]["cout"] == 8
        assert plan[-1]["act"] == "none"
        assert all(layer["act"] == "relu" for layer in plan[:-1])

    def test_fuse_takes_concatenated_channels(self):
        plan = {l["name"]: l for l in layer_plan(UNetSpec(), 4)}
        assert plan["dec1.fuse"]["cin"] == 2 * plan["dec1.fuse"]["cout"]


class TestWeightIO:
    def test_roundtrip(self, tmp_path):
        blob = random_weights(UNetSpec(), 4, seed=6)
        path = tmp_path / "w.vswt"
        save_weights(path, blob)
        back = load_weights(path)
        assert set(back.tensors) == set(blob.tensors)
        for name in blob.tensors:
            np.testing.assert_array_equal(
                back.tensors[name], blob.tensors[name].astype(np.float32).astype(float)
            )

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "w.vswt"
        save_weights(path, random_weights(UNetSpec(), 4, seed=7))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightLoadError):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vswt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_weights(path)

    def test_unreadable_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read weight blob"):
            load_weights(tmp_path / "missing.vswt")
        with pytest.raises(FormatError, match="cannot read weight blob"):
            load_weights(tmp_path)

    @pytest.mark.parametrize("body", [
        WEIGHT_MAGIC + struct.pack("<I", 1),  # one tensor declared, none present
        WEIGHT_MAGIC + struct.pack("<I", 1) + b"\x01\x00a\x01" + struct.pack("<I", 9),  # no data
        WEIGHT_MAGIC + struct.pack("<I", 1) + b"\x01\x00\xff\x00",  # name is not UTF-8
    ])
    def test_malformed_body_is_format_error(self, tmp_path, body):
        path = tmp_path / "w.vswt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="malformed weight blob"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_is_format_error(self, tmp_path, value):
        blob = random_weights(UNetSpec(), 4, seed=8)
        blob.tensors["dec0.fuse.bias"][1] = value
        path = tmp_path / "w.vswt"
        save_weights(path, blob)
        with pytest.raises(FormatError, match="'dec0.fuse.bias' has non-finite values"):
            load_weights(path)

    def test_missing_tensor_error(self):
        blob = WeightBlob({"a": np.zeros(3)})
        with pytest.raises(WeightLoadError):
            blob["b"]


# ---------------------------------------------------------------------------
# Oracle: the per-call-lookup convolutions the shared kernel maps replaced.
# Each call builds its own coordinate table and makes 27 lookups; the
# transposed conv finds its coarse parents through the parity of u - offset.
# The kernel-map path must agree with them byte for byte, and each kernel
# map must hold exactly the (output row, input row) pairs they gather.


def oracle_lookup(coords):
    table = {tuple(c): row for row, c in enumerate(coords.tolist())}
    return lambda q: np.array([table.get(tuple(c), -1) for c in q.tolist()], np.int64)


def oracle_submanifold_rows(coords):
    lookup = oracle_lookup(coords)
    return [lookup(coords + np.array(d, np.int64)) for d in OFFSETS]


def oracle_strided_rows(coords, out_coords):
    lookup = oracle_lookup(coords)
    return [lookup(out_coords * 2 + np.array(d, np.int64)) for d in OFFSETS]


def oracle_transposed_rows(coarse, target_coords):
    lookup = oracle_lookup(coarse)
    per_offset = []
    for d in OFFSETS:
        # u = 2 o + d  =>  o = (u - d) / 2 when the division is exact
        num = target_coords - np.array(d, np.int64)
        exact = ~np.any(num & 1, axis=1)
        rows = np.full(target_coords.shape[0], -1, np.int64)
        if np.any(exact):
            rows[exact] = lookup(num[exact] >> 1)
        per_offset.append(rows)
    return per_offset


def oracle_conv(feats, rows_per_offset, w, b, n_out):
    out = np.zeros((n_out, w.shape[4]))
    if b is not None:
        out += b
    for (di, dj, dk), rows in zip(OFFSETS, rows_per_offset):
        hit = rows >= 0
        if np.any(hit):
            out[hit] += feats[rows[hit]] @ w[di + 1, dj + 1, dk + 1]
    return out


def oracle_submanifold(x, w, b=None):
    n = x.coords.shape[0]
    out = oracle_conv(x.feats, oracle_submanifold_rows(x.coords), w, b, n)
    return SparseTensor(coords=x.coords.copy(), feats=out, stride=x.stride)


def oracle_strided(x, w, b=None):
    out_coords = np.unique(x.coords >> 1, axis=0) if x.coords.size else x.coords.copy()
    rows = oracle_strided_rows(x.coords, out_coords)
    out = oracle_conv(x.feats, rows, w, b, out_coords.shape[0])
    return SparseTensor(coords=out_coords, feats=out, stride=x.stride * 2)


def oracle_transposed(x, target_coords, w, b=None):
    rows = oracle_transposed_rows(x.coords, target_coords)
    out = oracle_conv(x.feats, rows, w, b, target_coords.shape[0])
    return SparseTensor(coords=target_coords.copy(), feats=out, stride=max(1, x.stride // 2))


def same_pairs(kmap, rows_per_offset):
    assert len(kmap.pairs) == len(rows_per_offset) == 27
    for (o, i), rows in zip(kmap.pairs, rows_per_offset):
        hit = rows >= 0
        assert o.tobytes() == np.flatnonzero(hit).tobytes()
        assert i.tobytes() == rows[hit].tobytes()


def oracle_forward(x, spec, weights):
    plan = {l["name"]: l for l in layer_plan(spec, x.feats.shape[1])}
    n_levels = len(spec.widths(x.feats.shape[1]))

    def run(name, tensor, *target):
        layer = plan[name]
        w, b = weights[name + ".weight"], weights[name + ".bias"]
        op = {"sub": oracle_submanifold, "strided": oracle_strided,
              "fuse": pointwise_conv, "point": pointwise_conv}.get(layer["op"])
        out = oracle_transposed(tensor, *target, w, b) if layer["op"] == "up" else op(tensor, w, b)
        out.feats = np.maximum(out.feats, 0.0) if layer["act"] == "relu" else out.feats
        return out

    skips, cur = [], x
    for lvl in range(n_levels):
        if lvl > 0:
            cur = run(f"down{lvl}", cur)
        for blk in range(spec.blocks_per_level):
            cur = run(f"enc{lvl}.block{blk}", cur)
        skips.append(cur)
    for lvl in range(n_levels - 2, -1, -1):
        cur = run(f"up{lvl}", cur, skips[lvl].coords)
        cur = SparseTensor(cur.coords, np.concatenate([cur.feats, skips[lvl].feats], axis=1),
                           cur.stride)
        cur = run(f"dec{lvl}.fuse", cur)
        for blk in range(spec.blocks_per_level):
            cur = run(f"dec{lvl}.block{blk}", cur)
    return run("head", cur)


# Bases near both ends of the supported coordinate range [-2^20, 2^20).
BASES = [0, -37, 2**20 - 12, -(2**20) + 10]
COARSE_MAX = 2**19 - 1  # 2 * c + offset stays in range for |c| <= COARSE_MAX


@st.composite
def coord_sets(draw, max_n=40, extent=5, bases=BASES):
    """Unique coordinates in drawn (unsorted) row order around a drawn base."""
    base = draw(st.sampled_from(bases))
    pts = draw(st.lists(st.tuples(*[st.integers(-extent, extent)] * 3),
                        max_size=max_n, unique=True))
    return np.array(pts, np.int64).reshape(-1, 3) + base


def in_code_order(coords):
    """The rows in ascending `_encode` order, the only order the convs take."""
    return coords[np.argsort(voxels._encode(coords))]


def site_sets(**kwargs):
    """coord_sets in code order."""
    return coord_sets(**kwargs).map(in_code_order)


def coarse_near(coarse, target):
    """`coarse` moved next to the parents of `target`, then inward until every
    child 2 * coarse + offset is encodable; a shift keeps the code order."""
    if not (target.size and coarse.size):
        return coarse
    coarse = coarse - coarse[:1] + (target[0] >> 1)
    return (coarse - np.maximum(coarse.max(axis=0) - COARSE_MAX, 0)
            + np.maximum(-COARSE_MAX - coarse.min(axis=0), 0))


def same(a, b):
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.feats.tobytes() == b.feats.tobytes()
    assert a.stride == b.stride


def conv_case(rng, coords, cin, cout, stride=1):
    x = SparseTensor(coords, rng.normal(size=(coords.shape[0], cin)), stride=stride)
    w = rng.normal(size=(3, 3, 3, cin, cout))
    b = rng.normal(size=cout) if rng.random() < 0.5 else None
    return x, w, b


NAMED_SETS = {
    "empty": np.zeros((0, 3), np.int64),
    "single": np.array([[3, -4, 5]]),
    "negative": np.array([[-1, -1, -1], [-2, -1, -1], [-1, 0, -2], [-3, -3, -3], [0, 0, 0]]),
    "line": np.array([[0, 0, k] for k in range(7, -6, -1)]),
}


class TestKernelMapOracle:
    @settings(max_examples=120, deadline=None)
    @given(site_sets(), st.integers(0, 2**32 - 1))
    def test_submanifold(self, coords, seed):
        x, w, b = conv_case(np.random.default_rng(seed), coords, 3, 4)
        same(submanifold_conv(x, w, b), oracle_submanifold(x, w, b))
        same(submanifold_conv(x, w, b, kmap=submanifold_map(coords)),
             oracle_submanifold(x, w, b))
        same_pairs(submanifold_map(coords), oracle_submanifold_rows(coords))

    @settings(max_examples=120, deadline=None)
    @given(site_sets(), st.integers(0, 2**32 - 1))
    def test_strided(self, coords, seed):
        x, w, b = conv_case(np.random.default_rng(seed), coords, 3, 4)
        same(strided_down(x, w, b), oracle_strided(x, w, b))
        same(strided_down(x, w, b, kmap=down_map(coords)), oracle_strided(x, w, b))
        kmap = down_map(coords)
        same_pairs(kmap, oracle_strided_rows(coords, kmap.out_coords))

    @settings(max_examples=120, deadline=None)
    @given(site_sets(), site_sets(extent=3, bases=[0]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_transposed(self, target, coarse, from_target, seed):
        # the coarse set is either the downsampled target or an unrelated set
        # that leaves some targets without parents and some parents without children
        coarse = downsample_coords(target) if from_target else coarse_near(coarse, target)
        x, w, b = conv_case(np.random.default_rng(seed), coarse, 3, 4, stride=2)
        same(transposed_up(x, target, w, b), oracle_transposed(x, target, w, b))
        same_pairs(down_map(target, coarse).transpose(target),
                   oracle_transposed_rows(coarse, target))

    @settings(max_examples=100, deadline=None)
    @given(site_sets(), site_sets(extent=3, bases=[0]), st.booleans())
    def test_pairs_ascend_within_each_offset(self, fine, coarse, from_fine):
        # what the gathers and the C scatter-add read in row order
        coarse = downsample_coords(fine) if from_fine else coarse_near(coarse, fine)
        kmap = down_map(fine, coarse)
        for m in (submanifold_map(fine), kmap, kmap.transpose(fine)):
            for o, i in m.pairs:
                assert np.all(o[1:] > o[:-1]) and np.all(i[1:] > i[:-1])

    @pytest.mark.parametrize("name", sorted(NAMED_SETS))
    def test_named_sets(self, name):
        rng = np.random.default_rng(9)
        coords = in_code_order(NAMED_SETS[name])
        x, w, b = conv_case(rng, coords, 2, 3)
        same(submanifold_conv(x, w, b), oracle_submanifold(x, w, b))
        same(strided_down(x, w, b), oracle_strided(x, w, b))
        coarse, _, _ = conv_case(rng, downsample_coords(coords), 2, 3, stride=2)
        same(transposed_up(coarse, coords, w, b), oracle_transposed(coarse, coords, w, b))

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_features_not_in_c_order(self, layout):
        # the centre tap multiplies the features as given, the other taps a gathered copy
        rng = np.random.default_rng(12)
        x, w, b = conv_case(rng, random_sparse(rng, n=300, extent=6).coords, 8, 5)
        feats = (np.asfortranarray(x.feats) if layout == "fortran"
                 else np.repeat(x.feats, 2, axis=1)[:, ::2])
        assert not feats.flags.c_contiguous
        y = SparseTensor(x.coords, feats)
        same(submanifold_conv(y, w, b), oracle_submanifold(x, w, b))

    def test_transposed_onto_set_it_was_not_downsampled_from(self):
        rng = np.random.default_rng(10)
        coarse = SparseTensor(np.array([[-1, 2, 0], [0, 0, 0], [5, 5, 5]]),
                              rng.normal(size=(3, 2)), stride=2)
        target = np.array([[-2, 4, -1], [0, 0, 0], [1, 1, 1], [10, 10, 11], [40, 0, 0]])
        w = rng.normal(size=(3, 3, 3, 2, 3))
        same(transposed_up(coarse, target, w), oracle_transposed(coarse, target, w))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("edge", [-(2**20), 2**20 - 1])
    def test_neighbours_out_of_range_raise(self, axis, edge):
        # a neighbour one step past the edge would carry into the next field of its code
        coords = np.zeros((2, 3), np.int64)
        coords[1, axis] = edge
        x = SparseTensor(in_code_order(coords), np.ones((2, 1)))
        with pytest.raises(InvalidInputError, match="out of supported range"):
            submanifold_conv(x, np.ones((3, 3, 3, 1, 1)))

    def test_children_out_of_range_raise_like_strided(self):
        # a coarse site whose children 2 * o + offset cannot be encoded
        x = SparseTensor(np.array([[2**19, 0, 0]]), np.ones((1, 2)), stride=2)
        with pytest.raises(InvalidInputError, match="out of supported range"):
            transposed_up(x, np.zeros((1, 3), np.int64), np.ones((3, 3, 3, 2, 2)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_voxel_key_range_is_the_forward_range(self, sign):
        # every key voxel_index accepts runs a 4-level forward; one past the range raises
        spec = UNetSpec(levels=(2, 2, 2, 2))
        weights = random_weights(spec, 2, seed=3)
        for axis in range(3):
            coords = np.zeros((2, 3), np.int64)
            coords[1, axis] = sign * voxels._MAX_KEY
            unet_forward(SparseTensor(in_code_order(coords), np.ones((2, 2))), spec, weights)
            coords[1, axis] += sign
            with pytest.raises(InvalidInputError, match="out of supported range"):
                unet_forward(SparseTensor(in_code_order(coords), np.ones((2, 2))), spec, weights)

    @pytest.mark.parametrize("levels,blocks", [((), 2), ((), 0), ((5, 7), 1), ((3, 4, 5, 6), 2)])
    @settings(max_examples=15, deadline=None)
    @given(coords=site_sets(max_n=60), seed=st.integers(0, 2**32 - 1))
    def test_unet_forward(self, levels, blocks, coords, seed):
        rng = np.random.default_rng(seed)
        spec = UNetSpec(levels=levels, blocks_per_level=blocks)
        x = SparseTensor(coords, rng.normal(size=(coords.shape[0], 3)))
        weights = random_weights(spec, 3, seed=seed % 1000)
        for name, t in weights.tensors.items():
            if name.endswith(".bias"):
                t[:] = rng.normal(size=t.shape)
        same(unet_forward(x, spec, weights), oracle_forward(x, spec, weights))

    def test_unet_forward_on_many_voxels(self):
        rng = np.random.default_rng(11)
        x = random_sparse(rng, n=2000, cin=4, extent=12)
        weights = random_weights(UNetSpec(), 4, seed=12)
        same(unet_forward(x, UNetSpec(), weights), oracle_forward(x, UNetSpec(), weights))

    @staticmethod
    def shell():
        """A one-voxel-thick sphere shell, like the surfaces the pipeline
        voxelizes, in code order."""
        g = np.stack(np.meshgrid(*[np.arange(-15, 16)] * 3, indexing="ij"), -1).reshape(-1, 3)
        r = np.sqrt((g**2).sum(axis=1))
        coords = g[(r >= 13.5) & (r < 14.5)] + [40, -7, 3]
        assert coords.shape[0] >= 2000
        return coords

    @staticmethod
    def same_forward_as_oracle(coords):
        rng = np.random.default_rng(15)
        x = SparseTensor(coords, rng.normal(size=(coords.shape[0], 4)))
        weights = random_weights(UNetSpec(), 4, seed=16)
        for name, t in weights.tensors.items():
            if name.endswith(".bias"):
                t[:] = rng.normal(size=t.shape)
        same(unet_forward(x, UNetSpec(), weights), oracle_forward(x, UNetSpec(), weights))

    def test_unet_forward_on_a_shell_on_both_backends(self, kernel_backend):
        coords = self.shell()
        assert coords.tobytes() == in_code_order(coords).tobytes()
        self.same_forward_as_oracle(coords)

    def test_map_pairs_on_many_voxels(self):
        # every offset pairs at least 100 sites here, so pairs listed out of order show
        rng = np.random.default_rng(21)
        fine = random_sparse(rng, n=3000, extent=8).coords
        coarse = downsample_coords(fine)
        same_pairs(submanifold_map(fine), oracle_submanifold_rows(fine))
        kmap = down_map(fine, coarse)
        same_pairs(kmap, oracle_strided_rows(fine, coarse))
        same_pairs(kmap.transpose(fine), oracle_transposed_rows(coarse, fine))
        assert min(o.size for o, _ in kmap.pairs) >= 100

    def test_only_submanifold_maps_have_an_identity_centre(self):
        coords = random_sparse(np.random.default_rng(17)).coords
        assert submanifold_map(coords).identity_centre
        assert not down_map(coords).identity_centre
        assert not down_map(coords).transpose(coords).identity_centre

    @pytest.mark.parametrize("seed", [18, 19])
    def test_full_size_centre_that_is_not_the_identity(self, seed):
        # every coarse site c has its centre child 2 * c, and some an odd child
        # listed between them: the centre offset pairs all n coarse rows, but
        # not row j with row j
        rng = np.random.default_rng(seed)
        coarse = np.unique(rng.integers(-6, 6, (40, 3)), axis=0)
        fine = in_code_order(np.concatenate([2 * coarse, 2 * coarse[::3] + [0, 1, 1]]))
        n = coarse.shape[0]
        x, w, b = conv_case(rng, fine, 3, 4)
        kmap = down_map(fine)
        o, i = kmap.pairs[13]
        assert o.tolist() == list(range(n)) and (i != np.arange(n)).any()
        same(strided_down(x, w, b), oracle_strided(x, w, b))
        y, w, b = conv_case(rng, coarse, 3, 4, stride=2)
        kmap = down_map(fine, y.coords).transpose(fine)
        o, i = kmap.pairs[13]
        assert i.tolist() == list(range(n)) and (o != np.arange(n)).any()
        same(transposed_up(y, fine, w, b), oracle_transposed(y, fine, w, b))

    def test_one_coordinate_index_per_level(self, monkeypatch):
        built = []
        real = sparse_unet._CoordIndex

        def counting(coords):
            built.append(coords.shape[0])
            return real(coords)

        monkeypatch.setattr(sparse_unet, "_CoordIndex", counting)
        x = random_sparse(np.random.default_rng(13), n=200, cin=4, extent=6)
        for levels in ((), (4, 4), (4, 4, 4, 4)):
            built.clear()
            spec = UNetSpec(levels=levels)
            unet_forward(x, spec, random_weights(spec, 4))
            assert len(built) == len(spec.widths(4))
            assert built[0] == x.coords.shape[0]

    def test_coordinate_searches_and_sorts_per_forward(self, monkeypatch):
        # On the default 3 levels a forward searches 4 times per submanifold map
        # and 8 times per down map; a search per offset made 3 x 13 + 2 x 27 = 93.
        # It sorts only to group each down map's pairs by offset.
        rng = np.random.default_rng(20)
        coords = in_code_order(random_sparse(rng, n=300, extent=6).coords)
        feats = rng.normal(size=(coords.shape[0], 4))
        weights = random_weights(UNetSpec(), 4)
        calls = {"searchsorted": 0, "argsort": 0}
        for name in calls:
            real = getattr(np, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        unet_forward(SparseTensor(coords, feats), UNetSpec(), weights)
        assert calls == {"searchsorted": 3 * 4 + 2 * 8, "argsort": 2}


@pytest.fixture
def no_conv_runs(monkeypatch):
    def ran(*args):
        raise AssertionError("a conv ran before the sites were checked")

    monkeypatch.setattr(sparse_unet, "_apply_map", ran)


def unet_case(coords):
    spec = UNetSpec(levels=(2, 3))
    return SparseTensor(coords, np.ones((coords.shape[0], 2))), spec, random_weights(spec, 2)


@pytest.mark.usefixtures("no_conv_runs")
class TestDuplicateCoordinates:
    # a lookup finds only one of two rows at one site, so the other would be
    # silently left out of every conv that gathers it
    DUPLICATE = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 1]])
    MATCH = r"site \[0, 0, 1\] at row 2 is repeated or out of order"

    def test_submanifold(self):
        x = SparseTensor(self.DUPLICATE, np.array([[1.0], [10.0], [100.0]]))
        with pytest.raises(InvalidInputError, match=self.MATCH):
            submanifold_conv(x, np.ones((3, 3, 3, 1, 1)))

    def test_strided(self):
        x = SparseTensor(self.DUPLICATE, np.ones((3, 2)))
        with pytest.raises(InvalidInputError, match=self.MATCH):
            strided_down(x, np.ones((3, 3, 3, 2, 2)))

    def test_transposed_target(self):
        x = SparseTensor(np.array([[0, 0, 0]]), np.ones((1, 2)), stride=2)
        with pytest.raises(InvalidInputError, match=self.MATCH):
            transposed_up(x, self.DUPLICATE, np.ones((3, 3, 3, 2, 2)))

    def test_transposed_coarse(self):
        x = SparseTensor(np.array([[0, 0, 0], [0, 0, 0]]), np.ones((2, 2)), stride=2)
        with pytest.raises(InvalidInputError, match=r"site \[0, 0, 0\] at row 1 is repeated"):
            transposed_up(x, np.array([[0, 0, 0], [1, 0, 0]]), np.ones((3, 3, 3, 2, 2)))

    def test_unet_forward(self):
        with pytest.raises(InvalidInputError, match=self.MATCH):
            unet_forward(*unet_case(self.DUPLICATE))


@pytest.mark.usefixtures("no_conv_runs")
class TestSitesOutOfCodeOrder:
    # the maps list each offset's pairs in the sites' row order, which must be code order
    SWAPPED = np.array([[0, 0, 0], [1, -1, 0], [0, 5, 0]])  # rows 1 and 2 swapped
    MATCH = r"site \[0, 5, 0\] at row 2 is repeated or out of order"

    def test_submanifold(self):
        x = SparseTensor(self.SWAPPED, np.ones((3, 1)))
        with pytest.raises(InvalidInputError, match=self.MATCH):
            submanifold_conv(x, np.ones((3, 3, 3, 1, 1)))

    def test_strided(self):
        x = SparseTensor(self.SWAPPED, np.ones((3, 2)))
        with pytest.raises(InvalidInputError, match=self.MATCH):
            strided_down(x, np.ones((3, 3, 3, 2, 2)))

    def test_transposed_target(self):
        x = SparseTensor(np.array([[0, 0, 0]]), np.ones((1, 2)), stride=2)
        with pytest.raises(InvalidInputError, match=self.MATCH):
            transposed_up(x, self.SWAPPED, np.ones((3, 3, 3, 2, 2)))

    def test_transposed_coarse(self):
        x = SparseTensor(self.SWAPPED, np.ones((3, 2)), stride=2)
        with pytest.raises(InvalidInputError, match=self.MATCH):
            transposed_up(x, np.array([[0, 0, 0], [1, 0, 0]]), np.ones((3, 3, 3, 2, 2)))

    def test_unet_forward(self):
        with pytest.raises(InvalidInputError, match=self.MATCH):
            unet_forward(*unet_case(self.SWAPPED))

    def test_reversed_unet_forward(self):
        x = random_sparse(np.random.default_rng(22), n=50, cin=2)
        with pytest.raises(InvalidInputError, match="at row 1 is repeated or out of order"):
            unet_forward(*unet_case(x.coords[::-1].copy()))


def scatter_case(rng, n, m, c, special=False):
    out = rng.normal(size=(n, c))
    src = rng.normal(size=(m, c))
    if special:  # signed zeros, huge and tiny magnitudes, sums that overflow
        pool = np.array([0.0, -0.0, 1e308, -1e308, 1.7e308, 5e-324, -5e-324, 1e-300, 3.0])
        out = rng.choice(pool, size=(n, c)) * rng.choice([1.0, 1.0, 2.0**-40], size=(n, c))
        src = rng.choice(pool, size=(m, c))
    return out, rng.permutation(n)[:m].astype(np.int64), src


class TestScatterAddRows:
    """The C row scatter-add against its numpy line, `out[rows] += src`, on raw bytes."""

    @pytest.mark.parametrize("n,m", [(5, 0), (0, 0), (1, 1), (7, 1), (40, 40), (300, 123)])
    @pytest.mark.parametrize("c", [1, 12, 48])
    @pytest.mark.parametrize("special", [False, True])
    def test_bit_equal_to_numpy(self, c_scatter, n, m, c, special):
        out, rows, src = scatter_case(np.random.default_rng(n * 1000 + m * 10 + c), n, m, c,
                                      special)
        assert m < 2 or (np.diff(rows) < 0).any()  # unsorted rows
        want, got, np_out = out.copy(), out.copy(), out.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            want[rows] += src
            _kernels.scatter_add_rows_np(np_out, rows, src)
        c_scatter(got, rows, src)
        assert got.tobytes() == want.tobytes()
        assert np_out.tobytes() == want.tobytes()

    def test_signed_zero_sums(self, c_scatter):
        out = np.array([[-0.0, -0.0, 0.0, 0.0]])
        src = np.array([[-0.0, 0.0, -0.0, 0.0]])
        c_scatter(out, np.array([0]), src)
        assert out.tobytes() == np.array([[-0.0, 0.0, 0.0, 0.0]]).tobytes()

    BAD = {
        "out float32": lambda a: dict(a, out=a["out"].astype(np.float32)),
        "src float32": lambda a: dict(a, src=a["src"].astype(np.float32)),
        "rows int32": lambda a: dict(a, rows=a["rows"].astype(np.int32)),
        "rows float": lambda a: dict(a, rows=a["rows"].astype(float)),
        "rows list": lambda a: dict(a, rows=a["rows"].tolist()),
        "rows 2-D": lambda a: dict(a, rows=a["rows"][:, None]),
        "out 1-D": lambda a: dict(a, out=a["out"][:, 0].copy()),
        "src one row more": lambda a: dict(a, src=np.zeros((4, 3))),
        "src one column more": lambda a: dict(a, src=np.zeros((3, 4))),
        "out Fortran-ordered": lambda a: dict(a, out=np.asfortranarray(a["out"])),
        "src non-contiguous": lambda a: dict(a, src=np.zeros((3, 6))[:, ::2]),
        "rows non-contiguous": lambda a: dict(a, rows=np.array([0, 9, 2, 9, 4, 9])[::2]),
        "out read-only": lambda a: dict(a, out=np.frombuffer(bytes(a["out"].nbytes))
                                        .reshape(a["out"].shape)),
        "row below zero": lambda a: dict(a, rows=np.array([0, -1, 2])),
        "row past the end": lambda a: dict(a, rows=np.array([0, 5, 2])),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_wrapper_raises_before_calling_c(self, c_scatter, bad):
        args = self.BAD[bad]({"out": np.zeros((5, 3)), "rows": np.array([0, 4, 2]),
                              "src": np.ones((3, 3))})
        calls = []
        with pytest.raises((TypeError, ValueError, IndexError)):
            _kernels._checked_scatter(lambda *a: calls.append(a))(**args)
        assert calls == []
        before = np.array(args["out"], copy=True)
        with pytest.raises((TypeError, ValueError, IndexError)):
            c_scatter(**args)
        assert np.array_equal(np.asarray(args["out"]), before)

    def test_wrapper_passes_good_arguments(self, c_scatter):
        calls = []
        good = {"out": np.zeros((5, 3)), "rows": np.array([0, 4, 2]), "src": np.ones((3, 3))}
        _kernels._checked_scatter(lambda *a: calls.append(a))(**good)
        assert len(calls) == 1 and calls[0][3:] == (3, 3)
        c_scatter(**good)
        assert good["out"].sum(axis=1).tolist() == [3.0, 0.0, 3.0, 0.0, 3.0]


class TestCodeOrder:
    """The convs take each level's sites only in strictly ascending `_encode`
    order, which voxelize and downsample_coords give."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400),
           st.sampled_from([0.05, 0.3, 1.0, 1e-4]))
    def test_voxelize_keys(self, seed, m, voxel):
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(m, 3)) * rng.choice([0.1, 1.0, 3.0])
        positions[rng.random(m) < 0.2] = positions[0]  # points that share a voxel
        cloud = voxels.FeaturedPointCloud(positions, rng.normal(size=(m, 2)))
        codes = voxels._encode(voxels.voxelize(cloud, voxel).keys)
        assert np.all(codes[1:] > codes[:-1])

    @settings(max_examples=100, deadline=None)
    @given(coord_sets(max_n=60, extent=9))
    # halving does not keep code order: [0, 5, 0] comes before [1, 0, 0], but
    # its half [0, 2, 0] comes after [0, 0, 0], so the halves must be sorted
    @example(np.array([[0, 5, 0], [1, 0, 0]], np.int64))
    def test_downsample_coords_rows(self, coords):
        codes = voxels._encode(downsample_coords(coords))
        assert np.all(codes[1:] > codes[:-1])

    @settings(max_examples=100, deadline=None)
    @given(coord_sets(max_n=60, extent=3, bases=BASES + [2**20 - 4, -(2**20) + 3]))
    def test_halved_codes_and_odd_axes(self, coords):
        # the down map reads each fine site's parent and parity off its code
        codes = voxels._encode(coords)
        assert sparse_unet._halve(codes).tobytes() == voxels._encode(coords >> 1).tobytes()
        assert sparse_unet._odd_axes(codes).tolist() == ((coords & 1) @ [4, 2, 1]).tolist()


class TestDownsampleCoords:
    @settings(max_examples=150, deadline=None)
    @given(coord_sets(max_n=60, extent=9))
    def test_equals_unique_rows(self, coords):
        want = np.unique(coords >> 1, axis=0) if coords.size else coords.copy()
        got = downsample_coords(coords)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
