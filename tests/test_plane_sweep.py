"""The compiled plane sweep (kernels.c `plane_sweep`) against its numpy twin
and against the scalar C loop it replaced.

`_kernels.plane_sweep_np` warps the neighbour onto each plane with
`geometry.warp_feature`; test_geometry.py keeps that warp byte-identical to
a masked reference sampler. Here the C kernel is held to the numpy one
through `features.build_cost_volume`, which runs whichever `plane_sweep` it
is given: every valid-neighbour count must be equal and every score within
TOL (the C kernel sums the channel dot product and the camera transforms in
its own order, so the two differ by about 1e-15). The C kernel must also give
acc and n_valid byte-identical to the one-plane-at-a-time scalar sweep kept
in plane_sweep_scalar.c, built with the same flags. The checked wrapper must
reject a wrong dtype, shape or layout before any call reaches C.
"""

import ctypes
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat import _kernels, features
from volsplat.errors import InvalidInputError
from volsplat.features import (
    MAX_DEPTH_HYPOTHESES,
    MAX_FEATURE_CHANNELS,
    FeatureExtractorSpec,
    build_cost_volume,
    extract_features,
    sample_depth_hypotheses,
)
from volsplat.geometry import SNAP_TOL, Extrinsics, Intrinsics, warp_feature
from volsplat.scenes import CameraPose, SceneSpec, synthesize

TOL = 1e-12
SCALAR_SOURCE = Path(__file__).with_name("plane_sweep_scalar.c")


def rot(ax, ay):
    cx, sx, cy, sy = np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay)
    return np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]]) @ np.array(
        [[1, 0, 0], [0, cx, -sx], [0, sx, cx]])


def numpy_counts(nbrs, ref_cam, hyp, shape):
    """Valid neighbours per pixel and plane, from the numpy warp."""
    return np.stack([sum(warp_feature(np.zeros(shape), cam, ref_cam, d)[1].astype(float)
                         for _, cam in nbrs) for d in hyp], axis=-1)


def c_counts(c_sweep, ref, nbrs, ref_cam, hyp):
    acc = np.zeros(ref.shape[:2] + (len(hyp),))
    n_valid = np.zeros_like(acc)
    for data, cam in nbrs:
        c_sweep(ref, data, ref_cam, cam, np.asarray(hyp, float), acc, n_valid)
    return n_valid


def check(monkeypatch, c_sweep, ref, nbrs, ref_cam, hyp):
    """Scores and counts on both backends agree; returns (scores, counts)."""
    scores = []
    for sweep in (_kernels.plane_sweep_np, c_sweep):
        monkeypatch.setattr(features, "plane_sweep", sweep)
        cv = build_cost_volume(ref, nbrs, ref_cam, hyp)
        scores.append(cv.scores)
    want, got = scores
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    counts = c_counts(c_sweep, ref, nbrs, ref_cam, hyp)
    assert np.array_equal(counts, numpy_counts(nbrs, ref_cam, hyp, ref.shape))
    return got, counts


def grid_cam(h, w, f, cx=None, cy=None, R=np.eye(3), T=(0.0, 0.0, 0.0)):
    K = Intrinsics(fx=f, fy=f, cx=(w - 1) / 2 if cx is None else cx,
                   cy=(h - 1) / 2 if cy is None else cy, width=w, height=h)
    return K, Extrinsics(R, np.asarray(T, float))


def test_acceptance_09_wall(monkeypatch, c_sweep):
    cams_spec = [CameraPose((0.3 * i, 0.0, 0.0), (0.0, 0.0, 2.0)) for i in range(3)]
    spec = SceneSpec(kind="textured-wall", cameras=cams_spec, image_size=(64, 64),
                     seed=1, params={"texture_scale": 1.0})
    views, _ = synthesize(spec)
    fmaps = [extract_features(v, FeatureExtractorSpec(channels=6, scale=1)) for v in views]
    cams = [(v.intrinsics, v.extrinsics) for v in views]
    hyp = sample_depth_hypotheses(1.0, 4.0, 32, "inverse")
    check(monkeypatch, c_sweep, fmaps[0], [(fmaps[j], cams[j]) for j in (1, 2)],
          cams[0], hyp)


def test_six_camera_sweep_ring(monkeypatch, c_sweep):
    # the benchmark's `sweep` rig: a sphere seen from six cameras on a 0.3 ring
    cams_spec = [CameraPose((0.3 * np.cos(a), 0.3 * np.sin(a), 0.0), (0.0, 0.0, 2.0))
                 for a in 2 * np.pi * np.arange(6) / 6]
    views, _ = synthesize(SceneSpec(kind="sphere", cameras=cams_spec, image_size=(64, 64)))
    fmaps = [extract_features(v, FeatureExtractorSpec(channels=12, scale=1)) for v in views]
    cams = [(v.intrinsics, v.extrinsics) for v in views]
    hyp = sample_depth_hypotheses(0.5, 10.0, 32, "inverse")
    for i in (0, 3):  # opposite sides of the ring, five neighbours each
        nbrs = [(fmaps[j], cams[j]) for j in range(6) if j != i]
        _, counts = check(monkeypatch, c_sweep, fmaps[i], nbrs, cams[i], hyp)
        assert counts.max() == 5 and counts.min() < 5


def test_neighbour_behind_the_reference(monkeypatch, c_sweep):
    rng = np.random.default_rng(1)
    h, w = 12, 16
    ref_cam = grid_cam(h, w, 10.0)
    ahead = grid_cam(h, w, 10.0, T=(0.1, 0.0, 2.5))  # planes nearer than 2.5 are behind it
    turned = grid_cam(h, w, 10.0, R=rot(0.0, np.pi), T=(0.0, 0.0, 0.2))  # faces away
    hyp = [0.5, 1.0, 2.0, 3.0, 4.0]
    nbrs = [(rng.normal(size=(h, w, 3)), ahead), (rng.normal(size=(h, w, 3)), turned)]
    _, counts = check(monkeypatch, c_sweep, rng.normal(size=(h, w, 3)), nbrs, ref_cam, hyp)
    assert not counts[..., :3].any() and counts[..., 3:].any()
    assert c_counts(c_sweep, nbrs[1][0], nbrs[1:], ref_cam, hyp).max() == 0


def test_planes_wholly_off_the_grid(monkeypatch, c_sweep):
    rng = np.random.default_rng(2)
    h, w = 16, 16
    hyp = [0.5, 1.0, 8.0]  # disparities 16, 8 and 1 pixels
    nbrs = [(rng.normal(size=(h, w, 4)), grid_cam(h, w, 8.0, T=(1.0, 0.0, 0.0)))]
    scores, counts = check(monkeypatch, c_sweep, rng.normal(size=(h, w, 4)), nbrs,
                           grid_cam(h, w, 8.0), hyp)
    assert not counts[..., 0].any() and not scores[..., 0].any()
    assert counts[..., 1].sum() == h * (w - 8) and counts[..., 2].sum() == h * (w - 1)


def test_coordinates_exactly_on_the_last_row_and_column(monkeypatch, c_sweep):
    # the neighbour sits a quarter unit up and left: plane 1 shifts every
    # pixel by exactly (+1, +1), plane 2 by (+0.5, +0.5)
    rng = np.random.default_rng(3)
    h, w = 7, 11
    ref_cam = grid_cam(h, w, 4.0, cx=5.0, cy=3.0)
    nbr_cam = grid_cam(h, w, 4.0, cx=5.0, cy=3.0, T=(-0.25, -0.25, 0.0))
    ref = rng.normal(size=(h, w, 5))
    ref[0, w - 1] = np.nan  # never valid, so never read
    # the row after the neighbour's last one is NaN: a tap below the grid would read it
    nbr = np.full((h + 1, w, 5), np.nan)
    nbr[:h] = rng.normal(size=(h, w, 5))
    nbr = nbr[:h]
    scores, counts = check(monkeypatch, c_sweep, ref, [(nbr, nbr_cam)], ref_cam, [1.0, 2.0])
    inside = np.zeros((h, w), bool)
    inside[: h - 1, : w - 1] = True  # lands on or inside column w - 1 and row h - 1
    assert np.array_equal(counts[..., 0] == 1, inside)
    assert np.array_equal(counts[..., 1] == 1, inside)
    shifted = np.einsum("hwc,hwc->hw", ref[:-1, :-1], nbr[1:, 1:]) / 5
    np.testing.assert_allclose(scores[:-1, :-1, 0], shifted, rtol=0, atol=TOL)
    # shifts of at least one pixel never tap column 0 or row 0; a tap past the
    # last column would wrap onto column 0 of the next row
    nbr[:, 0] = nbr[0, :] = np.nan
    scores, _ = check(monkeypatch, c_sweep, ref, [(nbr, nbr_cam)], ref_cam, [0.8, 1.0])
    assert np.isfinite(scores).all()


def test_self_warp_of_a_turned_camera_snaps_onto_every_pixel(monkeypatch, c_sweep):
    # rotating there and back leaves each coordinate within a few ulp of its
    # pixel centre; the snap puts it back, so the border pixels stay valid
    rng = np.random.default_rng(6)
    h, w = 9, 14
    cam = grid_cam(h, w, 7.3, cx=6.1, cy=4.7, R=rot(0.3, -0.7), T=(0.3, -1.1, 0.7))
    hyp = sample_depth_hypotheses(0.5, 10.0, 16, "inverse")
    data = rng.normal(size=(h, w, 3))
    scores, counts = check(monkeypatch, c_sweep, data, [(data, cam)], cam, hyp)
    assert (counts == 1).all()
    np.testing.assert_allclose(scores, np.broadcast_to(
        np.einsum("hwc,hwc->hw", data, data)[..., None] / 3, scores.shape), rtol=0, atol=TOL)


@pytest.mark.parametrize("h,w,c", [(1, 1, 1), (1, 1, 3), (3, 8, 1), (9, 2, 2), (5, 13, 1)])
def test_tiny_and_non_square_grids(monkeypatch, c_sweep, h, w, c):
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    ref_cam = grid_cam(h, w, 2.0)
    nbrs = [(rng.normal(size=(h, w, c)), grid_cam(h, w, 2.0, R=rot(0.02, -0.03),
                                                  T=(0.05, -0.02, 0.01))),
            (rng.normal(size=(h, w, c)), ref_cam)]
    check(monkeypatch, c_sweep, rng.normal(size=(h, w, c)), nbrs, ref_cam, [0.7, 1.5, 3.0])


@pytest.mark.parametrize("where,value", [("nbr", np.nan), ("nbr", np.inf), ("ref", np.nan),
                                         ("ref", -np.inf)])
def test_non_finite_features_raise_on_both_backends(monkeypatch, c_sweep, where, value):
    rng = np.random.default_rng(4)
    cam = grid_cam(8, 8, 8.0)
    ref, nbr = rng.normal(size=(8, 8, 3)), rng.normal(size=(8, 8, 3))
    {"ref": ref, "nbr": nbr}[where][4, 4, 1] = value
    for sweep in (_kernels.plane_sweep_np, c_sweep):
        monkeypatch.setattr(features, "plane_sweep", sweep)
        with pytest.raises(InvalidInputError, match="scores must be finite"), \
                np.errstate(invalid="ignore"):
            build_cost_volume(ref, [(nbr, cam)], cam, [1.0, 2.0])


@pytest.mark.parametrize("shape,hyp,match", [
    ((8, 9, 3), [1.0, 2.0], "share shape"), ((8, 8, 2), [1.0, 2.0], "share shape"),
    ((8, 8, 3), [0.0, 2.0], "must be positive"), ((8, 8, 3), [-1.0, 2.0], "must be positive"),
    ((8, 8, 3), [1.0, np.nan], "must be positive"), ((8, 8, 3), [1.0, np.inf], "finite"),
    ((8, 8, 3), [1.0, 2.0, np.inf], "finite"),
])
def test_bad_inputs_raise_on_both_backends(monkeypatch, c_sweep, shape, hyp, match):
    cam = grid_cam(8, 8, 8.0)
    ref = np.ones((8, 8, 3))
    for sweep in (_kernels.plane_sweep_np, c_sweep):
        monkeypatch.setattr(features, "plane_sweep", sweep)
        with pytest.raises(InvalidInputError, match=match):
            build_cost_volume(ref, [(ref, cam), (np.ones(shape), cam)], cam, hyp)


def test_non_finite_hypotheses_raise_before_the_kernel(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("plane_sweep called with a non-finite hypothesis")

    monkeypatch.setattr(features, "plane_sweep", no_sweep)
    cam = grid_cam(8, 8, 8.0)
    ref = np.ones((8, 8, 3))
    with pytest.raises(InvalidInputError, match="finite"):
        build_cost_volume(ref, [(ref, cam)], cam, [1.0, np.inf])


def test_compiled_sweep_builds_no_warped_grid(monkeypatch, c_sweep):
    def no_warp(*args):
        raise AssertionError("warp_feature called")

    # the warp_feature that the numpy sweep calls: patched, the numpy backend fails
    monkeypatch.setattr(_kernels, "warp_feature", no_warp)
    cam = grid_cam(8, 8, 8.0)
    data = np.random.default_rng(5).normal(size=(8, 8, 2))
    monkeypatch.setattr(features, "plane_sweep", _kernels.plane_sweep_np)
    with pytest.raises(AssertionError, match="warp_feature called"):
        build_cost_volume(data, [(data, cam)], cam, [1.0, 2.0])
    monkeypatch.setattr(features, "plane_sweep", c_sweep)
    build_cost_volume(data, [(data, cam)], cam, [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 10), w=st.integers(1, 10),
       c=st.integers(1, 4), n_nbrs=st.integers(1, 3), n_planes=st.integers(2, 5))
def test_random_rigs(c_sweep, seed, h, w, c, n_nbrs, n_planes):
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.5, 2.0) * max(h, w)
    ref_cam = grid_cam(h, w, f, cx=rng.uniform(0, w - 1), cy=rng.uniform(0, h - 1))
    nbrs = [(rng.normal(size=(h, w, c)),
             (ref_cam[0], Extrinsics(rot(*rng.uniform(-0.3, 0.3, 2)), rng.uniform(-0.5, 0.5, 3))))
            for _ in range(n_nbrs)]
    hyp = np.sort(rng.uniform(0.3, 6.0, n_planes))
    if np.any(np.diff(hyp) <= 0):
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        check(monkeypatch, c_sweep, rng.normal(size=(h, w, c)), nbrs, ref_cam, hyp)


def sweep_args():
    cam = grid_cam(4, 6, 5.0)
    return dict(ref=np.zeros((4, 6, 3)), nbr=np.zeros((4, 6, 3)), ref_cam=cam, nbr_cam=cam,
                depths=np.array([1.0, 2.0]), acc=np.zeros((4, 6, 2)),
                n_valid=np.zeros((4, 6, 2)))


BAD_ARGUMENTS = {
    "ref float32": lambda a: a.astype(np.float32),
    "nbr list": lambda a: a.tolist(),
    "ref 2-D": lambda a: a[..., 0].copy(),
    "nbr other shape": lambda a: np.zeros((4, 6, 2)),
    "depths 2-D": lambda a: a[None].copy(),
    "depths int": lambda a: a.astype(int),
    "acc other plane count": lambda a: np.zeros((4, 6, 3)),
    "n_valid other grid": lambda a: np.zeros((6, 4, 2)),
    "n_valid float32": lambda a: a.astype(np.float32),
    "ref non-contiguous": lambda a: np.zeros((4, 12, 3))[:, ::2],
    "nbr Fortran-ordered": lambda a: np.asfortranarray(a),
    "depths non-contiguous": lambda a: np.array([1.0, 0.0, 2.0, 0.0])[::2],
    "acc non-contiguous": lambda a: np.zeros((4, 6, 4))[..., ::2],
    "acc read-only": lambda a: np.frombuffer(bytes(a.nbytes)).reshape(a.shape),
    "ref_cam no rotation": lambda cam: (cam[0], type("E", (), {"R": np.eye(2), "T": np.zeros(3)})),
}


@pytest.mark.parametrize("bad", sorted(BAD_ARGUMENTS))
def test_wrapper_raises_before_calling_c(c_sweep, bad):
    calls = []
    wrapped = _kernels._checked_sweep(lambda *args: calls.append(args))
    args = sweep_args()
    name = bad.split(" ", 1)[0]
    args[name] = BAD_ARGUMENTS[bad](args[name])
    with pytest.raises((TypeError, ValueError)):
        wrapped(**args)
    assert calls == []
    before = [np.array(args[k], copy=True) for k in ("acc", "n_valid")]
    with pytest.raises((TypeError, ValueError)):
        c_sweep(**args)
    for k, old in zip(("acc", "n_valid"), before):
        assert np.array_equal(np.asarray(args[k]), old)


def test_wrapper_passes_good_arguments(c_sweep):
    calls = []
    _kernels._checked_sweep(lambda *args: calls.append(args))(**sweep_args())
    assert len(calls) == 1
    args = sweep_args()
    c_sweep(**args)
    assert (args["n_valid"] == 1).all() and not args["acc"].any()  # self-warp of zeros


@pytest.fixture(scope="session")
def scalar_sweep(tmp_path_factory):
    """The scalar sweep of plane_sweep_scalar.c, built with the shipped flags,
    behind the shipped wrapper's signature."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    fn = ctypes.CDLL(str(_kernels.build(tmp_path_factory.mktemp("scalar"),
                                        SCALAR_SOURCE))).plane_sweep
    ptr, size = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [ptr, ptr, size, size, size, ptr, ptr, ptr, size, ptr, ptr]
    fn.restype = None

    def plane_sweep(ref, nbr, ref_cam, nbr_cam, depths, acc, n_valid):
        for a in (ref, nbr, depths, acc, n_valid):
            assert a.dtype == np.float64 and a.flags.c_contiguous
        assert nbr.shape == ref.shape and acc.shape == n_valid.shape == ref.shape[:2] + depths.shape
        cams = [_kernels._camera("ref_cam", ref_cam), _kernels._camera("nbr_cam", nbr_cam)]
        fn(ref.ctypes.data, nbr.ctypes.data, *ref.shape, cams[0].ctypes.data,
           cams[1].ctypes.data, depths.ctypes.data, depths.size, acc.ctypes.data,
           n_valid.ctypes.data)

    return plane_sweep


def assert_bit_identical(c_sweep, scalar_sweep, ref, nbrs, ref_cam, hyp, rng=None, zero=0.0):
    """Both kernels add every neighbour into the same acc and n_valid, from
    `zero` (+0.0 or -0.0) or from random values; the raw bytes must agree.
    Returns n_valid."""
    hyp = np.asarray(hyp, dtype=float)
    start = np.full(ref.shape[:2] + hyp.shape, zero)
    if rng is not None:
        start = rng.normal(size=start.shape)
    out = []
    for sweep in (scalar_sweep, c_sweep):
        acc, n_valid = start.copy(), np.zeros_like(start)
        for data, cam in nbrs:
            sweep(ref, data, ref_cam, cam, hyp, acc, n_valid)
        out.append((acc.tobytes(), n_valid.tobytes()))
    assert out[1][0] == out[0][0], "acc differs from the scalar sweep"
    assert out[1][1] == out[0][1], "n_valid differs from the scalar sweep"
    return n_valid


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 6), w=st.integers(1, 6),
       c=st.integers(1, MAX_FEATURE_CHANNELS), n_planes=st.integers(2, MAX_DEPTH_HYPOTHESES))
def test_bit_identical_to_the_scalar_sweep_on_random_rigs(c_sweep, scalar_sweep, seed, h, w, c,
                                                           n_planes):
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.5, 2.0) * max(h, w)
    ref_cam = grid_cam(h, w, f, cx=rng.uniform(0, w - 1), cy=rng.uniform(0, h - 1))
    moved = (ref_cam[0], Extrinsics(rot(*rng.uniform(-0.3, 0.3, 2)), rng.uniform(-0.5, 0.5, 3)))
    # the self-warp keeps every plane of every pixel, so each pixel queues
    # n_planes planes, in any residue mod 4
    nbrs = [(rng.normal(size=(h, w, c)), moved), (rng.normal(size=(h, w, c)), ref_cam)]
    hyp = np.sort(rng.uniform(0.3, 6.0, n_planes))
    assert_bit_identical(c_sweep, scalar_sweep, rng.normal(size=(h, w, c)), nbrs, ref_cam, hyp,
                         rng)


@pytest.mark.parametrize("n_planes", [4, 5, 6, 7, 8, MAX_DEPTH_HYPOTHESES - 1,
                                      MAX_DEPTH_HYPOTHESES])
@pytest.mark.parametrize("c", [1, 2, 3, 12, 13, MAX_FEATURE_CHANNELS])
def test_bit_identical_at_every_interior_plane_count(c_sweep, scalar_sweep, n_planes, c):
    rng = np.random.default_rng(n_planes * 1000 + c)
    h, w = 3, 4
    ref_cam = grid_cam(h, w, 3.0)
    nbr_cam = grid_cam(h, w, 3.0, R=rot(0.01, -0.02), T=(0.03, 0.01, -0.02))
    data = rng.normal(size=(h, w, c))
    hyp = np.linspace(0.5, 8.0, n_planes)
    counts = assert_bit_identical(c_sweep, scalar_sweep, data,
                                  [(data, ref_cam), (rng.normal(size=(h, w, c)), nbr_cam)],
                                  ref_cam, hyp, rng)
    assert (counts[: h - 1, : w - 1] >= 1).all()


def test_bit_identical_on_the_sweep_workload(c_sweep, scalar_sweep):
    # the benchmark's `sweep` rig: 64 x 64, 12 channels, 32 planes, and the
    # four input views of the six-camera ring, each against the other three
    cams_spec = [CameraPose((0.3 * np.cos(a), 0.3 * np.sin(a), 0.0), (0.0, 0.0, 2.0))
                 for a in 2 * np.pi * np.array([0, 1, 3, 4]) / 6]
    views, _ = synthesize(SceneSpec(kind="sphere", cameras=cams_spec, image_size=(64, 64)))
    fmaps = [extract_features(v, FeatureExtractorSpec(channels=12, scale=1)) for v in views]
    cams = [(v.intrinsics, v.extrinsics) for v in views]
    hyp = sample_depth_hypotheses(0.5, 10.0, 32, "inverse")
    for i in range(4):
        for j in range(4):
            if i != j:
                assert_bit_identical(c_sweep, scalar_sweep, fmaps[i], [(fmaps[j], cams[j])],
                                     cams[i], hyp)


# Offsets of the neighbour's principal point. The reference camera maps pixel
# (x, y) to (x, y, 1) exactly, so with no translation pixel x lands on x + the
# offset: exactly -0.5 and w - 0.5 (the pre-snap bounds), w - 1 and h - 1 (the
# last column and row), within and just beyond SNAP_TOL of an integer on either
# side, and on half-integer ties.
EDGE_OFFSETS = [0.0, -0.5, 0.5, 1e-10, -1e-10, 0.999 * SNAP_TOL, -0.999 * SNAP_TOL,
                1.001 * SNAP_TOL, -1.001 * SNAP_TOL, 0.25, -1.0, "last"]


def edge_rig(ox, oy, tz, h, w):
    """(ref_cam, moved, still, planes) of the edge-projection rig: pixel x of
    the reference lands on x + ox (y + oy) in the still neighbour."""
    ox = -(w - 1.0) if ox == "last" else ox  # pixel w - 1 lands on column 0 and vice versa
    oy = -(h - 1.0) if oy == "last" else oy

    def cam(cx, cy, T):  # principal points off the image, which Intrinsics refuses
        return SimpleNamespace(fx=1.0, fy=1.0, cx=cx, cy=cy), Extrinsics(np.eye(3), np.array(T))

    # with tz = 0 the translation moves plane z by exactly (-0.5 / z, 0.25 / z)
    # pixels; the still neighbour lands every plane on the offsets alone
    return (cam(0.0, 0.0, (0.0, 0.0, 0.0)), cam(ox, oy, (0.5, -0.25, tz)),
            cam(ox, oy, (0.0, 0.0, tz)), [0.5, 1.0, 2.0, 4.0, 8.0])


@pytest.mark.parametrize("tz", [0.0, 1.0])  # 1.0: planes at 0.5 and 1 have q2 < 0 and = 0
@pytest.mark.parametrize("oy", EDGE_OFFSETS)
@pytest.mark.parametrize("ox", EDGE_OFFSETS)
def test_bit_identical_on_edge_projections(c_sweep, scalar_sweep, ox, oy, tz):
    h, w, c = 5, 7, 5
    rng = np.random.default_rng(7)
    ref_cam, nbr_cam, still, hyp = edge_rig(ox, oy, tz, h, w)
    nbrs = [(rng.normal(size=(h, w, c)), nbr_cam), (rng.normal(size=(h, w, c)), still)]
    assert_bit_identical(c_sweep, scalar_sweep, rng.normal(size=(h, w, c)), nbrs, ref_cam, hyp,
                         rng)


@pytest.mark.parametrize("tz", [0.0, 1.0])
@pytest.mark.parametrize("oy", EDGE_OFFSETS)
@pytest.mark.parametrize("ox", EDGE_OFFSETS)
def test_bit_identical_on_edge_projections_with_signed_zeros(c_sweep, scalar_sweep, ox, oy, tz):
    # features of +-0 and +-1 make exact zero tap sums of either sign; the
    # compiled sweep adds its +0.0 border taps to them where the scalar loop
    # skips the off-grid taps, so only the sign of such a zero may differ.
    # acc starts from -0.0, so a -0.0 dot product would show in its bytes.
    h, w, c = 5, 7, 5
    rng = np.random.default_rng(8)
    ref_cam, nbr_cam, still, hyp = edge_rig(ox, oy, tz, h, w)

    def draw():
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=(h, w, c))

    nbrs = [(draw(), nbr_cam), (draw(), still)]
    assert_bit_identical(c_sweep, scalar_sweep, draw(), nbrs, ref_cam, hyp, zero=-0.0)
