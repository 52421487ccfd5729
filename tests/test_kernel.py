"""The compositing kernels and the projection against their references, and
the kernel loader and the contract every backend's kernels share.

`composite_tile_sequential` below is the reference for the chunked numpy
kernel: the per-splat recurrence that kernel replaced. They are compared on
raw bytes. The C kernel (kernels.c) is compared with the numpy kernel to
1e-12, since it calls libm `exp` where numpy may use its own, and on raw
bytes with the one-splat-at-a-time C loop it replaced, kept in
composite_scalar.c and built with the same flags. Its checked
wrapper takes C-contiguous float64 arrays of the tile's shapes and copies
nothing: any other argument raises before the call and leaves rgb and
transmit as they were. Each kernel's skip rule (a splat adds nothing where
q > Q_SKIP) is checked against the same kernel without it: the reference
run with `q_skip=inf`, and kernels.c rebuilt with Q_SKIP at infinity.
`project_all_stacked` is the stacked-matmul projection that
`renderer._project_all` replaced. The loader is checked to switch all three
kernels (compositing, the plane sweep, whose own agreement test is
test_plane_sweep.py, and the U-Net's row scatter-add, tested in
test_sparse_unet.py) to their numpy twins, `_kernels.NUMPY`, together
whenever the library cannot be built or loaded, or VOLSPLAT_FORCE_NUMPY=1 is
set; each C kernel has the signature of its numpy twin. Every C source
compiles without a warning at -Wall -Wextra.
"""

import ctypes
import functools
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat import _kernels, renderer
from volsplat._kernels._composite_np import (
    ALPHA_MAX,
    CHUNK_ELEMENTS,
    Q_SKIP,
    T_CUTOFF,
    composite_tile,
)
from volsplat.gaussians import GaussianSet, quat_to_rotmat
from volsplat.renderer import COV2D_DILATION, TILE, _project_all, bin_tiles, eval_sh, render
from volsplat.scenes import look_at_extrinsics

from test_renderer import E0, K, make_set

FULL_TILE_CHUNK = CHUNK_ELEMENTS // (TILE * TILE)


def composite_tile_sequential(means, conics, colors, opacities, x0, y0, rgb, transmit,
                              q_skip=Q_SKIP):
    """Same contract as `composite_tile`: rgb and transmit update in place.
    A splat adds nothing where q > q_skip; q_skip=inf is the recurrence
    without the skip rule."""
    th, tw = transmit.shape
    ys, xs = np.mgrid[0:th, 0:tw]
    px = (x0 + xs).astype(float)
    py = (y0 + ys).astype(float)
    active = transmit >= T_CUTOFF
    for i in range(means.shape[0]):
        if not active.any():
            break
        dx = px - means[i, 0]
        dy = py - means[i, 1]
        q = conics[i, 0] * dx * dx + 2.0 * conics[i, 1] * dx * dy + conics[i, 2] * dy * dy
        alpha = np.minimum(ALPHA_MAX, opacities[i] * np.exp(-0.5 * q))
        alpha[q > q_skip] = 0.0
        a = np.where(active, alpha, 0.0)
        rgb += (a * transmit)[..., None] * colors[i]
        transmit *= np.where(active, 1.0 - a, 1.0)
        active = transmit >= T_CUTOFF


def random_splats(rng, n, x0, y0, th, tw, max_opacity=1.0, k=3):
    """n splats around the tile, with positive-definite conics and k colour
    channels."""
    means = np.c_[rng.uniform(x0 - 8, x0 + tw + 8, n), rng.uniform(y0 - 8, y0 + th + 8, n)]
    conics = np.zeros((n, 3))
    conics[:, 0] = rng.uniform(0.01, 2.0, n)
    conics[:, 2] = rng.uniform(0.01, 2.0, n)
    conics[:, 1] = rng.uniform(-0.95, 0.95, n) * np.sqrt(conics[:, 0] * conics[:, 2])
    colors = rng.uniform(0, 1, (n, k))
    ops = rng.uniform(0, max_opacity, n)
    return means, conics, colors, ops


def assert_kernels_agree(splats, x0, y0, rgb, transmit):
    rgb_a, t_a = rgb.copy(), transmit.copy()
    rgb_b, t_b = rgb.copy(), transmit.copy()
    composite_tile_sequential(*splats, x0, y0, rgb_a, t_a)
    composite_tile(*splats, x0, y0, rgb_b, t_b)
    assert rgb_b.tobytes() == rgb_a.tobytes()
    assert t_b.tobytes() == t_a.tobytes()


def fresh(th, tw, k=3):
    return np.zeros((th, tw, k)), np.ones((th, tw))


class TestOracle:
    @pytest.mark.parametrize("n", [0, 1, FULL_TILE_CHUNK - 1, FULL_TILE_CHUNK,
                                   FULL_TILE_CHUNK + 1, 5 * FULL_TILE_CHUNK + 3])
    @pytest.mark.parametrize("max_opacity", [0.05, 1.0])
    def test_full_tile(self, n, max_opacity):
        rng = np.random.default_rng(n)
        splats = random_splats(rng, n, 0, 0, TILE, TILE, max_opacity)
        assert_kernels_agree(splats, 0, 0, *fresh(TILE, TILE))

    @pytest.mark.parametrize("th,tw,x0,y0", [(16, 5, 48, 0), (7, 16, 16, 32),
                                             (3, 2, 112, 80), (1, 1, 5, 9)])
    def test_partial_tile_with_offset(self, th, tw, x0, y0):
        rng = np.random.default_rng(th * 100 + tw)
        for n in (0, 1, 2 * FULL_TILE_CHUNK + 1, 300):
            splats = random_splats(rng, n, x0, y0, th, tw)
            assert_kernels_agree(splats, x0, y0, *fresh(th, tw))

    def test_non_fresh_rgb_and_saturated_pixels(self):
        rng = np.random.default_rng(7)
        rgb = rng.uniform(0, 1, (TILE, TILE, 3))
        transmit = rng.uniform(0, 1, (TILE, TILE))
        transmit[rng.uniform(size=transmit.shape) < 0.4] = rng.uniform(0, T_CUTOFF)
        transmit[0] = T_CUTOFF  # exactly at the cutoff is still live
        assert (transmit < T_CUTOFF).any() and (transmit >= T_CUTOFF).any()
        splats = random_splats(rng, 3 * FULL_TILE_CHUNK, 32, 16, TILE, TILE)
        assert_kernels_agree(splats, 32, 16, rgb, transmit)

    def test_every_pixel_saturated_is_untouched(self):
        rng = np.random.default_rng(8)
        rgb = rng.uniform(0, 1, (TILE, TILE, 3))
        transmit = np.full((TILE, TILE), T_CUTOFF / 2)
        splats = random_splats(rng, 40, 0, 0, TILE, TILE)
        out_rgb, out_t = rgb.copy(), transmit.copy()
        composite_tile(*splats, 0, 0, out_rgb, out_t)
        assert out_rgb.tobytes() == rgb.tobytes() and out_t.tobytes() == transmit.tobytes()

    def test_non_contiguous_outputs_update_in_place(self):
        rng = np.random.default_rng(9)
        splats = random_splats(rng, 50, 0, 0, TILE, TILE)
        rgb_a, t_a = fresh(TILE, TILE)
        composite_tile_sequential(*splats, 0, 0, rgb_a, t_a)
        rgb_big, t_big = np.zeros((TILE, 2 * TILE, 3)), np.ones((TILE, 2 * TILE))
        rgb_b, t_b = rgb_big[:, ::2], t_big[:, ::2]
        composite_tile(*splats, 0, 0, rgb_b, t_b)
        assert rgb_b.tobytes() == rgb_a.tobytes() and t_b.tobytes() == t_a.tobytes()
        assert not rgb_big[:, 1::2].any() and (t_big[:, 1::2] == 1.0).all()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3 * FULL_TILE_CHUNK + 2),
           th=st.integers(1, TILE), tw=st.integers(1, TILE),
           x0=st.integers(0, 200), y0=st.integers(0, 200),
           max_opacity=st.sampled_from([0.02, 0.5, 1.0]), saturated=st.floats(0.0, 1.0))
    def test_random_tiles(self, seed, n, th, tw, x0, y0, max_opacity, saturated):
        rng = np.random.default_rng(seed)
        splats = random_splats(rng, n, x0, y0, th, tw, max_opacity)
        rgb = rng.uniform(0, 1, (th, tw, 3))
        transmit = rng.uniform(0, 1, (th, tw))
        transmit[rng.uniform(size=(th, tw)) < saturated] = T_CUTOFF * 0.999
        assert_kernels_agree(splats, x0, y0, rgb, transmit)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("max_opacity", [0.05, 1.0])
    def test_any_channel_count(self, k, max_opacity):
        rng = np.random.default_rng(20 + k)
        for n, th, tw, x0, y0 in ((0, 16, 16, 0, 0), (1, 16, 5, 48, 0),
                                  (5 * FULL_TILE_CHUNK + 3, 16, 16, 0, 0), (300, 3, 2, 112, 80)):
            splats = random_splats(rng, n, x0, y0, th, tw, max_opacity, k)
            assert_kernels_agree(splats, x0, y0, *fresh(th, tw, k))
            rgb, transmit = rng.uniform(-1, 4, (th, tw, k)), rng.uniform(0, 1, (th, tw))
            transmit[rng.uniform(size=(th, tw)) < 0.4] = np.nextafter(T_CUTOFF, 0.0)
            assert_kernels_agree(splats, x0, y0, rgb, transmit)


def test_each_channel_is_that_of_a_three_channel_pass(kernel_backend):
    # [r, g, b, z, 1] in one pass: channels 0-2 are the (r, g, b) pass and
    # channels 3-4 the first two of the (z, 1, 0) pass, bit for bit, and all
    # three passes leave the same transmittance
    rng = np.random.default_rng(40)
    n = 300
    means, conics, rgb_colors, ops = random_splats(rng, n, 16, 0, TILE, TILE, 0.8)
    z = rng.uniform(1.5, 4.0, n)
    out = []
    for colors in (np.column_stack([rgb_colors, z, np.ones(n)]), rgb_colors,
                   np.column_stack([z, np.ones(n), np.zeros(n)])):
        acc, transmit = fresh(TILE, TILE, colors.shape[1])
        renderer.composite_tile(means, conics, colors, ops, 16, 0, acc, transmit)
        out.append((acc, transmit))
    (five, t5), (rgb, t_rgb), (zed, t_z) = out
    assert five[..., :3].tobytes() == rgb.tobytes()
    assert five[..., 3:].tobytes() == zed[..., :2].tobytes()
    assert t5.tobytes() == t_rgb.tobytes() == t_z.tobytes()
    assert t5.min() < 0.5 < t5.max()  # the weights differ across the tile


@pytest.mark.parametrize("colors_k,rgb_k", [(5, 3), (3, 5), (1, 3), (5, 1)])
def test_checker_raises_when_colors_and_rgb_disagree_on_k(colors_k, rgb_k):
    # the wrapper around a recording stand-in: no call means no pointer passed
    calls = []
    checked = _kernels._checked_composite(lambda *args: calls.append(args))
    rng = np.random.default_rng(17)
    splats = random_splats(rng, 20, 0, 0, TILE, TILE, k=colors_k)
    with pytest.raises(ValueError, match=rf"rgb has shape .*expected \(16, 16, {colors_k}\)"):
        checked(*splats, 0, 0, *fresh(TILE, TILE, rgb_k))
    assert calls == []
    checked(*splats, 0, 0, *fresh(TILE, TILE, colors_k))
    assert len(calls) == 1 and calls[0][4:6] == (20, colors_k)  # n, then k


@pytest.fixture(scope="session")
def c_composite_no_skip(tmp_path_factory):
    """kernels.c with Q_SKIP at infinity: the C recurrence without the skip."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    line = f"#define Q_SKIP {Q_SKIP:.1f}\n"
    text = _kernels.SOURCE.read_text()
    assert text.count(line) == 1
    source = tmp_path_factory.mktemp("no_skip") / "kernels.c"
    source.write_text(text.replace(line, "#define Q_SKIP INFINITY\n"))
    kernels = _kernels.load(source.parent, source)
    assert kernels is not None, "kernels.c with Q_SKIP at infinity did not build or load"
    return kernels.composite_tile


@pytest.fixture(scope="module", params=["numpy", "c"])
def with_and_without_skip(request):
    """One backend's kernel and the same recurrence without the skip rule."""
    if request.param == "numpy":
        return composite_tile, functools.partial(composite_tile_sequential, q_skip=np.inf)
    return (request.getfixturevalue("c_composite"),
            request.getfixturevalue("c_composite_no_skip"))


class TestSkipRule:
    def test_pixels_either_side_of_the_threshold(self, kernel_backend):
        # one opaque white splat between two pixels: q is 80 (1 + 2h)^2 at
        # pixel 0, just above Q_SKIP, and 80 (1 - 2h)^2 at pixel 1, just below
        h = 1e-9
        splat = (np.array([[0.5 + h, 0.0]]), np.array([[4 * Q_SKIP, 0.0, 4 * Q_SKIP]]),
                 np.ones((1, 3)), np.ones(1))
        dx = np.array([0.0, 1.0]) - splat[0][0, 0]
        q = 4 * Q_SKIP * dx * dx  # the kernels' q, as dy = 0 and the conic is diagonal
        assert q[0] > Q_SKIP > q[1]
        rgb, transmit = fresh(1, 2)
        renderer.composite_tile(*splat, 0, 0, rgb, transmit)
        assert rgb[0, 0].tobytes() == bytes(24)  # skipped: +0.0 in every channel
        np.testing.assert_allclose(rgb[0, 1], np.exp(-0.5 * q[1]), rtol=1e-12)
        assert 0 < rgb[0, 1, 0] < 4.3e-18
        # 1 - alpha rounds to 1 on both sides of the threshold
        assert transmit.tobytes() == np.ones((1, 2)).tobytes()
        # without the rule pixel 0 would have taken its e^-40
        rgb_all, t_all = fresh(1, 2)
        composite_tile_sequential(*splat, 0, 0, rgb_all, t_all, q_skip=np.inf)
        assert 0 < rgb_all[0, 0, 0] < 4.3e-18 and t_all.tobytes() == transmit.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3 * FULL_TILE_CHUNK + 2),
           th=st.integers(1, TILE), tw=st.integers(1, TILE),
           x0=st.integers(0, 200), y0=st.integers(0, 200),
           max_opacity=st.sampled_from([0.02, 0.5, 1.0]), is_fresh=st.booleans())
    def test_transmittance_is_that_of_the_recurrence_without_the_skip(
            self, with_and_without_skip, seed, n, th, tw, x0, y0, max_opacity, is_fresh):
        kernel, no_skip = with_and_without_skip
        rng = np.random.default_rng(seed)
        splats = random_splats(rng, n, x0, y0, th, tw, max_opacity)
        if is_fresh:
            rgb, transmit = fresh(th, tw)
        else:
            rgb, transmit = rng.uniform(0, 1, (th, tw, 3)), rng.uniform(0, 1, (th, tw))
        rgb_a, t_a = rgb.copy(), transmit.copy()
        rgb_b, t_b = rgb.copy(), transmit.copy()
        kernel(*splats, x0, y0, rgb_a, t_a)
        no_skip(*splats, x0, y0, rgb_b, t_b)
        assert t_a.tobytes() == t_b.tobytes()
        # each of the n splats either adds a skipped term below e^-40 or, once
        # an earlier skip moved the running sum, may round it one ulp apart
        ulp = np.spacing(max(1.0, np.abs(rgb_b).max(initial=0.0)))
        assert np.abs(rgb_a - rgb_b).max(initial=0.0) <= n * (np.exp(-40) + ulp)


def triple_loop_bins(tx0, tx1, ty0, ty1, nx, ny):
    tile_lists = [[] for _ in range(nx * ny)]
    for i in range(tx0.size):
        for ty in range(ty0[i], ty1[i] + 1):
            for tx in range(tx0[i], tx1[i] + 1):
                tile_lists[ty * nx + tx].append(i)
    return tile_lists


class TestBinning:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(10)
        nx, ny, n = 7, 5, 400
        mean2d = rng.uniform(-20, 130, (n, 2))
        radius = rng.exponential(12.0, n)
        tx0 = np.clip(((mean2d[:, 0] - radius) // TILE).astype(int), 0, nx - 1)
        tx1 = np.clip(((mean2d[:, 0] + radius) // TILE).astype(int), 0, nx - 1)
        ty0 = np.clip(((mean2d[:, 1] - radius) // TILE).astype(int), 0, ny - 1)
        ty1 = np.clip(((mean2d[:, 1] + radius) // TILE).astype(int), 0, ny - 1)
        rows, bounds = bin_tiles(tx0, tx1, ty0, ty1, nx, ny)
        expect = triple_loop_bins(tx0, tx1, ty0, ty1, nx, ny)
        assert [rows[bounds[t] : bounds[t + 1]].tolist() for t in range(nx * ny)] == expect
        assert bounds[-1] == sum(len(tl) for tl in expect)

    def test_empty(self):
        none = np.zeros(0, int)
        rows, bounds = bin_tiles(none, none, none, none, 3, 2)
        assert rows.size == 0 and bounds.tolist() == [0] * 7


def test_render_matches_sequential_kernel_at_any_thread_count(monkeypatch):
    # 1500 translucent splats on a 64x64 image: every tile composites several chunks
    rng = np.random.default_rng(11)
    n = 1500
    gset = make_set(
        np.c_[rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.5, 5.0, n)],
        rng.uniform(0, 1, (n, 3)),
        rng.uniform(0.02, 0.3, n),
        rng.uniform(0.05, 0.2, (n, 3)),
    )
    seen = []
    monkeypatch.setattr(renderer, "composite_tile",
                        lambda means, *rest: seen.append(len(means)) or composite_tile(means, *rest))
    outs = [render(gset, K, E0, threads=t) for t in (1, 2, 8)]
    assert min(seen) > 2 * FULL_TILE_CHUNK
    monkeypatch.setattr(renderer, "composite_tile", composite_tile_sequential)
    outs.append(render(gset, K, E0))
    for out in outs[1:]:
        assert out.rgb.tobytes() == outs[0].rgb.tobytes()
        assert out.alpha.tobytes() == outs[0].alpha.tobytes()


def assert_c_matches_numpy(c_kernel, splats, x0, y0, rgb, transmit):
    rgb_a, t_a = rgb.copy(), transmit.copy()
    rgb_b, t_b = rgb.copy(), transmit.copy()
    composite_tile(*splats, x0, y0, rgb_a, t_a)
    c_kernel(*splats, x0, y0, rgb_b, t_b)
    np.testing.assert_allclose(rgb_b, rgb_a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t_b, t_a, rtol=0, atol=1e-12)


class TestCKernel:
    @pytest.mark.parametrize("n", [0, 1, FULL_TILE_CHUNK - 1, FULL_TILE_CHUNK,
                                   FULL_TILE_CHUNK + 1, 5 * FULL_TILE_CHUNK + 3])
    @pytest.mark.parametrize("max_opacity", [0.05, 1.0])
    def test_full_tile(self, c_composite, n, max_opacity):
        rng = np.random.default_rng(n)
        splats = random_splats(rng, n, 0, 0, TILE, TILE, max_opacity)
        assert_c_matches_numpy(c_composite, splats, 0, 0, *fresh(TILE, TILE))

    @pytest.mark.parametrize("th,tw,x0,y0", [(16, 5, 48, 0), (7, 16, 16, 32),
                                             (3, 2, 112, 80), (1, 1, 5, 9)])
    def test_partial_tile_with_offset(self, c_composite, th, tw, x0, y0):
        rng = np.random.default_rng(th * 100 + tw)
        for n in (0, 1, 2 * FULL_TILE_CHUNK + 1, 300):
            splats = random_splats(rng, n, x0, y0, th, tw)
            assert_c_matches_numpy(c_composite, splats, x0, y0, *fresh(th, tw))

    def test_near_opaque_splats_on_pixel_centres_clamp_alpha(self, c_composite):
        rng = np.random.default_rng(16)
        means, conics, colors, _ = random_splats(rng, 40, 0, 0, TILE, TILE)
        means = np.floor(means)  # q = 0 at the pixel under each mean
        ops = rng.uniform(0.995, 1.0, 40)
        rgb, transmit = fresh(TILE, TILE)
        assert_c_matches_numpy(c_composite, (means, conics, colors, ops), 0, 0, rgb, transmit)

    def test_non_fresh_rgb_and_saturated_pixels(self, c_composite):
        rng = np.random.default_rng(7)
        rgb = rng.uniform(0, 1, (TILE, TILE, 3))
        transmit = rng.uniform(0, 1, (TILE, TILE))
        transmit[rng.uniform(size=transmit.shape) < 0.4] = rng.uniform(0, T_CUTOFF)
        transmit[0] = T_CUTOFF  # exactly at the cutoff is still live
        transmit[1] = np.nextafter(T_CUTOFF, 0.0)  # just below it is not
        splats = random_splats(rng, 3 * FULL_TILE_CHUNK, 32, 16, TILE, TILE)
        assert_c_matches_numpy(c_composite, splats, 32, 16, rgb, transmit)
        out_rgb, out_t = rgb.copy(), transmit.copy()
        c_composite(*splats, 32, 16, out_rgb, out_t)
        assert (out_t[0] < T_CUTOFF).any()  # row 0 took splats
        assert out_rgb[1].tobytes() == rgb[1].tobytes()
        assert out_t[1].tobytes() == transmit[1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3 * FULL_TILE_CHUNK + 2),
           th=st.integers(1, TILE), tw=st.integers(1, TILE),
           x0=st.integers(0, 200), y0=st.integers(0, 200),
           max_opacity=st.sampled_from([0.02, 0.5, 1.0]), saturated=st.floats(0.0, 1.0))
    def test_random_tiles(self, c_composite, seed, n, th, tw, x0, y0, max_opacity, saturated):
        rng = np.random.default_rng(seed)
        splats = random_splats(rng, n, x0, y0, th, tw, max_opacity)
        rgb = rng.uniform(0, 1, (th, tw, 3))
        transmit = rng.uniform(0, 1, (th, tw))
        transmit[rng.uniform(size=(th, tw)) < saturated] = T_CUTOFF * 0.999
        assert_c_matches_numpy(c_composite, splats, x0, y0, rgb, transmit)

    @pytest.mark.parametrize("bad", [
        "means float32", "conics list", "means (n, 3)", "conics (n, 2)", "colors n - 1 rows",
        "opacities (n, 1)", "means 1-D", "rgb 4 channels", "rgb other tile", "transmit 1-D",
        "transmit float32", "x0 float", "rgb read-only", "means strided",
        "conics Fortran-ordered", "rgb strided",
    ])
    def test_wrapper_raises_on_bad_arguments(self, c_composite, bad):
        rng = np.random.default_rng(14)
        args = dict(zip(("means", "conics", "colors", "opacities"),
                        random_splats(rng, 20, 0, 0, TILE, TILE)))
        args.update(x0=0, y0=0, rgb=np.zeros((TILE, TILE, 3)), transmit=np.ones((TILE, TILE)))
        name, change = bad.split(" ", 1)
        a = args[name]
        args[name] = {
            "float32": lambda: a.astype(np.float32), "list": lambda: a.tolist(),
            "(n, 3)": lambda: np.zeros((20, 3)), "(n, 2)": lambda: np.zeros((20, 2)),
            "n - 1 rows": lambda: a[:-1], "(n, 1)": lambda: a[:, None],
            "1-D": lambda: a.ravel(), "4 channels": lambda: np.zeros((TILE, TILE, 4)),
            "other tile": lambda: np.zeros((TILE, 8, 3)), "float": lambda: 1.5,
            "read-only": lambda: np.frombuffer(bytes(a.nbytes)).reshape(a.shape),
            # the right shape and values, but not C-contiguous: nothing is copied
            "strided": lambda: np.repeat(a, 2, axis=0)[::2],
            "Fortran-ordered": lambda: np.asfortranarray(a),
        }[change]()
        layout = change in ("strided", "Fortran-ordered")
        assert not layout or not args[name].flags.c_contiguous
        before = [np.array(args[k], copy=True) for k in ("rgb", "transmit")]
        with pytest.raises(ValueError if layout else (TypeError, ValueError)):
            c_composite(**args)
        for k, old in zip(("rgb", "transmit"), before):
            assert np.array_equal(np.asarray(args[k]), old)


SCALAR_SOURCE = Path(__file__).with_name("composite_scalar.c")
BLOCK = _kernels.COMPOSITE_BLOCK


@pytest.fixture(scope="session")
def scalar_composite(tmp_path_factory):
    """The one-splat-at-a-time loop of composite_scalar.c, built with the
    shipped flags, behind the shipped wrapper's signature."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    fn = ctypes.CDLL(str(_kernels.build(tmp_path_factory.mktemp("scalar"),
                                        SCALAR_SOURCE))).composite_tile
    ptr, size = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [ptr, ptr, ptr, ptr, size, size, size, size, size, size, ptr, ptr]
    fn.restype = None

    def composite_tile(means, conics, colors, opacities, x0, y0, rgb, transmit):
        for a in (means, conics, colors, opacities, rgb, transmit):
            assert a.dtype == np.float64 and a.flags.c_contiguous
        n, k = colors.shape
        assert means.shape == (n, 2) and conics.shape == (n, 3)
        assert opacities.shape == (n,) and rgb.shape == transmit.shape + (k,)
        fn(means.ctypes.data, conics.ctypes.data, colors.ctypes.data, opacities.ctypes.data, n,
           k, x0, y0, *transmit.shape, rgb.ctypes.data, transmit.ctypes.data)

    return composite_tile


def assert_matches_scalar(c_composite, scalar_composite, splats, x0, y0, rgb, transmit):
    """Both kernels composite the same splats onto copies of rgb and transmit;
    the raw bytes must agree. Returns the shipped kernel's (rgb, transmit)."""
    out = []
    for kernel in (scalar_composite, c_composite):
        rgb_k, t_k = rgb.copy(), transmit.copy()
        kernel(*splats, x0, y0, rgb_k, t_k)
        out.append((rgb_k, t_k))
    assert out[1][0].tobytes() == out[0][0].tobytes(), "rgb differs from the scalar loop"
    assert out[1][1].tobytes() == out[0][1].tobytes(), "transmit differs from the scalar loop"
    return out[1]


def one_pixel_splats(q_conic, opacities, colors=None):
    """Splats one pixel right of pixel (0, 0), whose q there is their c0."""
    n = len(q_conic)
    conics = np.zeros((n, 3))
    conics[:, 0] = q_conic
    colors = np.linspace(0.1, 1.0, 3 * n).reshape(n, 3) if colors is None else colors
    return np.tile([1.0, 0.0], (n, 1)), conics, colors, np.asarray(opacities, dtype=float)


class TestBlockedKernel:
    """The shipped kernel tests BLOCK splats per step; it must equal the
    scalar loop it replaced on raw bytes."""

    def test_block_matches_the_wrapper(self):
        assert f"#define BLOCK {BLOCK} " in _kernels.SOURCE.read_text()

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 1000])
    @pytest.mark.parametrize("max_opacity", [0.05, 1.0])
    def test_full_tile(self, c_composite, scalar_composite, n, max_opacity):
        rng = np.random.default_rng(n)
        splats = random_splats(rng, n, 0, 0, TILE, TILE, max_opacity)
        assert_matches_scalar(c_composite, scalar_composite, splats, 0, 0, *fresh(TILE, TILE))

    @pytest.mark.parametrize("th,tw,x0,y0", [(16, 5, 48, 0), (7, 16, 16, 32),
                                             (3, 2, 112, 80), (1, 1, 5, 9)])
    def test_partial_tile_with_offset_and_saturated_pixels(self, c_composite, scalar_composite,
                                                           th, tw, x0, y0):
        rng = np.random.default_rng(th * 100 + tw)
        for n in (0, 1, BLOCK + 1, 300):
            splats = random_splats(rng, n, x0, y0, th, tw)
            assert_matches_scalar(c_composite, scalar_composite, splats, x0, y0, *fresh(th, tw))
            rgb, transmit = rng.uniform(0, 1, (th, tw, 3)), rng.uniform(0, 1, (th, tw))
            transmit[rng.uniform(size=(th, tw)) < 0.4] = np.nextafter(T_CUTOFF, 0.0)
            transmit.flat[0] = T_CUTOFF  # exactly at the cutoff is still live
            assert_matches_scalar(c_composite, scalar_composite, splats, x0, y0, rgb, transmit)

    @pytest.mark.parametrize("last", [2, 5, BLOCK - 1, BLOCK, BLOCK + 2, 2 * BLOCK - 1])
    def test_pixel_leaves_in_the_middle_of_a_block(self, c_composite, scalar_composite, last):
        # clear splats, then three clamped at ALPHA_MAX ending at splat `last`:
        # T = (1 - ALPHA_MAX)^3 < T_CUTOFF, so later splats must add nothing
        n = 3 * BLOCK
        ops = np.zeros(n)
        ops[last - 2 : last + 1] = 1.0
        ops[last + 1 :] = 0.5
        rgb, transmit = assert_matches_scalar(c_composite, scalar_composite,
                                              one_pixel_splats(np.zeros(n), ops), 0, 0,
                                              *fresh(1, 1))
        left = 1.0 - ALPHA_MAX
        assert transmit[0, 0] == left * left * left < T_CUTOFF

    def test_q_within_an_ulp_of_q_skip_and_the_alpha_clamp(self, c_composite, scalar_composite):
        # q is c0 exactly: just below, at and just above Q_SKIP, then q = 0,
        # where opacities above ALPHA_MAX are clamped, between them
        below, above = np.nextafter(Q_SKIP, 0.0), np.nextafter(Q_SKIP, np.inf)
        q = np.array([below, Q_SKIP, above, 0.0, above, Q_SKIP, 0.0, below, above, 0.0, 0.0])
        ops = np.array([1.0, 1.0, 1.0, 0.995, 1.0, 1.0, 1.0, 1.0, 1.0, 0.3, 0.2])
        splats = one_pixel_splats(q, ops)
        rgb, transmit = fresh(1, 1)
        rgb_c, t_c = assert_matches_scalar(c_composite, scalar_composite, splats, 0, 0, rgb,
                                           transmit)
        # the three above Q_SKIP add nothing: drop them and nothing changes
        kept = tuple(a[q <= Q_SKIP] for a in splats)
        rgb_k, t_k = fresh(1, 1)
        c_composite(*kept, 0, 0, rgb_k, t_k)
        assert rgb_k.tobytes() == rgb_c.tobytes() and t_k.tobytes() == t_c.tobytes()
        # on their own, the splats at Q_SKIP and one ulp below it add e^-40
        for at in (0, 1):
            alone = assert_matches_scalar(c_composite, scalar_composite,
                                          tuple(a[at : at + 1] for a in splats), 0, 0,
                                          *fresh(1, 1))[0]
            assert (0 < alone).all() and (alone < 4.3e-18).all()

    @pytest.mark.parametrize("lane", [0, 3, BLOCK - 1, BLOCK + 1])
    def test_nan_q_is_composited_not_skipped(self, c_composite, scalar_composite, lane):
        # c2 < 0 and a splat 1e200 px away: q = inf + 0 - inf = NaN at every pixel
        rng = np.random.default_rng(lane)
        means, conics, colors, ops = random_splats(rng, 2 * BLOCK, 0, 0, 2, 3)
        means[lane] = 1e200
        conics[lane] = [1.0, 0.0, -1.0]
        rgb, transmit = assert_matches_scalar(c_composite, scalar_composite,
                                              (means, conics, colors, ops), 0, 0, *fresh(2, 3))
        assert np.isnan(transmit).all() and np.isnan(rgb).all()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5 * BLOCK),
           th=st.integers(1, TILE), tw=st.integers(1, TILE),
           x0=st.integers(0, 200), y0=st.integers(0, 200),
           max_opacity=st.sampled_from([0.02, 0.5, 1.0]), saturated=st.floats(0.0, 1.0))
    def test_random_tiles(self, c_composite, scalar_composite, seed, n, th, tw, x0, y0,
                          max_opacity, saturated):
        rng = np.random.default_rng(seed)
        splats = random_splats(rng, n, x0, y0, th, tw, max_opacity)
        rgb = rng.uniform(0, 1, (th, tw, 3))
        transmit = rng.uniform(0, 1, (th, tw))
        transmit[rng.uniform(size=(th, tw)) < saturated] = T_CUTOFF * 0.999
        assert_matches_scalar(c_composite, scalar_composite, splats, x0, y0, rgb, transmit)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("max_opacity", [0.05, 1.0])
    def test_any_channel_count(self, c_composite, scalar_composite, k, max_opacity):
        rng = np.random.default_rng(30 + k)
        for n, th, tw, x0, y0 in ((0, 16, 16, 0, 0), (1, 16, 16, 0, 0), (BLOCK + 1, 7, 16, 16, 32),
                                  (1000, 16, 16, 0, 0), (300, 3, 2, 112, 80)):
            means, conics, colors, ops = random_splats(rng, n, x0, y0, th, tw, max_opacity, k)
            splats = (means, conics, 5.0 * colors - 1.0, ops)  # depth-like values too
            assert_matches_scalar(c_composite, scalar_composite, splats, x0, y0,
                                  *fresh(th, tw, k))
            rgb, transmit = rng.uniform(-1, 4, (th, tw, k)), rng.uniform(0, 1, (th, tw))
            transmit[rng.uniform(size=(th, tw)) < 0.4] = np.nextafter(T_CUTOFF, 0.0)
            transmit.flat[0] = T_CUTOFF
            assert_matches_scalar(c_composite, scalar_composite, splats, x0, y0, rgb, transmit)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("source", [_kernels.SOURCE, SCALAR_SOURCE,
                                    Path(__file__).with_name("plane_sweep_scalar.c")],
                         ids=lambda p: p.name)
def test_c_source_compiles_without_warnings(source):
    subprocess.run(["cc", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                    str(source)], check=True, capture_output=True, stdin=subprocess.DEVNULL)


def project_all_stacked(gset, K, E):
    """Reference for `renderer._project_all`: the same projection with the 3D
    and 2D covariances built as stacked (N, 3, 3) matrix products, culled
    and sorted in separate steps."""
    centers = gset.centers.astype(float)
    p_cam = E.world_to_cam(centers)
    idx = np.nonzero(p_cam[:, 2] > renderer.NEAR_PLANE)[0]
    p_cam = p_cam[idx]
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    mean2d = np.stack([K.fx * x / z + K.cx, K.fy * y / z + K.cy], axis=1)
    J = np.zeros((idx.size, 2, 3))
    J[:, 0, 0] = K.fx / z
    J[:, 0, 2] = -K.fx * x / (z * z)
    J[:, 1, 1] = K.fy / z
    J[:, 1, 2] = -K.fy * y / (z * z)
    M = quat_to_rotmat(gset.rotations[idx].astype(float)) * gset.scales[idx][:, None, :]
    JW = J @ E.R.T
    cov2d = JW @ (M @ M.transpose(0, 2, 1)) @ JW.transpose(0, 2, 1)
    a = cov2d[:, 0, 0] + COV2D_DILATION
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1] + COV2D_DILATION
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(mid * mid - (a * c - b * b), 0.0))
    radius = 3.0 * np.sqrt(np.maximum(mid + disc, 0.0))
    dirs = centers[idx] - E.T
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.divide(dirs, norms, out=np.zeros_like(dirs), where=norms > 0)
    colors = eval_sh(gset.sh[idx], gset.sh_degree, dirs)
    inside = ((mean2d[:, 0] + radius >= -0.5) & (mean2d[:, 0] - radius <= K.width - 0.5)
              & (mean2d[:, 1] + radius >= -0.5) & (mean2d[:, 1] - radius <= K.height - 0.5))
    conics = np.stack([c, -b, a], axis=1) / (a * c - b * b)[:, None]
    out = (mean2d[inside], conics[inside], z[inside], colors[inside],
           gset.opacities[idx][inside], radius[inside], idx[inside])
    order = np.lexsort((out[6], out[2]))  # front to back, set index as the tiebreak
    return tuple(a[order] for a in out)


class TestProjection:
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_matches_stacked_matmuls(self, seed):
        rng = np.random.default_rng(seed)
        n = 3000
        quats = rng.normal(size=(n, 4))
        z = rng.uniform(0.3, 4.0, n) * rng.choice([-1, 1], n, p=[0.1, 0.9])
        gset = GaussianSet(
            centers=np.c_[rng.uniform(-1, 1, (n, 2)), z],
            opacity_logits=rng.normal(size=n),
            log_scales=rng.uniform(np.log(1e-3), np.log(0.3), (n, 3)),
            rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
            sh=rng.normal(size=(n, 12)), sh_degree=1)
        cams = [E0, look_at_extrinsics(rng.uniform(-1, 1, 3) + [0, 0, -1], [0, 0, 2])]
        for E in cams:
            got, want = _project_all(gset, K, E), project_all_stacked(gset, K, E)
            assert 100 < want[6].size < n  # some splats are culled, most are not
            for i in (0, 2, 3, 4, 6):  # mean2d, z, colors, opacities, surviving indices
                assert got[i].tobytes() == want[i].tobytes()
            scale = np.abs(want[1]).max(axis=1, keepdims=True)
            assert (np.abs(got[1] - want[1]) <= 1e-9 * scale).all()
            np.testing.assert_allclose(got[5], want[5], rtol=1e-9, atol=0)


def test_build_flags_keep_ieee_rounding_and_any_host():
    # no fused multiply-adds and no reassociation, so every vector lane rounds
    # like the scalar code; no CPU-specific code in a library the per-user
    # cache may hand to another host
    flags = _kernels.FLAGS
    assert "-ffp-contract=off" in flags
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"} & set(flags)
    assert not any(f.startswith(("-march", "-mcpu")) for f in flags)


def test_each_kernel_has_one_signature_on_both_backends(c_kernels):
    for field in _kernels.Kernels._fields:
        c_kernel, numpy_kernel = getattr(c_kernels, field), getattr(_kernels.NUMPY, field)
        assert inspect.signature(c_kernel) == inspect.signature(numpy_kernel), field


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh per-user cache directory, with VOLSPLAT_FORCE_NUMPY unset."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("VOLSPLAT_FORCE_NUMPY", raising=False)
    return tmp_path / "cache" / "volsplat"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestLoader:
    def test_builds_once_into_the_user_cache(self, cache, tmp_path, monkeypatch):
        kernels, backend = _kernels.select()
        assert backend == "c" and kernels.composite_tile is not composite_tile
        assert kernels.plane_sweep is not _kernels.plane_sweep_np
        assert kernels.scatter_add_rows is not _kernels.scatter_add_rows_np
        built = sorted(p.name for p in cache.iterdir())
        assert len(built) == 1 and built[0].startswith("kernels-") and built[0].endswith(".so")
        # warm cache: no compiler is needed on the next import
        monkeypatch.setenv("PATH", str(tmp_path))
        assert _kernels.select()[1] == "c"
        assert sorted(p.name for p in cache.iterdir()) == built

    def test_force_numpy(self, cache, monkeypatch):
        monkeypatch.setenv("VOLSPLAT_FORCE_NUMPY", "1")
        assert _kernels.select() == (_kernels.NUMPY, "numpy")

    @pytest.mark.parametrize("force,expect", [("0", "c False False"), ("1", "numpy True True")])
    def test_force_numpy_switches_both_kernels_at_import(self, cache, force, expect):
        # a fresh interpreter: the renderer and the depth stage read the kernels at import
        probe = ("import volsplat, volsplat.features as f, volsplat.renderer as r\n"
                 "from volsplat._kernels import NUMPY\n"
                 "print(volsplat.KERNEL_BACKEND, f.plane_sweep is NUMPY.plane_sweep,"
                 " r.composite_tile is NUMPY.composite_tile)")
        src = Path(_kernels.__file__).parents[2]  # the directory holding volsplat/
        env = dict(os.environ, VOLSPLAT_FORCE_NUMPY=force, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == expect

    @pytest.mark.parametrize("force,expect", [("0", "c False"), ("1", "numpy True")])
    def test_force_numpy_switches_the_unet_scatter_at_import(self, cache, force, expect):
        probe = ("import volsplat, volsplat._kernels as k, volsplat.sparse_unet as u\n"
                 "print(volsplat.KERNEL_BACKEND, u.scatter_add_rows is k.scatter_add_rows_np)")
        src = Path(_kernels.__file__).parents[2]
        env = dict(os.environ, VOLSPLAT_FORCE_NUMPY=force, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == expect

    def test_falls_back_without_a_compiler(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc on the path
        assert _kernels.select() == (_kernels.NUMPY, "numpy")
        assert not cache.exists() or not any(cache.iterdir())

    def test_falls_back_when_the_cache_is_unwritable(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("a file where the cache directory should be")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.delenv("VOLSPLAT_FORCE_NUMPY", raising=False)
        assert _kernels.select() == (_kernels.NUMPY, "numpy")

    def test_falls_back_on_a_compile_error(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C\n")
        out = tmp_path / "out"
        assert _kernels.load(out, bad) is None
        assert not any(out.iterdir())  # the temporary output is removed

    def test_falls_back_on_a_broken_library(self, tmp_path):
        lib = _kernels.build(tmp_path)
        lib.write_bytes(b"not a shared library")
        assert _kernels.load(tmp_path) is None

    def test_source_change_gets_a_new_build(self, tmp_path):
        edited = tmp_path / "kernels.c"
        edited.write_bytes(_kernels.SOURCE.read_bytes() + b"\n/* edited */\n")
        out = tmp_path / "out"
        assert _kernels.build(out) != _kernels.build(out, edited)
        assert _kernels.load(out, edited) is not None
