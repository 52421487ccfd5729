"""The compositing kernels against their references, and the kernel loader.

`composite_tile_sequential` below is the reference for the chunked numpy
kernel: the per-splat recurrence that kernel replaced. They are compared on
raw bytes. The C kernel (kernels.c) is compared with the numpy kernel to
1e-12, since it calls libm `exp` where numpy may use its own. The loader is
checked to switch both compiled kernels (compositing and the plane sweep,
whose own agreement test is test_plane_sweep.py) to numpy together whenever
the library cannot be built or loaded, or VOLSPLAT_FORCE_NUMPY=1 is set.
"""

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
    T_CUTOFF,
    composite_tile,
)
from volsplat.renderer import TILE, bin_tiles, render

from test_renderer import E0, K, make_set

FULL_TILE_CHUNK = CHUNK_ELEMENTS // (TILE * TILE)


def composite_tile_sequential(means, conics, colors, opacities, x0, y0, rgb, transmit):
    """Same contract as `composite_tile`: rgb and transmit update in place."""
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
        a = np.where(active, alpha, 0.0)
        rgb += (a * transmit)[..., None] * colors[i]
        transmit *= np.where(active, 1.0 - a, 1.0)
        active = transmit >= T_CUTOFF


def random_splats(rng, n, x0, y0, th, tw, max_opacity=1.0):
    """n splats around the tile, with positive-definite conics."""
    means = np.c_[rng.uniform(x0 - 8, x0 + tw + 8, n), rng.uniform(y0 - 8, y0 + th + 8, n)]
    conics = np.zeros((n, 3))
    conics[:, 0] = rng.uniform(0.01, 2.0, n)
    conics[:, 2] = rng.uniform(0.01, 2.0, n)
    conics[:, 1] = rng.uniform(-0.95, 0.95, n) * np.sqrt(conics[:, 0] * conics[:, 2])
    colors = rng.uniform(0, 1, (n, 3))
    ops = rng.uniform(0, max_opacity, n)
    return means, conics, colors, ops


def assert_kernels_agree(splats, x0, y0, rgb, transmit):
    rgb_a, t_a = rgb.copy(), transmit.copy()
    rgb_b, t_b = rgb.copy(), transmit.copy()
    composite_tile_sequential(*splats, x0, y0, rgb_a, t_a)
    composite_tile(*splats, x0, y0, rgb_b, t_b)
    assert rgb_b.tobytes() == rgb_a.tobytes()
    assert t_b.tobytes() == t_a.tobytes()


def fresh(th, tw):
    return np.zeros((th, tw, 3)), np.ones((th, tw))


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

    def test_non_contiguous_inputs_and_outputs(self, c_composite):
        rng = np.random.default_rng(9)
        splats = random_splats(rng, 50, 0, 0, TILE, TILE)
        rgb_a, t_a = fresh(TILE, TILE)
        composite_tile(*splats, 0, 0, rgb_a, t_a)
        strided = tuple(np.repeat(a, 2, axis=0)[::2] for a in splats)
        strided = (np.asfortranarray(strided[0]),) + strided[1:]
        assert not any(a.flags.c_contiguous for a in strided[1:])
        rgb_big, t_big = np.zeros((TILE, 2 * TILE, 3)), np.ones((TILE, 2 * TILE))
        rgb_b, t_b = rgb_big[:, ::2], t_big[:, ::2]
        c_composite(*strided, 0, 0, rgb_b, t_b)
        np.testing.assert_allclose(rgb_b, rgb_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t_b, t_a, rtol=0, atol=1e-12)
        assert not rgb_big[:, 1::2].any() and (t_big[:, 1::2] == 1.0).all()

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
        "transmit float32", "x0 float", "rgb read-only",
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
        }[change]()
        before = [np.array(args[k], copy=True) for k in ("rgb", "transmit")]
        with pytest.raises((TypeError, ValueError)):
            c_composite(**args)
        for k, old in zip(("rgb", "transmit"), before):
            assert np.array_equal(np.asarray(args[k]), old)


NUMPY = _kernels.Kernels(composite_tile, None)  # both kernels on the numpy backend


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
        assert kernels.plane_sweep is not None
        built = sorted(p.name for p in cache.iterdir())
        assert len(built) == 1 and built[0].startswith("kernels-") and built[0].endswith(".so")
        # warm cache: no compiler is needed on the next import
        monkeypatch.setenv("PATH", str(tmp_path))
        assert _kernels.select()[1] == "c"
        assert sorted(p.name for p in cache.iterdir()) == built

    def test_force_numpy(self, cache, monkeypatch):
        monkeypatch.setenv("VOLSPLAT_FORCE_NUMPY", "1")
        assert _kernels.select() == (NUMPY, "numpy")

    @pytest.mark.parametrize("force,expect", [("0", "c False False"), ("1", "numpy True True")])
    def test_force_numpy_switches_both_kernels_at_import(self, cache, force, expect):
        # a fresh interpreter: the renderer and the depth stage read the kernels at import
        probe = ("import volsplat, volsplat.features as f, volsplat.renderer as r\n"
                 "from volsplat._kernels import _composite_np as np_\n"
                 "print(volsplat.KERNEL_BACKEND, f.plane_sweep is None,"
                 " r.composite_tile is np_.composite_tile)")
        src = Path(_kernels.__file__).parents[2]  # the directory holding volsplat/
        env = dict(os.environ, VOLSPLAT_FORCE_NUMPY=force, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == expect

    def test_falls_back_without_a_compiler(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc on the path
        assert _kernels.select() == (NUMPY, "numpy")
        assert not cache.exists() or not any(cache.iterdir())

    def test_falls_back_when_the_cache_is_unwritable(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("a file where the cache directory should be")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.delenv("VOLSPLAT_FORCE_NUMPY", raising=False)
        assert _kernels.select() == (NUMPY, "numpy")

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
