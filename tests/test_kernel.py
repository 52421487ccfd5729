"""The chunked numpy compositing kernel against the one-splat-at-a-time loop.

`composite_tile_sequential` below is the reference: the per-splat
recurrence the chunked kernel replaced. Every comparison is on raw bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsplat import renderer
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
