import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from volsplat._kernels import COV2D_DILATION
from volsplat.errors import FormatError, InvalidInputError
from volsplat.gaussians import GaussianSet, SH_C0
from volsplat.geometry import Extrinsics, Intrinsics
from volsplat import renderer
from volsplat.renderer import (
    MAX_THREADS,
    PSNR_CAP,
    RenderedImage,
    _project_all,
    combined_loss,
    compute_image_metrics,
    eval_sh,
    render,
    ssim,
)
from volsplat.sceneio import read_ppm, write_ppm

K = Intrinsics(fx=60, fy=60, cx=32, cy=32, width=64, height=64)
E0 = Extrinsics.identity()


def logit(p):
    return float(np.log(p / (1 - p)))


def make_set(centers, colors, opacities, scales, rotations=None):
    centers = np.atleast_2d(np.asarray(centers, float))
    n = centers.shape[0]
    colors = np.atleast_2d(np.asarray(colors, float))
    sh = (colors - 0.5) / SH_C0
    if rotations is None:
        rotations = np.tile([1.0, 0, 0, 0], (n, 1))
    return GaussianSet(
        centers=centers,
        opacity_logits=np.array([logit(o) for o in np.atleast_1d(opacities)]),
        log_scales=np.log(np.atleast_2d(np.asarray(scales, float))),
        rotations=np.asarray(rotations, float),
        sh=sh,
    )


def project_one(gset, E=E0):
    """The one splat of `gset` through `_project_all`, with its 2D covariance
    recovered as the inverse of the conic; None when it is culled."""
    mean2d, conics, z, colors, ops, radius, idx = _project_all(gset, K, E)
    assert all(len(a) == idx.size for a in (mean2d, conics, z, colors, ops, radius))
    if idx.size == 0:
        return None
    a, b, c = conics[0]  # conic [[a, b], [b, c]]
    return SimpleNamespace(mean2d=mean2d[0], cov2d=np.linalg.inv([[a, b], [b, c]]),
                           depth=z[0], opacity=ops[0], radius=radius[0])


class TestProjection:
    """Each test runs on both kernel backends."""

    def test_on_axis_cov2d_oracle(self, each_backend):
        # isotropic sigma at depth d on the optical axis:
        # cov2d = (fx * sigma / d)^2 I + dilation I, mean at principal point
        sigma, d = 0.05, 2.0
        gset = make_set([0, 0, d], [1, 0, 0], [0.8], [[sigma] * 3])
        for _ in each_backend():
            s = project_one(gset)
            np.testing.assert_allclose(s.mean2d, [32, 32], atol=1e-6)
            expect = (K.fx * sigma / d) ** 2 + COV2D_DILATION
            np.testing.assert_allclose(s.cov2d, np.diag([expect, expect]), atol=1e-9)
            assert s.depth == pytest.approx(d)
            assert s.opacity == pytest.approx(0.8, abs=1e-6)
            assert s.radius == pytest.approx(3 * np.sqrt(expect), rel=1e-6)

    def test_depth_halving_quadruples_pre_dilation_cov(self, each_backend):
        sigma = 0.05
        for _ in each_backend():
            far = project_one(make_set([0, 0, 4.0], [1, 0, 0], [0.5], [[sigma] * 3]))
            near = project_one(make_set([0, 0, 2.0], [1, 0, 0], [0.5], [[sigma] * 3]))
            ratio = (near.cov2d[0, 0] - COV2D_DILATION) / (far.cov2d[0, 0] - COV2D_DILATION)
            assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_behind_camera_culled(self, each_backend):
        gset = make_set([0, 0, -1.0], [1, 0, 0], [0.5], [[0.05] * 3])
        for _ in each_backend():
            assert project_one(gset) is None

    def test_far_off_screen_culled(self, each_backend):
        gset = make_set([1000.0, 0, 2.0], [1, 0, 0], [0.5], [[0.01] * 3])
        for _ in each_backend():
            assert project_one(gset) is None

    def test_extrinsics_shift(self, each_backend):
        E = Extrinsics(np.eye(3), np.array([0.5, 0.0, 0.0]))
        gset = make_set([0.5, 0, 2.0], [1, 0, 0], [0.5], [[0.05] * 3])
        for _ in each_backend():
            s = project_one(gset, E)
            np.testing.assert_allclose(s.mean2d, [32, 32], atol=1e-6)


class TestEvalSh:
    def test_degree0_affine(self):
        dc = (np.array([[0.9, 0.4, 0.1]]) - 0.5) / SH_C0
        c = eval_sh(dc, 0, np.array([[0, 0, 1.0]]))
        np.testing.assert_allclose(c, [[0.9, 0.4, 0.1]], atol=1e-12)

    def test_clipped(self):
        dc = np.array([[100.0, -100.0, 0.0]])
        c = eval_sh(dc, 0, np.array([[0, 0, 1.0]]))
        np.testing.assert_allclose(c, [[1.0, 0.0, 0.5]])

    def test_degree1_direction_dependence(self):
        sh = np.zeros((1, 12))
        sh[0, :3] = 0.0
        sh[0, 6:9] = 1.0  # z-linear coefficient, all channels
        a = eval_sh(sh, 1, np.array([[0, 0, 1.0]]))
        b = eval_sh(sh, 1, np.array([[0, 0, -1.0]]))
        assert not np.allclose(a, b)


class TestRender:
    def test_empty_set_is_background(self):
        empty = GaussianSet(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)),
                            np.zeros((0, 4)), np.zeros((0, 3)))
        out = render(empty, K, E0, bg=(0.2, 0.4, 0.6))
        np.testing.assert_allclose(out.rgb, np.broadcast_to([0.2, 0.4, 0.6], (64, 64, 3)))
        np.testing.assert_array_equal(out.alpha, 0.0)

    def test_two_splat_compositing_recurrence(self):
        # front red then back blue, both opacity 0.6 and exactly centered on
        # the principal-point pixel: out = 0.6 red + (1 - 0.6) * 0.6 blue
        gset = make_set(
            [[0, 0, 2.0], [0, 0, 4.0]],
            [[1, 0, 0], [0, 0, 1]],
            [0.6, 0.6],
            [[0.05] * 3, [0.1] * 3],
        )
        out = render(gset, K, E0)
        np.testing.assert_allclose(out.rgb[32, 32], [0.6, 0.0, 0.24], atol=1e-6)
        assert out.alpha[32, 32] == pytest.approx(1 - 0.4 * 0.4, abs=1e-6)

    def test_white_scene_rgb_equals_alpha(self):
        rng = np.random.default_rng(0)
        n = 40
        gset = make_set(
            np.c_[rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(1.5, 4.0, n)],
            np.ones((n, 3)),
            rng.uniform(0.2, 0.9, n),
            np.full((n, 3), 0.08),
        )
        out = render(gset, K, E0)
        for ch in range(3):
            np.testing.assert_allclose(out.rgb[..., ch], out.alpha, atol=1e-9)
        assert np.all(out.alpha <= 1.0) and np.all(out.alpha >= 0.0)

    def test_order_invariance_bit_exact(self):
        rng = np.random.default_rng(1)
        n = 30
        gset = make_set(
            np.c_[rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(1.0, 5.0, n)],
            rng.uniform(0, 1, (n, 3)),
            rng.uniform(0.1, 0.9, n),
            rng.uniform(0.02, 0.1, (n, 3)),
        )
        perm = rng.permutation(n)
        shuffled = GaussianSet(gset.centers[perm], gset.opacity_logits[perm],
                               gset.log_scales[perm], gset.rotations[perm], gset.sh[perm])
        a = render(gset, K, E0)
        b = render(shuffled, K, E0)
        np.testing.assert_array_equal(a.rgb, b.rgb)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_thread_count_does_not_change_output(self):
        rng = np.random.default_rng(2)
        n = 25
        gset = make_set(
            np.c_[rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.0, 5.0, n)],
            rng.uniform(0, 1, (n, 3)),
            rng.uniform(0.1, 0.9, n),
            rng.uniform(0.02, 0.12, (n, 3)),
        )
        a = render(gset, K, E0, threads=1)
        b = render(gset, K, E0, threads=8)
        np.testing.assert_array_equal(a.rgb, b.rgb)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    @pytest.mark.parametrize("threads", [-1, MAX_THREADS + 1])
    def test_thread_count_out_of_range_raises_before_rendering(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("rendering was started")

        monkeypatch.setattr(renderer, "rasterize", no_pool)
        monkeypatch.setattr(renderer, "_project_all", no_pool)
        gset = make_set([0, 0, 2.0], [1, 0, 0], [0.5], [[0.02] * 3])
        with pytest.raises(InvalidInputError, match="threads must be 0"):
            render(gset, K, E0, threads=threads)

    @pytest.mark.parametrize("bg", [(float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0), (1, 2),
                                    (0.0, 0.0, 0.0, 0.0), (0.0, "0", 0.0), (True, 0.0, 0.0)])
    def test_bad_background_raises_before_rendering(self, monkeypatch, bg):
        def no_pool(*args, **kwargs):
            raise AssertionError("rendering was started")

        monkeypatch.setattr(renderer, "rasterize", no_pool)
        monkeypatch.setattr(renderer, "_project_all", no_pool)
        gset = make_set([0, 0, 2.0], [1, 0, 0], [0.5], [[0.02] * 3])
        with pytest.raises(InvalidInputError, match="render.bg must be 3 finite numbers"):
            render(gset, K, E0, bg=bg)

    @pytest.mark.parametrize("threads,cpus,expect", [(1, 8, 1), (2, 8, 2), (8, 8, 4),
                                                     (0, 3, 3), (0, 8, 4), (0, None, 1)])
    def test_workers_are_capped_by_the_non_empty_tiles(self, monkeypatch, threads, cpus,
                                                        expect):
        # one small splat at the meeting point of four tiles: 4 non-empty tiles
        gset = make_set([0, 0, 2.0], [1, 0, 0], [0.5], [[0.02] * 3])
        seen = []
        on_threads = renderer._on_threads
        monkeypatch.setattr(renderer, "_on_threads", lambda fn, items, workers: (
            seen.append((len(items), workers)), on_threads(fn, items, workers)))
        monkeypatch.setattr(renderer.os, "cpu_count", lambda: cpus)
        out = render(gset, K, E0, threads=threads)
        assert seen == [(4, expect)]
        assert out.rgb.tobytes() == render(gset, K, E0).rgb.tobytes()

    def test_worker_threads_take_every_tile_once_and_raise_the_first_error(self):
        # more workers than cores and a short switch interval, so the threads
        # interleave inside the shared iterator as often as they can
        taken, raised = [], []

        def fail_on_seven(item):
            if item == 7:
                raise ValueError("tile 7")
            taken.append(item)

        def calls():
            renderer._on_threads(taken.append, list(range(2000)), 8)
            assert sorted(taken) == list(range(2000))
            taken.clear()
            with pytest.raises(ValueError, match="tile 7"):
                renderer._on_threads(fail_on_seven, list(range(500)), 8)
            raised.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=calls)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and raised == [True]
        assert sorted(taken) == [i for i in range(500) if i != 7]

    def test_background_composited_with_residual_transmittance(self):
        gset = make_set([0, 0, 2.0], [1, 0, 0], [0.5], [[0.02] * 3])
        out = render(gset, K, E0, bg=(0.0, 1.0, 0.0))
        # far corner: untouched -> pure background
        np.testing.assert_allclose(out.rgb[0, 0], [0.0, 1.0, 0.0], atol=1e-9)
        # center: red over green with alpha ~0.5
        a = out.alpha[32, 32]
        np.testing.assert_allclose(out.rgb[32, 32], [a, 1 - a, 0.0], atol=1e-9)


    def test_any_array_layout_renders_as_a_contiguous_copy(self, kernel_backend):
        rng = np.random.default_rng(21)
        n = 300
        gset = make_set(np.c_[rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.5, 5.0, n)],
                        rng.uniform(0, 1, (n, 3)), rng.uniform(0.05, 0.9, n),
                        rng.uniform(0.02, 0.2, (n, 3)), rng.normal(size=(n, 4)))
        def strided(a):
            return np.repeat(a, 2, axis=0)[::2]

        other = GaussianSet(centers=strided(gset.centers),
                            opacity_logits=strided(gset.opacity_logits),
                            log_scales=np.asfortranarray(gset.log_scales),
                            rotations=np.asfortranarray(gset.rotations), sh=strided(gset.sh))
        assert not any(getattr(other, f).flags.c_contiguous
                       for f in ("centers", "opacity_logits", "log_scales", "rotations", "sh"))
        # every splat in front, then some behind the near plane
        for E in (E0, Extrinsics(np.eye(3), np.array([0.1, 0.0, 3.0]))):
            want, got = render(gset, K, E), render(other, K, E)
            assert got.rgb.tobytes() == want.rgb.tobytes()
            assert got.alpha.tobytes() == want.alpha.tobytes()

    def test_splat_past_the_int64_tile_range_covers_every_tile(self, kernel_backend):
        # log-scale 80 at z = 2: a finite radius of ~3e36 px, whose tile
        # bounds lie past the int64 range; it must cover all 4 x 4 tiles of
        # the frame (and raise no RuntimeWarning: they are errors here)
        gset = GaussianSet(centers=np.array([[0.0, 0.0, 2.0]]), opacity_logits=np.zeros(1),
                           log_scales=np.full((1, 3), 80.0), rotations=np.array([[1.0, 0, 0, 0]]),
                           sh=np.zeros((1, 3)))
        radius = renderer._project_all(gset, K, E0)[5]
        assert radius.size == 1 and radius[0] > 1e36
        out = render(gset, K, E0)
        np.testing.assert_allclose(out.alpha, 0.5, rtol=1e-12)


class TestBackendAgreement:
    def test_numpy_and_compiled_kernels_match(self, c_composite):
        from volsplat._kernels import _composite_np

        rng = np.random.default_rng(3)
        n = 50
        means = rng.uniform(-4, 20, (n, 2))
        conics = np.zeros((n, 3))
        conics[:, 0] = rng.uniform(0.05, 2.0, n)
        conics[:, 2] = rng.uniform(0.05, 2.0, n)
        conics[:, 1] = rng.uniform(-0.1, 0.1, n) * np.sqrt(conics[:, 0] * conics[:, 2])
        colors = rng.uniform(0, 1, (n, 3))
        ops = rng.uniform(0.05, 0.99, n)
        rgb_a = np.zeros((16, 16, 3)); t_a = np.ones((16, 16))
        rgb_b = np.zeros((16, 16, 3)); t_b = np.ones((16, 16))
        _composite_np.composite_tile(means, conics, colors, ops, 0, 0, rgb_a, t_a)
        c_composite(means, conics, colors, ops, 0, 0, rgb_b, t_b)
        np.testing.assert_allclose(rgb_b, rgb_a, atol=1e-12)
        np.testing.assert_allclose(t_b, t_a, atol=1e-12)

    def test_backends_render_the_same_frame(self, c_composite, monkeypatch):
        from volsplat import renderer
        from volsplat._kernels import _composite_np

        rng = np.random.default_rng(12)
        n = 800
        gset = make_set(
            np.c_[rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.5, 5.0, n)],
            rng.uniform(0, 1, (n, 3)), rng.uniform(0.05, 0.95, n),
            rng.uniform(0.02, 0.2, (n, 3)),
        )
        outs = []
        for kernel in (_composite_np.composite_tile, c_composite):
            monkeypatch.setattr(renderer, "composite_tile", kernel)
            outs.append(render(gset, K, E0, bg=(0.2, 0.4, 0.6), threads=2))
        np.testing.assert_allclose(outs[1].rgb, outs[0].rgb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(outs[1].alpha, outs[0].alpha, rtol=0, atol=1e-12)


class TestDeterminismOnBothBackends:
    def test_thread_count_and_splat_order_do_not_change_output(self, kernel_backend):
        rng = np.random.default_rng(13)
        n = 1500
        centers = np.c_[rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.5, 5.0, n)]
        colors = rng.uniform(0, 1, (n, 3))
        ops = rng.uniform(0.02, 0.6, n)
        scales = rng.uniform(0.05, 0.2, (n, 3))
        outs = [render(make_set(centers, colors, ops, scales), K, E0, threads=t)
                for t in (1, 2, 8)]
        perm = rng.permutation(n)
        outs.append(render(make_set(centers[perm], colors[perm], ops[perm], scales[perm]),
                           K, E0, threads=2))
        for out in outs[1:]:
            assert out.rgb.tobytes() == outs[0].rgb.tobytes()
            assert out.alpha.tobytes() == outs[0].alpha.tobytes()


class TestMetrics:
    def test_identical_images(self):
        img = np.random.default_rng(4).uniform(size=(32, 32, 3))
        m = compute_image_metrics(img, img)
        assert m["mse"] == 0.0
        assert m["psnr"] == PSNR_CAP
        assert m["ssim"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_offset_closed_form(self):
        a = np.full((16, 16, 3), 0.5)
        b = np.full((16, 16, 3), 0.6)
        m = compute_image_metrics(a, b)
        assert m["mse"] == pytest.approx(0.01, rel=1e-12)
        assert m["psnr"] == pytest.approx(20.0, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            compute_image_metrics(np.zeros((4, 4, 3)), np.zeros((5, 5, 3)))

    def test_ssim_matches_naive_oracle(self):
        """A direct 11x11 window against the separable blur, on images larger
        and smaller than the window; the small ones mirror more than once."""
        r = 5
        g = np.exp(-0.5 * (np.arange(-r, r + 1) / 1.5) ** 2)
        k = np.outer(g, g)
        k /= k.sum()

        def mirror(i, n):
            # scipy's "reflect": the edge sample is repeated, period 2n
            i = np.mod(i, 2 * n)
            return np.where(i < n, i, 2 * n - 1 - i)

        def blur(x):
            h, w = x.shape
            taps = np.arange(-r, r + 1)
            rows = mirror(np.arange(h)[:, None] + taps, h)
            cols = mirror(np.arange(w)[:, None] + taps, w)
            windows = x[rows[:, None, :, None], cols[None, :, None, :]]  # h, w, 11, 11
            return np.sum(windows * k, axis=(2, 3))

        rng = np.random.default_rng(5)
        for shape in [(64, 64), (48, 32), (20, 20), (11, 11), (5, 7), (3, 3), (2, 9), (1, 1)]:
            a = rng.uniform(size=shape)
            b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
            mx, my = blur(a), blur(b)
            sxx = blur(a * a) - mx * mx
            syy = blur(b * b) - my * my
            sxy = blur(a * b) - mx * my
            c1, c2 = 0.01**2, 0.03**2
            expect = np.mean(((2 * mx * my + c1) * (2 * sxy + c2))
                             / ((mx**2 + my**2 + c1) * (sxx + syy + c2)))
            assert ssim(a, b) == pytest.approx(expect, abs=1e-12), shape

    def test_combined_loss(self):
        a = [np.zeros((4, 4, 3)), np.full((4, 4, 3), 0.5)]
        b = [np.zeros((4, 4, 3)), np.full((4, 4, 3), 0.5)]
        assert combined_loss(a, b) == 0.0
        c = [np.zeros((4, 4, 3)), np.full((4, 4, 3), 0.6)]
        assert combined_loss(a, c) == pytest.approx(0.01, rel=1e-12)
        with pytest.raises(InvalidInputError):
            combined_loss(a, a[:1])


class TestPpm:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        quantized = rng.integers(0, 256, (12, 9, 3)).astype(float) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, quantized)
        back = read_ppm(path)
        np.testing.assert_array_equal(back, quantized)

    def test_rounds_half_up(self, tmp_path):
        img = np.full((1, 1, 3), 0.5 / 255.0)  # exactly halfway between 0 and 1
        path = tmp_path / "h.ppm"
        write_ppm(path, img)
        assert path.read_bytes()[-3:] == b"\x01\x01\x01"

    @pytest.mark.parametrize("first", [9, 10, 13, 32])
    def test_payload_starting_with_whitespace_byte(self, tmp_path, first):
        img = np.zeros((2, 3, 3))
        img[0, 0, 0] = first / 255.0
        path = tmp_path / "ws.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(47))
        with pytest.raises(FormatError, match="47 payload bytes"):
            read_ppm(path)

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(InvalidInputError):
            read_ppm(path)

    @pytest.mark.parametrize("width", [b"1" * 19, b"1" * 5000])
    def test_rejects_side_of_more_than_18_digits(self, tmp_path, width):
        path = tmp_path / "wide.ppm"
        path.write_bytes(b"P6\n" + width + b" 1\n255\n" + bytes(3))
        with pytest.raises(InvalidInputError, match="expected binary P6"):
            read_ppm(path)

    def test_side_of_18_digits_is_a_short_payload(self, tmp_path):
        path = tmp_path / "wide.ppm"
        path.write_bytes(b"P6\n" + b"9" * 18 + b" 1\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="3 payload bytes"):
            read_ppm(path)
