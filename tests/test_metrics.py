import gc
import re
import weakref

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from cassi import _pool, metrics
from cassi import (
    DimensionMismatch,
    HSICube,
    SceneConfig,
    add_shot_noise,
    NoiseSpec,
    Measurement,
    evaluate,
    gen_scene,
    psnr,
    psnr_bands,
    ssim,
    ssim_bands,
)

from conftest import traced_peak

CFG = SceneConfig(16, 16, 3, 1)


def cube_of(value):
    return HSICube(CFG, np.full((3, 16, 16), float(value)))


class TestPsnr:
    def test_identical_cubes_hit_cap(self):
        cube = gen_scene(CFG, 4, seed=1)
        assert psnr(cube, cube) == 100.0
        assert all(p == 100.0 for p in psnr_bands(cube, cube))

    def test_uniform_offset_closed_form(self):
        # |difference| 0.1 everywhere: MSE 0.01, 20 dB per band and mean
        a = cube_of(0.4)
        b = cube_of(0.5)
        np.testing.assert_allclose(psnr_bands(a, b), 20.0, rtol=1e-12)
        assert abs(psnr(a, b) - 20.0) < 1e-12

    def test_full_scale_error_is_zero_db(self):
        assert abs(psnr(cube_of(0.0), cube_of(1.0))) < 1e-12

    def test_symmetry(self):
        a = gen_scene(CFG, 4, seed=2)
        b = gen_scene(CFG, 4, seed=3)
        assert psnr(a, b) == psnr(b, a)

    def test_clamps_before_comparison(self):
        a = HSICube(CFG, np.full((3, 16, 16), 2.0))  # clamps to 1.0
        b = cube_of(1.0)
        assert psnr(a, b) == 100.0

    def test_dimension_mismatch(self):
        other = HSICube(SceneConfig(16, 17, 3, 1), np.zeros((3, 16, 17)))
        with pytest.raises(DimensionMismatch):
            psnr(cube_of(0.5), other)


class TestSsim:
    def test_identical_cubes_are_one(self):
        cube = gen_scene(CFG, 5, seed=4)
        assert ssim(cube, cube) == 1.0

    def test_constant_pair_closed_form(self):
        # zero variance leaves only the luminance term:
        # (2*0.5*0.6 + 1e-4) / (0.25 + 0.36 + 1e-4)
        expected = (2 * 0.5 * 0.6 + 1e-4) / (0.25 + 0.36 + 1e-4)
        value = ssim(cube_of(0.5), cube_of(0.6))
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.98361) < 5e-6

    def test_contrast_inversion_scores_low(self):
        cube = gen_scene(CFG, 8, seed=5)
        inverted = HSICube(CFG, 1.0 - cube.data)
        assert ssim(cube, inverted) < 0.5

    def test_symmetry(self):
        a = gen_scene(CFG, 4, seed=6)
        b = gen_scene(CFG, 4, seed=7)
        assert ssim(a, b) == ssim(b, a)

    def test_window_requires_11_pixels(self):
        small = SceneConfig(8, 8, 1, 1)
        cube = HSICube(small, np.zeros((1, 8, 8)))
        with pytest.raises(DimensionMismatch):
            ssim(cube, cube)


def brute_force_ssim_plane(a, b):
    """Mean SSIM over every valid 11x11 window, summed window by window
    with the normalised outer-product Gaussian (sigma 1.5)."""
    offsets = np.arange(11) - 5.0
    g = np.exp(-(offsets**2) / (2.0 * 1.5**2))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = 0.01**2, 0.03**2
    values = []
    for i in range(a.shape[0] - 10):
        for j in range(a.shape[1] - 10):
            pa = a[i : i + 11, j : j + 11]
            pb = b[i : i + 11, j : j + 11]
            mu_a, mu_b = np.sum(win * pa), np.sum(win * pb)
            var_a = np.sum(win * pa * pa) - mu_a**2
            var_b = np.sum(win * pb * pb) - mu_b**2
            cov = np.sum(win * pa * pb) - mu_a * mu_b
            values.append(
                (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(values))


class TestSsimReference:
    @pytest.mark.parametrize("h,w", [(11, 11), (11, 37), (40, 23)])
    def test_matches_brute_force_window_sum(self, h, w):
        config = SceneConfig(h, w, 2, 1)
        rng = np.random.Generator(np.random.Philox(h * 100 + w))
        ref = rng.random((2, h, w))
        test = np.clip(ref + 0.2 * rng.standard_normal((2, h, w)), 0.0, 1.0)
        got = ssim_bands(HSICube(config, ref), HSICube(config, test))
        expected = [brute_force_ssim_plane(ref[c], test[c]) for c in range(2)]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestEvaluate:
    def test_report_means_match_per_band(self):
        a = gen_scene(CFG, 5, seed=8)
        b = gen_scene(CFG, 5, seed=9)
        report = evaluate(a, b)
        assert report.psnr_db == pytest.approx(np.mean(report.per_band_psnr))
        assert report.ssim == pytest.approx(np.mean(report.per_band_ssim))
        assert len(report.per_band_psnr) == CFG.bands
        assert report.mse >= 0.0

    def test_mse_is_whole_cube(self):
        a = cube_of(0.2)
        b = cube_of(0.3)
        assert evaluate(a, b).mse == pytest.approx(0.01)

    def test_noise_monotonically_degrades_psnr(self):
        # Increasing shot-noise variance strictly drops PSNR of the noisy
        # measurement embedded as a single-band cube.
        config = SceneConfig(32, 32, 1, 1)
        scene = gen_scene(config, 6, seed=10)
        meas = Measurement(
            SceneConfig(32, 32, 1, 1), scene.data[0]
        )
        values = []
        for bits in (14, 11, 8, 5):
            noisy = add_shot_noise(meas, NoiseSpec(shot_bits=bits, seed=11))
            noisy_cube = HSICube(config, noisy.data[None])
            values.append(psnr(scene, noisy_cube))
        assert values == sorted(values, reverse=True)

    def test_per_band_values_equal_the_public_functions(self):
        # evaluate clamps the pair once; its per-band values must be the
        # bits psnr_bands and ssim_bands give, including out-of-range input.
        rng = np.random.Generator(np.random.Philox(12))
        a = HSICube(CFG, rng.normal(0.5, 0.4, (3, 16, 16)))
        b = HSICube(CFG, rng.normal(0.5, 0.4, (3, 16, 16)))
        report = evaluate(a, b)
        assert report.per_band_psnr == tuple(float(x) for x in psnr_bands(a, b))
        assert report.per_band_ssim == tuple(float(x) for x in ssim_bands(a, b))
        assert report.psnr_db == psnr(a, b)
        assert report.ssim == ssim(a, b)


def reference_scores(a, b):
    """Per-band PSNR, SSIM and MSE, and the band mean of the MSE, with fresh
    temporaries, one band at a time and an out-of-place first window pass:
    the arithmetic, in the order, that the pooled kernels must reproduce."""
    a, b = np.clip(a, 0.0, 1.0), np.clip(b, 0.0, 1.0)
    psnr_db, ssim_values, band_mse = [], [], []
    for c in range(a.shape[0]):
        mse = float(np.mean((a[c] - b[c]) ** 2))
        band_mse.append(mse)
        psnr_db.append(100.0 if mse == 0.0 else 10.0 * np.log10(1.0 / mse))
        stack = np.stack((a[c], b[c], a[c] * a[c], b[c] * b[c], a[c] * b[c]))
        means = correlate1d(stack, metrics._WINDOW, axis=-2)
        correlate1d(means, metrics._WINDOW, axis=-1, output=means)
        mu_a, mu_b, e_aa, e_bb, e_ab = means[:, 5:-5, 5:-5]
        var_a = e_aa - mu_a * mu_a
        var_b = e_bb - mu_b * mu_b
        cov = e_ab - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + 0.01**2) * (2.0 * cov + 0.03**2)
        den = (mu_a * mu_a + mu_b * mu_b + 0.01**2) * (var_a + var_b + 0.03**2)
        ssim_values.append(float(np.mean(num / den)))
    return psnr_db, ssim_values, band_mse, float(np.mean(band_mse))


def noisy_pair(shape, seed):
    c, h, w = shape
    config = SceneConfig(h, w, c, 1)
    rng = np.random.Generator(np.random.Philox(seed))
    ref = rng.random(shape)
    test = ref + 0.2 * rng.standard_normal(shape)  # some values out of [0, 1]
    return HSICube(config, ref), HSICube(config, test)


class TestScoresOnKernelPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape", [(3, 181, 181), (5, 256, 256), (8, 32, 32), (1, 11, 11)]
    )
    def test_bytes_equal_the_reference_for_any_pool_size(
        self, shape, workers, kernel_pool
    ):
        kernel_pool(workers)
        ref, test = noisy_pair(shape, sum(shape))
        psnr_db, ssim_values, band_mse, mse = reference_scores(ref.data, test.data)
        report = evaluate(ref, test)
        assert report.per_band_psnr == tuple(psnr_db)
        assert report.per_band_ssim == tuple(ssim_values)
        assert report.per_band_mse == tuple(band_mse)
        assert report.mse == mse
        assert tuple(ssim_bands(ref, test)) == tuple(ssim_values)
        assert tuple(psnr_bands(ref, test)) == tuple(psnr_db)

    @staticmethod
    def assert_reference_bytes(ref, test):
        psnr_db, ssim_values, band_mse, mse = reference_scores(ref.data, test.data)
        report = evaluate(ref, test)
        assert report.per_band_psnr == tuple(psnr_db)
        assert report.per_band_ssim == tuple(ssim_values)
        assert report.per_band_mse == tuple(band_mse)
        assert report.mse == mse
        assert tuple(ssim_bands(ref, test)) == tuple(ssim_values)
        assert tuple(psnr_bands(ref, test)) == tuple(psnr_db)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_bytes_equal_the_reference_for_any_block_budget(
        self, block, workers, kernel_pool, monkeypatch
    ):
        # A budget of ``block`` seven-plane workspaces splits 8x32x32 into
        # blocks of that many bands (the last one shorter).
        kernel_pool(workers)
        c, h, w = 8, 32, 32
        monkeypatch.setattr(_pool, "BLOCK_BYTES", block * 7 * h * w * 8)
        blocks = []
        run_band_spans = metrics.run_band_spans

        def recording(task, n, size):
            blocks.append(size)
            run_band_spans(task, n, size)

        monkeypatch.setattr(metrics, "run_band_spans", recording)
        self.assert_reference_bytes(*noisy_pair((c, h, w), 60 + block))
        assert set(blocks) == {block}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, _pool.BLOCK_BYTES])
    @pytest.mark.parametrize("shape", [(1, 11, 11), (2, 11, 40), (3, 40, 11), (2, 12, 12)])
    def test_edge_shapes_equal_the_reference(
        self, shape, budget, workers, kernel_pool, monkeypatch
    ):
        # Planes one window high or wide, one band per block or the whole
        # stack in one block, so window sums cross row and band edges.
        kernel_pool(workers)
        monkeypatch.setattr(_pool, "BLOCK_BYTES", budget)
        self.assert_reference_bytes(*noisy_pair(shape, 70 + sum(shape)))


class TestBandsBelowTheWindow:
    def test_psnr_bands_scores_8x8_bands(self):
        ref, test = noisy_pair((2, 8, 8), 80)
        a, b = np.clip(ref.data, 0.0, 1.0), np.clip(test.data, 0.0, 1.0)
        mse = [float(np.mean((a[c] - b[c]) ** 2)) for c in range(2)]
        assert tuple(psnr_bands(ref, test)) == tuple(
            10.0 * np.log10(1.0 / m) for m in mse
        )

    @pytest.mark.parametrize("fn", [ssim, ssim_bands, evaluate])
    @pytest.mark.parametrize("h,w", [(8, 8), (10, 12), (12, 10)])
    def test_ssim_rejects_them_with_the_same_message(self, fn, h, w):
        ref, test = noisy_pair((2, h, w), 81)
        message = f"bands of shape {(h, w)} are smaller than the 11x11 ssim window"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            fn(ref, test)

    @pytest.mark.parametrize("fn", [psnr_bands, ssim_bands, evaluate])
    def test_shape_mismatch_message(self, fn):
        other = HSICube(SceneConfig(16, 17, 3, 1), np.zeros((3, 16, 17)))
        message = "cube shapes differ: (3, 16, 16) vs (3, 16, 17)"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            fn(cube_of(0.5), other)


class TestEvaluateMemory:
    def test_peak_is_at_most_two_cubes(self, kernel_pool):
        # One span's seven-plane workspace; neither the clamped pair nor
        # the squared error is ever a whole cube.
        kernel_pool(1)
        ref, test = noisy_pair((16, 96, 96), 82)
        _, peak = traced_peak(lambda: evaluate(ref, test))
        assert peak <= 2.0 * ref.data.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_is_below_one_cube(self, workers, kernel_pool):
        # One seven-plane workspace per span, and no squared-error cube: a
        # block's squared error lives in a workspace row.  64 KiB covers
        # the per-band lists and Python objects.
        kernel_pool(workers)
        c, h, w = 16, 96, 96
        block = _pool.band_block(c, 7 * h, w)
        spans = min(workers, -(-c // block))
        assert spans == workers
        ref, test = noisy_pair((c, h, w), 82)
        bound = spans * 7 * 8 * block * h * w + 64 * 1024
        assert bound < ref.data.nbytes
        _, peak = traced_peak(lambda: evaluate(ref, test))
        assert peak <= bound

    def test_test_cube_dies_with_its_last_reference(self, kernel_pool):
        # With the cyclic collector off, a reference cycle through the
        # inputs (such as a recursive closure) would keep them alive.
        kernel_pool(2)
        ref, test = noisy_pair((16, 96, 96), 83)
        enabled = gc.isenabled()
        gc.disable()
        try:
            report = evaluate(ref, test)
            data = weakref.ref(test.data)
            del test
            assert data() is None
            assert report.mse > 0.0
        finally:
            if enabled:
                gc.enable()


class TestWholeCubeMse:
    """The whole-cube MSE is the band mean of the per-band MSE, which every
    band's equal pixel count makes the MSE of the clamped pair; its last
    bits may differ from ``np.mean`` of the squared-error cube."""

    SIZES = [1, 7, 8, 9, 127, 128, 129, 136, 140, 255, 256, 257, 1000, 1031,
             4096, 4099, 65536, 65545, 3 * 181 * 181, 16 * 96 * 96]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("cut", [1, 20, 128, 1000, 181 * 181, 1 << 20])
    def test_tree_sums_like_numpy(self, n, cut):
        # A band's MSE (and SSIM) is np.mean of its run cut from a block's
        # workspace row at a band offset; the reference takes np.mean of a
        # fresh array.  They agree bitwise only while numpy adds the run
        # over the same pairwise tree whatever its offset, and so its
        # alignment.  Values spread over 16 decades make almost any other
        # order of addition round differently.
        rng = np.random.Generator(np.random.Philox(n))
        x = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
        row = np.zeros(cut + n + 7)
        run = row[cut : cut + n]
        run[:] = x
        assert float(np.sum(run)) == float(np.sum(x))
        assert float(np.mean(run)) == float(np.mean(x))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3, 8])
    @pytest.mark.parametrize("shape", [(3, 181, 181), (7, 5, 4), (9, 12, 13)])
    def test_equals_np_mean_for_any_block_budget(
        self, shape, block, workers, kernel_pool, monkeypatch
    ):
        # Blocks of ``block`` bands, whatever the pool size.
        kernel_pool(workers)
        c, h, w = shape
        monkeypatch.setattr(_pool, "BLOCK_BYTES", block * 7 * h * w * 8)
        ref, test = noisy_pair(shape, 90 + block)
        a, b = np.clip(ref.data, 0.0, 1.0), np.clip(test.data, 0.0, 1.0)
        band_mse, _ = metrics._band_pass(ref, test, ssim=False)
        assert band_mse == [float(np.mean((a[k] - b[k]) ** 2)) for k in range(c)]
        if min(h, w) >= 11:
            report = evaluate(ref, test)
            assert report.per_band_mse == tuple(band_mse)
            assert report.mse == float(np.mean(band_mse))
            assert report.mse == pytest.approx(np.mean((a - b) ** 2), rel=1e-14)

    def test_band_mean_is_not_the_cube_mean_bitwise(self):
        # A pair where the two summation orders round one ulp apart.
        ref, test = noisy_pair((3, 16, 16), 103)
        a, b = np.clip(ref.data, 0.0, 1.0), np.clip(test.data, 0.0, 1.0)
        report = evaluate(ref, test)
        assert report.mse == float.fromhex("0x1.028ef46ead226p-5")
        assert float(np.mean((a - b) ** 2)) == float.fromhex("0x1.028ef46ead227p-5")
