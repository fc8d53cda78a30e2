import numpy as np
import pytest
from scipy.ndimage import correlate1d

from cassi import metrics
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
    """Per-band PSNR, SSIM and MSE, and MSE of the clamped pair, with fresh
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
    return psnr_db, ssim_values, band_mse, float(np.mean((a - b) ** 2))


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

